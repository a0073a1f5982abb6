"""The lockstep transient engine: advance N circuits per step.

The EMC assessment workflow is a *grid* workload: one driver swept over
corners, bit patterns, load topologies and load values.  Run serially, an
N-scenario study costs N times a single transient even though every member
marches the same time grid through the same nonlinear elements.  This module
assembles a group of circuits sharing one nonlinear skeleton
(:func:`batch_signature`) **once** and advances all members per time step
with a leading "scenario" array axis:

* per-member base matrices stack into one ``(N, size, size)`` tensor, the
  smaller members padded to the largest (:class:`_Pad`), inverted once
  per group (the matrix is constant over the run), so each step's linear
  solve is one product: an ``einsum`` straight into the unknown-major
  layout of the Newton arrays, or beyond two ports (the transistor-level
  device banks) and in linear groups a batched matmul,
* per-member :class:`~repro.circuit.mna.SourceTable` objects merge into one
  :class:`~repro.circuit.mna.StackedSourceTable`,
* companion/line histories live in shared struct-of-arrays groups
  (:mod:`repro.circuit.companion` with per-element index offsets into a flat
  ``(N * size,)`` view of the batch state),
* the nonlinear elements of the bench (the paper's pw-RBF driver, the
  receiver macromodel, the MOSFETs and diodes of the transistor-level
  reference devices) are evaluated through vectorized *banks*
  (``batch_bank``, one per element class).  Each element's Newton update
  has rank one: a current along ``u = e_p - e_n`` controlled by a few
  voltage differences.  The K distinct ``u`` columns enter a
  Sherman-Morrison-Woodbury update of the constant linear network (see
  :class:`_Ports`), iterating all members' damped Newton loops in
  lockstep with per-member freezing,
* members may stop at different times: the group runs the longest grid and
  a member whose run has ended is frozen,
* the DC operating point is one lockstep Newton too: the stacked DC bases
  invert once and the banks evaluate their elements' DC branches; a
  member whose plain Newton fails continues on a lockstep gmin/source-
  stepping ladder (groups of transistor-level MOSFET benches take the
  serial operating point instead, see :func:`_operating_points`).

This is the one transient engine: every nonlinear element provides a
``batch_bank`` (a circuit holding one that does not is rejected with a
:class:`CircuitError` naming it).
:func:`~repro.circuit.transient.run_transient` runs a lone circuit as a
batch of one, and :func:`~repro.circuit.dcop.solve_dcop` takes the DC
point of a circuit holding an element without a scalar stamp (all but
the transistor-level MOSFETs and diodes) from here.  A group that cannot
advance together (different nonlinear skeletons, bank-incompatible
members, a singular DC matrix) runs member by member, each a batch of
one.

Line waves live only in a run's companion groups, so a linear circuit may
be solved again after a run -- at DC or transient -- and gets a fresh
circuit's result.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import CircuitError, ConvergenceError, SingularMatrixError
from ..obs import get_metrics, get_tracer
from .companion import build_companion_groups
from .elements.bank import index_of, pick, scatter
from .dcop import GMIN_STEPS, solve_dcop
from .mna import MNASystem, StackedSourceTable
from .netlist import Circuit
from .newton import NewtonOptions
from .transient import (TransientOptions, TransientResult, _check_systems,
                        _initial_solution)

__all__ = ["batch_signature", "operating_point", "run_transient_batch"]


def _element_signature(el) -> tuple:
    return (type(el).__qualname__, tuple(el.nodes), el.n_branch,
            getattr(el, "n", None))


def batch_signature(circuit: Circuit) -> tuple:
    """Hashable nonlinear skeleton deciding batch compatibility.

    Two circuits with equal signatures hold the same nonlinear elements
    (type, node indices, branch count and ``n``) in the same order, so
    their banks line up member by member.  The linear network is left
    out: members may differ in its element kinds, count, wiring and MNA
    size (smaller members are padded, see :class:`_Pad`), since the
    lockstep Newton sees each member only through its own port-reduced
    linear network.  Parameter *values* (resistances, line impedances,
    model weights) are excluded too -- they are exactly what varies
    across a batch.
    """
    return tuple(_element_signature(el) for el in circuit.elements
                 if el.nonlinear)


def _topology(circuit: Circuit) -> tuple:
    """The whole netlist's structure (the linear network included): the
    ``topologies`` a fused group counts."""
    return (circuit.n_nodes,
            *(_element_signature(el) for el in circuit.elements))


def _check_banks(circuit: Circuit) -> None:
    """Raise :class:`CircuitError` naming the first nonlinear element of
    ``circuit`` without a ``batch_bank``: the lockstep engine, the only
    one, cannot evaluate it."""
    for el in circuit.elements:
        if el.nonlinear and getattr(type(el), "batch_bank", None) is None:
            raise CircuitError(
                f"{type(el).__qualname__} {el.name!r} provides no "
                f"batch_bank; no engine can run {circuit.title!r}")


def _make_banks(systems: list) -> list:
    """The vectorized banks of the group's nonlinear elements.

    Each element class gets the ``(E, N)`` grid of its elements -- its
    ``E`` positions in the bench, one row of ``N`` members each -- and
    returns its banks: the transistor-level devices bank every position
    in one bank, the macromodel ports bank each position on its own.
    Raises :class:`CircuitError` naming the element class when the
    members' nonlinear elements are structurally compatible but not
    bank-compatible (different sampling times or model orders, for
    instance); the caller turns that into a per-member fallback.
    """
    rows: dict = {}
    for j, el in enumerate(systems[0]._nl):
        rows.setdefault(type(el), []).append([s._nl[j] for s in systems])
    banks = []
    for cls, grid in rows.items():
        made = cls.batch_bank(grid)
        if made is None:
            raise CircuitError(f"the {cls.__qualname__} elements are not "
                               "bank-compatible")
        banks.extend(made)
    return banks


class _Pad:
    """How the members of a fused group share one padded system.

    The members may differ in their linear networks and MNA sizes.  The
    engine orders them largest first, so each size is one run of
    members, ``classes`` its ``(size, members slice)`` pairs.  Each
    member's matrix embeds in the identity of the group's ``size`` and
    its vectors pad with zeros, so a padded unknown solves to 0.  A
    member's inverse and its products with it are formed at its own
    size (:meth:`inv`, :meth:`solve`), on views of the padded arrays, so
    its bits do not depend on which members it is grouped with.
    ``node_mask`` marks each member's node rows, ``(size, N)``, and
    ``n_nodes`` is the largest node count.
    """

    def __init__(self, systems: list):
        sizes = [s.size for s in systems]
        self.size = max(sizes)
        self.n_members = len(systems)
        self.classes = []
        lo = 0
        for size in sorted(set(sizes), reverse=True):
            hi = lo + sizes.count(size)
            self.classes.append((size, slice(lo, hi)))
            lo = hi
        self.padded = sum(self.size - n for n in sizes)
        n_nodes = [s.n_nodes for s in systems]
        self.n_nodes = max(n_nodes)
        self.node_mask = np.arange(self.size)[:, None] < np.array(n_nodes)

    def stack(self, rows: list) -> np.ndarray:
        """The members' own arrays, ``(N, size)`` vectors or ``(N, size,
        size)`` matrices embedded in the identity."""
        shape = (self.n_members, *(self.size,) * rows[0].ndim)
        out = np.zeros(shape) if rows[0].ndim == 1 \
            else np.broadcast_to(np.eye(self.size), shape).copy()
        for m, row in enumerate(rows):
            out[(m, *(slice(0, row.shape[0]),) * row.ndim)] = row
        return out

    def inv(self, A: np.ndarray) -> np.ndarray:
        """Each member's inverse at its own size, embedded in the
        identity; raises ``LinAlgError`` for a singular one."""
        out = np.broadcast_to(np.eye(self.size), A.shape).copy()
        for n, sl in self.classes:
            out[sl, :n, :n] = np.linalg.inv(A[sl, :n, :n])
        return out

    def solve(self, A_inv: np.ndarray, B: np.ndarray,
              blas: bool) -> np.ndarray:
        """``A^-1 b`` of every member, unknown-major ``(size, N)``, from
        the inverses ``A_inv`` and right-hand sides ``B`` (N, size): by
        BLAS's batched matmul, else one einsum per size.  It runs every
        step, so a group of one size skips the padded buffer."""
        if len(self.classes) == 1:
            if blas:
                return np.matmul(A_inv, B[:, :, None])[:, :, 0].T
            return np.einsum("nij,nj->in", A_inv, B)
        Y = np.zeros((self.size, self.n_members))
        for n, sl in self.classes:
            if blas:
                Y[:n, sl] = np.matmul(A_inv[sl, :n, :n],
                                      B[sl, :n, None])[:, :, 0].T
            else:
                np.einsum("nij,nj->in", A_inv[sl, :n, :n], B[sl, :n],
                          out=Y[:n, sl])
        return Y


def _slot(idx: list):
    """A bank's positions among the columns or terms: a slice (a view)
    for a run, else an index array."""
    if idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx)


class _Ports:
    """The banks of a group as K rank-one updates of the linear network.

    A bank column is a current along ``u = e_p - e_n`` (from node ``p``
    through the device to node ``n``; ground is -1) whose linearization
    is ``ieq + sum_t c_t v_t`` over the column's control terms ``v_t =
    x_a - x_b``: a one-port macromodel is ``u = e_node`` with the one
    term ``v = x_node`` and ``c = g``; a MOSFET is ``u = e_d - e_s`` with
    ``gm`` on ``(g, s)`` and ``gds`` on ``(d, s)``; a diode ``u = e_a -
    e_b`` with ``g`` on ``(a, b)``.  Columns with the same ``u`` merge
    (banks on one node, the fingers of a driver stage), and so do their
    identical terms.  ``Z`` (K, size, N) holds each member's columns
    ``A^-1 u``, ``D`` (T, K, N) the control differences of those columns
    and ``S`` (T, T, N) the columns of ``D`` per term, ``S[t, t'] = D[t,
    col(t')]``, all unknown-major, one column per member; beyond K = 2
    (T = 2) ``Z`` (``S``) is member-major, (N, size, K) ((N, T, T)), the
    layout BLAS (LAPACK) takes per member.  Each
    Newton pass then solves the T x T system ``I + S diag(c)`` -- the
    push-through form of the K x K Woodbury system ``I + V^T Z``, which
    for one-term columns (every macromodel port) is the serial path's
    system itself.

    Built once per group with the Newton options of its analysis and
    the group's :class:`_Pad`, it also holds what every :meth:`newton`
    call of the group shares: the absolute tolerance of every unknown
    (each member's own node rows take the voltage tolerance) and the
    ``|delta|`` buffer of the members' last pass.
    """

    def __init__(self, banks: list, A_inv: np.ndarray, pad: _Pad, opts):
        self.banks = banks
        cols: list = []
        terms: list = []
        self.slots = []
        for bank in banks:
            cs = [index_of(cols, u) for u in bank.cols]
            ts = [index_of(terms, (cs[k], a, b)) for k, a, b in bank.terms]
            self.slots.append((_slot(cs), _slot(ts)))
        self.n_ports = K = len(cols)
        self.n_terms = T = len(terms)
        p, n = np.array(cols).T
        col, a, b = np.array(terms).T
        Z = pick(A_inv, p, 2) - pick(A_inv, n, 2)
        D = pick(Z, a, 1) - pick(Z, b, 1)
        self.D = np.ascontiguousarray(D.transpose(1, 2, 0))
        # unknown-major for the closed forms and multiply-subtracts of
        # small K and T, member-major (BLAS/LAPACK per member) beyond
        self.Z = np.ascontiguousarray(Z if K > 2 else Z.transpose(2, 1, 0))
        self.S = np.ascontiguousarray(
            self.D[:, col] if T <= 2 else D[:, :, col])
        # term -> column sums (none when term t is column t's only one)
        self.P = None if np.array_equal(col, np.arange(T)) \
            else scatter(col, K)
        self.one = len(banks) == 1
        if (b < 0).all() and (a >= 0).all():
            # every term is the voltage of a node: a row selection (a
            # view for the usual single port)
            self.sel = slice(a[0], a[0] + 1) if T == 1 else _slot(list(a))
            self.Sel = None
        else:
            eye = np.eye(A_inv.shape[1])
            self.Sel = pick(eye, a, 0) - pick(eye, b, 0)
        self.opts = opts
        self.n_nodes = pad.n_nodes
        self.node_mask = pad.node_mask
        self.atol = np.where(pad.node_mask, opts.vabstol, opts.iabstol)
        self.last = np.empty(self.atol.shape)

    def controls(self, X: np.ndarray) -> np.ndarray:
        """Control voltages ``(T, n)`` of the unknowns ``X`` (size, n)."""
        if self.Sel is None:
            return X[self.sel]
        return self.Sel @ X

    def members(self, idx):
        """``(Z, D, S)`` of members ``idx`` (all when None)."""
        if idx is None:
            return self.Z, self.D, self.S
        Z = self.Z[:, :, idx] if self.n_ports <= 2 else self.Z[idx]
        S = self.S[:, :, idx] if self.n_terms <= 2 else self.S[idx]
        return Z, self.D[:, :, idx], S

    def linearize(self, V: np.ndarray, t, active: np.ndarray, idx=None):
        """``(ieq (K, n), c (T, n), limited (n,) or None)`` at control
        voltages ``V`` (T, n) of members ``idx`` (all when None), in the
        transient step at time ``t`` or, when ``t`` is None, at the DC
        operating point; banks that carry limiter state advance their
        ``active`` members only."""
        if t is None:
            if self.one:
                return self.banks[0].linearize_dc(V, active)
            return self._merge(V, "linearize_dc", active)
        if self.one:
            return self.banks[0].linearize(V, t, active, idx)
        return self._merge(V, "linearize", t, active, idx)

    def _merge(self, V: np.ndarray, method: str, *args):
        """Sum the banks' ``method(v, *args)`` on each column and term."""
        ieq = np.zeros((self.n_ports, V.shape[1]))
        c = np.zeros(V.shape)
        limited = None
        for bank, (cs, ts) in zip(self.banks, self.slots):
            ib, cb, lb = getattr(bank, method)(V[ts], *args)
            ieq[cs] += ib
            c[ts] += cb
            if lb is not None:
                limited = lb if limited is None else limited | lb
        return ieq, c, limited

    def newton(self, Y0: np.ndarray, X: np.ndarray, active: np.ndarray,
               t=None, idx=None):
        """Damped Newton over a member subset, all members advanced per
        pass.

        Mirrors :func:`repro.circuit.newton.newton_solve` per member --
        same Woodbury solve, same ``max_dv`` clamp (including the
        recompute-as-``x + delta`` behaviour when a clamp fires), same
        convergence tests against the new iterate, and no convergence on
        a pass where a device limiter engaged -- with converged members
        frozen while the rest keep iterating.  Arrays are unknown-major,
        ``(size, n)`` with one column per member, so every per-member
        test reduces over the short outer axis: ``Y0`` holds the members'
        linear solutions ``A^-1 b`` of the step, ``X`` their starting
        iterate, which the call owns and may overwrite; ``idx`` selects
        the members' columns (all when None).  Each bank column adds its
        linearized current ``ieq + sum_t c_t v_t`` along its ``u``,
        linearized by :meth:`linearize` at time ``t`` (DC when None).
        ``active`` marks the members to iterate; the others (members
        whose run has ended) keep ``X`` and count as converged.

        A pass over all members assigns the new iterate outright; once
        some members have converged (or ended), passes copy it into the
        iterating members only.

        Returns ``(X, failed, last, member_iters, passes)`` over the
        subset: ``failed`` holds the positions of the members that did
        not converge (none, the common case, is an empty array), ``last``
        (size, n) each member's ``|delta|`` of its last pass (infinite
        for a member that never iterated; valid until the next call),
        ``member_iters`` counts member-iterations and ``passes`` lockstep
        passes, for the observability layer.
        """
        opts = self.opts
        n_nodes, max_dv, reltol = self.n_nodes, opts.max_dv, opts.reltol
        Z, D, S = self.members(idx)
        K = self.n_ports
        Y0c = self.controls(Y0)
        n = X.shape[1]
        atol = self.atol if idx is None else self.atol[:, idx]
        live = int(np.count_nonzero(active))
        last = None
        if live < n:    # members that have ended never iterate
            last = self.last if idx is None else np.empty(X.shape)
            last.fill(np.inf)
        member_iters = passes = 0
        while live and passes < opts.max_iter:
            passes += 1
            member_iters += live
            ieq, c, limited = self.linearize(self.controls(X), t, active,
                                             idx)
            if K == 1:
                r = Y0c - D[:, 0] * ieq[0]
            else:
                r = Y0c - np.add.reduce(D * ieq[None], axis=1)
            cw = c * _smw_weights(S, c, r)
            col = ieq + (cw if self.P is None else self.P @ cw)
            if K <= 2:
                # a macromodel bench: multiply-subtracts, no BLAS call
                X_new = Y0 - Z[0] * col[0]
                if K == 2:
                    X_new -= Z[1] * col[1]
            else:
                X_new = Y0 - np.matmul(Z, col.T[:, :, None])[:, :, 0].T
            delta = X_new - X
            ad = np.abs(delta)
            # fmax skips NaN, as the elementwise test it stands for does
            if np.fmax.reduce(ad[:n_nodes], axis=None) > max_dv:
                # clip each member's own node rows only
                clip = ad[:n_nodes] > max_dv
                clip &= self.node_mask[:n_nodes] if idx is None \
                    else self.node_mask[:n_nodes, idx]
                dv = delta[:n_nodes]
                dv[clip] = np.sign(dv[clip]) * max_dv
                X_new = np.where(clip.any(axis=0), X + delta, X_new)
                ad = np.abs(delta)
            tol = np.abs(X_new)
            tol *= reltol
            tol += atol
            ok = np.logical_and.reduce(ad <= tol, axis=0)
            if limited is not None:
                ok &= ~limited
            if live == n:
                X, last = X_new, ad
                active = ~ok
            else:
                np.copyto(X, X_new, where=active)
                np.copyto(last, ad, where=active)
                active = active & ~ok
            live = int(np.count_nonzero(active))
        failed = np.flatnonzero(active) if live else _NONE
        return X, failed, last, member_iters, passes

    def update(self, X: np.ndarray, t: float) -> None:
        """Accept the step on every bank (``X`` is (size, N))."""
        V = self.controls(X)
        for bank, (_, ts) in zip(self.banks, self.slots):
            bank.update(V[ts], t)

    def flush(self) -> None:
        for bank in self.banks:
            bank.flush()

    def flush_dc(self, X: np.ndarray) -> None:
        """Write the DC port currents at the operating points ``X``
        (size, N) back onto the one-port elements, whose ``current``
        reports them."""
        V = self.controls(X)
        for bank, (_, ts) in zip(self.banks, self.slots):
            if hasattr(bank, "flush_dc"):
                bank.flush_dc(V[ts])


#: no member: what :meth:`_Ports.newton` reports when every member converged
_NONE = np.empty(0, dtype=np.intp)


def _smw_weights(S: np.ndarray, g: np.ndarray, r: np.ndarray
                 ) -> np.ndarray:
    """Solve ``(I + S diag(g)) w = r`` per member: the small T x T system
    of the Woodbury update, in closed form for one or two terms (``S``
    unknown-major, (T, T, n)), else by LAPACK (``S`` member-major, (n, T,
    T))."""
    K = g.shape[0]
    if K == 1:
        return r / (1.0 + S[0] * g)
    if K == 2:
        # elimination with partial pivoting, as LAPACK solves the serial
        # path's K x K system: Cramer's rule loses every digit when the
        # two ports are nearly one node (shorted by a line at DC into a
        # high-impedance load)
        m00 = 1.0 + S[0, 0] * g[0]
        m01 = S[0, 1] * g[1]
        m10 = S[1, 0] * g[0]
        m11 = 1.0 + S[1, 1] * g[1]
        swap = np.abs(m10) > np.abs(m00)
        if swap.any():
            p00, p01, r0 = np.where(swap, (m10, m11, r[1]),
                                    (m00, m01, r[0]))
            p10, p11, r1 = np.where(swap, (m00, m01, r[0]),
                                    (m10, m11, r[1]))
        else:   # no member swaps rows (the common case): no selection
            p00, p01, r0, p10, p11, r1 = m00, m01, r[0], m10, m11, r[1]
        fac = p10 / p00
        w = np.empty((2, r.shape[1]))
        w1 = np.divide(r1 - fac * r0, p11 - fac * p01, out=w[1])
        np.divide(r0 - p01 * w1, p00, out=w[0])
        return w
    # S is member-major here, (n, K, K) (see _Ports.members)
    M = S * g.T[:, None, :]
    M += np.eye(K)
    return np.linalg.solve(M, r.T[:, :, None])[:, :, 0].T


def _operating_points(systems: list, banks: list, newton,
                      pad: _Pad) -> np.ndarray:
    """Every member's DC operating point ``(N, size)``, padded by
    ``pad``, in one lockstep Newton.

    Each bench is a load-line problem: the banked nonlinear ports against
    a linear network.  The members' DC bases (capacitors open, inductors
    shorted) stack and invert once; ``Y0 = A_dc^-1 b(0)`` and the port
    columns of that inverse drive :meth:`_Ports.newton` from ``X = 0``,
    the banks linearizing their elements' DC branches.  Members whose
    plain Newton does not converge continue on :func:`_ladder` from the
    bank state the lockstep left, counted in
    ``batch_fallbacks_total{reason="dcop"}``.  The one-port banks then
    write each member's DC port current back onto its element
    (:meth:`_Ports.flush_dc`), where ``OperatingPoint.i`` reads it.  A
    ``transient.dcop`` span records the members, lockstep passes,
    member-iterations of the plain Newton and of the ladder, and ladder
    members; ``dcop_newton_iters`` counts member-iterations, like the
    serial solver's.  A group without nonlinear ports takes the linear
    solution as is, with no iteration.  Raises
    :class:`SingularMatrixError` when a DC base is singular.

    A group holding a bank without a DC linearization (the transistor-
    level MOSFETs, whose DC base is singular up to ``gmin``) takes each
    member's serial :func:`~repro.circuit.dcop.solve_dcop` instead,
    recorded as the span's ``serial`` member count.
    """
    with get_tracer().span("transient.dcop") as sp:
        if not all(hasattr(b, "linearize_dc") for b in banks):
            if any(s.lockstep_only for s in systems):
                raise CircuitError(
                    "no DC solver for a circuit holding both a macromodel "
                    "port and a bank without a DC linearization")
            sp.set(members=len(systems), serial=len(systems))
            return pad.stack([solve_dcop(s.circuit, options=newton,
                                         system=s).x for s in systems])
        for s in systems:
            s.build_base(None, 1.0)
        A = pad.stack([s._A_base for s in systems])
        try:
            A_inv = pad.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"DC matrix is singular: {exc}") from exc
        B = pad.stack([s.assemble_rhs(0.0) for s in systems])
        Y0 = pad.solve(A_inv, B, blas=True)
        X = Y0.T
        failed = np.empty(0, dtype=int)
        member_iters = passes = ladder_iters = 0
        if banks:
            ports = _Ports(banks, A_inv, pad, newton)
            Y0 = np.ascontiguousarray(Y0)
            X, failed, _, member_iters, passes = ports.newton(
                Y0, np.zeros_like(Y0), np.ones(len(systems), dtype=bool))
            if failed.size:
                todo = np.zeros(len(systems), dtype=bool)
                todo[failed] = True
                ladder_iters = _ladder(A, B, banks, newton, pad, X, todo)
                get_metrics().inc("batch_fallbacks_total", int(failed.size),
                                  reason="dcop")
            ports.flush_dc(X)
            X = X.T.copy()
        if member_iters + ladder_iters:
            get_metrics().inc("dcop_newton_iters",
                              member_iters + ladder_iters)
        sp.set(members=len(systems), passes=passes,
               member_iters=member_iters, ladder_iters=ladder_iters,
               fallbacks=int(failed.size))
    return X


def _ladder(A: np.ndarray, B: np.ndarray, banks: list, newton,
            pad: _Pad, X: np.ndarray, todo: np.ndarray) -> int:
    """The DC operating points of members ``todo`` by homotopy, in
    lockstep, once their plain Newton has failed.

    The serial :func:`~repro.circuit.dcop.dcop_ladder` per member: gmin
    stepping first (a conductance to ground on every node, progressively
    removed, each stage warm-started); a member that fails a stage
    continues on source stepping (every source scaled from 10% to 100%,
    warm-starting each stage).  The gmin shift sits on each member's own
    nodes.  Both start from ``x = 0`` and from the
    bank state the plain Newton left (the driver's damped DC current).
    ``A`` and ``B`` are the members' DC bases (N, size, size) and
    right-hand sides (N, size); each stage inverts its shifted bases
    once.  Writes the solutions of ``todo`` into ``X`` (size, N) and
    returns the ladder's member-iterations.  Raises
    :class:`ConvergenceError` when source stepping fails too.
    """
    iters = 0

    def stage(A_inv, b, x, live):
        nonlocal iters
        ports = _Ports(banks, A_inv, pad, newton)
        Y0 = pad.solve(A_inv, b, blas=True)
        x, failed, last, it, _ = ports.newton(Y0, x.copy(), live)
        iters += it
        return x, failed, last

    x = np.zeros_like(X)
    live = todo.copy()
    shift = np.zeros(A.shape)
    rows = np.arange(pad.size)
    shift[:, rows, rows] = pad.node_mask.T
    for gmin in GMIN_STEPS:
        x_new, failed, _ = stage(pad.inv(A + gmin * shift), B, x, live)
        live[failed] = False
        x[:, live] = x_new[:, live]
        if not live.any():
            break
    X[:, live] = x[:, live]
    rest = todo & ~live
    if rest.any():
        x[:, rest] = 0.0
        A_inv = pad.inv(A)
        for scale in np.linspace(0.1, 1.0, 10):
            x_new, failed, last = stage(A_inv, B * scale, x, rest)
            if failed.size:
                raise ConvergenceError(
                    f"DC operating point failed (source stepping at "
                    f"{scale:.0%})", iterations=newton.max_iter,
                    residual=float(last[:, failed].max()))
            x[:, rest] = x_new[:, rest]
        X[:, rest] = x[:, rest]
    return iters


def operating_point(system: MNASystem,
                    newton: NewtonOptions = NewtonOptions()) -> np.ndarray:
    """The DC operating point of ``system``'s circuit as a lockstep
    group of one (:func:`_operating_points`): the DC solver of circuits
    holding an element without a scalar stamp.  Raises
    :class:`CircuitError` when an element of the circuit has no bank."""
    _check_banks(system.circuit)
    return _operating_points([system], _make_banks([system]), newton,
                             _Pad([system]))[0]


def run_transient_batch(circuits, options: TransientOptions,
                        t_stops=None, systems=None) -> list[TransientResult]:
    """Run one transient analysis over a batch of circuits sharing one
    nonlinear skeleton (:func:`batch_signature`).

    Returns one :class:`~repro.circuit.transient.TransientResult` per input
    circuit, in order, each holding only its own circuit's unknowns.
    Results carry ``batched=True`` when the group advanced together
    through the lockstep engine; their linear networks may differ, the
    smaller padded to the largest (:class:`_Pad`).  A member's result
    does not depend on which group of two or more members it runs in.  A
    group that cannot (different skeletons, bank-incompatible members, a
    singular DC matrix) runs member by member, as
    :func:`~repro.circuit.transient.run_transient` would run each alone
    (``batched=False``).  A nonlinear element without a ``batch_bank``
    raises :class:`CircuitError` naming it.  ``options`` applies to
    every member, exactly as it would alone.  ``systems`` gives each
    circuit's own :class:`~repro.circuit.mna.MNASystem` (built here when
    None).

    ``t_stops`` gives each member its own stop time (default: every
    member stops at ``options.t_stop``).  The group then runs the longest
    grid; a member whose run has ended is frozen -- no Newton work, no
    warnings, no :class:`ConvergenceError` and no ``solver_steps`` past
    its own last step -- and its result is exactly its own grid.

    A ``transient.batch`` span wraps the whole group (members, step
    count, lockstep Newton member-iterations and passes, distinct models
    per bank, nonlinear ports, padded member-steps, distinct netlist
    topologies and padded unknowns, the MiB of run-long state -- solution
    matrix, bank timelines, line histories -- or the fallback reason),
    with the group's ``transient.dcop`` span underneath it.
    A declined group's span counts all its members.
    """
    circuits = list(circuits)
    if t_stops is None:
        t_stops = [options.t_stop] * len(circuits)
    t_stops = [float(t) for t in t_stops]
    if len(t_stops) != len(circuits):
        raise CircuitError("need one stop time per circuit")
    with get_tracer().span("transient.batch") as sp:
        return _run_transient_batch(circuits, options, t_stops, sp, systems)


def _fallback(circuits: list, options: TransientOptions, t_stops: list,
              sp, reason: str) -> list[TransientResult]:
    """Run a declined group member by member, recording why it was
    declined on the span and in ``batch_fallbacks_total{reason}``.

    Each member is a lockstep batch of one that exports no
    ``transient.batch`` span of its own: the declined group's span
    counts every member, and their Newton iterations add to it."""
    sp.set(members=len(circuits), fallback=reason)
    get_metrics().inc("batch_fallbacks_total", reason=reason)
    results = []
    lone = _Attrs()
    for c, t in zip(circuits, t_stops):
        res = _run_transient_batch([c], replace(options, t_stop=t), [t],
                                   lone, None)[0]
        res.batched = False     # the group did not advance together
        results.append(res)
    if lone.iters:
        sp.set(newton_iters=lone.iters)
    return results


class _Attrs:
    """The span of the batches of one run inside a declined group: it
    sums their Newton iterations and drops the rest."""

    iters = 0

    def set(self, newton_iters=0, **attrs) -> "_Attrs":
        self.iters += newton_iters
        return self


def _run_transient_batch(circuits: list, options: TransientOptions,
                         t_stops: list, sp, systems) -> list[TransientResult]:
    if not circuits:
        return []
    sig0 = batch_signature(circuits[0])
    if any(batch_signature(c) != sig0 for c in circuits[1:]):
        return _fallback(circuits, options, t_stops, sp,
                         "structural signatures differ")
    _check_banks(circuits[0])   # the members share its element types
    if options.dt <= 0.0 or min(t_stops) <= options.dt:
        raise CircuitError("need 0 < dt < t_stop")
    theta = options.resolved_theta()
    if systems is None:
        systems = [MNASystem(c) for c in circuits]
    _check_systems(circuits, systems)
    # largest member first: each MNA size is then one run of members
    order = sorted(range(len(circuits)), key=lambda m: -systems[m].size)
    if order != sorted(order):
        ran = _run_transient_batch([circuits[m] for m in order], options,
                                   [t_stops[m] for m in order], sp,
                                   [systems[m] for m in order])
        results = [None] * len(order)
        for res, m in zip(ran, order):
            results[m] = res
        return results
    try:
        banks = _make_banks(systems)
    except CircuitError:
        if len(circuits) == 1:
            raise
        return _fallback(circuits, options, t_stops, sp,
                         "nonlinear elements are not bank-compatible")

    n_mem = len(circuits)
    pad = _Pad(systems)
    size = pad.size
    if options.ic == "dcop":
        try:
            X = _operating_points(systems, banks, options.newton, pad)
        except SingularMatrixError:
            if n_mem == 1:
                raise
            return _fallback(circuits, options, t_stops, sp,
                             "singular DC matrix")
    else:
        X = pad.stack([_initial_solution(c, s, options.ic)
                       for c, s in zip(circuits, systems)])
    # banked elements are initialized by their bank, in one pass
    banked = {id(el) for bank in banks for el in bank.els}
    for c, s, x0 in zip(circuits, systems, X):
        for el in c.elements:
            if id(el) not in banked:
                el.init_state(x0[:s.size], s)
        s.build_base(options.dt, theta)
    for bank in banks:
        bank.init_state(X)

    # each member's own step count; the group runs the longest grid
    last_step = np.array([int(round(t / options.dt)) for t in t_stops])
    n_steps = int(last_step.max())
    t_grid = options.dt * np.arange(n_steps + 1)
    src = StackedSourceTable([s.build_source_table(t_grid)
                              for s in systems])
    offsets = {id(el): m * size
               for m, c in enumerate(circuits) for el in c.elements}
    comp = build_companion_groups(
        [el for c in circuits for el in c.elements], options.dt,
        X.reshape(-1), offsets)

    xs = np.empty((n_mem, n_steps + 1, size))
    xs[:, 0] = X
    warnings: list[list[str]] = [[] for _ in range(n_mem)]
    B = np.empty((n_mem, size))
    B_flat = B.reshape(-1)  # the flat view the offset companion groups stamp
    # the system matrix is constant over the run: invert it once per
    # member, so each step's linear solve is one product
    A_inv = pad.inv(pad.stack([s._A_base for s in systems]))
    ports = _Ports(banks, A_inv, pad, options.newton) if banks else None
    # up to two ports (a macromodel bench) one einsum forms Y0
    # unknown-major with no BLAS call per member; beyond (the
    # transistor-level records of model estimation) the product stays
    # BLAS's batched matmul, whose rounding the estimated models (their
    # greedy center selection) and the pinned results built on them keep.
    # A linear group has no Newton arrays to lay out: BLAS is the faster
    # product there (half einsum's time at 200 unknowns)
    blas = ports is None or ports.n_ports > 2
    # the state is unknown-major, (size, N); Xm is its member-major copy
    # for the companion groups (flat member offsets) and the results
    Xm = np.empty((n_mem, size))
    Xm_flat = Xm.reshape(-1)
    X = X.T.copy()
    X_prev = X
    every = np.ones(n_mem, dtype=bool)
    n_full = int(last_step.min())   # steps on which every member is live
    newton_iters = passes = 0
    try:
        for k in range(1, n_steps + 1):
            t = float(t_grid[k])
            src.fill_row(k, B)
            comp.add_rhs(B_flat)
            Y0 = pad.solve(A_inv, B, blas)
            if ports is None:
                X = Y0
            else:
                if k > 1:
                    guess = 2.0 * X
                    guess -= X_prev
                else:
                    guess = X.copy()
                if k > n_full:
                    live = last_step >= k
                    guess[:, ~live] = X[:, ~live]   # frozen members stay put
                else:
                    live = every
                x_try, idx, _, it, p = ports.newton(Y0, guess, live, t)
                newton_iters += it
                passes += p
                if idx.size:
                    # retry failed members from the previous accepted
                    # solution, no predictor
                    x_re, failed, last, it, p = ports.newton(
                        Y0[:, idx], X[:, idx], every[idx], t, idx)
                    newton_iters += it
                    passes += p
                    x_try[:, idx] = x_re
                    for j in failed:
                        dnorm = float(last[:, j].max())
                        msg = (f"transient Newton failed at t={t:.4g}s "
                               f"(|delta|={dnorm:.3g})")
                        if options.strict:
                            raise ConvergenceError(msg, time=t,
                                                   residual=dnorm)
                        warnings[idx[j]].append(msg)
                X_prev, X = X, x_try
            np.copyto(Xm, X.T)
            comp.update(Xm_flat)
            if ports is not None:
                ports.update(X, t)
            xs[:, k] = Xm
    finally:
        comp.flush()
        if ports is not None:
            ports.flush()
    results = []
    for m, (c, s) in enumerate(zip(circuits, systems)):
        n_m = last_step[m] + 1
        res = TransientResult(c, s, t_grid[:n_m], xs[m, :n_m, :s.size],
                              warnings[m])
        res.batched = True
        results.append(res)
    member_steps = int(last_step.sum())
    padded = n_steps * n_mem - member_steps
    # n_steps is per member (their mean when stop times differ), so
    # n_steps x members counts the solver steps the members needed
    sp.set(members=n_mem, size=size, n_steps=member_steps / n_mem,
           linear=ports is None, newton_iters=newton_iters,
           passes=passes,
           models=max((b.n_models for b in banks), default=0),
           ports=0 if ports is None else ports.n_ports,
           padded_steps=padded,
           topologies=len({_topology(c) for c in circuits}),
           padded=pad.padded,
           n_warnings=sum(len(w) for w in warnings),
           state_mb=(xs.nbytes + comp.history_nbytes
                     # a driver bank's weight timelines; others hold none
                     + sum(getattr(b, "timeline_nbytes", 0) for b in banks)
                     ) / 2**20)
    met = get_metrics()
    met.inc("solver_steps", member_steps)
    if newton_iters:
        met.inc("newton_iters", newton_iters)
    if padded:
        met.inc("batch_padded_steps_total", padded)
    return results
