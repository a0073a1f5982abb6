"""Grid-batched transient solving: advance N same-topology circuits per step.

The EMC assessment workflow is a *grid* workload: one bench topology (driver,
interconnect, load) swept over corners, load values, and bit patterns.  Run
serially, an N-scenario study costs N times a single transient even though
every member marches the same time grid through the same matrix structure.
This module assembles such a scenario group **once** and advances all members
per time step with a leading "scenario" array axis:

* per-member base matrices stack into one ``(N, size, size)`` tensor,
  inverted once per group (the matrix is constant over the run), so each
  step's linear solve is one batched matmul,
* per-member :class:`~repro.circuit.mna.SourceTable` objects merge into one
  :class:`~repro.circuit.mna.StackedSourceTable`,
* companion/line histories live in shared struct-of-arrays groups
  (:mod:`repro.circuit.companion` with per-element index offsets into a flat
  ``(N * size,)`` view of the batch state),
* each nonlinear one-port element of the bench (the paper's pw-RBF driver,
  the receiver macromodel) is evaluated through a vectorized *bank*
  (``batch_bank``); banks on one node merge into one port, and the K ports
  enter the same Sherman-Morrison-Woodbury update as the serial path (a
  K x K system per member, closed form for K <= 2), iterating all members'
  damped Newton loops in lockstep with per-member freezing; the inverse's
  node columns are the update's ``A^-1 e_node``,
* members may stop at different times: the group runs the longest grid and
  a member whose run has ended is frozen,
* the DC operating point is one lockstep Newton too: the stacked DC bases
  invert once and the banks evaluate their elements' DC branches, so each
  member starts where serial :func:`~repro.circuit.dcop.solve_dcop` would
  start it.

Eligibility is conservative: members must share a structural signature
(:func:`batch_signature`), store densely, use the vector-group/fast-path
options, contain only group-able history elements, and have nonlinear
elements only on ungrounded ports, each of a class that provides a working
``batch_bank``.  Anything else falls back to per-member
:func:`~repro.circuit.transient.run_transient` -- the fallback *is* the
nonlinear-straggler path, so :func:`run_transient_batch` always returns
valid results.

Like ``run_transient``, the batch runner should be handed freshly built
circuits: element state (histories, DC fixed points) is consumed and
rewritten by the analysis.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import get_metrics, get_tracer
from .companion import build_companion_groups
from .elements.rlc import (CapacitanceMatrix, Capacitor, CoupledInductors,
                           Inductor)
from .elements.tline import CoupledIdealLine, IdealLine
from .dcop import dcop_ladder
from .mna import DENSE_LIMIT, MNASystem, StackedSourceTable
from .netlist import Circuit, Element
from .transient import (TransientOptions, TransientResult, _initial_solution,
                        run_transient)

__all__ = ["batch_signature", "run_transient_batch"]

#: exact element types the companion layer can group (see
#: :func:`repro.circuit.companion.build_companion_groups`)
_GROUPED_TYPES = (Capacitor, Inductor, CoupledInductors, CapacitanceMatrix,
                  IdealLine, CoupledIdealLine)


def batch_signature(circuit: Circuit) -> tuple:
    """Hashable structural identity deciding batch compatibility.

    Two circuits with equal signatures assemble MNA systems of identical
    shape and meaning: the same element types in the same order, wired to
    the same node indices, with the same branch counts.  Parameter *values*
    (resistances, capacitances, line impedances, model weights) are
    excluded -- they are exactly what varies across a batch.
    """
    parts: list = [circuit.n_nodes]
    for el in circuit.elements:
        parts.append((type(el).__qualname__, tuple(el.nodes), el.n_branch,
                      getattr(el, "n", None)))
    return tuple(parts)


def _ineligible_reason(circuits: list, options: TransientOptions
                       ) -> str | None:
    """Why this group cannot take the batched path (None when it can).

    All checks are type/structure level so they run *before* any element
    state is touched; a group rejected here falls back to per-member
    ``run_transient`` with virgin elements.
    """
    if not options.fast_path or not options.vector_groups:
        return "fast_path/vector_groups disabled"
    sig0 = batch_signature(circuits[0])
    if any(batch_signature(c) != sig0 for c in circuits[1:]):
        return "structural signatures differ"
    c0 = circuits[0]
    size = c0.n_nodes + sum(el.n_branch for el in c0.elements)
    if size > DENSE_LIMIT:
        return "system too large for dense storage"
    for el in c0.elements:
        if el.nonlinear:
            if getattr(type(el), "batch_bank", None) is None:
                return f"{type(el).__qualname__} provides no batch_bank"
            if el.nodes[0] < 0:
                return "nonlinear port is grounded"
            continue
        overrides_rhs = type(el).stamp_rhs is not Element.stamp_rhs
        tabled = type(el).stamp_rhs_table is not Element.stamp_rhs_table
        overrides_upd = type(el).update_state is not Element.update_state
        if (overrides_rhs and not tabled) or overrides_upd:
            if type(el) not in _GROUPED_TYPES:
                return (f"{type(el).__qualname__} is neither group-able "
                        "nor bank-able")
    return None


def _make_banks(systems: list) -> list:
    """One vectorized bank per nonlinear element of the bench.

    Raises :class:`CircuitError` when the members' nonlinear elements are
    structurally compatible but not bank-compatible (different sampling
    times or model orders, for instance); the caller turns that into a
    per-member fallback.
    """
    banks = []
    for j, el in enumerate(systems[0]._nl):
        bank = type(el).batch_bank([s._nl[j] for s in systems])
        if bank is None:
            raise CircuitError("nonlinear elements are not bank-compatible")
        banks.append(bank)
    return banks


class _Ports:
    """The banks of a group merged into K one-port nonlinear elements.

    Banks on the same node add their currents and conductances, so they
    are one port of the Sherman-Morrison-Woodbury update (a receiver
    wired straight to the driver pad).  ``Z`` (K, size, N) holds each
    port's inverse column ``A^-1 e_node`` and ``S`` (K, K, N) its node
    entries, ``S[p, q] = e_p^T A^-1 e_q``; both are unknown-major, one
    column per member.
    """

    def __init__(self, banks: list, A_inv: np.ndarray):
        self.banks = banks
        nodes = sorted({b.node for b in banks})
        # row selector of the port unknowns: a slice (a view, no copy)
        # for the usual single port
        self.nodes = nodes if len(nodes) > 1 \
            else slice(nodes[0], nodes[0] + 1)
        self.slots = [nodes.index(b.node) for b in banks]
        self.Z = np.ascontiguousarray(A_inv[:, :, nodes].transpose(2, 1, 0))
        self.S = np.ascontiguousarray(self.Z[:, nodes].transpose(1, 0, 2))
        self.n_ports = len(nodes)

    def eval(self, V: np.ndarray, t: float, idx=None):
        """Port currents and conductances ``(K, n)`` at port voltages
        ``V`` (K, n) of members ``idx`` (all when None)."""
        return self._merge(V, lambda bank, v: bank.eval(v, t, idx))

    def eval_dc(self, V: np.ndarray, active: np.ndarray):
        """Port currents and conductances ``(K, N)`` at the DC operating
        point; stateful banks advance their ``active`` members only."""
        return self._merge(V, lambda bank, v: bank.eval_dc(v, active))

    def _merge(self, V: np.ndarray, evalb):
        """Sum ``evalb(bank, v)`` over the banks on each port."""
        if len(self.banks) == 1:
            i, g = evalb(self.banks[0], V[0])
            return i[None], g[None]
        i = np.zeros_like(V)
        g = np.zeros_like(V)
        for bank, p in zip(self.banks, self.slots):
            ib, gb = evalb(bank, V[p])
            i[p] += ib
            g[p] += gb
        return i, g

    def update(self, X: np.ndarray, t: float) -> None:
        """Accept the step on every bank (``X`` is (N, size))."""
        for bank in self.banks:
            bank.update(X[:, bank.node], t)

    def flush(self) -> None:
        for bank in self.banks:
            bank.flush()


def _smw_weights(S: np.ndarray, g: np.ndarray, r: np.ndarray
                 ) -> np.ndarray:
    """Solve ``(I + S diag(g)) w = r`` per member: the small K x K system
    of the Woodbury update, in closed form for one or two ports."""
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
        p00, p01, r0 = np.where(swap, (m10, m11, r[1]), (m00, m01, r[0]))
        p10, p11, r1 = np.where(swap, (m00, m01, r[0]), (m10, m11, r[1]))
        fac = p10 / p00
        w1 = (r1 - fac * r0) / (p11 - fac * p01)
        return np.stack([(r0 - p01 * w1) / p00, w1])
    M = np.eye(K)[:, :, None] + S * g[None]
    return np.linalg.solve(M.transpose(2, 0, 1), r.T[:, :, None])[:, :, 0].T


def _newton_lockstep(Z, S, nodes, evalf, Y0, X0, active, n_nodes, opts):
    """Damped Newton over a member subset, all members advanced per pass.

    Mirrors :func:`repro.circuit.newton.newton_solve` per member -- same
    Woodbury solve, same ``max_dv`` clamp (including the
    recompute-as-``x + delta`` behaviour when a clamp fires), same
    convergence tests against the new iterate -- with converged members
    frozen while the rest keep iterating.  Arrays are unknown-major,
    ``(size, n)`` with one column per member, so every per-member test
    reduces over the short outer axis: ``Y0`` holds the members' linear
    solutions ``A^-1 b`` of the step, ``Z``/``S`` the port columns of
    :class:`_Ports`.  Each port's element adds its conductance ``g`` on
    the node diagonal and its equivalent current ``ieq`` on the node's
    RHS.  ``active`` marks the members to iterate; the others (members
    whose run has ended) keep ``X0`` and count as converged.
    ``evalf(V, active)`` gets the mask of the members still iterating,
    so a stateful evaluation (the driver's DC fixed point) advances
    those only.

    Returns ``(X, converged, delta_norm, iters)`` over the subset, where
    ``iters`` (n,) counts each member's iterations for the observability
    layer.
    """
    X = X0.copy()       # C order: contiguous member rows per unknown
    atol = np.full((X.shape[0], 1), opts.iabstol)
    atol[:n_nodes] = opts.vabstol
    Y0n = Y0[nodes]
    K = Z.shape[0]
    active = active.copy()
    last = np.full(X.shape, np.inf)     # |delta| of each member's last pass
    iters = np.zeros(X.shape[1], dtype=int)
    for _ in range(opts.max_iter):
        iters += active
        V = X[nodes]
        i_val, g_val = evalf(V, active)
        ieq = i_val - g_val * V
        if K == 1:
            r = Y0n - S[0] * ieq
        else:
            r = Y0n - (S * ieq[None]).sum(axis=1)
        c = ieq + g_val * _smw_weights(S, g_val, r)
        X_new = Y0 - Z[0] * c[0]
        for p in range(1, K):
            X_new -= Z[p] * c[p]
        delta = X_new - X
        ad = np.abs(delta)
        clip = ad[:n_nodes] > opts.max_dv
        if clip.any():
            dv = delta[:n_nodes]
            dv[clip] = np.sign(dv[clip]) * opts.max_dv
            X_new = np.where(clip.any(axis=0), X + delta, X_new)
            ad = np.abs(delta)
        ok = (ad <= atol + opts.reltol * np.abs(X_new)).all(axis=0)
        np.copyto(X, X_new, where=active)
        np.copyto(last, ad, where=active)
        active &= ~ok
        if not active.any():
            break
    return X, ~active, last.max(axis=0), iters


def _operating_points(systems: list, banks: list, newton) -> np.ndarray:
    """Every member's DC operating point ``(N, size)``, as serial
    :func:`~repro.circuit.dcop.solve_dcop` finds it, in one lockstep Newton.

    Each bench is a load-line problem: the banked nonlinear ports against
    a linear network.  The members' DC bases (capacitors open, inductors
    shorted) stack and invert once; ``Y0 = A_dc^-1 b(0)`` and the port
    columns of that inverse drive :func:`_newton_lockstep` from ``X = 0``,
    the banks evaluating their elements' DC branches.  A member whose
    plain Newton does not converge continues on the serial homotopy
    ladder (:func:`~repro.circuit.dcop.dcop_ladder`) from the element
    state the lockstep left, counted in
    ``batch_fallbacks_total{reason="dcop"}``.  A ``transient.dcop`` span
    records the members, lockstep passes, member-iterations and ladder
    fallbacks; ``dcop_newton_iters`` counts member-iterations, like the
    serial solver's.  A group without nonlinear ports takes the linear
    solution as is, with no iteration.  Raises
    :class:`numpy.linalg.LinAlgError` when a DC base is singular.
    """
    with get_tracer().span("transient.dcop") as sp:
        for s in systems:
            s.build_base(None, 1.0)
        A_inv = np.linalg.inv(np.stack([s._A_base for s in systems]))
        B = np.stack([s.assemble_rhs(0.0) for s in systems])
        X = np.matmul(A_inv, B[:, :, None])[:, :, 0]
        failed = np.empty(0, dtype=int)
        iters = np.zeros(len(systems), dtype=int)
        if banks:
            ports = _Ports(banks, A_inv)
            Y0 = X.T.copy()
            x_dc, conv, _, iters = _newton_lockstep(
                ports.Z, ports.S, ports.nodes, ports.eval_dc, Y0,
                np.zeros_like(Y0), np.ones(len(systems), dtype=bool),
                systems[0].n_nodes, newton)
            X = x_dc.T.copy()
            failed = np.flatnonzero(~conv)
            if failed.size:
                ports.flush()   # the ladder continues from this state
                for m in failed:
                    X[m] = dcop_ladder(systems[m], newton)
                get_metrics().inc("batch_fallbacks_total", int(failed.size),
                                  reason="dcop")
        member_iters = int(iters.sum())
        if member_iters:
            get_metrics().inc("dcop_newton_iters", member_iters)
        sp.set(members=len(systems), passes=int(iters.max()),
               member_iters=member_iters, fallbacks=int(failed.size))
    return X


def run_transient_batch(circuits, options: TransientOptions,
                        t_stops=None) -> list[TransientResult]:
    """Run one transient analysis over a batch of same-topology circuits.

    Returns one :class:`~repro.circuit.transient.TransientResult` per input
    circuit, in order.  Results carry ``batched=True`` when the group
    actually advanced through the batched backend; ineligible groups (mixed
    topologies, nonlinear elements without a bank, sparse-path sizes, the
    fast path disabled) silently fall back to per-member
    :func:`~repro.circuit.transient.run_transient`, whose results are
    equivalent (``batched=False``).  ``options`` applies to every member,
    exactly as it would serially.

    ``t_stops`` gives each member its own stop time (default: every
    member stops at ``options.t_stop``).  The group then runs the longest
    grid; a member whose run has ended is frozen -- no Newton work, no
    warnings, no :class:`ConvergenceError` and no ``solver_steps`` past
    its own last step -- and its result is exactly its own serial grid.

    A ``transient.batch`` span wraps the whole group (members, step
    count, lockstep Newton member-iterations, distinct models per bank,
    nonlinear ports, padded member-steps, or the fallback reason), with
    the group's ``transient.dcop`` span underneath it; fallback members
    additionally export their own ``transient.run`` spans underneath it.
    """
    circuits = list(circuits)
    if t_stops is None:
        t_stops = [options.t_stop] * len(circuits)
    t_stops = [float(t) for t in t_stops]
    if len(t_stops) != len(circuits):
        raise CircuitError("need one stop time per circuit")
    with get_tracer().span("transient.batch") as sp:
        return _run_transient_batch(circuits, options, t_stops, sp)


def _fallback(circuits: list, options: TransientOptions, t_stops: list,
              sp, reason: str) -> list[TransientResult]:
    """Run a declined group member by member, recording why it was
    declined on the span and in ``batch_fallbacks_total{reason}``."""
    sp.set(members=len(circuits), fallback=reason)
    get_metrics().inc("batch_fallbacks_total", reason=reason)
    return [run_transient(c, replace(options, t_stop=t))
            for c, t in zip(circuits, t_stops)]


def _run_transient_batch(circuits: list, options: TransientOptions,
                         t_stops: list, sp) -> list[TransientResult]:
    if not circuits:
        return []
    reason = ("single member" if len(circuits) == 1
              else _ineligible_reason(circuits, options))
    if reason:
        return _fallback(circuits, options, t_stops, sp, reason)
    if options.dt <= 0.0 or min(t_stops) <= options.dt:
        raise CircuitError("need 0 < dt < t_stop")
    theta = options.resolved_theta()
    systems = [MNASystem(c) for c in circuits]
    try:
        banks = _make_banks(systems)
    except CircuitError:
        return _fallback(circuits, options, t_stops, sp,
                         "nonlinear elements are not bank-compatible")

    n_mem = len(circuits)
    size = systems[0].size
    n_nodes = systems[0].n_nodes
    if options.ic == "dcop":
        try:
            X = _operating_points(systems, banks, options.newton)
        except np.linalg.LinAlgError:
            return _fallback(circuits, options, t_stops, sp,
                             "singular DC matrix")
    else:
        X = np.stack([_initial_solution(c, s, options, options.newton)
                      for c, s in zip(circuits, systems)])
    # banked elements are initialized by their bank, in one pass
    banked = {id(el) for bank in banks for el in bank.els}
    for c, s, x0 in zip(circuits, systems, X):
        for el in c.elements:
            if id(el) not in banked:
                el.init_state(x0, s)
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
        [el for s in systems for el in s._hist_els],
        [el for s in systems for el in s.upd_els],
        options.dt, offsets)
    # the eligibility scan guarantees grouping covered everything except the
    # banked nonlinear elements
    leftover = [el for el in comp.hist_els + comp.upd_els
                if id(el) not in banked]
    if leftover:  # pragma: no cover - guarded by _ineligible_reason
        raise CircuitError("batch grouping left per-element state behind")

    xs = np.empty((n_mem, n_steps + 1, size))
    xs[:, 0] = X
    warnings: list[list[str]] = [[] for _ in range(n_mem)]
    B = np.empty((n_mem, size, 1))
    B_flat = B.reshape(-1)  # the flat view the offset companion groups stamp
    # the system matrix is constant over the run: invert it once per
    # member, so each step's linear solve is one batched matmul
    A_inv = np.linalg.inv(np.stack([np.asarray(s._A_base) for s in systems]))
    ports = _Ports(banks, A_inv) if banks else None
    X_prev = X.copy()
    newton = options.newton
    newton_iters = 0
    try:
        for k in range(1, n_steps + 1):
            t = float(t_grid[k])
            src.fill_row(k, B[:, :, 0])
            comp.add_rhs(B_flat)
            Y0 = np.matmul(A_inv, B)[:, :, 0]
            if ports is None:
                X_prev, X = X, Y0
            else:
                live = last_step >= k
                guess = 2.0 * X - X_prev if k > 1 else X
                if not live.all():
                    guess[~live] = X[~live]     # frozen members stay put
                Y0 = Y0.T.copy()
                x_try, conv, dnorm, it = _newton_lockstep(
                    ports.Z, ports.S, ports.nodes,
                    lambda V, _: ports.eval(V, t), Y0, guess.T, live,
                    n_nodes, newton)
                newton_iters += int(it.sum())
                if not conv.all():
                    # retry failed members from the previous accepted
                    # solution, no predictor -- exactly like the serial loop
                    idx = np.flatnonzero(~conv)
                    x_re, conv_re, dn_re, it_re = _newton_lockstep(
                        ports.Z[:, :, idx], ports.S[:, :, idx], ports.nodes,
                        lambda V, _: ports.eval(V, t, idx), Y0[:, idx],
                        X[idx].T, np.ones(idx.size, dtype=bool), n_nodes,
                        newton)
                    newton_iters += int(it_re.sum())
                    x_try[:, idx] = x_re
                    dnorm[idx] = dn_re
                    conv = conv.copy()
                    conv[idx] = conv_re
                for m in np.flatnonzero(~conv):
                    msg = (f"transient Newton failed at t={t:.4g}s "
                           f"(|delta|={dnorm[m]:.3g})")
                    if options.strict:
                        raise ConvergenceError(msg, time=t,
                                               residual=float(dnorm[m]))
                    warnings[m].append(msg)
                X_prev = X
                X = x_try.T.copy()
            comp.update(X.reshape(-1))
            if ports is not None:
                ports.update(X, t)
            xs[:, k] = X
    finally:
        comp.flush()
        if ports is not None:
            ports.flush()
    results = []
    for m, (c, s) in enumerate(zip(circuits, systems)):
        n_m = last_step[m] + 1
        res = TransientResult(c, s, t_grid[:n_m], xs[m, :n_m], warnings[m],
                              fast_path=ports is None)
        res.batched = True
        results.append(res)
    member_steps = int(last_step.sum())
    padded = n_steps * n_mem - member_steps
    # n_steps is per member (their mean when stop times differ), so
    # n_steps x members counts the solver steps the members needed
    sp.set(members=n_mem, size=size, n_steps=member_steps / n_mem,
           fast_path=ports is None, newton_iters=newton_iters,
           models=max((b.n_models for b in banks), default=0),
           ports=0 if ports is None else ports.n_ports,
           padded_steps=padded,
           n_warnings=sum(len(w) for w in warnings))
    met = get_metrics()
    met.inc("solver_steps", member_steps)
    if newton_iters:
        met.inc("newton_iters", newton_iters)
    if padded:
        met.inc("batch_padded_steps_total", padded)
    return results
