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
* the single nonlinear port element per bench (the paper's pw-RBF driver) is
  evaluated through a vectorized *bank* (``batch_bank``) and solved with the
  same rank-1 Sherman-Morrison update as the serial Woodbury path, iterating
  all members' damped Newton loops in lockstep with per-member freezing;
  the inverse's node column is the update's ``A^-1 e_node``.

Eligibility is conservative: members must share a structural signature
(:func:`batch_signature`), store densely, use the vector-group/fast-path
options, contain only group-able history elements, and have at most one
nonlinear element whose class provides a working ``batch_bank``.  Anything
else falls back to per-member :func:`~repro.circuit.transient.run_transient`
-- the fallback *is* the nonlinear-straggler path, so
:func:`run_transient_batch` always returns valid results.

Like ``run_transient``, the batch runner should be handed freshly built
circuits: element state (histories, DC fixed points) is consumed and
rewritten by the analysis.
"""

from __future__ import annotations

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import get_metrics, get_tracer
from .companion import build_companion_groups
from .elements.rlc import (CapacitanceMatrix, Capacitor, CoupledInductors,
                           Inductor)
from .elements.tline import CoupledIdealLine, IdealLine
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
    nl = [el for el in c0.elements if el.nonlinear]
    if len(nl) > 1:
        return "more than one nonlinear element"
    nl_id = id(nl[0]) if nl else None
    if nl and getattr(type(nl[0]), "batch_bank", None) is None:
        return f"{type(nl[0]).__qualname__} provides no batch_bank"
    if nl and nl[0].nodes[0] < 0:
        return "nonlinear port is grounded"
    for el in c0.elements:
        overrides_rhs = type(el).stamp_rhs is not Element.stamp_rhs
        tabled = type(el).stamp_rhs_table is not Element.stamp_rhs_table
        overrides_upd = type(el).update_state is not Element.update_state
        if id(el) == nl_id:
            continue
        if (overrides_rhs and not tabled) or overrides_upd:
            if type(el) not in _GROUPED_TYPES:
                return (f"{type(el).__qualname__} is neither group-able "
                        "nor bank-able")
    return None


def _make_bank(circuits: list, systems: list):
    """Build the vectorized nonlinear bank, or None for a linear batch.

    Raises :class:`CircuitError` when the members' nonlinear elements are
    structurally compatible but not bank-compatible (different model
    objects, different weight-timeline lengths); the caller turns that into
    a per-member fallback.
    """
    if not systems[0]._nl:
        return None
    els = [s._nl[0] for s in systems]
    bank = type(els[0]).batch_bank(els)
    if bank is None:
        raise CircuitError("nonlinear elements are not bank-compatible")
    return bank


def _newton_lockstep(Zcol, svals, node, evalf, Y0, X0, n_nodes, opts):
    """Damped Newton over a member subset, all members advanced per pass.

    Mirrors :func:`repro.circuit.newton.newton_solve` per member -- same
    rank-1 Woodbury solve, same ``max_dv`` clamp (including the
    recompute-as-``x + delta`` behaviour when a clamp fires), same
    convergence tests against the new iterate -- with converged members
    frozen while the rest keep iterating.  Arrays are unknown-major,
    ``(size, n)`` with one column per member, so every per-member test
    reduces over the short outer axis: ``Y0`` holds the members' linear
    solutions ``A^-1 b`` of the step, ``Zcol`` their ``A^-1 e_node`` and
    ``svals`` its node entries.

    Returns ``(X, converged, delta_norm, iters)`` over the subset, where
    ``iters`` counts member-iterations (one per still-active member per
    pass) for the observability layer.
    """
    X = X0.copy()       # C order: contiguous member rows per unknown
    atol = np.full((X.shape[0], 1), opts.iabstol)
    atol[:n_nodes] = opts.vabstol
    Y0n = Y0[node]
    active = np.ones(X.shape[1], dtype=bool)
    last = np.full(X.shape, np.inf)     # |delta| of each member's last pass
    iters = 0
    for _ in range(opts.max_iter):
        iters += np.count_nonzero(active)
        V = X[node]
        i_val, g_val = evalf(V)
        ieq = i_val - g_val * V
        # Sherman-Morrison: the driver's conductance g on the node
        # diagonal, its equivalent current ieq on the node's RHS
        w = (Y0n - ieq * svals) / (1.0 + g_val * svals)
        X_new = Y0 - Zcol * (ieq + g_val * w)
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


def run_transient_batch(circuits, options: TransientOptions
                        ) -> list[TransientResult]:
    """Run one transient analysis over a batch of same-topology circuits.

    Returns one :class:`~repro.circuit.transient.TransientResult` per input
    circuit, in order.  Results carry ``batched=True`` when the group
    actually advanced through the batched backend; ineligible groups (mixed
    topologies, nonlinear elements without a bank, sparse-path sizes, the
    fast path disabled) silently fall back to per-member
    :func:`~repro.circuit.transient.run_transient`, whose results are
    equivalent (``batched=False``).  ``options`` applies to every member,
    exactly as it would serially.

    A ``transient.batch`` span wraps the whole group (members, step
    count, lockstep Newton member-iterations, or the fallback reason);
    fallback members additionally export their own ``transient.run``
    spans underneath it.
    """
    with get_tracer().span("transient.batch") as sp:
        return _run_transient_batch(list(circuits), options, sp)


def _fallback(circuits: list, options: TransientOptions, sp, reason: str
              ) -> list[TransientResult]:
    """Run a declined group member by member, recording why it was
    declined on the span and in ``batch_fallbacks_total{reason}``."""
    sp.set(members=len(circuits), fallback=reason)
    get_metrics().inc("batch_fallbacks_total", reason=reason)
    return [run_transient(c, options) for c in circuits]


def _run_transient_batch(circuits: list, options: TransientOptions,
                         sp) -> list[TransientResult]:
    if not circuits:
        return []
    reason = ("single member" if len(circuits) == 1
              else _ineligible_reason(circuits, options))
    if reason:
        return _fallback(circuits, options, sp, reason)
    if options.dt <= 0.0 or options.t_stop <= options.dt:
        raise CircuitError("need 0 < dt < t_stop")
    theta = options.resolved_theta()
    systems = [MNASystem(c) for c in circuits]
    try:
        bank = _make_bank(circuits, systems)
    except CircuitError:
        return _fallback(circuits, options, sp,
                         "nonlinear elements are not bank-compatible")

    n_mem = len(circuits)
    size = systems[0].size
    n_nodes = systems[0].n_nodes
    x0s = []
    for c, s in zip(circuits, systems):
        x0 = _initial_solution(c, s, options, options.newton)
        for el in c.elements:
            el.init_state(x0, s)
        s.build_base(options.dt, theta)
        x0s.append(x0)
    if bank is not None:
        bank.load()

    n_steps = int(round(options.t_stop / options.dt))
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
                if not (bank is not None and el in bank.els)]
    if leftover:  # pragma: no cover - guarded by _ineligible_reason
        raise CircuitError("batch grouping left per-element state behind")

    X = np.ascontiguousarray(np.stack(x0s))          # (N, size)
    xs = np.empty((n_mem, n_steps + 1, size))
    xs[:, 0] = X
    warnings: list[list[str]] = [[] for _ in range(n_mem)]
    B = np.empty((n_mem, size, 1))
    B_flat = B.reshape(-1)  # the flat view the offset companion groups stamp
    # the system matrix is constant over the run: invert it once per
    # member, so each step's linear solve is one batched matmul
    A_inv = np.linalg.inv(np.stack([np.asarray(s._A_base) for s in systems]))
    if bank is not None:
        node = bank.node
        Zcol = np.ascontiguousarray(A_inv[:, :, node].T)   # A^-1 e_node
        svals = Zcol[node]
    X_prev = X.copy()
    newton = options.newton
    newton_iters = 0
    try:
        for k in range(1, n_steps + 1):
            t = float(t_grid[k])
            src.fill_row(k, B[:, :, 0])
            comp.add_rhs(B_flat)
            Y0 = np.matmul(A_inv, B)[:, :, 0]
            if bank is None:
                X_prev, X = X, Y0
            else:
                guess = 2.0 * X - X_prev if k > 1 else X
                Y0 = Y0.T.copy()
                x_try, conv, dnorm, it = _newton_lockstep(
                    Zcol, svals, node, lambda V: bank.eval(V, t), Y0,
                    guess.T, n_nodes, newton)
                newton_iters += it
                if not conv.all():
                    # retry failed members from the previous accepted
                    # solution, no predictor -- exactly like the serial loop
                    idx = np.flatnonzero(~conv)
                    x_re, conv_re, dn_re, it_re = _newton_lockstep(
                        Zcol[:, idx], svals[idx], node,
                        lambda V: bank.eval(V, t, idx), Y0[:, idx],
                        X[idx].T, n_nodes, newton)
                    newton_iters += it_re
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
            if bank is not None:
                bank.update(X[:, node], t)
            xs[:, k] = X
    finally:
        comp.flush()
        if bank is not None:
            bank.flush()
    results = []
    for m, (c, s) in enumerate(zip(circuits, systems)):
        res = TransientResult(c, s, t_grid, xs[m], warnings[m],
                              fast_path=bank is None)
        res.batched = True
        results.append(res)
    sp.set(members=n_mem, size=size, n_steps=n_steps,
           fast_path=bank is None, newton_iters=newton_iters,
           n_warnings=sum(len(w) for w in warnings))
    met = get_metrics()
    met.inc("solver_steps", n_steps * n_mem)
    if newton_iters:
        met.inc("newton_iters", newton_iters)
    return results
