"""Damped Newton-Raphson iteration on the MNA equations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mna import MNASystem

__all__ = ["NewtonOptions", "NewtonResult", "newton_solve"]


@dataclass(frozen=True)
class NewtonOptions:
    """Convergence controls shared by the DC and transient solvers.

    ``vabstol``/``iabstol``: absolute tolerances on node voltages / branch
    currents; ``reltol``: relative tolerance on both; ``max_iter``: iteration
    cap; ``max_dv``: per-iteration clamp on node-voltage updates (global
    damping that complements the per-device limiting of diodes/MOSFETs).
    """

    max_iter: int = 100
    vabstol: float = 1e-6
    iabstol: float = 1e-9
    reltol: float = 1e-4
    max_dv: float = 2.0


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    delta_norm: float


def newton_solve(system: MNASystem, x0: np.ndarray, t: float,
                 options: NewtonOptions = NewtonOptions(), *,
                 extra_gmin: float = 0.0,
                 source_scale: float = 1.0) -> NewtonResult:
    """Iterate ``x <- solve(A(x), b(x))`` until the update is within tolerance.

    The assembled system is already in linearized-companion form, so the plain
    fixed-point ``x_next = A(x)^-1 b(x)`` *is* the Newton step.  Updates are
    clamped to ``max_dv`` on voltage unknowns for robustness.  The
    source RHS at ``t``, scaled by ``source_scale``, is assembled once.
    """
    n = system.n_nodes
    x = np.array(x0, dtype=float, copy=True)
    delta_norm = np.inf
    b_step = system.assemble_rhs(t, source_scale)
    fast_path = extra_gmin == 0.0
    for it in range(1, options.max_iter + 1):
        if fast_path:
            x_new, limited = system.solve_step(x, t, b_step)
        else:
            A, b, limited = system.assemble_iter(x, t, b_step,
                                                 extra_gmin=extra_gmin,
                                                 scratch=True)
            x_new = system.solve(A, b)
        delta = x_new - x
        dv = delta[:n]
        clip = np.abs(dv) > options.max_dv
        if np.any(clip):
            dv[clip] = np.sign(dv[clip]) * options.max_dv
            x_new = x + delta
        v_ok = np.all(np.abs(delta[:n]) <=
                      options.vabstol + options.reltol * np.abs(x_new[:n]))
        i_ok = np.all(np.abs(delta[n:]) <=
                      options.iabstol + options.reltol * np.abs(x_new[n:]))
        delta_norm = float(np.max(np.abs(delta))) if delta.size else 0.0
        x = x_new
        if v_ok and i_ok and not limited:
            # one extra assembly-free acceptance: the iterate moved less than
            # tolerance, so the linearization point is self-consistent.
            return NewtonResult(x, True, it, delta_norm)
    return NewtonResult(x, False, options.max_iter, delta_norm)
