"""DC operating-point solver with gmin and source stepping homotopies."""

from __future__ import annotations

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import get_metrics
from .mna import MNASystem
from .netlist import Circuit
from .newton import NewtonOptions, newton_solve

__all__ = ["OperatingPoint", "solve_dcop", "dcop_ladder"]

#: conductance to ground on every node, progressively removed
GMIN_STEPS = (1e-2, 1e-4, 1e-6, 1e-9, 0.0)


class OperatingPoint:
    """Result of a DC analysis: solution vector plus name-based accessors."""

    def __init__(self, circuit: Circuit, system: MNASystem, x: np.ndarray):
        self.circuit = circuit
        self.system = system
        self.x = x

    def v(self, node: str) -> float:
        idx = self.circuit.node(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def i(self, element_name: str) -> float:
        el = self.circuit[element_name]
        if el.branches:
            return float(self.x[el.branches[0]])
        return float(el.current(self.x))

    def voltages(self) -> dict[str, float]:
        return {name: float(self.x[i])
                for i, name in enumerate(self.circuit.node_names)}


def _newton(system: MNASystem, x: np.ndarray, options: NewtonOptions, **kw):
    """One DC Newton stage, counted into ``dcop_newton_iters``."""
    res = newton_solve(system, x, 0.0, options, **kw)
    get_metrics().inc("dcop_newton_iters", res.iterations)
    return res


def solve_dcop(circuit: Circuit, *, options: NewtonOptions = NewtonOptions(),
               x0: np.ndarray | None = None,
               gmin_steps: tuple[float, ...] = GMIN_STEPS,
               system: MNASystem | None = None) -> OperatingPoint:
    """Solve the DC operating point at ``t = 0``.

    Strategy: plain Newton first; on failure, the homotopy ladder of
    :func:`dcop_ladder`.  Every Newton iteration of every stage counts
    into the ``dcop_newton_iters`` counter.  A circuit holding an
    element without a scalar stamp (anything nonlinear but the MOSFETs
    and diodes) takes the same steps as a lockstep group of one
    (:func:`repro.circuit.batch.operating_point`), from ``x = 0`` and
    on the default ladder: ``x0`` and ``gmin_steps``
    tune the serial solver only, and passing either for such a circuit
    raises :class:`CircuitError`.
    """
    sys_ = system or MNASystem(circuit)
    if sys_.lockstep_only:
        if x0 is not None or tuple(gmin_steps) != GMIN_STEPS:
            raise CircuitError(
                f"{sys_.lockstep_only[0].name!r} takes its DC point from "
                "the lockstep engine, which has no x0 or gmin_steps")
        from .batch import operating_point  # the batch engine builds on us
        return OperatingPoint(circuit, sys_, operating_point(sys_, options))
    sys_.build_base(None, 1.0)
    x = np.zeros(sys_.size) if x0 is None else np.array(x0, dtype=float)
    res = _newton(sys_, x, options)
    if res.converged:
        return OperatingPoint(circuit, sys_, res.x)
    return OperatingPoint(circuit, sys_,
                          dcop_ladder(sys_, options, gmin_steps))


def dcop_ladder(system: MNASystem, options: NewtonOptions = NewtonOptions(),
                gmin_steps: tuple[float, ...] = GMIN_STEPS) -> np.ndarray:
    """The DC operating point by homotopy, once plain Newton has failed.

    gmin stepping first (a conductance to ground on every node,
    progressively removed); on failure, source stepping (all sources
    scaled from 10% to 100%, warm-starting each stage).  Both start from
    ``x = 0`` on the DC base ``system`` already holds, and from whatever
    element state plain Newton left behind (the driver macromodel's
    damped DC current).  Raises :class:`ConvergenceError` when source
    stepping fails too.
    """
    x = np.zeros(system.size)
    for gmin in gmin_steps:
        res = _newton(system, x, options, extra_gmin=gmin)
        if not res.converged:
            break
        x = res.x
    else:
        return x

    x = np.zeros(system.size)
    for scale in np.linspace(0.1, 1.0, 10):
        res = _newton(system, x, options, source_scale=float(scale))
        if not res.converged:
            raise ConvergenceError(
                f"DC operating point failed (source stepping at {scale:.0%})",
                iterations=res.iterations, residual=res.delta_norm)
        x = res.x
    return x
