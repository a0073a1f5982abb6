"""DC operating-point solver with gmin and source stepping homotopies."""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError
from ..obs import get_metrics
from .mna import MNASystem
from .netlist import Circuit
from .newton import NewtonOptions, newton_solve

__all__ = ["OperatingPoint", "solve_dcop"]


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


def solve_dcop(circuit: Circuit, *, options: NewtonOptions = NewtonOptions(),
               x0: np.ndarray | None = None,
               gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-9, 0.0),
               system: MNASystem | None = None) -> OperatingPoint:
    """Solve the DC operating point at ``t = 0``.

    Strategy: plain Newton first; on failure, gmin stepping (a conductance to
    ground on every node, progressively removed); on failure, source stepping
    (all sources scaled from 10% to 100%, warm-starting each stage).  Every
    Newton iteration of every stage counts into the ``dcop_newton_iters``
    counter.
    """
    sys_ = system or MNASystem(circuit)
    sys_.build_base(None, 1.0)
    x = np.zeros(sys_.size) if x0 is None else np.array(x0, dtype=float)
    metrics = get_metrics()

    def newton(x, **kw):
        res = newton_solve(sys_, x, 0.0, options, **kw)
        metrics.inc("dcop_newton_iters", res.iterations)
        return res

    res = newton(x)
    if res.converged:
        return OperatingPoint(circuit, sys_, res.x)

    # gmin stepping
    x = np.zeros(sys_.size)
    ok = True
    for gmin in gmin_steps:
        res = newton(x, extra_gmin=gmin)
        if not res.converged:
            ok = False
            break
        x = res.x
    if ok:
        return OperatingPoint(circuit, sys_, x)

    # source stepping
    x = np.zeros(sys_.size)
    for scale in np.linspace(0.1, 1.0, 10):
        res = newton(x, source_scale=float(scale))
        if not res.converged:
            raise ConvergenceError(
                f"DC operating point failed (source stepping at {scale:.0%})",
                iterations=res.iterations, residual=res.delta_norm)
        x = res.x
    return OperatingPoint(circuit, sys_, x)
