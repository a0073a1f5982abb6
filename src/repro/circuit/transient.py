"""Fixed-timestep transient analysis.

The engine advances the MNA system on a uniform time grid, which matches the
discrete-time nature of the behavioral macromodels (they are estimated at a
fixed sampling time ``Ts`` and advance their internal state once per step) and
makes the delayed-reflection bookkeeping of Branin transmission lines exact.

Integration is the theta method: ``theta = 0.5`` (trapezoidal) by default,
``theta = 1.0`` for backward Euler, or any value in between for L-stable
damped trapezoidal behaviour (``theta = 0.55`` is a good choice for stiff
switching circuits).

:func:`run_transient` runs a circuit on the lockstep engine of
:mod:`repro.circuit.batch` as a batch of one: every nonlinear element
provides a vectorized bank (``batch_bank``), and a circuit holding one
that does not is rejected with a :class:`CircuitError` naming it.  This
module holds the options, the result and the initial conditions the
engine shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CircuitError
from .dcop import solve_dcop  # noqa: F401 -- perfbench/layers.py wraps it here
from .mna import MNASystem
from .netlist import Circuit
from .newton import NewtonOptions

__all__ = ["TransientOptions", "TransientResult", "run_transient"]

_METHOD_THETA = {"trap": 0.5, "be": 1.0, "damped": 0.55}


@dataclass(frozen=True)
class TransientOptions:
    """Controls for :func:`run_transient`.

    ``dt``: fixed timestep (s); ``t_stop``: final time (s);
    ``method``: ``"trap"``, ``"be"`` or ``"damped"`` (theta = 0.55), or pass
    ``theta`` directly to override; ``ic``: ``"dcop"`` (default), ``"zero"``,
    or a mapping of node names to initial voltages; ``newton``: tolerance
    bundle; ``strict``: raise on Newton failure (else carry the best iterate
    forward and record the event in ``TransientResult.warnings``).

    The step follows from the circuit, not from an option: a circuit
    with no nonlinear element advances by one solve of its constant
    matrix per step, any other by damped Newton, and the companion
    history of every reactive or delayed element advances in the
    struct-of-arrays groups of :mod:`repro.circuit.companion`.
    """

    dt: float = 1e-12
    t_stop: float = 1e-9
    method: str = "trap"
    theta: float | None = None
    ic: object = "dcop"
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    strict: bool = True

    def resolved_theta(self) -> float:
        if self.theta is not None:
            if not 0.5 <= self.theta <= 1.0:
                raise CircuitError("theta must lie in [0.5, 1.0]")
            return float(self.theta)
        try:
            return _METHOD_THETA[self.method]
        except KeyError:
            raise CircuitError(
                f"unknown method {self.method!r}; pick from {sorted(_METHOD_THETA)}"
            ) from None


class TransientResult:
    """Uniformly sampled transient solution with name-based accessors.

    ``batched`` is True when the run advanced with its group on the
    lockstep engine (:mod:`repro.circuit.batch`), False for a member of a
    declined group, which ran alone.
    """

    batched = False

    def __init__(self, circuit: Circuit, system: MNASystem,
                 t: np.ndarray, x: np.ndarray, warnings: list[str]):
        self.circuit = circuit
        self.system = system
        self.t = t
        self.x = x  # shape (len(t), system.size)
        self.warnings = warnings

    @property
    def fast_path(self) -> bool:
        """True when the linear solver path ran (no nonlinear element)."""
        return self.system.is_linear

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def v(self, node: str) -> np.ndarray:
        """Voltage waveform of a named node (zeros for ground)."""
        idx = self.circuit.node(node)
        if idx < 0:
            return np.zeros_like(self.t)
        return self.x[:, idx]

    def i(self, element_name: str, branch: int = 0) -> np.ndarray:
        """Branch-current waveform of an element owning MNA branches."""
        el = self.circuit[element_name]
        if not el.branches:
            raise CircuitError(
                f"{element_name!r} has no branch current; use element-specific accessors")
        return self.x[:, el.branches[branch]]

    def vdiff(self, a: str, b: str) -> np.ndarray:
        return self.v(a) - self.v(b)

    def probe(self, spec: str) -> np.ndarray:
        """Waveform named by a probe spec string.

        ``"v(node)"`` (or a bare node name) returns the node voltage;
        ``"i(element)"`` / ``"i(element,k)"`` returns an element's branch
        current (branch ``k`` of a multi-branch element).  This is the
        uniform extraction hook the sweep/emissions layer uses so a
        scenario can request voltage and current spectra symmetrically.
        """
        spec = spec.strip()
        low = spec.lower()
        if low.startswith("i(") and spec.endswith(")"):
            inner = spec[2:-1]
            name, _, branch = inner.partition(",")
            try:
                k = int(branch) if branch.strip() else 0
            except ValueError:
                raise CircuitError(
                    f"bad probe spec {spec!r}: branch index must be an "
                    "integer, e.g. 'i(name,1)'") from None
            return self.i(name.strip(), k)
        if low.startswith("v(") and spec.endswith(")"):
            return self.v(spec[2:-1].strip())
        return self.v(spec)

    def at(self, node: str, time: float) -> float:
        """Linearly interpolated node voltage at an arbitrary time."""
        return float(np.interp(time, self.t, self.v(node)))

    def resample(self, node: str, times: np.ndarray) -> np.ndarray:
        return np.interp(times, self.t, self.v(node))


def _initial_solution(circuit: Circuit, system: MNASystem,
                      ic) -> np.ndarray:
    """The initial solution of ``ic`` ``"zero"`` or a mapping of node
    names to voltages (the engine solves ``"dcop"`` itself)."""
    if isinstance(ic, str) and ic == "zero":
        return np.zeros(system.size)
    if isinstance(ic, dict):
        x = np.zeros(system.size)
        for name, val in ic.items():
            idx = circuit.node(name)
            if idx >= 0:
                x[idx] = float(val)
        return x
    raise CircuitError(f"bad ic specification {ic!r}")


def _check_systems(circuits: list, systems: list) -> None:
    """Raise :class:`CircuitError` unless each given system (None: built
    by the run) was built on its own circuit: a run would otherwise seed
    one circuit's element state and step the other's companion groups
    from it."""
    if any(s is not None and s.circuit is not c
           for c, s in zip(circuits, systems)):
        raise CircuitError("run_transient needs a system built on the "
                           "circuit it runs")


def run_transient(circuit: Circuit, options: TransientOptions,
                  system: MNASystem | None = None) -> TransientResult:
    """Run a fixed-step transient analysis and return the full solution.

    The circuit runs on the lockstep engine of :mod:`repro.circuit.batch`
    as a batch of one (a ``transient.batch`` span, ``batched=True``).
    A ``system`` must be an :class:`MNASystem` of ``circuit`` itself;
    :class:`CircuitError` otherwise, and for a nonlinear element without
    a ``batch_bank``.
    """
    from .batch import run_transient_batch  # the batch engine builds on us
    return run_transient_batch(
        [circuit], options, systems=system and [system])[0]
