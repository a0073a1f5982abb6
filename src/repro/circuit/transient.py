"""Fixed-timestep transient analysis.

The engine advances the MNA system on a uniform time grid, which matches the
discrete-time nature of the behavioral macromodels (they are estimated at a
fixed sampling time ``Ts`` and advance their internal state once per step) and
makes the delayed-reflection bookkeeping of Branin transmission lines exact.

Integration is the theta method: ``theta = 0.5`` (trapezoidal) by default,
``theta = 1.0`` for backward Euler, or any value in between for L-stable
damped trapezoidal behaviour (``theta = 0.55`` is a good choice for stiff
switching circuits).

:func:`run_transient` hands every circuit whose nonlinear elements all
provide a vectorized bank to the lockstep engine of
:mod:`repro.circuit.batch` (a batch of one); the serial Newton engine
here (:func:`run_serial`) runs the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CircuitError, ConvergenceError
from ..obs import get_metrics, get_tracer
from .companion import build_companion_groups
from .dcop import solve_dcop
from .mna import MNASystem
from .netlist import Circuit
from .newton import NewtonOptions, newton_solve

__all__ = ["TransientOptions", "TransientResult", "run_transient",
           "run_serial"]

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

    The engine follows from the circuit, not from an option (see
    :func:`run_transient`): a circuit with no nonlinear element advances
    by one solve of its constant matrix per step, any other by damped
    Newton, and the companion history of every reactive or delayed
    element advances in the struct-of-arrays groups of
    :mod:`repro.circuit.companion`.
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
    lockstep engine (:mod:`repro.circuit.batch`).
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


def _initial_solution(circuit: Circuit, system: MNASystem, options,
                      newton_opts: NewtonOptions) -> np.ndarray:
    ic = options.ic
    if isinstance(ic, str) and ic == "dcop":
        return solve_dcop(circuit, options=newton_opts, system=system).x
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

    A circuit whose nonlinear elements all provide a ``batch_bank``
    (linear circuits included) runs on the lockstep engine of
    :mod:`repro.circuit.batch` as a batch of one (a ``transient.batch``
    span, ``batched=True``); any other goes to the serial Newton engine
    of :func:`run_serial`.  A ``system`` must be an :class:`MNASystem`
    of ``circuit`` itself (:class:`CircuitError` otherwise).
    """
    from .batch import lockstep_eligible, run_transient_batch  # builds on us
    if lockstep_eligible(circuit):
        return run_transient_batch(
            [circuit], options, systems=system and [system])[0]
    return run_serial(circuit, options, system)


def run_serial(circuit: Circuit, options: TransientOptions,
               system: MNASystem | None = None) -> TransientResult:
    """The serial Newton engine: one circuit, one scalar stamp per
    nonlinear element and step.

    It serves the circuits holding a nonlinear element without a
    ``batch_bank``; raises :class:`CircuitError` for one that also
    holds a macromodel port, which has no scalar stamp.  When tracing is
    enabled (:func:`repro.obs.configure_tracing`) the run exports one
    ``transient.run`` span carrying the step count, fast-path/Newton
    split and total Newton iterations; ``solver_steps``/``newton_iters``
    counters accumulate in the metrics registry either way.
    """
    with get_tracer().span("transient.run") as sp:
        return _run_transient(circuit, options, system, sp)


def _run_transient(circuit: Circuit, options: TransientOptions,
                   system: MNASystem | None, sp) -> TransientResult:
    if options.dt <= 0.0 or options.t_stop <= options.dt:
        raise CircuitError("need 0 < dt < t_stop")
    _check_systems([circuit], [system])
    theta = options.resolved_theta()
    sys_ = system or MNASystem(circuit)
    if sys_.lockstep_only:
        raise CircuitError(
            f"{sys_.lockstep_only[0].name!r} runs only on the lockstep "
            "engine, which cannot run this circuit")

    x0 = _initial_solution(circuit, sys_, options, options.newton)
    for el in circuit.elements:
        el.init_state(x0, sys_)
    # only nonlinear elements that track state need the per-step callback
    # (memoized on the system: repeated runs skip the per-element scan)
    upd_els = sys_.upd_els

    sys_.build_base(options.dt, theta)

    n_steps = int(round(options.t_stop / options.dt))
    t_grid = options.dt * np.arange(n_steps + 1)
    xs = np.empty((n_steps + 1, sys_.size))
    xs[0] = x0
    warnings: list[str] = []
    newton_steps = newton_iters = newton_retries = 0

    # Per-analysis precomputation: every source waveform is sampled over the
    # whole grid in one vectorized pass, and the reactive and delayed
    # elements are gathered into struct-of-arrays companion groups.  The
    # per-step Python work left is one table-row copy and the group updates.
    b_src = sys_.build_source_table(t_grid)
    comp = build_companion_groups(sys_.circuit.elements, options.dt, x0)
    b_buf = np.empty(sys_.size)
    linear = sys_.is_linear

    x = x0
    x_prev = x0
    dt = options.dt
    try:
        for k in range(1, n_steps + 1):
            t = t_grid[k]
            b_src.fill_row(k, b_buf)
            comp.add_rhs(b_buf)
            if linear:
                x = sys_.solve_linear_step(b_buf)
            else:
                # linear predictor as the Newton starting point
                guess = 2.0 * x - x_prev if k > 1 else x
                res = newton_solve(sys_, guess, t, options.newton,
                                   b_step=b_buf)
                newton_steps += 1
                newton_iters += res.iterations
                if not res.converged:
                    # retry from the previous accepted solution, no predictor
                    res = newton_solve(sys_, x, t, options.newton,
                                       b_step=b_buf)
                    newton_retries += 1
                    newton_iters += res.iterations
                if not res.converged:
                    msg = (f"transient Newton failed at t={t:.4g}s "
                           f"(|delta|={res.delta_norm:.3g})")
                    if options.strict:
                        raise ConvergenceError(msg, time=t,
                                               residual=res.delta_norm)
                    warnings.append(msg)
                x_prev = x
                x = res.x
            comp.update(x)
            for el in upd_els:
                el.update_state(x, t, dt, theta)
            xs[k] = x
    finally:
        comp.flush()
    sp.set(size=sys_.size, n_steps=n_steps, linear=linear,
           newton_steps=newton_steps, newton_iters=newton_iters,
           newton_retries=newton_retries, n_warnings=len(warnings))
    met = get_metrics()
    met.inc("solver_steps", n_steps)
    if newton_iters:
        met.inc("newton_iters", newton_iters)
    return TransientResult(circuit, sys_, t_grid, xs, warnings)
