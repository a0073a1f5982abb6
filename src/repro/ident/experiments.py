"""Virtual measurement harness: identification-signal experiments.

These functions reproduce, on the simulation substrate, the waveform
recordings the paper performs on transistor-level models:

* :func:`record_driver_state` -- driver held in a fixed logic state, output
  port forced by a multilevel noise voltage: estimation data for the
  ``i_H``/``i_L`` RBF submodels (Section 2).
* :func:`record_driver_switching` -- driver switching into an identification
  load: data for the ``w_H``/``w_L`` weight inversion (Section 2).
* :func:`record_receiver` -- receiver input forced by multilevel waveforms in
  the linear / up-clamp / down-clamp regions (Section 3).

All records sample the port voltage and the current flowing INTO the port at
a fixed ``ts``.  Transients run with the damped-theta integrator: pure
trapezoidal exhibits capacitor-current ringing after slope discontinuities,
which would pollute the identification currents.

Each ``*_bench`` function builds one record's circuit (a :class:`Bench`);
:func:`run_benches` runs groups of same-topology benches, each group in
one :func:`~repro.circuit.batch.run_transient_batch` call, so the
estimation pipelines advance a corner's two state records, or a load's
two switching records, in lockstep.  The ``record_*`` functions run a
single bench, a lockstep group of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import (Circuit, TransientOptions, VoltageSource,
                       run_transient_batch)
from ..circuit.waveforms import MultilevelNoise, Waveform
from ..devices.driver import DriverSpec, build_driver
from ..devices.receiver import ReceiverSpec, build_receiver
from ..errors import ExperimentError
from ..obs import get_tracer
from .dataset import PortRecord

__all__ = ["DEFAULT_TS", "Bench", "run_benches", "driver_state_bench",
           "driver_switching_bench", "receiver_bench",
           "record_driver_state", "record_driver_switching",
           "record_receiver", "measure_forced_port",
           "measure_driver_static_iv", "measure_receiver_static_iv"]

DEFAULT_TS = 25e-12  # the paper quotes Ts ~ 25..50 ps


@dataclass
class Bench:
    """One identification record still to run.

    ``circuit`` is simulated to ``t_stop`` at the sampling time ``ts``;
    the record is the voltage of node ``port`` and the current INTO the
    device port, which is minus the branch current of the voltage source
    ``meter`` (the forcing source, or a 0 V ammeter).
    """

    circuit: Circuit
    port: str
    meter: str
    ts: float
    t_stop: float
    meta: dict


def run_benches(groups) -> list:
    """Run groups of benches; returns one list of records per group.

    Each group (benches of one topology and sampling time) is one
    :func:`~repro.circuit.batch.run_transient_batch` call, from the DC
    operating point, under one ``ident.records`` span (``groups``,
    ``members``) that holds the groups' ``transient.batch`` spans.
    """
    groups = [list(g) for g in groups]
    out = []
    with get_tracer().span("ident.records") as sp:
        for group in groups:
            ts = group[0].ts
            t_stops = [b.t_stop for b in group]
            opts = TransientOptions(dt=ts, t_stop=max(t_stops),
                                    method="damped", ic="dcop")
            results = run_transient_batch(
                [b.circuit for b in group], opts, t_stops=t_stops)
            out.append([PortRecord(res.v(b.port), -res.i(b.meter), ts,
                                   b.meta)
                        for b, res in zip(group, results)])
        sp.set(groups=len(groups), members=sum(map(len, groups)))
    return out


def _forced_bench(ckt: Circuit, port: str, wave: Waveform, ts: float,
                  t_stop: float, meta: dict | None) -> Bench:
    """The bench of :func:`measure_forced_port` (same arguments)."""
    ckt.add(VoltageSource("_force", port, "0", wave))
    return Bench(ckt, port, "_force", ts, t_stop, meta or {})


def measure_forced_port(ckt: Circuit, port: str, wave: Waveform, *,
                        ts: float, t_stop: float,
                        meta: dict | None = None) -> PortRecord:
    """Force ``port`` with a voltage source and record (v, i-into-port).

    The forcing source is added here; the circuit must not already drive the
    node stiffly.
    """
    [[rec]] = run_benches([[_forced_bench(ckt, port, wave, ts, t_stop,
                                          meta)]])
    return rec


def driver_state_bench(spec: DriverSpec, state: str, *,
                       ts: float = DEFAULT_TS,
                       duration: float = 80e-9,
                       v_min: float | None = None,
                       v_max: float | None = None,
                       seed: int = 0,
                       corner: str = "typ",
                       levels: int = 0,
                       dwell: tuple[float, float] = (0.4e-9, 2.5e-9),
                       transition: float = 150e-12) -> Bench:
    """The bench of :func:`record_driver_state` (same arguments)."""
    if state not in ("0", "1"):
        raise ExperimentError("state must be '0' or '1'")
    v_min = -0.4 if v_min is None else v_min
    v_max = spec.vdd + 0.4 if v_max is None else v_max
    ckt = Circuit(f"ident_{spec.name}_{state}")
    build_driver(ckt, spec, "dut", "port", corner=corner, initial_state=state)
    wave = MultilevelNoise(v_min, v_max, duration, dwell_min=dwell[0],
                           dwell_max=dwell[1], transition=transition,
                           levels=levels, seed=seed)
    return _forced_bench(
        ckt, "port", wave, ts, duration,
        {"device": spec.name, "kind": "driver_state", "state": state,
         "corner": corner, "seed": seed, "v_range": (v_min, v_max)})


def record_driver_state(spec: DriverSpec, state: str, **kw) -> PortRecord:
    """Record the port response of a driver parked in logic ``state``.

    The output pad is forced by a multilevel noise waveform spanning
    ``[v_min, v_max]`` (default: -0.4 V to vdd + 0.4 V, covering the mild
    overdrive the validation loads produce).  Keywords: ``ts``,
    ``duration``, ``v_min``, ``v_max``, ``seed``, ``corner``, ``levels``,
    ``dwell``, ``transition`` (see :func:`driver_state_bench`).
    """
    [[rec]] = run_benches([[driver_state_bench(spec, state, **kw)]])
    return rec


def driver_switching_bench(spec: DriverSpec, load, pattern: str = "01", *,
                           ts: float = DEFAULT_TS,
                           bit_time: float = 10e-9,
                           corner: str = "typ") -> Bench:
    """The bench of :func:`record_driver_switching` (same arguments)."""
    ckt = Circuit(f"sw_{spec.name}_{pattern}")
    drv = build_driver(ckt, spec, "dut", "dev_out", corner=corner,
                       initial_state=pattern[0])
    # 0 V ammeter: branch current flows dev_out -> port, i.e. out of the
    # device; the record stores current INTO the device port.
    ckt.add(VoltageSource("vmeas", "dev_out", "port", 0.0))
    load.attach(ckt, "port", drv.vdd_node, "idload")
    drv.drive_pattern(pattern, bit_time)
    return Bench(ckt, "port", "vmeas", ts, bit_time * len(pattern),
                 {"device": spec.name, "kind": "driver_switching",
                  "pattern": pattern, "load": load.label(),
                  "corner": corner, "edge_time": bit_time,
                  "bit_time": bit_time})


def record_driver_switching(spec: DriverSpec, load, pattern: str = "01",
                            **kw) -> PortRecord:
    """Record port (v, i) while the driver switches into ``load``.

    ``pattern`` is usually ``"01"`` (up transition) or ``"10"`` (down); the
    edge sits at ``t = bit_time``.  A zero-volt ammeter source between the
    device and the port keeps the current measurement load-agnostic.
    Keywords: ``ts``, ``bit_time``, ``corner``.
    """
    [[rec]] = run_benches([[driver_switching_bench(spec, load, pattern,
                                                   **kw)]])
    return rec


def measure_driver_static_iv(spec: DriverSpec, state: str, v_grid, *,
                             corner: str = "typ"
                             ) -> tuple[np.ndarray, np.ndarray]:
    """DC I-V sweep of the parked driver port (current INTO the port).

    Used to anchor the static fixed points of the NARX submodels: one-step
    least squares alone leaves the free-run statics poorly pinned when the
    identification currents are dominated by capacitive transients.
    """
    from ..circuit import solve_dcop
    from ..circuit.waveforms import Constant
    v_grid = np.asarray(v_grid, dtype=float)
    i_grid = np.empty_like(v_grid)
    ckt = Circuit(f"dciv_{spec.name}_{state}")
    build_driver(ckt, spec, "dut", "port", corner=corner,
                 initial_state=state)
    src = ckt.add(VoltageSource("vf", "port", "0", Constant(float(v_grid[0]))))
    x_prev = None
    for k, v in enumerate(v_grid):
        src.waveform = Constant(float(v))
        op = solve_dcop(ckt, x0=x_prev)
        i_grid[k] = -op.i("vf")
        x_prev = op.x
    return v_grid, i_grid


def measure_receiver_static_iv(spec: ReceiverSpec, v_grid
                               ) -> tuple[np.ndarray, np.ndarray]:
    """DC I-V sweep of the receiver pad (current INTO the pad)."""
    from ..circuit import solve_dcop
    from ..circuit.waveforms import Constant
    v_grid = np.asarray(v_grid, dtype=float)
    i_grid = np.empty_like(v_grid)
    ckt = Circuit(f"dciv_{spec.name}")
    build_receiver(ckt, spec, "dut", "port")
    src = ckt.add(VoltageSource("vf", "port", "0", Constant(float(v_grid[0]))))
    x_prev = None
    for k, v in enumerate(v_grid):
        src.waveform = Constant(float(v))
        op = solve_dcop(ckt, x0=x_prev)
        i_grid[k] = -op.i("vf")
        x_prev = op.x
    return v_grid, i_grid


_RECEIVER_REGIONS = ("linear", "up", "down")


def receiver_bench(spec: ReceiverSpec, region: str, *,
                   ts: float = DEFAULT_TS,
                   duration: float = 60e-9,
                   seed: int = 0,
                   levels: int = 0,
                   overdrive: float = 1.2,
                   transition: float = 150e-12) -> Bench:
    """The bench of :func:`record_receiver` (same arguments)."""
    if region not in _RECEIVER_REGIONS:
        raise ExperimentError(
            f"region must be one of {_RECEIVER_REGIONS}, got {region!r}")
    if region == "linear":
        v_min, v_max = 0.05 * spec.vdd, 0.95 * spec.vdd
    elif region == "up":
        v_min, v_max = spec.vdd - 0.3, spec.vdd + overdrive
    else:
        v_min, v_max = -overdrive, 0.3
    ckt = Circuit(f"rx_{spec.name}_{region}")
    build_receiver(ckt, spec, "dut", "port")
    wave = MultilevelNoise(v_min, v_max, duration, dwell_min=0.4e-9,
                           dwell_max=2.5e-9, transition=transition,
                           levels=levels, seed=seed)
    return _forced_bench(
        ckt, "port", wave, ts, duration,
        {"device": spec.name, "kind": "receiver", "region": region,
         "seed": seed, "v_range": (v_min, v_max)})


def record_receiver(spec: ReceiverSpec, region: str, **kw) -> PortRecord:
    """Record receiver port (v, i) with region-targeted excitation.

    ``region``:

    * ``"linear"`` -- steps inside the rails where the port is nearly linear
      (estimation data for the ARX submodel);
    * ``"up"`` -- excursions above vdd engaging the up protection circuit
      (data for the RBF ``i_U`` submodel);
    * ``"down"`` -- excursions below ground (``i_D`` submodel).

    Keywords: ``ts``, ``duration``, ``seed``, ``levels``, ``overdrive``,
    ``transition`` (see :func:`receiver_bench`).
    """
    [[rec]] = run_benches([[receiver_bench(spec, region, **kw)]])
    return rec
