"""End-to-end estimation pipelines: device spec in, macromodel out.

These functions chain the virtual measurements of :mod:`repro.ident` with the
estimators of this package, mirroring the paper's modeling process:

* drivers (Section 2): two fixed-state multilevel-noise records -> RBF
  submodels via OLS; four switching records (up/down x two loads) -> weight
  signatures via linear inversion;
* receivers (Section 3): linear-region record -> ARX; clamp-region records
  -> residual RBF submodels; plus the C-V strawman extracted from a DC sweep
  and a capacitance ramp measurement.

Estimation cost is the paper's "some ten seconds of CPU" -- the pipelines
time themselves and store it in ``model.meta["estimation_seconds"]``.  The
transient records run on the grid-batched engine, one lockstep group per
record topology (:func:`~repro.ident.experiments.run_benches`); the static
I-V sweeps stay warm-started serial continuations.  Each pipeline is one
``model.estimate`` span (``kind``, ``name``, ``corner``) over its
``ident.records``, ``ident.static_iv`` and ``model.fit`` phases.
"""

from __future__ import annotations

import time

import numpy as np

from ..circuit import Circuit, VoltageSource, solve_dcop
from ..circuit.waveforms import Constant, Step
from ..devices.driver import DriverSpec
from ..devices.receiver import ReceiverSpec, build_receiver
from ..ident.dataset import PortRecord
from ..ident.experiments import (DEFAULT_TS, driver_state_bench,
                                 driver_switching_bench,
                                 measure_driver_static_iv,
                                 measure_forced_port,
                                 measure_receiver_static_iv, receiver_bench,
                                 run_benches)
from ..ident.loads import default_identification_loads, validate_load_pair
from ..obs import get_tracer
from .arx import fit_arx
from .driver import PWRBFDriverModel, estimate_weights
from .ols import OLSOptions, fit_rbf_ols
from .receiver import (CVReceiverModel, ParametricReceiverModel,
                       fit_receiver_nonlinear)
from .regressors import build_regressors, static_anchor_rows

__all__ = ["estimate_driver_model", "estimate_receiver_model",
           "estimate_cv_receiver", "fit_state_submodel",
           "static_anchor_rows"]


def fit_state_submodel(rec: PortRecord, order: int, n_bases: int,
                       seed: int = 0, static_iv=None,
                       static_fraction: float = 0.5):
    """Fit one fixed-state RBF submodel from an identification record.

    ``static_iv``: optional ``(v_grid, i_grid)`` DC sweep used to anchor the
    free-run fixed points (see :func:`static_anchor_rows`).
    """
    X, y = build_regressors(rec.v, rec.i, order)
    if static_iv is not None:
        X_s, y_s = static_anchor_rows(static_iv[0], static_iv[1], order,
                                      X.shape[0], static_fraction)
        X = np.vstack([X, X_s])
        y = np.concatenate([y, y_s])
    return fit_rbf_ols(X, y, OLSOptions(n_bases=n_bases, seed=seed))


def estimate_driver_model(spec: DriverSpec, *,
                          order: int = 2,
                          n_bases_high: int = 10,
                          n_bases_low: int = 15,
                          ts: float = DEFAULT_TS,
                          corner: str = "typ",
                          state_duration: float = 100e-9,
                          seed: int = 0,
                          loads=None,
                          bit_time: float = 10e-9,
                          t_pre: float = 1e-9,
                          t_sig: float = 8e-9,
                          overdrive: float = 0.8) -> PWRBFDriverModel:
    """Full PW-RBF driver estimation (paper Section 2).

    ``loads``: the two identification loads of the weight inversion
    (default :func:`~repro.ident.loads.default_identification_loads`);
    anything but two distinct loads raises :class:`ExperimentError`.
    The records run as two lockstep groups: the two fixed-state
    records, and the four switching records (up and down into each
    load), whose benches differ only in their linear loads.
    """
    t0 = time.perf_counter()
    loads = default_identification_loads() if loads is None else loads
    validate_load_pair(loads)
    tracer = get_tracer()
    with tracer.span("model.estimate", kind="driver",
                     corner=corner) as sp:
        sp.set(name=spec.name)
        v_lo, v_hi = -overdrive, spec.vdd + overdrive
        states = [driver_state_bench(spec, state, ts=ts,
                                     duration=state_duration, seed=sd,
                                     corner=corner, v_min=v_lo, v_max=v_hi)
                  for state, sd in (("1", seed), ("0", seed + 1))]
        switching = [driver_switching_bench(spec, load, pattern, ts=ts,
                                            bit_time=bit_time, corner=corner)
                     for load in loads for pattern in ("01", "10")]
        (rec_h, rec_l), sw_recs = run_benches([states, switching])
        with tracer.span("ident.static_iv"):
            v_grid = np.linspace(v_lo, v_hi, 41)
            iv_h = measure_driver_static_iv(spec, "1", v_grid, corner=corner)
            iv_l = measure_driver_static_iv(spec, "0", v_grid, corner=corner)
        with tracer.span("model.fit"):
            sub_h = fit_state_submodel(rec_h, order, n_bases_high,
                                       seed=seed, static_iv=iv_h)
            sub_l = fit_state_submodel(rec_l, order, n_bases_low,
                                       seed=seed, static_iv=iv_l)
            # sw_recs holds the up and down records into the first
            # load, then into the second
            sw = {direction: estimate_weights(
                      sub_h, sub_l, order, sw_recs[k], sw_recs[2 + k],
                      direction, t_pre=t_pre, t_sig=t_sig)
                  for k, direction in enumerate(("up", "down"))}

    model = PWRBFDriverModel(
        name=spec.name, order=order, ts=ts, vdd=spec.vdd,
        sub_high=sub_h, sub_low=sub_l, up=sw["up"], down=sw["down"],
        meta={"corner": corner, "seed": seed,
              "n_bases": (sub_h.n_bases, sub_l.n_bases),
              "loads": [ld.label() for ld in loads],
              "estimation_seconds": time.perf_counter() - t0})
    return model


def estimate_receiver_model(spec: ReceiverSpec, *,
                            arx_order: int = 2,
                            up_order: int = 1,
                            down_order: int = 2,
                            n_bases: int = 8,
                            ts: float = DEFAULT_TS,
                            duration: float = 60e-9,
                            seed: int = 0,
                            overdrive: float = 1.2) -> ParametricReceiverModel:
    """Full ARX + RBF receiver estimation (paper Section 3).

    The linear, up and down records run as one lockstep group.
    """
    t0 = time.perf_counter()
    tracer = get_tracer()
    with tracer.span("model.estimate", kind="receiver") as sp:
        sp.set(name=spec.name)
        [[rec_lin, rec_up, rec_dn]] = run_benches([[
            receiver_bench(spec, "linear", ts=ts, duration=duration,
                           seed=seed, levels=7),
            receiver_bench(spec, "up", ts=ts, duration=duration,
                           seed=seed + 1),
            receiver_bench(spec, "down", ts=ts, duration=duration,
                           seed=seed + 2)]])
        # Static anchors: DC sweep residual, masked to each protection
        # region so the up submodel pins to zero below mid-rail and vice
        # versa.
        with tracer.span("ident.static_iv"):
            v_grid = np.linspace(-overdrive, spec.vdd + overdrive, 61)
            _, i_static = measure_receiver_static_iv(spec, v_grid)
        with tracer.span("model.fit"):
            linear = fit_arx(rec_lin.v, rec_lin.i, arx_order)
            denom = 1.0 + float(np.sum(linear.a))
            arx_static = linear.dc_gain() * v_grid + linear.c / denom
            resid_static = i_static - arx_static
            mid = 0.5 * spec.vdd
            up_anchor = (v_grid, np.where(v_grid > mid, resid_static, 0.0))
            dn_anchor = (v_grid, np.where(v_grid < mid, resid_static, 0.0))
            up = fit_receiver_nonlinear(linear, rec_up, up_order, n_bases,
                                        seed=seed, static_anchor=up_anchor)
            down = fit_receiver_nonlinear(linear, rec_dn, down_order,
                                          n_bases, seed=seed + 1,
                                          static_anchor=dn_anchor)
    return ParametricReceiverModel(
        name=spec.name, ts=ts, vdd=spec.vdd, linear=linear, up=up,
        down=down, up_order=up_order, down_order=down_order,
        meta={"seed": seed, "arx_order": arx_order,
              "estimation_seconds": time.perf_counter() - t0})


def _static_pad_current(spec: ReceiverSpec, v_pad: float) -> float:
    ckt = Circuit("cv_sweep")
    build_receiver(ckt, spec, "dut", "pad")
    ckt.add(VoltageSource("vf", "pad", "0", Constant(v_pad)))
    op = solve_dcop(ckt)
    return -op.i("vf")


def estimate_cv_receiver(spec: ReceiverSpec, *,
                         v_margin: float = 1.5,
                         n_points: int = 61,
                         ts: float = DEFAULT_TS) -> CVReceiverModel:
    """Extract the C-V strawman: DC I-V sweep + mid-rail capacitance ramp."""
    t0 = time.perf_counter()
    v_grid = np.linspace(-v_margin, spec.vdd + v_margin, n_points)
    i_grid = np.array([_static_pad_current(spec, float(v)) for v in v_grid])

    # capacitance from a mid-rail ramp: i ~ C dv/dt
    ckt = Circuit("cv_ramp")
    build_receiver(ckt, spec, "dut", "port")
    ramp = Step(v0=0.2 * spec.vdd, v1=0.8 * spec.vdd, t0=1e-9, rise=1e-9)
    rec = measure_forced_port(ckt, "port", ramp, ts=ts, t_stop=2.5e-9)
    mid = (rec.t > 1.3e-9) & (rec.t < 1.7e-9)
    dvdt = 0.6 * spec.vdd / 1e-9
    c_est = float(np.median(rec.i[mid])) / dvdt
    return CVReceiverModel(
        name=spec.name, capacitance=c_est, v_grid=v_grid, i_grid=i_grid,
        vdd=spec.vdd,
        meta={"estimation_seconds": time.perf_counter() - t0})
