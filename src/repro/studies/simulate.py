"""Per-scenario simulation: bench building and metrics.

Everything in this module runs (or can run) inside a study child
process, which receives its scenarios and driver models as arguments
(see :class:`~repro.studies.runner.Child`): it builds driver-plus-load
benches from :class:`~repro.studies.spec.Scenario` objects, simulates
them as one batch (a lone scenario is a batch of one) and turns the
waveforms into the EMC summary (:func:`_emc_metrics`).  All
kind-specific behavior (circuit wiring, probes, extra metrics) dispatches
through the :mod:`repro.studies.kinds` registry; there is no load-kind
branching here.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from ..circuit import (Circuit, CurrentProbe, TransientOptions,
                       run_transient_batch)
from ..emc.detectors import apply_detector
from ..emc.limits import worst_verdict
from ..emc.metrics import threshold_crossings
from ..emc.radiated import radiated_spectrum
from ..emc.spectrum import amplitude_spectrum
from ..models import PWRBFDriverElement, PWRBFDriverModel
from ..obs import get_tracer
from .kinds import get_kind
from .outcomes import ScenarioOutcome
from .spec import Scenario

__all__ = ["simulate_scenario", "simulate_scenario_batch"]


def _emc_metrics(t: np.ndarray, v: np.ndarray, vdd: float,
                 sc: Scenario, probes: dict | None = None,
                 spectra: dict | None = None,
                 verdict=None, verdicts_by: dict | None = None) -> dict:
    """Per-scenario EMC summary (threshold edges + amplitude margins).

    Kind-specific metrics (NEXT/FEXT crosstalk for coupled scenarios,
    the receiver logic-eye check for ``"rx"``) are merged through the
    load kind's :meth:`~repro.studies.kinds.ScenarioKind.extra_metrics`
    hook; when ``spectra``/``verdict`` carry an emission spectrum and
    its mask verdicts, the spectral peak and the worst margin are merged
    too (plus one ``margin[<check>]_db`` entry per detector/radiated
    check).
    """
    v_max = float(np.max(v))
    v_min = float(np.min(v))
    crossings = threshold_crossings(t, v, vdd / 2.0)
    # nominal instant of the first logic edge, for edge-delay reporting
    first_edge = next((k * sc.bit_time for k in range(1, len(sc.pattern))
                       if sc.pattern[k] != sc.pattern[k - 1]), None)
    first_crossing = float(crossings[0]) if crossings.size else float("nan")
    # ringing: residual oscillation around the settled level over the last
    # bit (std, so a resistive-divider level drop does not count as ringing);
    # the settled-level error vs the ideal rail is reported separately.
    # The reference level is the bit actually driven at the end of the run
    # -- t_stop may truncate the pattern
    tail = t >= (t[-1] - sc.bit_time)
    k_bit = min(int(t[-1] / sc.bit_time), len(sc.pattern) - 1)
    v_final = vdd if sc.pattern[k_bit] == "1" else 0.0
    ringing = float(np.std(v[tail]))
    settle_error = abs(float(np.mean(v[tail])) - v_final)
    out = {
        "v_max": v_max,
        "v_min": v_min,
        "overshoot": max(v_max - vdd, 0.0),
        "undershoot": max(-v_min, 0.0),
        "swing": v_max - v_min,
        "n_crossings": int(crossings.size),
        "first_crossing": first_crossing,
        "first_edge_delay": (first_crossing - first_edge
                             if first_edge is not None else float("nan")),
        "ringing_rms": ringing,
        "settle_error": settle_error,
    }
    out.update(get_kind(sc.load.kind).extra_metrics(
        sc.load, sc, t, v, vdd, probes or {}))
    if spectra:
        # the raw (peak-detector) spectrum of the requested quantity sets
        # the headline emission level; derived detector/radiated spectra
        # get their levels through the per-check margins below
        sspec = sc.spectral_spec()
        base = spectra.get(sspec.quantity) if sspec is not None else None
        if base is None:
            base = next(iter(spectra.values()))
        nz = base.f > 0.0  # the DC bin is a level, not an emission
        sdb = base.db()[nz]
        j = int(np.argmax(sdb))
        out["emis_peak_db"] = float(sdb[j])
        out["emis_f_peak"] = float(base.f[nz][j])
    if verdict is not None:
        out["emis_margin_db"] = float(verdict.margin_db)
        out["emis_f_worst"] = float(verdict.f_worst)
        out["spectral_pass"] = bool(verdict.passed)
    for check, vd in (verdicts_by or {}).items():
        out[f"margin[{check}]_db"] = float(vd.margin_db)
    return out


def _build_bench(sc: Scenario, model: PWRBFDriverModel):
    """Construct one driver-plus-load bench circuit (pre-simulation half).

    Returns ``(ckt, obs, spec, dt, t_stop)``: the wired circuit, the
    observation node, the effective spectral request, and the resolved
    time grid.  Raises on an undescribable scenario;
    :func:`simulate_scenario_batch` turns that into an error outcome.
    """
    dt = model.ts if sc.dt is None else sc.dt
    t_stop = sc.t_stop
    if t_stop is None:
        t_stop = (len(sc.pattern) + 2) * sc.bit_time
    spec = sc.spectral_spec()
    ckt = Circuit(sc.resolved_name())
    ckt.add(PWRBFDriverElement.for_pattern(
        "drv", "out", model, sc.pattern, sc.bit_time, t_stop))
    load_port = "out"
    if spec is not None and spec.quantity == "i_port":
        # series ammeter between the driver pad and the load: its MNA
        # branch records the conducted port current without changing
        # the circuit solution
        ckt.add(CurrentProbe("iprobe", "out", "load"))
        load_port = "load"
    obs = sc.load.build(ckt, load_port)
    return ckt, obs, spec, dt, t_stop


class _Observed(NamedTuple):
    """A member's observed waveforms, copied out of its group's
    solution matrix so that the matrix can go before post-processing."""

    t: np.ndarray
    v: np.ndarray
    probes: dict
    warnings: list


def _observe(sc: Scenario, res, obs: str, spec) -> "_Observed | Exception":
    """Copy the waveforms post-processing reads out of ``res``: the
    observed node, the load's probes and, for an ``i_port`` spectral
    request, the ammeter's current (under ``probes["i_port"]``).  A
    failure is returned, not raised, so that it stays the member's."""
    try:
        probes = {name: res.v(node).copy()
                  for name, node in sc.load.probes().items()}
        if spec is not None and spec.quantity == "i_port":
            probes["i_port"] = res.probe("i(iprobe)").copy()
        return _Observed(res.t, res.v(obs).copy(), probes,
                         list(res.warnings))
    except Exception as exc:  # noqa: BLE001 - isolate the bad member
        return exc


def _finish_outcome(sc: Scenario, model: PWRBFDriverModel, seen: _Observed,
                    spec, t0: float) -> ScenarioOutcome:
    """Waveforms to outcome (post-simulation half; raises on error).

    Computes the requested spectra / detector weightings / radiated
    estimate / mask verdicts of the observed waveforms and assembles the
    :class:`ScenarioOutcome` with the EMC metric summary.  ``t0`` is the
    ``perf_counter`` start stamp of the work attributed to this scenario.
    """
    t, v, probes = seen.t, seen.v, seen.probes
    spectra: dict = {}
    verdicts_by: dict = {}
    verdict = None
    if spec is not None:
        if spec.quantity == "i_port":
            wave, unit = probes["i_port"], "A"
        else:
            wave, unit = v, "V"
        spectrum = amplitude_spectrum(
            t, wave, window=spec.window, n_fft=spec.n_fft,
            unit=unit, label=f"{sc.resolved_name()}:{spec.quantity}")
        spectra[spec.quantity] = spectrum
        mask = spec.resolved_mask()
        rmask = spec.resolved_radiated_mask()
        for det in spec.detectors:
            if det == "peak":
                weighted = spectrum
            else:
                weighted = apply_detector(spectrum, det, spec.prf)
                spectra[f"{spec.quantity}@{det}"] = weighted
            if mask is not None:
                verdicts_by[det] = mask.check(weighted)
            if spec.antenna is not None:
                e_spec = radiated_spectrum(weighted, spec.antenna)
                e_key = "e_field" if det == "peak" \
                    else f"e_field@{det}"
                spectra[e_key] = e_spec
                if rmask is not None:
                    verdicts_by[f"rad:{det}"] = rmask.check(e_spec)
        verdict = worst_verdict(verdicts_by.values())
    return ScenarioOutcome(
        scenario=sc, t=t, v_port=v,
        metrics=_emc_metrics(t, v, model.vdd, sc, probes,
                             spectra, verdict, verdicts_by),
        warnings=seen.warnings,
        elapsed_s=time.perf_counter() - t0, probes=probes,
        spectra=spectra, verdict=verdict, verdicts_by=verdicts_by)


def _error_outcome(sc: Scenario, exc: Exception,
                   elapsed_s: float) -> ScenarioOutcome:
    """The uniform error outcome of a scenario that failed to simulate."""
    return ScenarioOutcome(
        scenario=sc, t=np.empty(0), v_port=np.empty(0), metrics={},
        warnings=[], elapsed_s=elapsed_s,
        error=f"{type(exc).__name__}: {exc}")


def _failed(sc: Scenario, exc: Exception, t0: float) -> ScenarioOutcome:
    """Error outcome of a scenario that produced no waveforms, exported
    as its own ``scenario`` span with ``status="error"``."""
    with get_tracer().span("scenario", scenario=sc.resolved_name(),
                           kind=sc.load.kind) as sp:
        sp.set(status="error")
    return _error_outcome(sc, exc, time.perf_counter() - t0)


def simulate_scenario(sc: Scenario,
                      model: PWRBFDriverModel) -> ScenarioOutcome:
    """Build and run one driver-plus-load bench; never raises.

    A batch of one: see :func:`simulate_scenario_batch`.
    """
    return simulate_scenario_batch([(sc, model)])[0]


def simulate_scenario_batch(items) -> list[ScenarioOutcome]:
    """Simulate a group of same-shape scenarios in one batch; never raises.

    ``items`` is a sequence of ``(Scenario, PWRBFDriverModel)`` pairs,
    usually sharing a batch key (same load kind and
    :meth:`~repro.studies.kinds.ScenarioKind.batch_structure`, driver,
    time step and spectral quantity -- the grouping the runner
    computes); corners and stop times may differ.  The circuit wiring
    comes from each scenario's load kind; the spectral request (when
    present) adds the series :class:`CurrentProbe`, windowed-FFT
    spectra, detector weighting, radiated estimation and mask verdicts
    exactly as documented on :class:`~repro.studies.spec.SpectralSpec`.

    The whole group advances through
    :func:`~repro.circuit.run_transient_batch` on the longest grid, each
    member stopping at its own ``t_stop``; that call decides whether the
    group runs in lockstep or member by member (a lone member is a
    lockstep batch of one).  Per-member waveforms, metrics and spectra
    match a lone run of the same scenario to 1e-9.  Each member's
    observed waveforms are copied out before post-processing, which runs
    after the group's solution matrix is released.  ``elapsed_s`` is the
    group's wall time amortized evenly over its members.  Each member
    exports one ``scenario`` span (name, kind, status) after the group's
    ``transient.batch`` span.

    The fallback ladder keeps the never-raise contract: a scenario whose
    bench cannot build gets an error outcome while the rest still batch;
    members on differing time steps (only a hand-rolled grouping mixes
    them) and a group that fails wholesale are re-simulated one by one;
    a lone member that fails gets an error outcome.
    """
    items = list(items)
    t0 = time.perf_counter()
    outcomes: list = [None] * len(items)
    benches: list = []   # (pos, ckt, obs, spec, dt, t_stop)
    for pos, (sc, model) in enumerate(items):
        try:
            benches.append((pos, *_build_bench(sc, model)))
        except Exception as exc:  # noqa: BLE001 - isolate the bad member
            outcomes[pos] = _failed(sc, exc, t0)
    if not benches:
        return outcomes
    if len(benches) > 1 and len({b[4] for b in benches}) != 1:
        return _one_by_one(items, benches, outcomes)
    t_stops = [b[5] for b in benches]
    try:
        results = run_transient_batch(
            [b[1] for b in benches],
            TransientOptions(dt=benches[0][4], t_stop=max(t_stops),
                             method="damped", strict=False),
            t_stops=t_stops)
    except Exception as exc:  # noqa: BLE001 - one bad corner must not kill a sweep
        if len(benches) > 1:
            return _one_by_one(items, benches, outcomes)
        pos = benches[0][0]
        outcomes[pos] = _failed(items[pos][0], exc, t0)
        return outcomes
    observed = [(pos, spec, _observe(items[pos][0], res, obs, spec))
                for (pos, _, obs, spec, _, _), res in zip(benches, results)]
    # the results hold the group's solution matrix, the benches the
    # driver elements, whose timelines view the bank's: neither is read
    # again, so post-processing runs without them
    del results, benches
    for pos, spec, seen in observed:
        sc, model = items[pos]
        if isinstance(seen, Exception):
            outcomes[pos] = _failed(sc, seen, t0)
            continue
        with get_tracer().span("scenario", scenario=sc.resolved_name(),
                               kind=sc.load.kind) as sp:
            try:
                outcomes[pos] = _finish_outcome(sc, model, seen, spec, t0)
                sp.set(status="ok", n_warnings=len(seen.warnings))
            except Exception as exc:  # noqa: BLE001 - isolate the bad member
                sp.set(status="error")
                outcomes[pos] = _error_outcome(sc, exc, 0.0)
    share = (time.perf_counter() - t0) / len(items)
    for out in outcomes:
        out.elapsed_s = share
    return outcomes


def _one_by_one(items, benches, outcomes) -> list[ScenarioOutcome]:
    """Re-simulate each built member of a group as a batch of one."""
    for pos, *_ in benches:
        outcomes[pos], = simulate_scenario_batch([items[pos]])
    return outcomes

