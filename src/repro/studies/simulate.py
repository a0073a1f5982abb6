"""Per-scenario simulation: bench building, metrics, worker-side state.

Everything in this module runs (or can run) inside a worker process: it
builds one driver-plus-load bench from a :class:`~repro.studies.spec.
Scenario`, simulates it, turns the waveforms into the EMC summary
(:func:`_emc_metrics`), and -- on parallel runs -- writes the resulting
arrays into the shared-memory arena slot the parent pre-allocated.  All
kind-specific behavior (circuit wiring, probes, extra metrics) dispatches
through the :mod:`repro.studies.kinds` registry; there is no load-kind
branching here.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..circuit import (Circuit, CurrentProbe, TransientOptions, fd,
                       run_transient, run_transient_batch)
from ..emc.detectors import apply_detector
from ..emc.metrics import threshold_crossings
from ..emc.radiated import radiated_spectrum
from ..emc.spectrum import Spectrum, amplitude_spectrum
from ..errors import ExperimentError
from ..models import PWRBFDriverElement, PWRBFDriverModel
from ..obs import get_metrics, get_tracer
from ..obs import worker_setup as _obs_worker_setup
from .kinds import get_kind
from .outcomes import ScenarioOutcome
from .spec import Scenario

__all__ = ["fd_applicable", "simulate_scenario", "simulate_scenario_batch"]

#: backends :func:`simulate_scenario` accepts
BACKENDS = ("transient", "fd")

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shm = None


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
    time grid.  Raises on an undescribable scenario; the callers
    (:func:`simulate_scenario`, :func:`simulate_scenario_batch`) turn
    that into an error outcome.
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


def _finish_outcome(sc: Scenario, model: PWRBFDriverModel, res, obs: str,
                    spec, t0: float) -> ScenarioOutcome:
    """Waveforms to outcome (post-simulation half; raises on error).

    Extracts the observed waveforms from the transient result, computes
    the requested spectra / detector weightings / radiated estimate /
    mask verdicts, and assembles the :class:`ScenarioOutcome` with the
    EMC metric summary.  ``t0`` is the ``perf_counter`` start stamp of
    the work attributed to this scenario.
    """
    # copy: res.v() is a view into the full (n_steps, size) solution
    # matrix, which must not stay alive per retained outcome
    v = res.v(obs).copy()
    probes = {name: res.v(node).copy()
              for name, node in sc.load.probes().items()}
    spectra: dict = {}
    verdicts_by: dict = {}
    verdict = None
    if spec is not None:
        if spec.quantity == "i_port":
            wave = res.probe("i(iprobe)").copy()
            probes["i_port"] = wave
            unit = "A"
        else:
            wave, unit = v, "V"
        spectrum = amplitude_spectrum(
            res.t, wave, window=spec.window, n_fft=spec.n_fft,
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
        if verdicts_by:
            verdict = min(verdicts_by.values(),
                          key=lambda vd: vd.margin_db)
    return ScenarioOutcome(
        scenario=sc, t=res.t, v_port=v,
        metrics=_emc_metrics(res.t, v, model.vdd, sc, probes,
                             spectra, verdict, verdicts_by),
        warnings=list(res.warnings),
        elapsed_s=time.perf_counter() - t0, probes=probes,
        spectra=spectra, verdict=verdict, verdicts_by=verdicts_by)


def fd_applicable(sc: Scenario, model: PWRBFDriverModel) -> bool:
    """Whether the FD (ABCD) backend can solve this scenario exactly.

    True when the load kind opts in
    (:meth:`~repro.studies.kinds.ScenarioKind.fd_eligible`), declares no
    extra probe nodes (the FD solver produces pad/observation records
    only), and the scenario's time grid is the driver model's own
    sampling grid (``dt`` unset or equal to ``model.ts`` -- the NARX
    regressors are only defined there).  Scenarios where this is False
    fall back to the transient engine under ``backend="fd"``; the
    runner folds the *effective* backend into its cache keys, so the
    fallback never conflates cache entries.  Raises for an unregistered
    load kind, exactly like bench building would.
    """
    kind = get_kind(sc.load.kind)
    if not kind.fd_eligible(sc.load):
        return False
    if kind.probes(sc.load):
        return False
    if sc.dt is not None and abs(sc.dt - model.ts) > 1e-12 * model.ts:
        return False
    return True


class _FDResult:
    """Duck-typed transient-result stand-in built from an FD solution.

    Provides exactly the surface :func:`_finish_outcome` touches --
    ``t``, ``v(node)``, ``probe(name)``, ``warnings`` -- so the FD and
    transient paths share every line of spectrum/verdict/metric code.
    """

    def __init__(self, t, nodes: dict, probes: dict, warnings: list):
        self.t = t
        self._nodes = nodes
        self._probes = probes
        self.warnings = list(warnings)

    def v(self, node: str):
        return self._nodes[node]

    def probe(self, name: str):
        return self._probes[name]


def _run_fd(sc: Scenario, model: PWRBFDriverModel):
    """FD counterpart of bench-build + ``run_transient``.

    Resolves the scenario's record, asks the load kind for its
    :class:`~repro.circuit.fd.FDNetwork`, solves the driver port with
    :func:`repro.circuit.fd.solve_driver_port` and wraps the records in
    a :class:`_FDResult`.  Returns ``(res, obs, spec)`` with the same
    meaning as the transient path's.
    """
    t_stop = sc.t_stop
    if t_stop is None:
        t_stop = (len(sc.pattern) + 2) * sc.bit_time
    spec = sc.spectral_spec()
    src = fd.extract_thevenin(model, sc.pattern, sc.bit_time, t_stop)
    net = get_kind(sc.load.kind).fd_network(sc.load, src.f)
    sol = fd.solve_driver_port(model, sc.pattern, sc.bit_time, t_stop, net)
    res = _FDResult(sol.t, {"out": sol.v_pad, "fd_obs": sol.v_obs},
                    {"i(iprobe)": sol.i_port}, sol.warnings)
    return res, "fd_obs", spec


def _error_outcome(sc: Scenario, exc: Exception,
                   elapsed_s: float) -> ScenarioOutcome:
    """The uniform error outcome of a scenario that failed to simulate."""
    return ScenarioOutcome(
        scenario=sc, t=np.empty(0), v_port=np.empty(0), metrics={},
        warnings=[], elapsed_s=elapsed_s,
        error=f"{type(exc).__name__}: {exc}")


def simulate_scenario(sc: Scenario, model: PWRBFDriverModel,
                      backend: str = "transient") -> ScenarioOutcome:
    """Build and run one driver-plus-load bench; never raises.

    The circuit wiring comes from the scenario's load kind; the spectral
    request (when present) adds the series :class:`CurrentProbe`,
    windowed-FFT spectra, detector weighting, radiated estimation and
    mask verdicts exactly as documented on
    :class:`~repro.studies.spec.SpectralSpec`.

    ``backend="fd"`` routes the scenario through the frequency-domain
    ABCD backend (:mod:`repro.circuit.fd`) when :func:`fd_applicable`
    says its load kind and time grid support it, and silently falls
    back to the transient engine otherwise; the waveform records,
    spectra, verdicts and metrics come back in exactly the same shape
    either way (equivalence tolerance: see ``docs/fd_backend.md``).

    Each call exports one ``scenario`` span (name, kind, status, and
    the backend actually used) under whatever span is current -- the
    runner's group span in-process, or the remote dispatch span inside
    a pool worker.
    """
    t0 = time.perf_counter()
    with get_tracer().span("scenario", scenario=sc.resolved_name(),
                           kind=sc.load.kind) as sp:
        try:
            if backend not in BACKENDS:
                raise ExperimentError(
                    f"unknown backend {backend!r}; pick from {BACKENDS}")
            if backend == "fd" and fd_applicable(sc, model):
                res, obs, spec = _run_fd(sc, model)
                sp.set(backend="fd")
            else:
                ckt, obs, spec, dt, t_stop = _build_bench(sc, model)
                res = run_transient(ckt, TransientOptions(
                    dt=dt, t_stop=t_stop, method="damped", strict=False))
            out = _finish_outcome(sc, model, res, obs, spec, t0)
            sp.set(status="ok", n_warnings=len(out.warnings))
            return out
        except Exception as exc:  # noqa: BLE001 - one bad corner must not kill a sweep
            sp.set(status="error")
            return _error_outcome(sc, exc, time.perf_counter() - t0)


def simulate_scenario_batch(items,
                            backend: str = "transient"
                            ) -> list[ScenarioOutcome]:
    """Simulate a group of same-shape scenarios in one batch; never raises.

    ``items`` is a sequence of ``(Scenario, PWRBFDriverModel)`` pairs
    sharing a batch key (same load kind and
    :meth:`~repro.studies.kinds.ScenarioKind.batch_structure`, driver,
    time step and spectral quantity -- the grouping the runner
    computes); corners and stop times may differ.  The whole group
    advances through :func:`~repro.circuit.run_transient_batch` on the
    longest grid, each member stopping at its own ``t_stop``, then each
    member's waveforms finish into a :class:`ScenarioOutcome` exactly as
    :func:`simulate_scenario` would; per-member waveforms, metrics and
    spectra match the serial path's to 1e-9.  ``elapsed_s`` is
    the group's wall time amortized evenly over its members.

    ``backend="fd"`` peels the FD-applicable members off first (each is
    solved alone -- the FD solver has no cross-scenario batching to
    amortize and needs none) and advances only the rest through the
    batched transient engine; the runner's grouping already makes FD
    scenarios singleton groups, so this split only matters for
    hand-rolled groupings and the dead-worker recompute path.

    The fallback ladder preserves the serial path's never-raise
    contract: a scenario whose bench cannot build gets an error outcome
    while the rest still batch; a group the batched backend rejects or
    that fails wholesale is re-simulated per scenario.
    """
    items = list(items)
    if backend == "fd":
        outcomes = [None] * len(items)
        rest = []
        for pos, (sc, model) in enumerate(items):
            try:
                applies = fd_applicable(sc, model)
            except ExperimentError:
                applies = False  # let the transient path report the error
            if applies:
                outcomes[pos] = simulate_scenario(sc, model, backend="fd")
            else:
                rest.append(pos)
        if rest:
            outs = simulate_scenario_batch([items[pos] for pos in rest])
            for pos, out in zip(rest, outs):
                outcomes[pos] = out
        return outcomes
    if len(items) <= 1:
        return [simulate_scenario(sc, model) for sc, model in items]
    t0 = time.perf_counter()
    outcomes: list = [None] * len(items)
    benches: list = []   # (pos, ckt, obs, spec, dt, t_stop)
    for pos, (sc, model) in enumerate(items):
        try:
            ckt, obs, spec, dt, t_stop = _build_bench(sc, model)
        except Exception as exc:  # noqa: BLE001 - isolate the bad member
            with get_tracer().span("scenario", scenario=sc.resolved_name(),
                                   kind=sc.load.kind, batched=True) as sp:
                sp.set(status="error")
            outcomes[pos] = _error_outcome(sc, exc,
                                           time.perf_counter() - t0)
            continue
        benches.append((pos, ckt, obs, spec, dt, t_stop))
    if not benches:
        return outcomes
    if len({b[4] for b in benches}) != 1:
        # the runner groups by time step, so this only happens with a
        # hand-rolled grouping -- each member runs on its own grid
        for pos, *_ in benches:
            sc, model = items[pos]
            outcomes[pos] = simulate_scenario(sc, model)
        return outcomes
    dt = benches[0][4]
    t_stops = [b[5] for b in benches]
    try:
        results = run_transient_batch(
            [b[1] for b in benches],
            TransientOptions(dt=dt, t_stop=max(t_stops), method="damped",
                             strict=False),
            t_stops=t_stops)
    except Exception:  # noqa: BLE001 - the serial path is the safety net
        for pos, *_ in benches:
            sc, model = items[pos]
            outcomes[pos] = simulate_scenario(sc, model)
        return outcomes
    for (pos, _, obs, spec, _, _), res in zip(benches, results):
        sc, model = items[pos]
        with get_tracer().span("scenario", scenario=sc.resolved_name(),
                               kind=sc.load.kind, batched=True) as sp:
            try:
                outcomes[pos] = _finish_outcome(sc, model, res, obs,
                                                spec, t0)
                sp.set(status="ok")
            except Exception as exc:  # noqa: BLE001 - isolate the bad member
                sp.set(status="error")
                outcomes[pos] = _error_outcome(sc, exc, 0.0)
    share = (time.perf_counter() - t0) / len(items)
    for out in outcomes:
        out.elapsed_s = share
    return outcomes


# kept under the old private name for the deprecation shim
_simulate_scenario = simulate_scenario


# ---------------------------------------------------------------------------
# shared-memory arena wire format
# ---------------------------------------------------------------------------
#
# A sweep's payload is dominated by the waveform/spectrum arrays; pickling
# them through the pool's result queue serializes every float twice.  The
# grid makes their sizes predictable *before* simulation (fixed-step engine:
# n = round(t_stop / dt) + 1; rfft bins: n_fft // 2 + 1), so the parent
# pre-allocates one shared-memory arena with a slot per pending scenario,
# workers write arrays in place, and only the scalar summary rides the
# queue.  Any surprise (unavailable shared memory, a layout mismatch, a
# failed scenario) falls back to pickling that outcome -- correctness never
# depends on the arena.

def _expected_layout(sc: Scenario, model) -> list[tuple[str, int]]:
    """Predicted (array name, length) list of a successful outcome."""
    dt = model.ts if sc.dt is None else sc.dt
    t_stop = sc.t_stop
    if t_stop is None:
        t_stop = (len(sc.pattern) + 2) * sc.bit_time
    n = int(round(t_stop / dt)) + 1
    layout = [("t", n), ("v_port", n)]
    layout += [(f"probe_{name}", n) for name in sc.load.probes()]
    spec = sc.spectral_spec()
    if spec is not None:
        if spec.quantity == "i_port":
            layout.append(("probe_i_port", n))
        n_fft = spec.n_fft if spec.n_fft is not None else n
        nb = int(n_fft) // 2 + 1
        for key in spec.spectrum_keys():
            layout.append((f"spec_{key}_f", nb))
            layout.append((f"spec_{key}_mag", nb))
    return layout


def _outcome_arrays(out: ScenarioOutcome) -> dict:
    """Flat name -> array view of an outcome (the arena wire format)."""
    arrays = {"t": out.t, "v_port": out.v_port}
    for name, wave in out.probes.items():
        arrays[f"probe_{name}"] = wave
    for qty, spec in out.spectra.items():
        arrays[f"spec_{qty}_f"] = spec.f
        arrays[f"spec_{qty}_mag"] = spec.mag
    return arrays


def _pack_outcome(out: ScenarioOutcome, buf, offset: int,
                  layout) -> ScenarioOutcome | None:
    """Write an outcome's arrays into the arena; return the stripped
    outcome (arrays replaced by ``None``), or ``None`` on any mismatch."""
    arrays = _outcome_arrays(out)
    if set(arrays) != {name for name, _ in layout}:
        return None
    pos = offset
    for name, length in layout:
        arr = np.ascontiguousarray(arrays[name], dtype=float)
        if arr.shape != (length,):
            return None
        np.frombuffer(buf, dtype=float, count=length,
                      offset=pos * 8)[:] = arr
        pos += length
    spectra_meta = {qty: {"unit": s.unit, "kind": s.kind, "label": s.label,
                          "detector": s.detector, "meta": dict(s.meta)}
                    for qty, s in out.spectra.items()}
    return replace(out, t=None, v_port=None,
                   probes={name: None for name in out.probes},
                   spectra=spectra_meta)


def _unpack_outcome(out: ScenarioOutcome, buf, offset: int,
                    layout) -> ScenarioOutcome:
    """Rebuild a stripped outcome from its arena slot (copies out)."""
    arrays = {}
    pos = offset
    for name, length in layout:
        arrays[name] = np.frombuffer(buf, dtype=float, count=length,
                                     offset=pos * 8).copy()
        pos += length
    probes = {name: arrays[f"probe_{name}"] for name in out.probes}
    spectra = {}
    for qty, meta in out.spectra.items():
        spectra[qty] = Spectrum(arrays[f"spec_{qty}_f"],
                                arrays[f"spec_{qty}_mag"],
                                unit=meta["unit"], kind=meta["kind"],
                                label=meta["label"],
                                detector=meta.get("detector", "peak"),
                                meta=meta["meta"])
    return replace(out, t=arrays["t"], v_port=arrays["v_port"],
                   probes=probes, spectra=spectra)


# ---------------------------------------------------------------------------
# worker-process state
# ---------------------------------------------------------------------------

# each worker deserializes every distinct driver model exactly once and
# attaches the shared arena once (both in the initializer), not once per
# scenario
_WORKER_MODELS: dict = {}
_WORKER_ARENA = None


def _worker_init(model_payloads: dict, arena_name: str | None = None,
                 obs_ctx: dict | None = None) -> None:
    global _WORKER_MODELS, _WORKER_ARENA
    _obs_worker_setup(obs_ctx)
    _WORKER_MODELS = {key: PWRBFDriverModel.from_dict(d)
                      for key, d in model_payloads.items()}
    _WORKER_ARENA = None
    if arena_name is not None and _shm is not None:
        try:
            _WORKER_ARENA = _shm.SharedMemory(name=arena_name)
        except (OSError, ValueError):
            _WORKER_ARENA = None  # fall back to pickling the arrays


def _pack_if_possible(idx, out, slot):
    """One result triple: the arena-packed outcome when the slot fits."""
    if slot is not None and _WORKER_ARENA is not None and out.ok:
        offset, layout = slot
        packed = _pack_outcome(out, _WORKER_ARENA.buf, offset, layout)
        if packed is not None:
            return idx, packed, True
    return idx, out, False


def _worker_run(args):
    idx, sc, model_key, slot, backend = args
    out = simulate_scenario(sc, _WORKER_MODELS[model_key], backend=backend)
    return _pack_if_possible(idx, out, slot)


def _worker_run_group(jobs):
    """Worker entry for one batch group of ``_worker_run`` job tuples.

    The jobs share a batch key (the parent grouped them; FD-backend
    scenarios arrive as singleton groups), so the group advances through
    :func:`simulate_scenario_batch`; each member's outcome then packs
    into its arena slot exactly as a :func:`_worker_run` result would.
    Returns ``(triples, metrics)``: a list of ``(idx, outcome, packed)``
    triples, one per job, plus the worker's metrics-registry delta
    (:meth:`~repro.obs.MetricsRegistry.flush`) for the parent to merge.
    One ``runner.group`` span wraps the batch, hanging under the
    parent's dispatch span when the pool was started with a trace
    context.
    """
    with get_tracer().span("runner.group", members=len(jobs)) as sp:
        if len(jobs) == 1:
            triples = [_worker_run(jobs[0])]
        else:
            outs = simulate_scenario_batch(
                [(sc, _WORKER_MODELS[model_key])
                 for _, sc, model_key, _, _ in jobs],
                backend=jobs[0][4])
            triples = [_pack_if_possible(idx, out, slot)
                       for (idx, _, _, slot, _), out in zip(jobs, outs)]
        sp.set(n_errors=sum(1 for _, out, _ in triples if not out.ok))
    return triples, get_metrics().flush()
