"""Parallel scenario fan-out and result caching.

:class:`ScenarioRunner` takes any iterable of
:class:`~repro.studies.spec.Scenario` (typically
:meth:`~repro.studies.spec.Study.scenarios` or
:func:`~repro.studies.spec.scenario_grid`), answers what it can from the
in-memory / disk result caches, groups the rest by structural batch
identity (:func:`batch_key`, built on the load kinds'
:meth:`~repro.studies.kinds.ScenarioKind.batch_structure`), runs each
group -- singletons included -- through
:func:`~repro.studies.simulate.simulate_scenario_batch`, and fans the
groups across ``multiprocessing`` workers, which return their outcomes
pickled.

Dispatch preparation -- resolving driver models, estimating the auxiliary
models each load kind declares, pre-solving the CISPR detector weights the
grid will need, and rendering the driver-model payloads workers
deserialize -- is one shared, memoized step
(:meth:`ScenarioRunner.prepare_dispatch`), so repeated ``run`` calls on
one runner (or on the :class:`~repro.studies.spec.Study` facade above it)
never re-serialize a model or re-solve a detector steady state they
already paid for.

Disk-cache entries are keyed on the scenario's canonical serialized form
(:meth:`Scenario.key`) plus a content fingerprint of every model involved
-- the driver and whatever auxiliary models the load kind reports through
:meth:`~repro.studies.kinds.ScenarioKind.aux_models` -- so a re-estimated
or hand-tweaked model is never served another model's waveforms.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from dataclasses import replace

import numpy as np

from ..emc.detectors import CISPR_BANDS, pulse_weight
from ..emc.limits import ComplianceVerdict, LimitMask, get_mask
from ..errors import ExperimentError
from ..experiments import cache
from ..models import PWRBFDriverModel
from ..obs import NULL_METRICS, get_metrics, get_tracer
from .kinds import get_kind
from .outcomes import ScenarioOutcome, SweepResult
from .simulate import (_worker_init, _worker_run_group,
                       simulate_scenario_batch)
from .spec import RunnerOptions, Scenario

__all__ = ["ScenarioRunner", "batch_groups", "batch_key", "mp_context",
           "study_runner"]


def batch_key(sc: Scenario):
    """Batching identity of a scenario (``None`` = run it alone).

    Scenarios with equal keys build benches of one topology, so the
    grid-batched backend advances them together in one lockstep group:
    the key folds the load kind's
    :meth:`~repro.studies.kinds.ScenarioKind.batch_structure` (which is
    ``None`` for kinds that opt out) with everything else that shapes
    the circuit or the time step -- the driver, the explicit ``dt`` and
    the spectral quantity (``"i_port"`` adds a series probe element).
    Corners, patterns and pattern lengths stay out: the driver bank
    carries each member's own model, and members with shorter runs
    freeze once their own grid ends.  :func:`batch_groups` partitions
    on it.
    """
    structure = get_kind(sc.load.kind).batch_structure(sc.load)
    if structure is None:
        return None
    spec = sc.spectral_spec()
    return (sc.load.kind, structure, sc.driver,
            None if sc.dt is None else float(sc.dt),
            None if spec is None else spec.quantity)


def batch_groups(pending) -> list:
    """Partition ``(idx, Scenario)`` pairs into batch groups.

    Scenarios sharing a :func:`batch_key` gather into one group (in
    first-seen order); scenarios whose kind opted out become singleton
    groups (batches of one).  The one grouping every layer uses:
    :class:`ScenarioRunner` dispatch, the service shard planner
    (:func:`repro.studies.service.shard_plan`) and the shard worker's
    per-group checkpoints, so they can never disagree about what
    batches together.
    """
    groups: list = []
    by_key: dict = {}
    for idx, sc in pending:
        key = batch_key(sc)
        if key is None:
            groups.append([(idx, sc)])
            continue
        grp = by_key.get(key)
        if grp is None:
            grp = by_key[key] = []
            groups.append(grp)
        grp.append((idx, sc))
    return groups


def mp_context():
    """The multiprocessing context every worker pool and shard process
    starts from.

    Fork only where it is the safe default (Linux): on macOS the
    interpreter lists 'fork' as available but forking after threaded
    BLAS/Objective-C work can crash the children, which is exactly why
    CPython moved the macOS default to spawn.  Forked workers also
    inherit registered custom kinds and warm model caches for free.
    """
    if sys.platform.startswith("linux") \
            and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def study_runner(options: RunnerOptions, models: dict | None = None,
                 runner=None, **overrides) -> "ScenarioRunner":
    """The runner a ``run(models=..., runner=..., **overrides)`` call uses.

    The one place a :class:`ScenarioRunner` is built from
    :class:`~repro.studies.spec.RunnerOptions`: ``options`` with the
    ``overrides`` applied, driving the given ``models``.  An explicit
    ``runner`` is returned as is -- it already carries its models and
    options, so passing either alongside it raises
    :class:`ExperimentError` instead of silently simulating with the
    wrong models or the wrong knobs.
    """
    if runner is not None:
        if overrides or models is not None:
            raise ExperimentError(
                "pass models/runner options either via an explicit "
                "runner or as run() arguments, not both")
        return runner
    opts = replace(options, **overrides) if overrides else options
    return ScenarioRunner(models=models, n_workers=opts.n_workers,
                          use_result_cache=opts.use_result_cache,
                          disk_cache=opts.disk_cache)


def _split_group(group: list, workers: int, n_groups: int) -> list:
    """The dispatch jobs of one batch group on a pool of ``workers``.

    A lockstep step costs about as much for a few members as for many,
    so a group is split only to fill workers the groups leave idle: into
    ``workers // n_groups`` near-equal chunks at most.  A chunk never
    shrinks to one member, which would leave the batched path and so
    differ (in the last bits) from the serial runner's result.
    """
    n_chunks = max(1, min(workers // n_groups, len(group) // 2))
    bounds = [len(group) * i // n_chunks for i in range(n_chunks + 1)]
    return [group[a:b] for a, b in zip(bounds, bounds[1:])]


def _dispatchable(sc: Scenario) -> Scenario:
    """A copy of ``sc`` whose masks are resolved to :class:`LimitMask`.

    Workers on spawn-start platforms (macOS/Windows) re-import the mask
    registry and never see masks the parent registered by name; resolving
    in the parent ships the mask *content* (conducted and radiated) with
    the pickled scenario.  The cache identity is unchanged
    (the spectral canonical form already resolves names to content).
    """
    spec = sc.spectral_spec()
    if spec is None:
        return sc
    updates = {}
    if spec.mask is not None and not isinstance(spec.mask, LimitMask):
        updates["mask"] = get_mask(spec.mask)
    if spec.radiated_mask is not None \
            and not isinstance(spec.radiated_mask, LimitMask):
        updates["radiated_mask"] = get_mask(spec.radiated_mask)
    if not updates:
        return sc
    return replace(sc, spectral=replace(spec, **updates))


class ScenarioRunner:
    """Fan a grid of scenarios across processes and cache the results.

    ``models`` maps ``(driver, corner)`` to an already-estimated
    :class:`PWRBFDriverModel`; scenarios naming a driver not in the map are
    resolved (and estimated once per process) via
    :func:`repro.experiments.cache.driver_model`.  ``n_workers`` defaults to
    the CPU count; ``0``/``1`` runs serially in-process.  ``disk_cache``
    names a directory backing the per-scenario result cache with a
    :class:`~repro.experiments.cache.SweepDiskCache`, so repeated sweeps in
    *fresh processes* answer from disk instead of re-simulating.  The
    three options are validated as
    :class:`~repro.studies.spec.RunnerOptions`.  Scenarios are grouped
    by :func:`batch_groups` and every group advances through the
    grid-batched transient backend
    (:func:`repro.circuit.run_transient_batch`); parallel workers return
    their outcomes pickled.

    Observability: each :meth:`run` exports a ``runner.run`` span with
    per-group ``runner.group`` children (in pool workers these hang
    under the run span through the propagated trace context) and
    accumulates ``cache_hits``/``cache_misses``,
    ``scenarios_total{status,kind}`` and ``worker_restarts`` counters.
    ``record_metrics=False`` silences the counters (the service's merge
    replay uses this so cache hits are not double-counted);
    ``tracer`` pins span export to a specific
    :class:`~repro.obs.Tracer` instead of the process-wide one (the
    service gives every job its own, keyed by job id).
    """

    def __init__(self, models: dict | None = None,
                 n_workers: int | None = None,
                 use_result_cache: bool = True,
                 disk_cache: str | os.PathLike | None = None,
                 record_metrics: bool = True,
                 tracer=None):
        opts = RunnerOptions(n_workers=n_workers,
                             use_result_cache=use_result_cache,
                             disk_cache=disk_cache)
        self._models: dict = dict(models or {})
        self.n_workers = (os.cpu_count() or 1) if opts.n_workers is None \
            else opts.n_workers
        self.use_result_cache = opts.use_result_cache
        self._result_cache: dict = {}
        self._fingerprints: dict = {}
        self._payloads: dict = {}
        self._warmed: set = set()
        self._disk = cache.SweepDiskCache(opts.disk_cache) \
            if opts.disk_cache is not None else None
        self.record_metrics = bool(record_metrics)
        self._tracer = tracer
        # how long surviving workers may keep delivering after a worker
        # death before the parent recomputes the stragglers itself
        self._grace_s = 5.0

    def _trace(self):
        """The effective tracer: the pinned one, else the process-wide."""
        return self._tracer if self._tracer is not None else get_tracer()

    def _met(self):
        """The effective metrics sink (the null sink when recording is off)."""
        return get_metrics() if self.record_metrics else NULL_METRICS

    def _model_for(self, sc: Scenario) -> PWRBFDriverModel:
        key = (sc.driver, sc.corner)
        if key not in self._models:
            self._models[key] = cache.driver_model(sc.driver, sc.corner)
        return self._models[key]

    def clear_cache(self) -> None:
        """Drop every cached result (memory, and disk when configured)."""
        self._result_cache.clear()
        if self._disk is not None:
            self._disk.clear()

    def _fingerprint(self, memo_key, model) -> str:
        """Memoized :func:`~repro.experiments.cache.model_fingerprint`.

        The memo is keyed on the *model object's identity*, exactly like
        the payload memo in :meth:`prepare_dispatch`: a memo entry only
        answers while it still refers to the same model instance, so a
        replaced or re-estimated model under the same ``memo_key`` (a
        swapped driver in ``self._models``, two loads reporting
        different aux models under one label) re-fingerprints instead of
        silently reusing the first model's digest.
        """
        memo = self._fingerprints.get(memo_key)
        if memo is None or memo[0] is not model:
            memo = (model, cache.model_fingerprint(model))
            self._fingerprints[memo_key] = memo
        return memo[1]

    def _disk_key(self, sc: Scenario) -> tuple:
        """Disk entries are scoped to the *content* of the models used.

        ``Scenario.key()`` names the driver only by catalog id + corner;
        a persistent cache shared across processes (and code versions)
        must also distinguish the actual models, or a runner holding a
        custom or re-estimated model would silently be served another
        model's waveforms.  The load kind reports its auxiliary models
        (e.g. the ``"rx"`` receiver macromodel) through
        :meth:`~repro.studies.kinds.ScenarioKind.aux_models`; their
        fingerprints fold in alongside the driver's.  (The spectral
        request -- window, n_fft, mask content -- is already part of
        ``Scenario.key()`` itself.)
        """
        fp = self._fingerprint((sc.driver, sc.corner), self._model_for(sc))
        aux = get_kind(sc.load.kind).aux_models(sc.load)
        for label in sorted(aux):
            fp = f"{fp}:{self._fingerprint(label, aux[label])}"
        return (sc.key(), fp)

    def _lookup(self, sc: Scenario) -> ScenarioOutcome | None:
        """Memory-first, then disk; promotes disk hits into memory."""
        if not self.use_result_cache:
            return None
        hit = self._result_cache.get(sc.key())
        if hit is None and self._disk is not None:
            payload = self._disk.get(self._disk_key(sc))
            if payload is not None:
                verdict = payload.get("verdict")
                hit = ScenarioOutcome(
                    scenario=sc, t=payload["t"], v_port=payload["v_port"],
                    metrics=payload["metrics"],
                    warnings=payload["warnings"],
                    elapsed_s=0.0, probes=payload["probes"],
                    spectra=payload.get("spectra") or {},
                    verdict=ComplianceVerdict.from_dict(verdict)
                    if verdict else None,
                    verdicts_by={
                        k: ComplianceVerdict.from_dict(d)
                        for k, d in
                        (payload.get("verdicts_by") or {}).items()})
                self._result_cache[sc.key()] = hit
        return hit

    def prepare_dispatch(self, pending,
                         render_payloads: bool = True) -> dict:
        """Parent-side preparation shared by every dispatch path.

        One memoized pass over the pending ``(idx, Scenario)`` pairs:

        * resolve (estimating at most once per process) the driver model
          of every scenario, so workers only deserialize;
        * let each load kind estimate its auxiliary models
          (:meth:`~repro.studies.kinds.ScenarioKind.prepare` -- e.g. the
          ``"rx"`` receiver macromodel), so forked workers inherit the
          warm process-wide model cache;
        * pre-solve the CISPR detector weighting factors the grid will
          need (one steady-state IIR solve per distinct band x prf,
          remembered across ``run`` calls on this runner);
        * with ``render_payloads`` (parallel runs only -- serial runs
          never ship a payload), render each distinct driver model to
          its serialized payload exactly once per runner (re-rendering
          per ``run`` call used to rebuild the full payload dict for
          every pool).

        Returns the ``(driver, corner) -> payload`` dict for the pending
        scenarios (what a worker initializer receives); empty when
        ``render_payloads`` is off.
        """
        model_keys: dict = {}
        for _, sc in pending:
            self._model_for(sc)
            model_keys[(sc.driver, sc.corner)] = True
            get_kind(sc.load.kind).prepare(sc.load)
        warm = set()
        for _, sc in pending:
            spec = sc.spectral_spec()
            if spec is None or spec.prf is None:
                continue
            warm.update((float(spec.prf), det) for det in spec.detectors
                        if det != "peak")
        for prf, det in sorted(warm - self._warmed):
            for band in CISPR_BANDS:
                pulse_weight(band, prf, det)
        self._warmed |= warm
        if not render_payloads:
            return {}
        payloads = {}
        for key in model_keys:
            model = self._models[key]
            memo = self._payloads.get(key)
            if memo is None or memo[0] is not model:
                memo = (model, model.to_dict())
                self._payloads[key] = memo
            payloads[key] = memo[1]
        return payloads

    def run(self, scenarios) -> SweepResult:
        """Simulate every scenario; order of outcomes matches the input.

        Exports one ``runner.run`` span (scenario/hit/miss counts,
        dispatch mode) whose children are the per-group ``runner.group``
        spans -- local for serial runs, shipped through the worker
        initializer's trace context for parallel ones.
        """
        with self._trace().span("runner.run") as sp:
            return self._run(list(scenarios), sp)

    def _run(self, scenarios: list, sp) -> SweepResult:
        met = self._met()
        outcomes: list = [None] * len(scenarios)
        pending: list[tuple[int, Scenario]] = []
        cache_hits = 0
        for idx, sc in enumerate(scenarios):
            try:
                hit = self._lookup(sc)
            except ExperimentError as exc:
                # an undescribable scenario (unregistered load kind,
                # unknown mask name) fails alone -- one bad grid point
                # must not abort the other scenarios' results
                outcomes[idx] = ScenarioOutcome(
                    scenario=sc, t=np.empty(0), v_port=np.empty(0),
                    metrics={}, warnings=[], elapsed_s=0.0,
                    error=f"{type(exc).__name__}: {exc}")
                continue
            if hit is not None:
                # fresh containers per hit: the cache must not alias arrays
                # a caller may mutate, and the requesting scenario carries
                # the label (key() ignores `name`)
                outcomes[idx] = hit.copy_data(scenario=sc, cache_hit=True,
                                              elapsed_s=0.0)
                cache_hits += 1
            else:
                pending.append((idx, sc))
        # misses = everything the caches did not answer, including the
        # scenarios whose lookup itself failed above -- hits + misses
        # always partition the grid
        cache_misses = len(scenarios) - cache_hits
        met.inc("cache_hits", cache_hits)
        met.inc("cache_misses", cache_misses)

        tr = self._trace()
        parallel = len(pending) > 1 and self.n_workers > 1
        with tr.span("runner.prepare", pending=len(pending)):
            payloads = self.prepare_dispatch(pending,
                                             render_payloads=parallel)

        groups = batch_groups(pending)
        if parallel:
            workers = min(self.n_workers, len(pending))
            job_groups = [
                [(idx, _dispatchable(sc), (sc.driver, sc.corner))
                 for idx, sc in chunk]
                for group in groups
                for chunk in _split_group(group, workers, len(groups))]
            with mp_context().Pool(workers, initializer=_worker_init,
                          initargs=(payloads, tr.context())) as pool:
                unfinished = self._drain_pool(pool, job_groups, outcomes,
                                              scenarios)
            # jobs lost to a dead worker are recomputed in-process (the
            # batch path never raises), so the sweep still returns a
            # complete outcome list instead of hanging or aborting
            groups = [[(idx, scenarios[idx]) for idx, *_ in jobs]
                      for jobs in unfinished]
        for group in groups:
            with tr.span("runner.group", members=len(group),
                         recompute=parallel):
                outs = simulate_scenario_batch(
                    [(sc, self._model_for(sc)) for _, sc in group])
            for (idx, _), out in zip(group, outs):
                outcomes[idx] = out

        if self.use_result_cache:
            for idx, sc in pending:
                out = outcomes[idx]
                if out.ok:
                    # store a private copy so in-place edits on the returned
                    # outcome cannot poison later cache hits
                    self._result_cache[sc.key()] = out.copy_data()
                    if self._disk is not None:
                        self._disk.put(self._disk_key(sc), {
                            "t": out.t, "v_port": out.v_port,
                            "metrics": out.metrics,
                            "warnings": out.warnings,
                            "probes": out.probes,
                            "spectra": out.spectra,
                            "verdict": out.verdict.to_dict()
                            if out.verdict is not None else None,
                            "verdicts_by": {
                                k: v.to_dict()
                                for k, v in out.verdicts_by.items()},
                        })
        if self.record_metrics and outcomes:
            by_label: dict = {}
            for out in outcomes:
                status = ("cached" if out.cache_hit
                          else "ok" if out.ok else "error")
                key = (status, out.scenario.load.kind)
                by_label[key] = by_label.get(key, 0) + 1
            for (status, kind), n in by_label.items():
                met.inc("scenarios_total", n, status=status, kind=kind)
        sp.set(n_scenarios=len(scenarios), cache_hits=cache_hits,
               cache_misses=cache_misses, parallel=parallel,
               n_errors=sum(1 for out in outcomes if not out.ok))
        return SweepResult(outcomes)

    def _drain_pool(self, pool, job_groups, outcomes, scenarios) -> list:
        """Dispatch the group jobs and collect results as they finish.

        Unlike ``imap_unordered`` -- which blocks forever on a task
        whose worker was killed mid-run -- this polls per-job
        ``AsyncResult`` objects while watching the worker processes.  A
        worker death (OOM kill, a segfault in a native library) starts a
        grace period during which surviving workers still deliver; every
        delivery during the grace window *extends* the deadline by the
        full grace span (a worker that still answers is alive and making
        progress, e.g. on a long batched group -- abandoning it would
        recompute its jobs in the parent while it finishes anyway).
        Only after a full grace span with no delivery is whatever never
        arrived returned for an in-parent recompute instead of hanging
        the sweep.
        """
        met = self._met()
        asyncs = [pool.apply_async(_worker_run_group, (jobs,))
                  for jobs in job_groups]
        # snapshot the worker processes: the pool's maintenance thread
        # replaces dead workers, but a death still means the job that
        # worker held is lost
        procs = list(pool._pool)
        remaining = set(range(len(asyncs)))
        lost: set = set()
        dead: set = set()
        deadline = None
        while remaining:
            progressed = False
            for j in sorted(remaining):
                a = asyncs[j]
                if not a.ready():
                    continue
                remaining.discard(j)
                progressed = True
                try:
                    results, worker_metrics = a.get()
                except Exception:  # noqa: BLE001 - died delivering
                    lost.add(j)
                    continue
                met.merge(worker_metrics)
                for idx, outcome in results:
                    # hand back the caller's scenario object, not the
                    # mask-resolved dispatch copy
                    outcome.scenario = scenarios[idx]
                    outcomes[idx] = outcome
            if not remaining:
                break
            for p in procs:
                if p.exitcode is not None and p.pid not in dead:
                    dead.add(p.pid)
                    met.inc("worker_restarts")
            if dead and (deadline is None or progressed):
                deadline = time.monotonic() + self._grace_s
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        return [job_groups[j] for j in sorted(remaining | lost)]
