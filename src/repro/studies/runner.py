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
groups out to child processes, one per dispatch job, which reply with
their outcomes pickled.  :class:`Child` is the one child-process
primitive every study fan-out uses (this runner and the service's
:class:`~repro.studies.service.JobManager`).

Dispatch preparation -- resolving driver models, estimating the auxiliary
models each load kind declares and pre-solving the CISPR detector weights
the grid will need -- is one shared, memoized step
(:meth:`ScenarioRunner.prepare_dispatch`), so repeated ``run`` calls on
one runner (or on the :class:`~repro.studies.spec.Study` facade above it)
never re-estimate a model or re-solve a detector steady state they
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
from dataclasses import replace
from multiprocessing.connection import wait

import numpy as np

from ..emc.detectors import CISPR_BANDS, pulse_weight
from ..emc.limits import (ComplianceVerdict, LimitMask, get_mask,
                          worst_verdict)
from ..errors import ExperimentError
from ..experiments import cache
from ..models import PWRBFDriverModel
from ..obs import get_metrics, get_tracer, worker_setup
from .kinds import get_kind
from .outcomes import ScenarioOutcome, SweepResult
from .simulate import simulate_scenario_batch
from .spec import RunnerOptions, Scenario

__all__ = ["Child", "ScenarioRunner", "batch_groups", "batch_key",
           "mp_context", "study_runner"]


def batch_key(sc: Scenario):
    """Batching identity of a scenario (``None`` = run it alone).

    Scenarios with equal keys build benches with one nonlinear skeleton
    (:func:`~repro.circuit.batch_signature`), so the grid-batched
    backend advances them together in one lockstep group, whatever
    their linear networks: the key folds the load's nonlinear content,
    :meth:`~repro.studies.kinds.ScenarioKind.batch_structure` (``None``
    for kinds that opt out, ``()`` for a linear load of any kind), with
    everything else that places the nonlinear elements or sets the time
    step -- the driver, the explicit ``dt`` and the spectral quantity
    (``"i_port"`` adds a series probe element).  The load kind, corners,
    patterns and pattern lengths stay out: the driver bank carries each
    member's own model, members with shorter runs freeze once their own
    grid ends, and smaller linear networks are padded.
    :func:`batch_groups` partitions on it.
    """
    structure = get_kind(sc.load.kind).batch_structure(sc.load)
    if structure is None:
        return None
    spec = sc.spectral_spec()
    return (structure, sc.driver,
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
    """The multiprocessing context every study child process starts from.

    Fork only where it is the safe default (Linux): on macOS the
    interpreter lists 'fork' as available but forking after threaded
    BLAS/Objective-C work can crash the children, which is exactly why
    CPython moved the macOS default to spawn.  Forked children also
    inherit registered custom kinds and warm model caches for free.
    """
    if sys.platform.startswith("linux") \
            and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


class Child:
    """One study child process running ``target(*args, conn)``.

    The one primitive behind every study fan-out: a
    :class:`ScenarioRunner` dispatch job and a
    :class:`~repro.studies.service.JobManager` shard attempt each get a
    child of their own.  ``args`` travel as process arguments (fork
    inherits them, spawn pickles them); ``target`` sends exactly one
    reply through ``conn``.  The parent reads the reply as soon as
    :meth:`ready` fires, so a reply larger than the pipe buffer never
    leaves the child blocked in ``send``.  A child that exits (or hits
    EOF) without a reply died without one: :meth:`reply` returns
    ``None`` and ``proc.exitcode`` says how it ended.
    """

    def __init__(self, target, *args):
        ctx = mp_context()
        self.conn, send = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=target, args=(*args, send))
        self.proc.start()
        send.close()  # the parent's copy: EOF must track the child's life

    def ready(self) -> bool:
        """The reply is waiting, or the child has exited."""
        return self.conn.poll() or not self.proc.is_alive()

    def reply(self):
        """Read the reply and reap the child; ``None`` when it died
        without replying."""
        try:
            out = self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):
            out = None
        self.conn.close()
        self.proc.join()
        return out

    def stop(self) -> None:
        """Terminate the child if it still runs, and reap it."""
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self.conn.close()


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
    """The chunks of one batch group on ``workers`` children or shards.

    The one split rule of the runner's dispatch jobs and the service's
    shard plan (:func:`~repro.studies.service.shard_plan`).  A lockstep
    step costs about as much for a few members as for many, so a group
    is split only to fill workers the groups leave idle: into ``workers
    // n_groups`` near-equal chunks at most, and never into one-member
    chunks.  A member's outcome is bitwise the same in any chunk of two
    or more members -- measured on the 192-member line group of the
    ``service_cache`` benchmark (c = 0 and 2 pF fused) run whole and in
    chunks of 96, 64 and 48, and on the ``pool_mixed`` groups split into
    chunks of 3 -- so disk-cache entries do not depend on the split; a
    lone member runs as a batch of one, whose rounding differs (by up to
    1.7e-13 V there).
    """
    n_chunks = max(1, min(workers // n_groups, len(group) // 2))
    bounds = [len(group) * i // n_chunks for i in range(n_chunks + 1)]
    return [group[a:b] for a, b in zip(bounds, bounds[1:])]


def _dispatchable(sc: Scenario) -> Scenario:
    """A copy of ``sc`` whose masks are resolved to :class:`LimitMask`.

    Children on spawn-start platforms (macOS/Windows) re-import the mask
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
    (:func:`repro.circuit.run_transient_batch`).  A parallel run keeps
    at most ``n_workers`` :class:`Child` processes alive, one per
    dispatch job; a child that dies without replying loses just its own
    job, which the parent recomputes.

    Observability: each :meth:`run` exports a ``runner.run`` span with
    per-group ``runner.group`` children (in child processes these hang
    under the run span through the propagated trace context) and
    accumulates ``cache_hits``/``cache_misses``,
    ``scenarios_total{status,kind}`` and ``worker_restarts`` counters.
    ``tracer`` pins span export to a specific
    :class:`~repro.obs.Tracer` instead of the process-wide one (the
    service gives every job its own, keyed by job id).
    """

    def __init__(self, models: dict | None = None,
                 n_workers: int | None = None,
                 use_result_cache: bool = True,
                 disk_cache: str | os.PathLike | None = None,
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
        self._warmed: set = set()
        self._disk = cache.SweepDiskCache(opts.disk_cache) \
            if opts.disk_cache is not None else None
        self._tracer = tracer

    def _trace(self):
        """The effective tracer: the pinned one, else the process-wide."""
        return self._tracer if self._tracer is not None else get_tracer()

    def _model_for(self, sc: Scenario) -> PWRBFDriverModel:
        key = (sc.driver, sc.corner)
        if key not in self._models:
            self._models[key] = cache.driver_model(sc.driver, sc.corner)
        return self._models[key]

    def _fingerprint(self, memo_key, model) -> str:
        """Memoized :func:`~repro.experiments.cache.model_fingerprint`.

        The memo is keyed on the *model object's identity*: a memo entry
        only answers while it still refers to the same model instance, so a
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

    def _disk_key(self, sc: Scenario, key: str | None = None) -> tuple:
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
        ``Scenario.key()`` itself.)  ``key`` is ``sc.key()`` when the
        caller has already rendered it.
        """
        fp = self._fingerprint((sc.driver, sc.corner), self._model_for(sc))
        aux = get_kind(sc.load.kind).aux_models(sc.load)
        for label in sorted(aux):
            fp = f"{fp}:{self._fingerprint(label, aux[label])}"
        return (sc.key() if key is None else key, fp)

    def _lookup(self, sc: Scenario) -> ScenarioOutcome | None:
        """Memory-first, then disk; promotes disk hits into memory."""
        if not self.use_result_cache:
            return None
        key = sc.key()
        hit = self._result_cache.get(key)
        if hit is None and self._disk is not None:
            payload = self._disk.get(self._disk_key(sc, key))
            if payload is not None:
                verdicts_by = {k: ComplianceVerdict.from_dict(d)
                               for k, d in payload["verdicts_by"].items()}
                hit = ScenarioOutcome(
                    scenario=sc, t=payload["t"], v_port=payload["v_port"],
                    metrics=payload["metrics"],
                    warnings=payload["warnings"],
                    elapsed_s=0.0, probes=payload["probes"],
                    spectra=payload["spectra"],
                    verdict=worst_verdict(verdicts_by.values()),
                    verdicts_by=verdicts_by)
                self._result_cache[key] = hit
        return hit

    def prepare_dispatch(self, pending) -> dict:
        """Parent-side preparation shared by every dispatch path.

        One memoized pass over the pending ``(idx, Scenario)`` pairs:

        * resolve (estimating at most once per process) the driver model
          of every scenario;
        * let each load kind estimate its auxiliary models
          (:meth:`~repro.studies.kinds.ScenarioKind.prepare` -- e.g. the
          ``"rx"`` receiver macromodel), so forked children inherit the
          warm process-wide model cache;
        * pre-solve the CISPR detector weighting factors the grid will
          need (one steady-state IIR solve per distinct band x prf,
          remembered across ``run`` calls on this runner).

        Returns the ``(driver, corner) -> model`` dict of the pending
        scenarios: the models child processes receive as arguments.
        """
        models: dict = {}
        for _, sc in pending:
            models[(sc.driver, sc.corner)] = self._model_for(sc)
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
        return models

    def on_disk(self, scenarios) -> bool:
        """Whether every scenario has a disk-cache entry.

        One ``stat`` per scenario, stopping at the first miss: nothing
        is read and nothing counted, so a caller can route a batch that
        :meth:`run_cached` would answer without paying a read for one
        it would not.  A scenario whose cache key cannot be rendered
        counts as a miss.
        """
        if self._disk is None or not self.use_result_cache:
            return False
        try:
            return all(self._disk_key(sc) in self._disk for sc in scenarios)
        except ExperimentError:
            return False

    def run(self, scenarios) -> SweepResult:
        """Simulate every scenario; order of outcomes matches the input.

        Exports one ``runner.run`` span (scenario/hit/miss counts,
        dispatch mode) whose children are the per-group ``runner.group``
        spans -- local for serial runs, exported by the child processes
        of parallel ones (the trace context is one of their arguments).
        """
        with self._trace().span("runner.run") as sp:
            return self._run(list(scenarios), sp)

    def run_cached(self, scenarios) -> SweepResult | None:
        """:meth:`run` answered from the result caches alone.

        Returns ``None`` at the first scenario no cache answers, having
        simulated nothing and counted nothing in ``cache_hits`` /
        ``cache_misses`` / ``scenarios_total`` (the disk reads made so
        far still count in ``disk_cache_total``), so the caller can run
        the batch elsewhere and count it there.  Its ``runner.run`` span
        carries ``cached_only=True``.
        """
        with self._trace().span("runner.run", cached_only=True) as sp:
            return self._run(list(scenarios), sp, cached_only=True)

    def _run(self, scenarios: list, sp,
             cached_only: bool = False) -> SweepResult | None:
        met = get_metrics()
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
                hit, outcomes[idx] = None, ScenarioOutcome(
                    scenario=sc, t=np.empty(0), v_port=np.empty(0),
                    metrics={}, warnings=[], elapsed_s=0.0,
                    error=f"{type(exc).__name__}: {exc}")
            if hit is not None:
                # fresh containers per hit, arrays copied on first read:
                # the cache must not alias arrays a caller may mutate, and
                # the requesting scenario carries the label (key() ignores
                # `name`)
                outcomes[idx] = hit.copy_on_read(scenario=sc, cache_hit=True,
                                                 elapsed_s=0.0)
                cache_hits += 1
            elif cached_only:
                return None
            elif outcomes[idx] is None:
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
            models = self.prepare_dispatch(pending)

        groups = batch_groups(pending)
        if parallel:
            workers = min(self.n_workers, len(pending))
            jobs = [[(idx, _dispatchable(sc)) for idx, sc in chunk]
                    for group in groups
                    for chunk in _split_group(group, workers, len(groups))]
            lost = self._dispatch(jobs, workers, models, tr.context(),
                                  outcomes, scenarios)
            # jobs lost to a dead child are recomputed in-process (the
            # batch path never raises), so the sweep still returns a
            # complete outcome list instead of hanging or aborting
            groups = [[(idx, scenarios[idx]) for idx, _ in job]
                      for job in lost]
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
                    # the entry is the engine's outcome; the caller gets a
                    # copy-on-read clone of it, as a hit does, so an
                    # in-place edit cannot poison later cache hits
                    key = sc.key()
                    self._result_cache[key] = out
                    outcomes[idx] = out.copy_on_read()
                    if self._disk is not None:
                        self._disk.put(self._disk_key(sc, key), {
                            "t": out.t, "v_port": out.v_port,
                            "metrics": out.metrics,
                            "warnings": out.warnings,
                            "probes": out.probes,
                            "spectra": out.spectra,
                            "verdicts_by": {
                                k: v.to_dict()
                                for k, v in out.verdicts_by.items()},
                        })
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

    def _dispatch(self, jobs, workers, models, trace_ctx, outcomes,
                  scenarios) -> list:
        """Run each job in its own :class:`Child`, ``workers`` at a time.

        Fills ``outcomes`` from the replies as they arrive and returns
        the jobs whose child exited without replying (an OOM kill, a
        segfault in a native library): each costs exactly its own job,
        counted in ``worker_restarts``, and nothing waits on it.
        """
        met = get_metrics()
        todo = list(reversed(jobs))
        running: dict = {}
        lost = []
        try:
            while todo or running:
                while todo and len(running) < workers:
                    job = todo.pop()
                    running[Child(_run_jobs, job, models, trace_ctx)] = job
                wait([obj for child in running
                      for obj in (child.conn, child.proc.sentinel)])
                for child in [c for c in running if c.ready()]:
                    job = running.pop(child)
                    reply = child.reply()
                    if reply is None:
                        met.inc("worker_restarts")
                        lost.append(job)
                        continue
                    results, child_metrics = reply
                    met.merge(child_metrics)
                    for idx, outcome in results:
                        # hand back the caller's scenario object, not the
                        # mask-resolved dispatch copy
                        outcome.scenario = scenarios[idx]
                        outcomes[idx] = outcome
        finally:
            for child in running:
                child.stop()
        return lost


def _run_jobs(jobs, models, trace_ctx, conn) -> None:
    """Child entry of one dispatch job: ``(idx, Scenario)`` pairs of one
    batch group.

    Simulates the group through :func:`simulate_scenario_batch` inside
    one ``runner.group`` span (it hangs under the parent's ``runner.run``
    span through ``trace_ctx``) and replies ``(pairs, metrics)``: one
    ``(idx, outcome)`` pair per job plus this child's metrics delta for
    the parent to merge.
    """
    worker_setup(trace_ctx)
    with get_tracer().span("runner.group", members=len(jobs)) as sp:
        outs = simulate_scenario_batch(
            [(sc, models[sc.driver, sc.corner]) for _, sc in jobs])
        sp.set(n_errors=sum(1 for out in outs if not out.ok))
    conn.send(([(idx, out) for (idx, _), out in zip(jobs, outs)],
               get_metrics().flush()))
    conn.close()
