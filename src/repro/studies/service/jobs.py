"""Async job orchestration: submit-many shards, await-all, resume on crash.

:class:`JobManager` is the orchestration layer between a declarative
:class:`~repro.studies.spec.Study` and the per-shard simulation work:
it slices the grid with :func:`~repro.studies.service.shards.shard_plan`,
runs every shard attempt in its own :class:`~repro.studies.runner.Child`
process (one serial, grid-batched
:class:`~repro.studies.runner.ScenarioRunner` per worker), and awaits
them all on one :mod:`asyncio` loop with bounded concurrency, per-shard
retry and an optional per-attempt timeout -- the
``SubProcessManager`` / ``batch_async_task`` submit-many/await-all
shape.  The loop wakes on each child's pipe and process sentinel, so a
reply is read the moment it arrives.  Each attempt replies with its
shard's outcomes, and the parent assembles the final
:class:`~repro.studies.outcomes.StudyResult` from the replies by grid
index.  A shard whose every scenario already has a disk-cache entry
never forks: the parent answers it from the cache while the children of
the other shards run.

The shared content-addressed disk cache is the checkpoint ledger that
makes every run *resumable*: a worker advances its shard one batch
group at a time and writes each finished group to the
:class:`~repro.experiments.cache.SweepDiskCache` before starting the
next, so a killed/timed-out/crashed shard attempt loses only its
in-flight group -- the retry (or a whole resubmission of the study after
a parent crash) answers everything already finished from disk and only
simulates the misses.  A shard whose attempts all fail reruns in the
parent, which answers the shard's finished groups from the same cache.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field

from ...errors import ExperimentError
from ...obs import get_metrics, get_tracer, worker_setup
from ..outcomes import SweepResult
from ..runner import Child, ScenarioRunner, batch_groups
from ..spec import Study
from .shards import StudyShard, shard_plan

__all__ = ["JobManager", "ShardReport"]


def _shard_worker(shard: StudyShard, cache_dir: str, models: dict,
                  obs_ctx: dict | None, conn) -> None:
    """Child entry of one shard attempt: simulate the shard and reply
    with its outcomes.

    Runs the shard through a serial (grid-batched) runner over the
    parent's ``models`` *one batch group at a time*: the runner
    persists a ``run()`` call's outcomes to the shared disk cache when
    the call returns, so finishing group by group turns the cache into a
    per-group checkpoint -- a killed/timed-out attempt loses only its
    in-flight group, and the retry answers every completed group from
    disk.  Replies ``{"outcomes": [...], "metrics": {...}}`` through
    ``conn``: the shard's outcomes in shard order and the worker's
    metrics delta.  Any exception is reported as ``{"error": ...}`` --
    the parent must distinguish "shard failed cleanly" from "worker
    died" (no reply at all; its metrics delta is never delivered, so
    cache accounting stays exact across retries).

    ``obs_ctx`` is the parent's trace propagation context: when set, the
    per-group ``runner.run`` spans exported here hang under the parent's
    ``job.shard.attempt`` span.
    """
    worker_setup(obs_ctx)
    try:
        runner = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=cache_dir)
        outcomes = [None] * len(shard)
        for group in batch_groups(enumerate(shard.scenarios())):
            result = runner.run([sc for _, sc in group])
            for (pos, _), out in zip(group, result.outcomes):
                outcomes[pos] = out
        conn.send({"outcomes": outcomes, "metrics": get_metrics().flush()})
    except Exception as exc:  # noqa: BLE001 - report, never hang the parent
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        except (OSError, ValueError):  # pragma: no cover - pipe gone
            pass
    finally:
        conn.close()


@dataclass
class ShardReport:
    """Execution record of one shard through the job manager.

    ``ok`` means the final attempt replied with the shard's outcomes
    (individual scenario failures are counted in ``n_failures``, not
    fatal); ``attempts`` counts every worker-process try including
    retries after a worker death or timeout; ``outcomes`` are the final
    attempt's outcomes in shard order (empty when no attempt replied).
    A shard the parent answered from the disk cache is ``ok`` after
    ``attempts == 0``.  The scenario/hit/failure counts derive from the
    outcomes, so after a mid-shard crash ``n_cache_hits`` shows how much
    of the shard the retry answered from disk instead of recomputing.
    """

    shard: StudyShard
    ok: bool = False
    attempts: int = 0
    elapsed_s: float = 0.0
    error: str | None = None
    outcomes: list = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        """Scenarios the final attempt replied with."""
        return len(self.outcomes)

    @property
    def n_cache_hits(self) -> int:
        """Replied outcomes answered from a result cache."""
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def scenario_errors(self) -> list:
        """Error messages of the replied outcomes that failed."""
        return [o.error for o in self.outcomes if not o.ok]

    @property
    def n_failures(self) -> int:
        """Replied outcomes that failed."""
        return len(self.scenario_errors)


class JobManager:
    """Submit-many/await-all orchestration of study shards.

    Parameters
    ----------
    max_workers : int, optional
        Concurrent shard worker processes (default: the CPU count).
    retries : int
        Extra attempts per shard after a worker death, timeout or clean
        shard failure (default 1).  Retries are cheap by construction:
        everything the dead attempt finished is already on disk.
    timeout_s : float, optional
        Per-attempt wall-clock budget; a worker past it is terminated
        and the attempt counts as failed.  ``None`` (default) waits
        indefinitely.
    """

    def __init__(self, max_workers: int | None = None, retries: int = 1,
                 timeout_s: float | None = None):
        self.max_workers = (os.cpu_count() or 1) if max_workers is None \
            else max(1, int(max_workers))
        self.retries = max(0, int(retries))
        self.timeout_s = None if timeout_s is None else float(timeout_s)

    # -- one shard ----------------------------------------------------------
    async def _attempt(self, shard: StudyShard, cache_dir: str,
                       models: dict, obs_ctx: dict | None = None
                       ) -> tuple[dict | None, str | None, int | None]:
        """One shard attempt in its own :class:`Child`; returns
        ``(reply, error, exitcode)``.  ``obs_ctx`` propagates the
        parent's trace context into the worker (see
        :func:`_shard_worker`).  The loop wakes when the reply starts
        arriving or the child exits (:func:`_child_ready`), so a reply
        larger than the pipe buffer never leaves the worker blocked in
        ``send``; a worker still silent after ``timeout_s`` is
        terminated."""
        child = Child(_shard_worker, shard, cache_dir, models, obs_ctx)
        reply = error = None
        try:
            if await _child_ready(child, self.timeout_s):
                reply = child.reply()
            else:
                error = (f"shard attempt timed out after "
                         f"{self.timeout_s:g} s")
        finally:
            child.stop()
        exitcode = child.proc.exitcode
        if reply is not None and "error" in reply:
            reply, error = None, reply["error"]
        elif reply is None and error is None:
            error = f"worker died (exitcode {exitcode})"
        return reply, error, exitcode

    async def run_shard(self, shard: StudyShard, disk_cache,
                        models: dict | None = None,
                        progress=None, index: int | None = None,
                        tracer=None, runner=None,
                        slots: asyncio.Semaphore | None = None
                        ) -> ShardReport:
        """Run one shard to completion (with retries); returns its report.

        ``disk_cache`` is the shared cache directory every shard of the
        plan writes to; ``models`` maps ``(driver, corner)`` to the
        driver models the worker receives (what
        :meth:`~repro.studies.runner.ScenarioRunner.prepare_dispatch`
        returns; drivers not in the map are estimated in the worker).
        ``index`` is the shard's position in its plan, carried on the
        progress events and spans so event ordering is checkable per
        shard.  ``runner``, a :class:`ScenarioRunner` on the same cache,
        first tries to answer the whole shard in this process
        (:meth:`~repro.studies.runner.ScenarioRunner.run_cached`); only
        when a scenario misses does the shard go to worker processes.
        ``slots`` bounds the worker processes alive at once across the
        shards sharing it.  One ``job.shard`` span wraps the shard, with
        one ``job.shard.attempt`` child per worker try (attrs:
        ``attempt``, ``retry``, ``ok``, ``exitcode``, ``error``); a
        shard the parent answered has ``from_disk=True``, ``attempts=0``
        and no attempt child.  The worker's metrics delta merges into
        this process's registry, and each failed attempt counts one
        ``shard_retries`` (plus ``worker_restarts`` when the worker died
        rather than erred).
        """
        tr = tracer if tracer is not None else get_tracer()
        met = get_metrics()
        # a shard on its own runs one attempt at a time anyway
        slots = slots or asyncio.Semaphore()
        report = ShardReport(shard=shard)
        t0 = time.perf_counter()
        with tr.span("job.shard", index=index,
                     scenarios=len(shard)) as ssp:
            cached = None if runner is None \
                else runner.run_cached(shard.scenarios())
            if cached is not None:
                report.ok = True
                report.outcomes = cached.outcomes
            for attempt in range(0 if report.ok else self.retries + 1):
                report.attempts = attempt + 1
                async with slots:
                    with tr.span("job.shard.attempt", index=index,
                                 attempt=attempt + 1,
                                 retry=attempt > 0) as asp:
                        reply, error, exitcode = await self._attempt(
                            shard, str(disk_cache), models or {},
                            obs_ctx=tr.context())
                        asp.set(ok=reply is not None, exitcode=exitcode)
                        if error is not None:
                            asp.set(error=error)
                if reply is not None:
                    met.merge(reply["metrics"])
                    report.ok = True
                    report.error = None
                    report.outcomes = reply["outcomes"]
                    break
                report.error = error
                met.inc("shard_retries")
                if error and error.startswith("worker died"):
                    met.inc("worker_restarts")
                ssp.event("shard-retry", index=index,
                          attempt=attempt + 1, error=error)
                _emit(progress, {"event": "shard-retry", "shard": shard,
                                 "index": index,
                                 "attempt": attempt + 1, "error": error})
            ssp.set(ok=report.ok, attempts=report.attempts,
                    from_disk=cached is not None)
        report.elapsed_s = time.perf_counter() - t0
        return report

    # -- whole studies ------------------------------------------------------
    async def run_shards(self, shards, disk_cache,
                         models: dict | None = None,
                         progress=None, tracer=None,
                         runner=None) -> list[ShardReport]:
        """Submit every shard, await them all; reports in shard order.

        At most ``max_workers`` worker processes run at once; each shard
        streams ``shard-start`` / ``shard-done`` (and ``shard-retry``)
        events to the ``progress`` callable as it advances (every event
        carries the shard ``index``).  A shard that exhausts its retries
        is reported with ``ok=False`` -- the others still run to
        completion.

        With ``runner`` (a :class:`ScenarioRunner` on the same disk
        cache), a shard whose every scenario has a cache entry -- one
        ``stat`` per scenario, stopping at the first miss
        (:meth:`~repro.studies.runner.ScenarioRunner.on_disk`) -- is
        answered by ``runner`` in this process.  The other shards start
        first, so their children run while the parent reads.
        """
        shards = list(shards)
        slots = asyncio.Semaphore(self.max_workers)
        done_box = {"scenarios": 0}
        on_disk = [runner is not None and runner.on_disk(s.scenarios())
                   for s in shards]

        async def one(i: int, shard: StudyShard) -> ShardReport:
            _emit(progress, {"event": "shard-start", "index": i,
                             "n_shards": len(shards), "shard": shard,
                             "scenarios": len(shard)})
            report = await self.run_shard(
                shard, disk_cache, models=models, progress=progress,
                index=i, tracer=tracer,
                runner=runner if on_disk[i] else None, slots=slots)
            done_box["scenarios"] += report.n_scenarios
            _emit(progress, {"event": "shard-done", "index": i,
                             "n_shards": len(shards), "shard": shard,
                             "ok": report.ok, "error": report.error,
                             "cache_hits": report.n_cache_hits,
                             "failures": report.n_failures,
                             "done_scenarios": done_box["scenarios"]})
            return report

        # tasks start in creation order: the shards with misses fork
        # their children before the parent reads the cached shards
        tasks = {i: asyncio.ensure_future(one(i, shards[i]))
                 for i in sorted(range(len(shards)), key=on_disk.__getitem__)}
        return list(await asyncio.gather(
            *(tasks[i] for i in range(len(shards)))))

    async def run_study_async(self, study: Study,
                              disk_cache=None,
                              n_shards: int | None = None,
                              models: dict | None = None,
                              progress=None, tracer=None):
        """Shard, orchestrate and merge one study; returns a
        :class:`~repro.studies.outcomes.StudyResult`.

        ``disk_cache`` (or the study's own ``options.disk_cache``) names
        the shared cache directory -- it is required, because the cache
        is the checkpoint ledger every shard attempt resumes from.
        Before the shards start, the parent runner's
        :meth:`~repro.studies.runner.ScenarioRunner.prepare_dispatch`
        estimates every driver and auxiliary model once, in this
        process, and its driver models go to every shard worker.  The
        same runner answers every shard the disk cache holds in full
        (see :meth:`run_shards`), so a fully cached study starts no
        worker process.  The merge fills the result by grid index from
        the shards' outcomes; a shard whose attempts all failed reruns
        through that serial runner on the same cache (its checkpointed
        groups are disk hits).  A scenario that failed inside a shard stays failed: the
        worker's batch path already retried it on its own.  The returned
        result additionally carries the per-shard execution records as
        ``result.shard_reports`` and the per-phase wall-clock breakdown
        behind :meth:`~repro.studies.outcomes.StudyResult.timings`.

        One ``job.run`` span (exported through ``tracer``, or the
        process-wide one) wraps the whole job.  Every scenario is
        counted once in the registry's ``cache_hits + cache_misses``:
        by the parent's answer of a cached shard, by the shard attempt
        that replied, or by the parent's rerun of a shard none replied
        for.  The job's wall clock feeds the
        ``job_seconds`` histogram.
        """
        tr = tracer if tracer is not None else get_tracer()
        met = get_metrics()
        t0 = time.perf_counter()
        cache_dir = disk_cache if disk_cache is not None \
            else study.options.disk_cache
        if cache_dir is None:
            raise ExperimentError(
                "the job manager needs a shared disk cache (pass "
                "disk_cache=... or set it in the study's runner "
                "options): the cache is the checkpoint a crashed shard "
                "or study resumes from")
        with tr.span("job.run", job_id=study.digest()) as jsp:
            phases: dict[str, float] = {}
            shards = shard_plan(study, n_shards if n_shards is not None
                                else self.max_workers)
            # the parent's dispatch prep estimates every driver and aux
            # model once, here: the workers get its driver models, and
            # forked workers inherit the warm aux-model cache instead of
            # re-paying the seconds-scale estimation per shard
            runner = ScenarioRunner(models=models, n_workers=1,
                                    disk_cache=cache_dir, tracer=tr)
            scenarios = study.scenarios()
            shard_models = runner.prepare_dispatch(
                list(enumerate(scenarios)))
            phases["plan"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            reports = await self.run_shards(shards, cache_dir,
                                            models=shard_models,
                                            progress=progress, tracer=tr,
                                            runner=runner)
            phases["shards"] = time.perf_counter() - t1
            jsp.event("merge-start", n_shards=len(shards))
            _emit(progress, {"event": "merge-start",
                             "n_shards": len(shards)})
            t2 = time.perf_counter()
            with tr.span("job.merge") as msp:
                outcomes: list = [None] * len(scenarios)
                for report in reports:
                    # a shard no attempt replied for reruns here; its
                    # checkpointed groups are disk hits
                    outs = report.outcomes if report.ok \
                        else runner.run(report.shard.scenarios()).outcomes
                    for idx, out in zip(report.shard.indices, outs):
                        out.scenario = scenarios[idx]
                        outcomes[idx] = out
                merged = SweepResult(outcomes)
                msp.set(cache_hits=merged.n_cache_hits,
                        failures=len(merged.failures))
            phases["merge"] = time.perf_counter() - t2
            elapsed = time.perf_counter() - t0
            # the study's own aggregation hook: a StochasticStudy job
            # merges into a StochasticResult with draw accounting
            result = study.make_result(outcomes,
                                       elapsed_s=elapsed, phases=phases)
            result.shard_reports = reports
            jsp.set(n_shards=len(shards), n_scenarios=len(merged),
                    failures=len(merged.failures))
            jsp.event("merge-done", cache_hits=merged.n_cache_hits,
                      failures=len(merged.failures))
            _emit(progress, {"event": "merge-done",
                             "cache_hits": merged.n_cache_hits,
                             "failures": len(merged.failures)})
        met.observe("job_seconds", elapsed)
        return result

    def run_study(self, study: Study, disk_cache=None,
                  n_shards: int | None = None,
                  models: dict | None = None, progress=None,
                  tracer=None):
        """Synchronous wrapper around :meth:`run_study_async` (one
        ``asyncio.run`` per call; use the async form inside a loop)."""
        return asyncio.run(self.run_study_async(
            study, disk_cache=disk_cache, n_shards=n_shards,
            models=models, progress=progress, tracer=tracer))


async def _child_ready(child: Child, timeout_s: float | None) -> bool:
    """Wait until ``child``'s reply starts arriving or it exits; ``False``
    after ``timeout_s`` seconds.

    The event loop watches the child's pipe and its process sentinel
    (``loop.add_reader``, so it needs a selector loop: the default on
    Linux and macOS), the way :func:`multiprocessing.connection.wait`
    does for :class:`~repro.studies.runner.ScenarioRunner`'s blocking
    dispatch.
    """
    loop = asyncio.get_running_loop()
    woken = loop.create_future()
    fds = (child.conn.fileno(), child.proc.sentinel)
    for fd in fds:
        loop.add_reader(fd, lambda: woken.done() or woken.set_result(None))
    try:
        await asyncio.wait_for(woken, timeout_s)
        return True
    except TimeoutError:
        return False
    finally:
        for fd in fds:
            loop.remove_reader(fd)


def _emit(progress, event: dict) -> None:
    """Deliver one progress event; a broken callback never kills a run."""
    if progress is None:
        return
    try:
        progress(event)
    except Exception:  # noqa: BLE001 - observability must stay passive
        pass
