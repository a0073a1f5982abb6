"""Async job orchestration: submit-many shards, await-all, resume on crash.

:class:`JobManager` is the orchestration layer between a declarative
:class:`~repro.studies.spec.Study` and the per-shard simulation work:
it slices the grid with :func:`~repro.studies.service.shards.shard_plan`,
runs every shard in its own worker *process* (one serial, grid-batched
:class:`~repro.studies.runner.ScenarioRunner` per worker), and awaits
them all on one :mod:`asyncio` loop with bounded concurrency, per-shard
retry and an optional per-attempt timeout -- the
``SubProcessManager`` / ``batch_async_task`` submit-many/await-all shape,
with scenario results travelling through the shared content-addressed
disk cache instead of pickled return values.

That cache mediation is what makes every run *resumable*: a worker
advances its shard one batch group at a time and writes each finished
group to the :class:`~repro.experiments.cache.SweepDiskCache` before
starting the next, so a killed/timed-out/crashed shard attempt loses
only its in-flight group -- the retry (or a whole resubmission of the
study after a parent crash) answers everything already finished from
disk and only simulates the misses.  Workers return just a small summary dict
(scenario/hit/failure counts); the parent assembles the final
:class:`~repro.studies.outcomes.StudyResult` by replaying the full grid
through a serial runner on the same cache, where every shard-simulated
scenario is a disk hit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ...errors import ExperimentError
from ...models import PWRBFDriverModel
from ...obs import get_metrics, get_tracer
from ...obs import worker_setup as _obs_worker_setup
from ..runner import ScenarioRunner, batch_groups, mp_context
from ..spec import Study
from .shards import StudyShard, shard_plan

__all__ = ["JobManager", "ShardReport"]


def _shard_worker(shard_dict: dict, cache_dir: str,
                  model_payloads: dict, conn,
                  obs_ctx: dict | None = None) -> None:
    """Worker-process entry: simulate one shard against the shared cache.

    Rebuilds the shard from its serialized form and runs it through a
    serial (grid-batched) runner *one batch group at a time*: the runner
    persists a ``run()`` call's outcomes to the shared disk cache when
    the call returns, so finishing group by group turns the cache into a
    per-group checkpoint -- a killed/timed-out attempt loses only its
    in-flight group, and the retry answers every completed group from
    disk.  Sends a small summary dict back through ``conn``.  Any
    exception is reported as a summary with an ``error`` field -- the
    parent must distinguish "shard failed cleanly" from "worker died"
    (no message at all).

    ``obs_ctx`` is the parent's trace propagation context: when set, the
    per-group ``runner.run`` spans exported here hang under the parent's
    ``job.shard.attempt`` span, and the summary carries the worker's
    metrics delta under ``"metrics"`` (a killed worker simply never
    delivers one -- cache accounting stays exact across retries).
    """
    t0 = time.perf_counter()
    _obs_worker_setup(obs_ctx)
    try:
        shard = StudyShard.from_dict(shard_dict)
        models = {key: PWRBFDriverModel.from_dict(d)
                  for key, d in (model_payloads or {}).items()}
        runner = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=cache_dir)
        summary = {"n": 0, "hits": 0, "failures": 0, "errors": []}
        for group in batch_groups(enumerate(shard.scenarios())):
            result = runner.run([sc for _, sc in group])
            summary["n"] += len(result)
            summary["hits"] += result.n_cache_hits
            summary["failures"] += len(result.failures)
            summary["errors"] += [o.error for o in result.failures]
        summary["elapsed_s"] = time.perf_counter() - t0
        summary["metrics"] = get_metrics().flush()
        conn.send(summary)
    except Exception as exc:  # noqa: BLE001 - report, never hang the parent
        try:
            conn.send({"n": 0, "hits": 0, "failures": 0, "errors": [],
                       "elapsed_s": time.perf_counter() - t0,
                       "error": f"{type(exc).__name__}: {exc}"})
        except (OSError, ValueError):  # pragma: no cover - pipe gone
            pass
    finally:
        conn.close()


@dataclass
class ShardReport:
    """Execution record of one shard through the job manager.

    ``ok`` means the final attempt delivered a summary (individual
    scenario failures are counted in ``n_failures``, not fatal);
    ``attempts`` counts every try including retries after a worker death
    or timeout; the scenario/hit counts come from the *final* attempt,
    so after a mid-shard crash ``n_cache_hits`` shows how much of the
    shard the retry answered from disk instead of recomputing.
    """

    shard: StudyShard
    ok: bool = False
    attempts: int = 0
    n_scenarios: int = 0
    n_cache_hits: int = 0
    n_failures: int = 0
    elapsed_s: float = 0.0
    error: str | None = None
    scenario_errors: list = field(default_factory=list)


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
        import os
        self.max_workers = (os.cpu_count() or 1) if max_workers is None \
            else max(1, int(max_workers))
        self.retries = max(0, int(retries))
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self._ctx = mp_context()

    # -- one shard ----------------------------------------------------------
    async def _attempt(self, shard_dict: dict, cache_dir: str,
                       payloads: dict, obs_ctx: dict | None = None
                       ) -> tuple[dict | None, str | None, int | None]:
        """One worker-process attempt; returns ``(summary, error,
        exitcode)``.  ``obs_ctx`` propagates the parent's trace context
        into the worker (see :func:`_shard_worker`)."""
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(shard_dict, cache_dir, payloads, send, obs_ctx))
        proc.start()
        send.close()  # parent's copy: EOF must track the child's life
        t0 = time.monotonic()
        try:
            while proc.is_alive():
                if self.timeout_s is not None \
                        and time.monotonic() - t0 > self.timeout_s:
                    proc.terminate()
                    proc.join()
                    return None, (f"shard attempt timed out after "
                                  f"{self.timeout_s:g} s"), proc.exitcode
                await asyncio.sleep(0.02)
            proc.join()
            try:
                # poll() also answers True at EOF (the pipe closed by a
                # dying worker), so the recv itself must tolerate it
                summary = recv.recv() if recv.poll() else None
            except (EOFError, OSError):
                summary = None
            if summary is not None:
                if summary.get("error"):
                    return None, summary["error"], proc.exitcode
                return summary, None, proc.exitcode
            return None, f"worker died (exitcode {proc.exitcode})", \
                proc.exitcode
        finally:
            recv.close()

    async def run_shard(self, shard: StudyShard, disk_cache,
                        payloads: dict | None = None,
                        progress=None, index: int | None = None,
                        tracer=None) -> ShardReport:
        """Run one shard to completion (with retries); returns its report.

        ``disk_cache`` is the shared cache directory every shard of the
        plan writes to; ``payloads`` maps ``(driver, corner)`` to the
        serialized driver models the worker deserializes (what
        :meth:`~repro.studies.runner.ScenarioRunner.prepare_dispatch`
        renders; drivers not in the map are estimated in the worker).
        ``index`` is the shard's position in its plan, carried on the
        progress events and spans so event ordering is checkable per
        shard.  One ``job.shard`` span wraps the retry loop, with one
        ``job.shard.attempt`` child per try (attrs: ``attempt``,
        ``retry``, ``ok``, ``exitcode``, ``error``); the worker's
        metrics delta merges into this process's registry, and each
        failed attempt counts one ``shard_retries`` (plus
        ``worker_restarts`` when the worker died rather than erred).
        """
        tr = tracer if tracer is not None else get_tracer()
        met = get_metrics()
        shard_dict = shard.to_dict()
        report = ShardReport(shard=shard)
        t0 = time.perf_counter()
        with tr.span("job.shard", index=index,
                     scenarios=len(shard)) as ssp:
            for attempt in range(self.retries + 1):
                report.attempts = attempt + 1
                with tr.span("job.shard.attempt", index=index,
                             attempt=attempt + 1,
                             retry=attempt > 0) as asp:
                    summary, error, exitcode = await self._attempt(
                        shard_dict, str(disk_cache), payloads,
                        obs_ctx=tr.context())
                    asp.set(ok=summary is not None, exitcode=exitcode)
                    if error is not None:
                        asp.set(error=error)
                if summary is not None:
                    met.merge(summary.get("metrics"))
                    report.ok = True
                    report.error = None
                    report.n_scenarios = int(summary["n"])
                    report.n_cache_hits = int(summary["hits"])
                    report.n_failures = int(summary["failures"])
                    report.scenario_errors = list(summary.get("errors", []))
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
            ssp.set(ok=report.ok, attempts=report.attempts)
        report.elapsed_s = time.perf_counter() - t0
        return report

    # -- whole studies ------------------------------------------------------
    async def run_shards(self, shards, disk_cache,
                         payloads: dict | None = None,
                         progress=None, tracer=None) -> list[ShardReport]:
        """Submit every shard, await them all; reports in shard order.

        Concurrency is bounded by ``max_workers``; each shard streams
        ``shard-start`` / ``shard-done`` (and ``shard-retry``) events to
        the ``progress`` callable as it advances (every event carries
        the shard ``index``).  A shard that exhausts its retries is
        reported with ``ok=False`` -- the others still run to
        completion.
        """
        shards = list(shards)
        sem = asyncio.Semaphore(self.max_workers)
        done_box = {"scenarios": 0}

        async def one(i: int, shard: StudyShard) -> ShardReport:
            async with sem:
                _emit(progress, {"event": "shard-start", "index": i,
                                 "n_shards": len(shards), "shard": shard,
                                 "scenarios": len(shard)})
                report = await self.run_shard(shard, disk_cache,
                                              payloads=payloads,
                                              progress=progress,
                                              index=i, tracer=tracer)
                done_box["scenarios"] += report.n_scenarios
                _emit(progress, {"event": "shard-done", "index": i,
                                 "n_shards": len(shards), "shard": shard,
                                 "ok": report.ok, "error": report.error,
                                 "cache_hits": report.n_cache_hits,
                                 "failures": report.n_failures,
                                 "done_scenarios": done_box["scenarios"]})
                return report

        return list(await asyncio.gather(
            *(one(i, s) for i, s in enumerate(shards))))

    async def run_study_async(self, study: Study,
                              disk_cache=None,
                              n_shards: int | None = None,
                              models: dict | None = None,
                              progress=None, tracer=None):
        """Shard, orchestrate and merge one study; returns a
        :class:`~repro.studies.outcomes.StudyResult`.

        ``disk_cache`` (or the study's own ``options.disk_cache``) names
        the shared cache directory -- it is required, because the cache
        *is* the result channel and the crash-resume ledger.  Before the
        shards start, the merge runner's
        :meth:`~repro.studies.runner.ScenarioRunner.prepare_dispatch`
        estimates every driver and auxiliary model once, in this
        process, and renders the driver payloads all shards share.
        After all shards finish, the full grid replays through that serial
        runner on the same cache (every shard-simulated scenario is a
        disk hit; a scenario whose simulation failed is retried here,
        serially, as the last line of defense).  The returned result
        additionally carries the per-shard execution records as
        ``result.shard_reports`` and the per-phase wall-clock breakdown
        behind :meth:`~repro.studies.outcomes.StudyResult.timings`.

        One ``job.run`` span (exported through ``tracer``, or the
        process-wide one) wraps the whole job; the merge replay runs
        with metrics recording off, so the registry's
        ``cache_hits + cache_misses`` stays exactly the grid size --
        the merge would otherwise re-count every scenario as a hit.
        The job's wall clock feeds the ``job_seconds`` histogram.
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
                "options): the cache is how shard results reach the "
                "parent and how a crashed study resumes")
        with tr.span("job.run", job_id=study.digest()) as jsp:
            phases: dict[str, float] = {}
            shards = shard_plan(study, n_shards if n_shards is not None
                                else self.max_workers)
            # the merge replays the shard workers' disk entries, so its
            # cache identities must match theirs exactly: its dispatch
            # prep estimates every driver and aux model once, here, and
            # renders the payloads the workers deserialize -- forked
            # workers inherit the warm model cache instead of re-paying
            # the seconds-scale estimation per shard
            merge_runner = ScenarioRunner(models=models, n_workers=1,
                                          disk_cache=cache_dir,
                                          record_metrics=False, tracer=tr)
            scenarios = study.scenarios()
            payloads = merge_runner.prepare_dispatch(
                list(enumerate(scenarios)))
            phases["plan"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            reports = await self.run_shards(shards, cache_dir,
                                            payloads=payloads,
                                            progress=progress, tracer=tr)
            phases["shards"] = time.perf_counter() - t1
            jsp.event("merge-start", n_shards=len(shards))
            _emit(progress, {"event": "merge-start",
                             "n_shards": len(shards)})
            t2 = time.perf_counter()
            with tr.span("job.merge") as msp:
                merged = merge_runner.run(scenarios)
                msp.set(cache_hits=merged.n_cache_hits,
                        failures=len(merged.failures))
            phases["merge"] = time.perf_counter() - t2
            elapsed = time.perf_counter() - t0
            # the study's own aggregation hook: a StochasticStudy job
            # merges into a StochasticResult with draw accounting
            result = study.make_result(merged.outcomes,
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


def _emit(progress, event: dict) -> None:
    """Deliver one progress event; a broken callback never kills a run."""
    if progress is None:
        return
    try:
        progress(event)
    except Exception:  # noqa: BLE001 - observability must stay passive
        pass
