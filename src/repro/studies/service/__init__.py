"""Sharded async study orchestration and the HTTP study service.

The layer that turns a declarative :class:`~repro.studies.spec.Study`
into *submitted* work: :func:`shard_plan` slices the scenario grid into
batch-group :class:`StudyShard` sub-studies that share one
content-addressed disk cache; :class:`JobManager` runs the shards in
worker processes on an :mod:`asyncio` loop (bounded concurrency,
per-shard retry/timeout, progress streaming, crash-resume through the
cache); :class:`StudyService` + ``python -m repro.studies serve`` expose
submit / status / result endpoints over a job queue so compliance
studies are submitted over HTTP and fetched as JSON/CSV -- see
``docs/service.md`` for the workflow.
"""

from .jobs import JobManager, ShardReport
from .serve import (QueueFull, StudyService, fetch_metrics, fetch_result,
                    fetch_trace, job_status, make_server, submit_study,
                    wait_for_job)
from .shards import StudyShard, shard_plan

__all__ = [
    "StudyShard", "shard_plan",
    "JobManager", "ShardReport",
    "QueueFull", "StudyService", "make_server",
    "submit_study", "job_status", "wait_for_job", "fetch_result",
    "fetch_trace", "fetch_metrics",
]
