"""The study service front end: HTTP submit/status/result + client helpers.

A compliance study is something you *submit*, not run: the service keeps
a job registry and a bounded dispatcher pool in front of one
:class:`~repro.studies.service.jobs.JobManager`, so any number of
clients can POST study descriptions and poll for verdicts while the
simulation work fans out over shard worker processes behind one shared
content-addressed disk cache.

Job identity IS study identity: a job's id is the study's physics
digest (:meth:`~repro.studies.spec.Study.digest`), so two clients
submitting the same study -- concurrently or days apart -- share one
job and one set of cached scenario results instead of simulating the
grid twice.

Endpoints (all JSON unless noted)::

    GET  /healthz                   liveness + job count
    POST /studies                   submit a study (body: Study.to_dict
                                    JSON, optionally under a "study"
                                    key, at most MAX_BODY_BYTES: 400
                                    without a valid Content-Length or
                                    for an invalid study, 413 beyond
                                    the limit, 503 with Retry-After
                                    while MAX_QUEUED_JOBS jobs wait,
                                    500 when submission itself
                                    fails) -> {job, state, created,
                                    ...}
    GET  /studies                   all jobs' status records
    GET  /studies/<job>             one job's status record
    GET  /studies/<job>/result      finished job's compliance report
                                    (SweepResult.to_json document)
    GET  /studies/<job>/result.csv  the same rows as CSV (text/csv),
                                    byte-identical to StudyResult.to_csv
    GET  /studies/<job>/trace       the job's span tree (JSON list of
                                    exported spans, trace id = job id)
    GET  /metrics                   process-wide counters/histograms in
                                    Prometheus text exposition format

Observability: every job runs under its own :class:`~repro.obs.Tracer`
keyed by the job id, collecting spans in memory for ``/trace`` and --
when the service was built with ``trace_path`` -- appending them (and
the shard workers' spans) to one shared JSONL file.  ``/metrics``
renders the process-wide registry, which aggregates worker deltas
shipped back over the shard result pipes.  Request logging is one
structured access line (method, path, status, duration_ms) on stderr,
off by default (``make_server(..., quiet=False)`` enables it).

The module also ships the matching stdlib-only client
(:func:`submit_study`, :func:`job_status`, :func:`wait_for_job`,
:func:`fetch_result`, :func:`fetch_trace`, :func:`fetch_metrics`) used
by the ``python -m repro.studies submit|status|fetch`` subcommands.
"""

from __future__ import annotations

import json
import os
import queue
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ...errors import ExperimentError, ReproError
from ...obs import Tracer, get_metrics, read_spans
from ..spec import Study
from .jobs import JobManager

__all__ = ["QueueFull", "StudyService", "make_server", "submit_study",
           "job_status", "wait_for_job", "fetch_result", "fetch_trace",
           "fetch_metrics"]

#: the finished jobs (and their results) a :class:`StudyService` keeps
MAX_FINISHED_JOBS = 64

#: the queued jobs (each holding its parsed study) a
#: :class:`StudyService` keeps; a new study beyond them is refused
MAX_QUEUED_JOBS = 64

#: the seconds a refused client is told to wait (``Retry-After``)
RETRY_AFTER_S = 5


class QueueFull(ReproError):
    """The service's queue holds :data:`MAX_QUEUED_JOBS` jobs: a new
    study is refused (HTTP 503) until one of them starts."""


class StudyService:
    """Job registry + dispatcher pool over one :class:`JobManager`.

    ``cache_dir`` is the shared disk cache every job's shards write to
    (the service's persistent state: restarting the service and
    resubmitting a half-finished study only simulates the misses).
    ``job_slots`` bounds how many *studies* run concurrently (each study
    then fans out up to ``max_workers`` shard processes); further
    submissions queue in FIFO order.  Thread-safe: the HTTP layer calls
    :meth:`submit`/:meth:`status`/:meth:`result` from handler threads.

    ``trace_path`` names a JSONL file every job's spans append to
    (workers included); without it spans are still collected in memory
    per job, so :meth:`trace` answers either way -- the file adds the
    cross-process worker spans and survives the service.

    The registry keeps at most :data:`MAX_FINISHED_JOBS` finished (done
    or errored) jobs and evicts the least recently used one beyond;
    queued and running jobs are never evicted.  An evicted job is
    unknown again: resubmitting its study reruns it, and its shards read
    every scenario back from the disk cache.  At most
    :data:`MAX_QUEUED_JOBS` jobs wait in the queue, so the parsed
    studies they hold bound its memory too: :meth:`submit` refuses a
    new study beyond them with :class:`QueueFull`.
    """

    def __init__(self, cache_dir, max_workers: int | None = None,
                 n_shards: int | None = None, retries: int = 1,
                 timeout_s: float | None = None, job_slots: int = 1,
                 models: dict | None = None,
                 trace_path: str | os.PathLike | None = None):
        self.cache_dir = str(cache_dir)
        self.trace_path = None if trace_path is None else str(trace_path)
        self.manager = JobManager(max_workers=max_workers,
                                  retries=retries, timeout_s=timeout_s)
        self.n_shards = n_shards
        self.job_slots = max(1, int(job_slots))
        self._models = dict(models or {})
        self._jobs: dict = {}           # submission order
        self._finished: OrderedDict = OrderedDict()  # LRU first
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._threads: list = []

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "StudyService":
        """Start the dispatcher threads (idempotent); returns ``self``."""
        with self._lock:
            if self._threads:
                return self
            for i in range(self.job_slots):
                th = threading.Thread(target=self._drain, daemon=True,
                                      name=f"study-dispatch-{i}")
                th.start()
                self._threads.append(th)
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop the dispatcher threads after their current job."""
        with self._lock:
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for th in threads:
            th.join(timeout=timeout_s)

    def _drain(self) -> None:
        """Dispatcher loop: run queued jobs one at a time per slot."""
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._run_job(job_id)

    # -- job execution ------------------------------------------------------
    def _run_job(self, job_id: str) -> None:
        """Execute one queued job through the manager; record the result."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job["state"] != "queued":
                return
            job["state"] = "running"
            job["started_s"] = time.time()
            study = job["study"]
            # one tracer per job, keyed by the job id: /trace answers
            # from the collected spans, the optional shared JSONL file
            # adds the shard workers' spans
            tracer = Tracer(path=self.trace_path, collect=True,
                            trace_id=job_id)
            job["tracer"] = tracer

        def progress(event: dict) -> None:
            with self._lock:
                p = job["progress"]
                if event["event"] == "shard-start":
                    p["n_shards"] = event["n_shards"]
                elif event["event"] == "shard-done":
                    p["n_shards"] = event["n_shards"]
                    p["done_shards"] += 1
                    p["done_scenarios"] = event["done_scenarios"]
                    p["cache_hits"] += event["cache_hits"]
                elif event["event"] == "shard-retry":
                    p["retries"] += 1

        try:
            result = self.manager.run_study(
                study, disk_cache=self.cache_dir, n_shards=self.n_shards,
                models=self._models or None, progress=progress,
                tracer=tracer)
            with self._lock:
                job["result"] = result
                job["state"] = "done"
        except Exception as exc:  # noqa: BLE001 - job fails, service lives
            with self._lock:
                job["error"] = f"{type(exc).__name__}: {exc}"
                job["state"] = "error"
        finally:
            tracer.close()
            with self._lock:
                job["finished_s"] = time.time()
                self._finished[job_id] = None
                while len(self._finished) > MAX_FINISHED_JOBS:
                    del self._jobs[self._finished.popitem(last=False)[0]]

    def _touch(self, job_id: str):
        """The job (``None`` if unknown), marked as just used; call with
        the lock held."""
        if job_id in self._finished:
            self._finished.move_to_end(job_id)
        return self._jobs.get(job_id)

    # -- client surface -----------------------------------------------------
    def submit(self, study) -> tuple[str, bool]:
        """Register a study for execution; returns ``(job_id, created)``.

        ``study`` is a :class:`~repro.studies.spec.Study` or its
        serialized dict.  The job id is the study's digest, so
        resubmitting an identical study joins the existing job (queued,
        running or done) instead of duplicating work -- ``created`` says
        whether this call enqueued anything.  A previously *errored* job
        is re-enqueued (its cached scenarios make the rerun cheap).  A
        study that would enqueue a job while :data:`MAX_QUEUED_JOBS`
        jobs are queued raises :class:`QueueFull`; one joining an
        existing job never does.
        """
        if not isinstance(study, Study):
            study = Study.from_dict(study)
        job_id = study.digest()
        with self._lock:
            job = self._touch(job_id)
            if job is not None and job["state"] != "error":
                return job_id, False
            queued = sum(j["state"] == "queued"
                         for j in self._jobs.values())
            if queued >= MAX_QUEUED_JOBS:
                raise QueueFull(f"{queued} jobs are queued, the most the "
                                "service holds; retry later")
            self._finished.pop(job_id, None)
            self._jobs[job_id] = {
                "id": job_id, "study": study, "state": "queued",
                "submitted_s": time.time(), "started_s": None,
                "finished_s": None, "result": None, "error": None,
                "progress": {"n_shards": None, "done_shards": 0,
                             "done_scenarios": 0, "cache_hits": 0,
                             "retries": 0},
            }
        self._queue.put(job_id)
        return job_id, True

    def status(self, job_id: str) -> dict | None:
        """JSON-able status record of one job (``None`` if unknown)."""
        with self._lock:
            job = self._touch(job_id)
        return None if job is None else self._record(job)

    def _record(self, job: dict) -> dict:
        with self._lock:
            study = job["study"]
            out = {
                "job": job["id"], "state": job["state"],
                "study": study.name or "(unnamed)",
                "n_scenarios": len(study),
                "submitted_s": job["submitted_s"],
                "started_s": job["started_s"],
                "finished_s": job["finished_s"],
                "progress": dict(job["progress"]),
                "error": job["error"],
            }
            result = job["result"]
        if result is not None:
            out["summary"] = result.summary()
            out["n_failures"] = len(result.failures)
            out["n_cache_hits"] = result.n_cache_hits
        return out

    def jobs(self) -> list[dict]:
        """Status records of every known job, submission order (a
        listing uses no job)."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self._record(job) for job in jobs]

    def result(self, job_id: str):
        """The finished job's :class:`StudyResult` (``None`` until
        ``state == "done"`` or for unknown jobs)."""
        with self._lock:
            job = self._touch(job_id)
            return None if job is None else job["result"]

    def trace(self, job_id: str) -> list[dict] | None:
        """Exported spans of one job (``None`` for unknown jobs).

        Merges the job tracer's in-memory spans with any lines in the
        shared ``trace_path`` file carrying this job's trace id (the
        shard workers write there directly), deduplicated by span id.
        Safe to call while the job is still running -- it returns
        whatever has finished so far.
        """
        with self._lock:
            job = self._touch(job_id)
            if job is None:
                return None
            tracer = job.get("tracer")
        spans: dict[str, dict] = {}
        if tracer is not None:
            for sp in list(tracer.finished):
                d = sp.to_dict()
                spans[d["span_id"]] = d
        if self.trace_path is not None and os.path.exists(self.trace_path):
            for d in read_spans(self.trace_path):
                if d.get("trace_id") == job_id:
                    spans.setdefault(d.get("span_id"), d)
        return list(spans.values())


# ---------------------------------------------------------------------------
# HTTP layer (stdlib ThreadingHTTPServer)
# ---------------------------------------------------------------------------

_JOB_RE = re.compile(
    r"^/studies/([0-9a-f]{8,64})(/result(\.csv)?|/trace)?$")

#: the largest study body a POST may declare (a study document is a few
#: kB); a longer one is refused with 413 before any of it is read
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler bridging HTTP to the attached :class:`StudyService`.

    The service instance rides on the server object
    (``self.server.service``, set by :func:`make_server`).
    """

    server_version = "repro-studies/1"

    @property
    def service(self) -> StudyService:
        """The :class:`StudyService` this server fronts."""
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the stdlib's per-request stderr chatter.

        The access log is one structured line per response, emitted by
        :meth:`_send` when the server runs with ``quiet=False`` -- not
        the stdlib's unconfigurable default format.
        """

    def _send(self, code: int, payload,
              content_type: str = "application/json",
              headers: dict | None = None) -> None:
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        get_metrics().inc("http_requests_total", method=self.command,
                          status=code)
        if not getattr(self.server, "quiet", True):
            dur_ms = (time.perf_counter()
                      - getattr(self, "_t0", time.perf_counter())) * 1e3
            sys.stderr.write(
                f"access method={self.command} path={self.path} "
                f"status={code} duration_ms={dur_ms:.1f}\n")

    def _error(self, code: int, message: str,
               headers: dict | None = None) -> None:
        self._send(code, {"error": message}, headers=headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        """Route status/result/trace/metrics reads."""
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0]
        if path in ("/", "/healthz"):
            self._send(200, {"status": "ok",
                             "jobs": len(self.service.jobs())})
            return
        if path == "/metrics":
            self._send(200, get_metrics().render_prometheus(),
                       content_type="text/plain; version=0.0.4; "
                                    "charset=utf-8")
            return
        if path == "/studies":
            self._send(200, {"jobs": self.service.jobs()})
            return
        m = _JOB_RE.match(path)
        if m is None:
            self._error(404, f"unknown path {path!r}")
            return
        job_id, want, want_csv = m.group(1), m.group(2), m.group(3)
        status = self.service.status(job_id)
        if status is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if want == "/trace":
            spans = self.service.trace(job_id)
            self._send(200, {"job": job_id, "spans": spans or []})
            return
        if not want:
            self._send(200, status)
            return
        result = self.service.result(job_id)
        if result is None:
            self._error(409, f"job {job_id!r} is {status['state']}, "
                             "not done; poll /studies/<job> first")
            return
        if want_csv:
            self._send(200, result.csv_text().encode("utf-8"),
                       content_type="text/csv; charset=utf-8")
            return
        doc = result.to_json()
        doc["job"] = job_id
        doc["summary"] = result.summary()
        self._send(200, doc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        """Route study submission."""
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0]
        if path != "/studies":
            self._error(404, f"unknown path {path!r}")
            return
        # the declared length bounds the read: refuse a missing, malformed
        # or oversized one before reading, or a handler thread would wait
        # on a body that never comes
        declared = self.headers.get("Content-Length")
        if declared is None or not re.fullmatch(r"[0-9]+", declared.strip()):
            self._error(400, "'Content-Length' must be a non-negative "
                             f"integer, got {declared!r}")
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._error(413, f"'Content-Length' {length} exceeds the "
                             f"{MAX_BODY_BYTES}-byte study body limit")
            return
        try:
            doc = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            study = Study.from_dict(doc)
            job_id, created = self.service.submit(study)
        except ExperimentError as exc:
            self._error(400, f"invalid study: {exc}")
            return
        except QueueFull as exc:
            self._error(503, str(exc),
                        headers={"Retry-After": str(RETRY_AFTER_S)})
            return
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._error(500, f"cannot submit the study: "
                             f"{type(exc).__name__}: {exc}")
            return
        status = self.service.status(job_id)
        status["created"] = created
        self._send(202 if created else 200, status)


def make_server(service: StudyService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ThreadingHTTPServer:
    """Bind a :class:`ThreadingHTTPServer` fronting ``service``.

    ``port=0`` picks an ephemeral port (read it back from
    ``server.server_address``).  Starts the service's dispatcher
    threads; the caller owns ``serve_forever``/``shutdown``.
    ``quiet=False`` enables the one-line structured access log on
    stderr (method, path, status, duration_ms); the default stays
    silent, which is what tests and smoke drills want.
    """
    service.start()
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service
    server.quiet = bool(quiet)
    return server


# ---------------------------------------------------------------------------
# stdlib client (used by the submit/status/fetch CLI subcommands)
# ---------------------------------------------------------------------------

def _request(url: str, payload: dict | None = None):
    """One HTTP exchange; returns ``(status_code, body_bytes, headers)``.

    Service-level errors (4xx/5xx with a JSON ``error`` field) raise
    :class:`ExperimentError`; transport failures raise it too, so CLI
    callers surface one error type.
    """
    data = None if payload is None \
        else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            message = json.loads(body.decode("utf-8"))["error"]
        except (ValueError, KeyError, UnicodeDecodeError):
            message = body.decode("utf-8", "replace")[:200]
        raise ExperimentError(
            f"service error {exc.code} from {url}: {message}") from exc
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ExperimentError(
            f"cannot reach the study service at {url}: {exc}") from exc


def submit_study(base_url: str, study) -> dict:
    """POST a study to the service; returns the job status record.

    ``study`` is a :class:`~repro.studies.spec.Study` or its serialized
    dict.  The returned record carries ``job`` (the id to poll),
    ``state`` and ``created`` (``False`` when an identical study was
    already known -- the service deduplicates by study digest).
    """
    doc = study.to_dict() if isinstance(study, Study) else study
    _, body, _ = _request(base_url.rstrip("/") + "/studies", payload=doc)
    return json.loads(body.decode("utf-8"))


def job_status(base_url: str, job_id: str) -> dict:
    """GET one job's status record."""
    _, body, _ = _request(f"{base_url.rstrip('/')}/studies/{job_id}")
    return json.loads(body.decode("utf-8"))


def wait_for_job(base_url: str, job_id: str, poll_s: float = 0.5,
                 timeout_s: float | None = None) -> dict:
    """Poll a job until it leaves the queued/running states.

    Returns the final status record (``state`` is ``"done"`` or
    ``"error"``); raises :class:`ExperimentError` when ``timeout_s``
    elapses first.
    """
    t0 = time.monotonic()
    while True:
        status = job_status(base_url, job_id)
        if status["state"] not in ("queued", "running"):
            return status
        if timeout_s is not None and time.monotonic() - t0 > timeout_s:
            raise ExperimentError(
                f"job {job_id} still {status['state']} after "
                f"{timeout_s:g} s")
        time.sleep(poll_s)


def fetch_result(base_url: str, job_id: str, csv: bool = False):
    """GET a finished job's result.

    ``csv=False`` (default) returns the JSON compliance document as a
    dict; ``csv=True`` returns the CSV text (byte-identical to
    :meth:`~repro.studies.outcomes.SweepResult.to_csv` of an in-process
    run).  A job that is not done yet raises (the service answers 409).
    """
    url = f"{base_url.rstrip('/')}/studies/{job_id}/result"
    if csv:
        _, body, _ = _request(url + ".csv")
        return body.decode("utf-8")
    _, body, _ = _request(url)
    return json.loads(body.decode("utf-8"))


def fetch_trace(base_url: str, job_id: str) -> list[dict]:
    """GET a job's exported spans (the ``/studies/<job>/trace`` list).

    Answers while the job is still running with whatever spans have
    finished; pass the dicts to :func:`repro.obs.span_tree` to
    reconstruct the hierarchy.
    """
    _, body, _ = _request(
        f"{base_url.rstrip('/')}/studies/{job_id}/trace")
    return json.loads(body.decode("utf-8"))["spans"]


def fetch_metrics(base_url: str) -> str:
    """GET the service's ``/metrics`` Prometheus text exposition."""
    _, body, _ = _request(base_url.rstrip("/") + "/metrics")
    return body.decode("utf-8")
