#!/usr/bin/env python
"""CI smoke drill for the study service: serve, submit, poll, fetch, verify.

Usage::

    PYTHONPATH=src python benchmarks/smoke_service.py [study.toml]

Exercises the whole service loop exactly the way a user would, across
real process boundaries:

1. start ``python -m repro.studies serve`` as a subprocess on an
   ephemeral port with a throwaway cache directory and a ``--trace``
   JSONL file, and parse the bound address from its banner line; POST
   a study with a malformed nested field and assert the ``400`` answer
   names its path (``stochastic.params.r.low``);
2. submit the study (default ``examples/study_minimal.toml``) through
   the ``python -m repro.studies submit --wait`` CLI, capturing the job
   id from the ``job <id>`` line;
3. fetch the result CSV over HTTP with the stdlib client helpers;
4. run the same study in-process (``Study.run``, no cache) and assert
   the service's verdict rows are byte-identical;
5. assert ``GET /metrics`` parses as Prometheus text, its counters
   advanced across the job (``cache_hits + cache_misses`` equals the
   grid size), and the exported trace JSONL reconstructs into a span
   tree rooted at the job with one ``scenario`` span per grid point;
6. warm leg: restart ``serve`` in a fresh process on the same cache
   directory, resubmit the study, and assert every scenario came from
   the disk cache (``cache_misses`` advanced by 0, ``cache_hits`` and
   ``disk_cache_total{result="hit"}`` by the grid size), that the
   server answered it without a shard worker (the job's trace holds no
   ``job.shard.attempt`` span) and the CSV is byte-identical to the
   cold fetch.

The trace file is left at ``$SMOKE_TRACE_OUT`` (default
``smoke_trace.jsonl`` in the working directory) so CI can upload it as
an artifact.  Exit status 0 on success; any mismatch, timeout or
server death is a non-zero exit with a diagnostic -- CI-gate friendly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_STUDY = REPO / "examples" / "study_minimal.toml"

#: a study body with a malformed nested field the server must refuse
MALFORMED = {"loads": [{"kind": "line"}],
             "stochastic": {"params": {"r": {"dist": "uniform", "low": "a",
                                             "high": 60.0}}}}


def _start_server(cache_dir: str, trace_path: str | None = None
                  ) -> tuple[subprocess.Popen, str]:
    """Launch ``serve`` on an ephemeral port; returns (proc, base_url)."""
    trace = ["--trace", trace_path] if trace_path else []
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.studies", "serve",
         "--cache", cache_dir, "--port", "0", "--workers", "2", *trace],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60.0
    banner = ""
    while time.monotonic() < deadline:
        banner = proc.stdout.readline()
        if "serving on http://" in banner:
            url = banner.split("serving on ", 1)[1].split()[0]
            return proc, url
        if proc.poll() is not None:
            break
        if not banner:
            time.sleep(0.05)
    raise SystemExit(f"serve never came up (last output: {banner!r})")


def _submit(url: str, study_file: Path) -> str | None:
    """``submit --wait`` one study; returns its job id (``None`` and a
    diagnostic on failure)."""
    submit = subprocess.run(
        [sys.executable, "-m", "repro.studies", "submit",
         str(study_file), "--url", url, "--wait",
         "--poll", "0.5", "--timeout", "600"],
        capture_output=True, text=True, timeout=900)
    print(submit.stdout, end="")
    if submit.returncode != 0:
        print(submit.stderr, end="", file=sys.stderr)
        print(f"FAIL: submit --wait exited {submit.returncode}")
        return None
    first = submit.stdout.splitlines()[0].split()
    if first[:1] != ["job"]:
        print(f"FAIL: unexpected submit output {first!r}")
        return None
    return first[1]


def _counter_total(text: str, name: str) -> float:
    """Sum one counter across label sets in Prometheus exposition text;
    also type-checks every sample line it scans."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        series, value = line.rsplit(" ", 1)
        value = float(value)  # malformed exposition fails here
        if series == name or series.startswith(name + "{"):
            total += value
    return total


def main(argv: list[str] | None = None) -> int:
    """Run the smoke drill; returns the process exit status."""
    study_file = Path((argv or sys.argv[1:] or [str(DEFAULT_STUDY)])[0])
    trace_out = Path(os.environ.get("SMOKE_TRACE_OUT",
                                    "smoke_trace.jsonl")).resolve()
    sys.path.insert(0, str(REPO / "src"))
    from repro.errors import ExperimentError
    from repro.obs import read_spans, span_tree
    from repro.studies import Study
    from repro.studies.service import (fetch_metrics, fetch_result,
                                       fetch_trace, submit_study)

    study = Study.load(study_file)
    trace_out.unlink(missing_ok=True)
    with tempfile.TemporaryDirectory(prefix="study-smoke-") as cache_dir:
        proc, url = _start_server(cache_dir, str(trace_out))
        try:
            # a malformed nested field is refused with 400, naming its path
            try:
                submit_study(url, MALFORMED)
                refused = "accepted"
            except ExperimentError as exc:
                refused = str(exc)
            before = fetch_metrics(url)
            job_id = _submit(url, study_file)
            if job_id is None:
                return 1
            served_csv = fetch_result(url, job_id, csv=True)
            after = fetch_metrics(url)
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        # warm leg: a fresh serve process answers from the same cache
        proc, url = _start_server(cache_dir)
        try:
            warm_before = fetch_metrics(url)
            warm_job = _submit(url, study_file)
            if warm_job is None:
                return 1
            warm_csv = fetch_result(url, warm_job, csv=True)
            warm_after = fetch_metrics(url)
            warm_spans = fetch_trace(url, warm_job)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    if "service error 400" not in refused \
            or "stochastic.params.r.low" not in refused:
        print(f"FAIL: a malformed study got {refused!r}, expected 400 "
              "naming stochastic.params.r.low")
        return 1

    direct_csv = study.run(n_workers=1).csv_text()
    if served_csv != direct_csv:
        print("FAIL: served CSV differs from the in-process Study.run")
        print("--- served ---\n" + served_csv)
        print("--- direct ---\n" + direct_csv)
        return 1

    # -- /metrics: parses, and the job advanced the counters
    hits = _counter_total(after, "cache_hits")
    misses = _counter_total(after, "cache_misses")
    if hits + misses != len(study):
        print(f"FAIL: cache_hits ({hits:g}) + cache_misses ({misses:g}) "
              f"!= grid size ({len(study)})")
        return 1
    if _counter_total(after, "scenarios_total") != len(study):
        print("FAIL: scenarios_total does not cover the grid")
        return 1
    if not _counter_total(after, "http_requests_total") \
            > _counter_total(before, "http_requests_total"):
        print("FAIL: http_requests_total never advanced")
        return 1

    # -- the exported trace reconstructs into the job's span tree
    if not trace_out.exists():
        print(f"FAIL: no trace JSONL at {trace_out}")
        return 1
    spans = [s for s in read_spans(trace_out)
             if s.get("trace_id") == job_id]
    roots, _ = span_tree(spans)
    root_names = [r["name"] for r in roots]
    if root_names != ["job.run"]:
        print(f"FAIL: expected one job.run trace root, got {root_names}")
        return 1
    n_scenarios = sum(1 for s in spans if s["name"] == "scenario")
    if n_scenarios != len(study):
        print(f"FAIL: {n_scenarios} scenario spans for a "
              f"{len(study)}-scenario grid")
        return 1

    # -- warm leg: every scenario from disk, same bytes as the cold fetch
    advanced = {name: _counter_total(warm_after, name)
                - _counter_total(warm_before, name)
                for name in ("cache_misses", "cache_hits",
                             'disk_cache_total{result="hit"}')}
    want = {"cache_misses": 0, "cache_hits": len(study),
            'disk_cache_total{result="hit"}': len(study)}
    if advanced != want:
        print(f"FAIL: warm leg advanced {advanced}, expected {want}")
        return 1
    if warm_csv != served_csv:
        print("FAIL: warm fetch CSV differs from the cold fetch")
        return 1
    warm_attempts = sum(1 for s in warm_spans
                        if s["name"] == "job.shard.attempt")
    if warm_attempts or not any(s["name"] == "job.shard"
                                for s in warm_spans):
        print(f"FAIL: the warm job's trace holds {warm_attempts} "
              "job.shard.attempt spans (expected none: every shard is "
              "a disk hit the server answers itself)")
        return 1

    n_rows = len(served_csv.splitlines()) - 1
    print(f"OK: job {job_id} served {n_rows} verdict rows "
          f"byte-identical to the in-process run; metrics balance "
          f"({hits:g} hits + {misses:g} misses = {len(study)}) and "
          f"{len(spans)} trace spans reconstruct under job.run "
          f"({trace_out.name}); a restarted server answered all "
          f"{len(study)} from the disk cache, without a shard worker, "
          f"with identical bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
