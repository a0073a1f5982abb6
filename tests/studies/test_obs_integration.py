"""Observability through the stack: spans, events, /metrics, /trace.

Three contracts under test: (1) the JobManager's progress and span
events arrive in causal order per shard, even when a worker is
SIGKILLed mid-shard; (2) a traced service job exports a JSONL file
that reconstructs into one complete span tree -- every scenario span
hangs under a ``runner.group``, every shard attempt carries its
retry/exit attributes; (3) the runner's cache accounting survives the
kill-and-retry path exactly: ``cache_hits + cache_misses`` equals the
grid size on ``GET /metrics``.
"""

import os
import signal
import sys
import threading

import pytest

from repro.circuit import Resistor
from repro.experiments.cache import SweepDiskCache
from repro.obs import Tracer, read_spans, set_tracer, span_tree
from repro.studies import (KINDS, Distribution, LoadSpec, ScenarioKind,
                           SpectralSpec, StochasticSpec, StochasticStudy,
                           Study, TrafficModel, register_kind)
from repro.studies.service import (JobManager, StudyService, fetch_metrics,
                                   fetch_trace, make_server, submit_study,
                                   wait_for_job)

_PARENT_PID = os.getpid()
_LINUX = sys.platform.startswith("linux")


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


def _register_kill_once(name, marker):
    """Register a shunt-resistor kind that SIGKILLs the first worker
    process that builds it (the parent always survives)."""

    class _KillOnce(ScenarioKind):
        """Shunt resistor; kills the first worker that builds it."""

        physics_fields = ("r",)

        def build_circuit(self, load, ckt, port: str) -> str:
            if os.getpid() != _PARENT_PID and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            ckt.add(Resistor("rload", port, "0", load.r))
            return port

        def batch_structure(self, load) -> tuple:
            return ()

    _KillOnce.name = name
    kind = _KillOnce()
    kind.load_cls = LoadSpec
    register_kind(kind, overwrite=True)
    return kind


def _metric_total(text: str, name: str, default: float | None = None
                  ) -> float:
    """Sum one counter across label sets in Prometheus exposition text.

    An absent metric is an assertion failure unless ``default`` says
    otherwise (a counter only materialises once first incremented).
    """
    total, seen = 0.0, False
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2 and (parts[0] == name
                                or parts[0].startswith(name + "{")):
            total += float(parts[1])
            seen = True
    if not seen:
        if default is not None:
            return default
        raise AssertionError(f"metric {name!r} absent from exposition")
    return total


# ---------------------------------------------------------------------------
# event ordering through the JobManager (progress stream and spans)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestEventOrdering:
    def test_progress_and_span_events_stay_causal_under_sigkill(
            self, models, tmp_path, fresh_metrics):
        """shard-start < shard-retry < shard-done per index; merge-start
        only after every shard; attempt spans carry retry/exit attrs."""
        marker = tmp_path / "killed-once"
        _register_kill_once("obskill", marker)
        try:
            study = Study(patterns=("0110",),
                          loads=(LoadSpec(kind="r", r=50.0),
                                 LoadSpec(kind="r", r=150.0),
                                 LoadSpec(kind="obskill", r=50.0),
                                 LoadSpec(kind="obskill", r=150.0)))
            events = []
            tr = Tracer(collect=True, trace_id="evt-test")
            mgr = JobManager(max_workers=2, retries=1)
            result = mgr.run_study(study, disk_cache=tmp_path / "cache",
                                   n_shards=2, models=models,
                                   progress=events.append, tracer=tr)
            assert marker.exists(), "the kill never happened"
            assert all(o.ok for o in result)

            # -- progress stream: causal per index, merge strictly last
            names = [e["event"] for e in events]
            assert names.count("shard-start") == 2
            assert names.count("shard-done") == 2
            assert names.count("shard-retry") == 1
            by_index = {}
            for pos, e in enumerate(events):
                if "index" in e:
                    by_index.setdefault(e["index"], []).append(
                        (pos, e["event"]))
            for index, seq in by_index.items():
                kinds = [name for _, name in seq]
                assert kinds[0] == "shard-start", index
                assert kinds[-1] == "shard-done", index
                assert all(k == "shard-retry" for k in kinds[1:-1]), index
            last_shard_done = max(pos for pos, e in enumerate(events)
                                  if e["event"] == "shard-done")
            merge_start = names.index("merge-start")
            assert merge_start > last_shard_done
            assert names[-1] == "merge-done"
            retry = next(e for e in events
                         if e["event"] == "shard-retry")
            assert "worker died" in retry["error"]

            # -- spans: one job.run root; the killed shard records the
            # retry as a typed event and two attempts with exit attrs
            spans = [s.to_dict() for s in tr.finished]
            roots, _ = span_tree(spans)
            assert [r["name"] for r in roots] == ["job.run"]
            shard_spans = [s for s in spans if s["name"] == "job.shard"]
            assert len(shard_spans) == 2
            killed = [s for s in shard_spans
                      if s["attrs"]["attempts"] == 2]
            assert len(killed) == 1
            (ev,) = killed[0]["events"]
            assert ev["name"] == "shard-retry"
            assert "worker died" in ev["attrs"]["error"]
            attempts = [s for s in spans
                        if s["name"] == "job.shard.attempt"
                        and s["attrs"]["index"]
                        == killed[0]["attrs"]["index"]]
            attempts.sort(key=lambda s: s["attrs"]["attempt"])
            assert [a["attrs"]["retry"] for a in attempts] == [False, True]
            assert attempts[0]["attrs"]["ok"] is False
            assert attempts[0]["attrs"]["exitcode"] == -signal.SIGKILL
            assert attempts[1]["attrs"]["ok"] is True
            # merge-start fires only after both shard spans closed
            job = roots[0]
            merge_ev = next(e for e in job["events"]
                            if e["name"] == "merge-start")
            for s in shard_spans:
                assert merge_ev["t"] >= s["t_start"] + s["duration_s"]

            # -- phase timings ride on the result
            assert set(result.phases) == {"plan", "shards", "merge"}
            timings = result.timings()
            assert "shards" in timings and "total" in timings
            # -- per-kind timing summary covers the whole grid
            rows = {r["kind"]: r for r in result.timing_rows()}
            assert set(rows) == {"r", "obskill"}
            assert sum(r["n"] for r in rows.values()) == len(study)
            for r in rows.values():
                assert r["cached"] + r["simulated"] == r["n"]
            assert "obskill" in result.timing_summary()
        finally:
            KINDS.pop("obskill", None)


# ---------------------------------------------------------------------------
# the traced 64-scenario service drill (the acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestTracedServiceDrill:
    def test_64_scenarios_trace_tree_and_cache_invariant(
            self, models, tmp_path, fresh_metrics):
        """A SIGKILLed-and-retried 64-scenario job through the HTTP
        service: the shared JSONL reconstructs one complete tree and
        ``cache_hits + cache_misses`` on /metrics equals the grid."""
        marker = tmp_path / "killed-once"
        trace_path = tmp_path / "trace.jsonl"
        _register_kill_once("obsdrill", marker)
        try:
            study = Study(
                name="obs64", patterns=("0110", "010110"),
                loads=tuple(LoadSpec(kind="obsdrill", r=float(r))
                            for r in range(25, 25 + 32 * 5, 5)))
            assert len(study) == 64
            service = StudyService(cache_dir=tmp_path / "cache",
                                   max_workers=1, n_shards=1, retries=1,
                                   models=models, trace_path=trace_path)
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.05},
                                      daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            try:
                status = submit_study(url, study)
                job_id = status["job"]
                final = wait_for_job(url, job_id, poll_s=0.2,
                                     timeout_s=600.0)
                assert final["state"] == "done"
                assert final["n_failures"] == 0
                served = fetch_trace(url, job_id)
                metrics_text = fetch_metrics(url)
            finally:
                server.shutdown()
                server.server_close()
                service.stop()
                thread.join(timeout=5.0)
            assert marker.exists(), "the kill never happened"

            # -- the JSONL holds the complete cross-process tree.  The
            # SIGKILLed attempt may leave orphan spans (children whose
            # enclosing span died unexported); the job itself must form
            # exactly one complete tree rooted at job.run
            spans = [s for s in read_spans(trace_path)
                     if s["trace_id"] == job_id]
            roots, by_id = span_tree(spans)
            job_roots = [r for r in roots if r["name"] == "job.run"]
            assert len(job_roots) == 1
            job_pid = job_roots[0]["pid"]
            assert job_roots[0]["attrs"]["job_id"] == job_id
            assert all(r["pid"] != job_pid for r in roots
                       if r is not job_roots[0]), \
                "parent-process spans must never orphan"
            scenario_spans = [s for s in spans if s["name"] == "scenario"]
            assert len(scenario_spans) == 64
            for s in scenario_spans:
                parent = by_id[s["parent_id"]]
                assert parent["name"] == "runner.group", s["attrs"]
                # ... and the chain reaches the job root unbroken
                node = s
                while node["parent_id"] in by_id:
                    node = by_id[node["parent_id"]]
                assert node is job_roots[0], s["attrs"]
            attempts = [s for s in spans
                        if s["name"] == "job.shard.attempt"]
            assert len(attempts) == 2
            for a in attempts:
                assert "retry" in a["attrs"], a
                assert "exitcode" in a["attrs"], a
            attempts.sort(key=lambda s: s["attrs"]["attempt"])
            assert attempts[0]["attrs"]["exitcode"] == -signal.SIGKILL
            assert attempts[1]["attrs"]["ok"] is True
            # worker pids differ from the parent's (cross-process spans)
            parent_pid = roots[0]["pid"]
            assert {s["pid"] for s in scenario_spans} != {parent_pid}
            # the /trace endpoint serves the same tree
            assert {s["span_id"] for s in served} \
                >= {s["span_id"] for s in spans}

            # -- the registry invariant survives kill-and-retry
            assert _metric_total(metrics_text, "cache_hits") \
                + _metric_total(metrics_text, "cache_misses") \
                == len(study)
            assert _metric_total(metrics_text, "scenarios_total") \
                == len(study)
            assert _metric_total(metrics_text, "shard_retries") == 1
            assert _metric_total(metrics_text, "worker_restarts") >= 1
            assert _metric_total(metrics_text, "solver_steps") > 0
            assert _metric_total(metrics_text, "job_seconds_count") == 1
        finally:
            KINDS.pop("obsdrill", None)


# ---------------------------------------------------------------------------
# stochastic draw accounting through a killed-worker retry
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestStochasticDrawAccounting:
    def test_draw_accounting_balances_across_a_killed_worker(
            self, models, tmp_path, fresh_metrics):
        """A sharded stochastic job with one SIGKILLed attempt must
        count every draw exactly once: ``draws_total`` sums to the
        budget (a retry never double-counts a draw), every draw is
        durably cached, ``draws_cached`` equals the result's cache
        hits, and
        the sampler's ``stochastic.sample`` span carries the seed and
        budget it rendered."""
        marker = tmp_path / "killed-once"
        _register_kill_once("mcobs", marker)
        try:
            study = StochasticStudy(
                name="mcobs",
                loads=(LoadSpec(kind="r", r=50.0),
                       LoadSpec(kind="mcobs", r=50.0)),
                spectral=SpectralSpec(mask="board-b"),
                stochastic=StochasticSpec(
                    seed=7, n_draws=24,
                    traffic=TrafficModel(model="bernoulli", n_bits=8),
                    params={"r": Distribution(dist="uniform", low=40.0,
                                              high=60.0)}))
            tr = set_tracer(Tracer(collect=True, trace_id="mc-obs"))
            try:
                mgr = JobManager(max_workers=2, retries=1)
                result = mgr.run_study(study,
                                       disk_cache=tmp_path / "cache",
                                       n_shards=2, models=models,
                                       tracer=tr)
            finally:
                set_tracer(None)
            assert marker.exists(), "the kill never happened"
            assert all(o.ok for o in result)
            assert sorted(r.attempts for r in result.shard_reports) \
                == [1, 2]

            # -- the accounting invariant: one increment per draw, no
            # matter how many worker attempts it took
            text = fresh_metrics.render_prometheus()
            assert _metric_total(text, "draws_total") == len(study)
            ok = sum(float(line.split()[1])
                     for line in text.splitlines()
                     if line.startswith('draws_total{status="ok"}'))
            assert ok == len(study)
            # every draw is durably in the shared cache, and the draws
            # counted as cached are exactly the result's cache hits
            assert len(SweepDiskCache(tmp_path / "cache")) == len(study)
            assert _metric_total(text, "draws_cached", default=0.0) \
                == result.n_cache_hits

            # -- the sampler span rode the global tracer
            spans = [s.to_dict() for s in tr.finished]
            sample = [s for s in spans
                      if s["name"] == "stochastic.sample"]
            assert len(sample) == 1
            attrs = sample[0]["attrs"]
            assert attrs["n_draws"] == 24
            assert attrs["seed"] == 7
            assert attrs["traffic"] == "bernoulli"
        finally:
            KINDS.pop("mcobs", None)


# ---------------------------------------------------------------------------
# the HTTP surfacing on its own (cheap, no simulation)
# ---------------------------------------------------------------------------

class TestHTTPSurfacing:
    @pytest.fixture()
    def served(self, tmp_path):
        service = StudyService(cache_dir=tmp_path / "cache",
                               max_workers=1)
        service.stop()  # no dispatcher: endpoints only
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_metrics_endpoint_parses_and_counts_requests(
            self, served, fresh_metrics):
        first = fetch_metrics(served)
        for line in first.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample line must end in a number
        second = fetch_metrics(served)
        assert _metric_total(second, "http_requests_total") \
            > _metric_total(first, "http_requests_total", default=0.0)

    def test_trace_unknown_job_is_a_client_error(self, served):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError, match="404"):
            fetch_trace(served, "0" * 32)
