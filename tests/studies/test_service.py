"""The study service: shard planning, async orchestration, HTTP front end.

The contract under test is *identity through indirection*: a study
submitted to the service -- sharded, run in worker processes, merged
from the shard replies, fetched over HTTP -- must produce results
byte-identical to a plain in-process :meth:`Study.run`, and any scenario
simulated once (by a crashed attempt, a previous submission, another
client) must never be simulated again.
"""

import http.client
import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.circuit import Resistor
from repro.errors import ExperimentError
from repro.experiments.cache import SweepDiskCache
from repro.obs import Tracer
from repro.studies import (CORNERS, KINDS, CoupledLoadSpec, LoadSpec,
                           ScenarioKind, SpectralSpec, Study, register_kind)
from repro.studies.runner import ScenarioRunner, batch_groups, batch_key
from repro.studies.service import jobs
from repro.studies.service import (JobManager, StudyService, StudyShard,
                                   fetch_result, job_status, make_server,
                                   shard_plan, submit_study, wait_for_job)
from repro.studies.service.serve import MAX_BODY_BYTES

_PARENT_PID = os.getpid()
_LINUX = sys.platform.startswith("linux")


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


def small_study(**spectral):
    """2 patterns x 2 kinds = 4 scenarios in one batch group."""
    return Study(patterns=("0110", "010110"),
                 loads=(LoadSpec(kind="r", r=50.0),
                        LoadSpec(kind="rc", r=100.0, c=5e-12)),
                 spectral=SpectralSpec(mask="board-b", **spectral))


def mixed_study():
    """2 patterns x (3 r + 2 line + 1 rx) = 12 scenarios in 2 groups:
    the 10 linear loads and the 2 receivers."""
    loads = tuple(LoadSpec(kind="r", r=r) for r in (50.0, 75.0, 150.0))
    loads += tuple(LoadSpec(kind="line", z0=z0, td=1e-9, r=50.0)
                   for z0 in (50.0, 75.0))
    loads += (LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0),)
    return Study(patterns=("0110", "010110"), loads=loads)


# ---------------------------------------------------------------------------
# shard planning (pure, no simulation)
# ---------------------------------------------------------------------------

class TestShardPlan:
    def test_partition_is_exact(self):
        study = mixed_study()
        shards = shard_plan(study, 3)
        seen = [i for s in shards for i in s.indices]
        assert sorted(seen) == list(range(len(study)))
        assert len(seen) == len(set(seen))

    def test_batch_groups_are_never_split(self):
        """With as many groups as shards, no group is split."""
        study = mixed_study()
        shards = shard_plan(study, 2)
        assert len(shards) == 2
        owner = {i: k for k, s in enumerate(shards) for i in s.indices}
        grid = study.scenarios()
        by_key = {}
        for idx, sc in enumerate(grid):
            key = batch_key(sc)
            if key is not None:
                by_key.setdefault(key, []).append(idx)
        for key, indices in by_key.items():
            assert len({owner[i] for i in indices}) == 1, key

    def test_plan_is_balanced_and_deterministic(self):
        study = mixed_study()
        shards = shard_plan(study, 2)
        sizes = sorted(len(s) for s in shards)
        assert sum(sizes) == len(study)
        # the linear group and the receiver pair fill both shards, so
        # neither splits
        assert sizes == [2, 10]
        assert shard_plan(study, 2) == shards

    def test_mixed_corner_group_splits_into_pairs(self):
        """Corners and pattern lengths share one batch group; a lone
        group splits to fill the shards, in chunks of two or more."""
        study = Study(patterns=("0110", "011010"), corners=CORNERS,
                      loads=(LoadSpec(kind="line", z0=65.0, td=1e-9,
                                      r=1e3),))
        assert len(batch_groups(enumerate(study.scenarios()))) == 1
        shards = shard_plan(study, 3)
        assert [s.indices for s in shards] == [(0, 1), (2, 3), (4, 5)]
        assert len(shard_plan(study, 4)) == 3
        assert [len(s) for s in shard_plan(study, 2)] == [3, 3]

    def test_fewer_groups_than_shards(self):
        """A lone group splits only into chunks of at least two
        members: four scenarios fill two of eight shards."""
        study = Study(patterns=("0110",),
                      loads=tuple(LoadSpec(kind="r", r=float(r))
                                  for r in (25, 50, 75, 100)))
        shards = shard_plan(study, 8)
        assert [s.indices for s in shards] == [(0, 1), (2, 3)]

    def test_validation(self):
        study = mixed_study()
        with pytest.raises(ExperimentError):
            StudyShard(study=study, indices=())
        with pytest.raises(ExperimentError):
            StudyShard(study=study, indices=(0, len(study)))
        with pytest.raises(ExperimentError):
            StudyShard(study=study, indices=(1, 1))
        with pytest.raises(ExperimentError):
            shard_plan(study, 0)


# ---------------------------------------------------------------------------
# the async job manager
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestJobManager:
    def test_sharded_run_matches_direct_run(self, models, tmp_path):
        study = small_study()
        events = []
        mgr = JobManager(max_workers=2)
        result = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                               models=models, progress=events.append)
        direct = study.run(models=models, n_workers=1)
        assert result.csv_text() == direct.csv_text()
        names = [e["event"] for e in events]
        assert names.count("shard-start") == 2
        assert names.count("shard-done") == 2
        assert names[-1] == "merge-done"
        assert all(r.ok and r.attempts == 1
                   for r in result.shard_reports)
        # a cold job simulated everything: no hit, in the result or
        # in the shard reports
        assert result.n_cache_hits == 0
        assert sum(r.n_cache_hits for r in result.shard_reports) == 0
        # resubmission answers everything from the shared cache
        again = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                              models=models)
        assert all(r.n_cache_hits == r.n_scenarios
                   for r in again.shard_reports)
        assert again.n_cache_hits == len(study)
        assert sum(r.n_cache_hits for r in again.shard_reports) \
            == len(study)
        assert again.csv_text() == direct.csv_text()

    def test_fused_group_split_across_shards_matches_direct_run(
            self, models, tmp_path):
        """Four linear load topologies fuse into one batch group, which
        splits across two shards; the merged CSV is byte-identical to an
        in-process run of the whole group."""
        study = Study(patterns=("0110", "011010"),
                      loads=(LoadSpec(kind="r", r=50.0),
                             LoadSpec(kind="rc", r=100.0, c=5e-12),
                             LoadSpec(kind="line", z0=65.0, td=0.5e-9,
                                      r=1e3, c=1e-12),
                             CoupledLoadSpec(length=0.05)),
                      spectral=SpectralSpec(mask="board-b"))
        assert len(batch_groups(enumerate(study.scenarios()))) == 1
        shards = shard_plan(study, 2)
        assert [len(s) for s in shards] == [4, 4]
        kinds = [{study.scenarios()[i].load.kind for i in s.indices}
                 for s in shards]
        assert all(len(k) > 1 for k in kinds)
        result = JobManager(max_workers=2).run_study(
            study, disk_cache=tmp_path, n_shards=2, models=models)
        assert len(result.shard_reports) == 2
        direct = study.run(models=models, n_workers=1)
        assert result.csv_text() == direct.csv_text()

    def test_receiver_model_is_estimated_once_per_job(
            self, models, tmp_path, monkeypatch):
        """The parent prepares the receiver model before the shards
        fork: two rx shards and the parent share one estimate.  Every
        process appends its pid to a marker file per estimation."""
        from repro.experiments import cache
        model = cache.receiver_model("MD4")
        monkeypatch.delitem(cache._cache, ("receiver", "MD4"))
        marker = tmp_path / "estimates"

        def counted(*args, **kwargs):
            with open(marker, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return model

        monkeypatch.setattr(cache, "estimate_receiver_model", counted)
        study = Study(patterns=("0110",),
                      loads=(LoadSpec(kind="rx", td=1e-9, r=50.0),
                             LoadSpec(kind="rx", td=0.0, r=50.0)))
        assert len(shard_plan(study, 2)) == 2
        result = JobManager(max_workers=2).run_study(
            study, disk_cache=tmp_path / "cache", models=models)
        assert all(o.ok for o in result)
        assert len(result.shard_reports) == 2
        assert marker.read_text(encoding="utf-8").splitlines() \
            == [str(os.getpid())]

    def test_disk_cache_counter_merges_from_shard_workers(
            self, models, tmp_path, fresh_metrics):
        """Only the shard workers read the disk cache; their counts
        reach the parent's registry through the metrics delta."""
        study = small_study()
        mgr = JobManager(max_workers=2)
        for _ in range(2):
            mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                          models=models)
        assert fresh_metrics.value("disk_cache_total", result="miss") \
            == len(study)
        assert fresh_metrics.value("disk_cache_total", result="hit") \
            == len(study)
        assert fresh_metrics.value("disk_cache_total",
                                   result="corrupt") == 0

    @staticmethod
    def count_children(monkeypatch) -> list:
        """Record the shard of every worker process the job manager
        starts (the list grows as children start)."""
        started = []
        real = jobs.Child

        def counting(target, shard, *args):
            started.append(shard)
            return real(target, shard, *args)

        monkeypatch.setattr(jobs, "Child", counting)
        return started

    def test_cached_resubmission_starts_no_child(
            self, models, tmp_path, monkeypatch, fresh_metrics):
        """A study whose every scenario is on disk is answered in the
        parent: no worker process, the same CSV bytes, reports that
        partition the grid with ``attempts == 0``, and counters that
        count each scenario and each entry once."""
        study = mixed_study()
        mgr = JobManager(max_workers=2)
        cold = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                             models=models)
        fresh_metrics.reset()

        def no_child(*args):
            raise AssertionError("a cached shard started a worker")

        monkeypatch.setattr(jobs, "Child", no_child)
        events = []
        tr = Tracer(collect=True, trace_id="warm")
        warm = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                             models=models, progress=events.append,
                             tracer=tr)
        assert warm.csv_text() == cold.csv_text()
        assert sorted(i for r in warm.shard_reports
                      for i in r.shard.indices) == list(range(len(study)))
        for r in warm.shard_reports:
            assert r.ok and r.attempts == 0 and r.error is None
            assert r.n_cache_hits == r.n_scenarios == len(r.shard)
        assert warm.n_cache_hits == len(study)
        value = fresh_metrics.value
        assert value("cache_hits") == len(study)
        assert value("cache_misses") == 0
        assert value("disk_cache_total", result="hit") == len(study)
        assert value("disk_cache_total", result="miss") == 0
        # progress: every shard starts and finishes, with its hits
        done = [e for e in events if e["event"] == "shard-done"]
        assert sorted(e["index"] for e in done) == [0, 1]
        assert sorted(e["index"] for e in events
                      if e["event"] == "shard-start") == [0, 1]
        assert sum(e["cache_hits"] for e in done) == len(study)
        # spans: one job.shard per shard, from disk, no attempt
        spans = [sp.to_dict() for sp in tr.finished]
        shard_spans = [sp for sp in spans if sp["name"] == "job.shard"]
        assert len(shard_spans) == 2
        for sp in shard_spans:
            assert sp["attrs"]["from_disk"] is True
            assert sp["attrs"]["attempts"] == 0
            assert sp["attrs"]["ok"] is True
        assert not [sp for sp in spans
                    if sp["name"] == "job.shard.attempt"]

    def test_partly_cached_job_starts_one_child(
            self, models, tmp_path, monkeypatch, fresh_metrics):
        """With one shard's scenarios on disk and the other's not, the
        job forks exactly one worker, for the missing shard, and every
        scenario still counts once."""
        study = mixed_study()
        plan = shard_plan(study, 2)
        cached, missing = plan
        ScenarioRunner(models=models, n_workers=1,
                       disk_cache=tmp_path).run(cached.scenarios())
        fresh_metrics.reset()
        started = self.count_children(monkeypatch)
        result = JobManager(max_workers=2).run_study(
            study, disk_cache=tmp_path, n_shards=2, models=models)
        assert started == [missing]
        by_shard = {r.shard: r for r in result.shard_reports}
        assert by_shard[cached].attempts == 0
        assert by_shard[cached].n_cache_hits == len(cached)
        assert by_shard[missing].attempts == 1
        assert by_shard[missing].n_cache_hits == 0
        value = fresh_metrics.value
        assert value("cache_hits") == len(cached)
        assert value("cache_misses") == len(missing)
        assert value("disk_cache_total", result="hit") == len(cached)
        # the missing shard's probe stats one entry and reads none: its
        # worker's lookups are the only misses counted
        assert value("disk_cache_total", result="miss") == len(missing)
        assert result.csv_text() \
            == study.run(models=models, n_workers=1).csv_text()

    def test_corrupt_entry_sends_its_shard_to_a_child(
            self, models, tmp_path, monkeypatch, fresh_metrics):
        """An entry that exists (so it passes the probe) but does not
        decode sends its shard to a worker; the other shard is still
        answered in the parent and the result is complete."""
        study = mixed_study()
        mgr = JobManager(max_workers=2)
        cold = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                             models=models)
        bad_shard = shard_plan(study, 2)[1]
        runner = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=tmp_path)
        victim = runner._disk_key(bad_shard.scenarios()[-1])
        with open(SweepDiskCache(tmp_path)._entry(victim), "wb") as fh:
            fh.write(b"RSC1 not an entry")
        fresh_metrics.reset()
        started = self.count_children(monkeypatch)
        result = mgr.run_study(study, disk_cache=tmp_path, n_shards=2,
                               models=models)
        assert started == [bad_shard]
        assert [r.attempts for r in result.shard_reports] == [0, 1]
        assert all(r.ok for r in result.shard_reports)
        assert all(o.ok for o in result)
        assert result.csv_text() == cold.csv_text()
        value = fresh_metrics.value
        assert value("disk_cache_total", result="corrupt") == 1
        assert value("cache_misses") == 1
        assert value("cache_hits") + value("cache_misses") == len(study)

    def test_hung_attempt_times_out_and_retries(self, models, tmp_path):
        """A worker that hangs is terminated once ``timeout_s`` passes
        (the loop wakes on the timeout, not on the worker) and the
        retry completes the shard."""
        marker = tmp_path / "hung-once"

        class _HangKind(ScenarioKind):
            """Shunt resistor; the first worker building it hangs."""

            name = "hang"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                if os.getpid() != _PARENT_PID and not marker.exists():
                    marker.touch()
                    time.sleep(600)
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

        kind = _HangKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            study = Study(patterns=("0110",),
                          loads=(LoadSpec(kind="hang", r=50.0),))
            events = []
            t0 = time.monotonic()
            result = JobManager(max_workers=1, retries=1,
                                timeout_s=3.0).run_study(
                study, disk_cache=tmp_path / "c", n_shards=1,
                models=models, progress=events.append)
            elapsed = time.monotonic() - t0
            assert marker.exists(), "the worker never hung"
            [report] = result.shard_reports
            assert report.ok and report.attempts == 2
            [retry] = [e for e in events if e["event"] == "shard-retry"]
            assert "timed out after 3 s" in retry["error"]
            assert all(o.ok for o in result)
            assert elapsed < 60.0
        finally:
            KINDS.pop("hang", None)

    def test_missing_cache_is_rejected(self, models):
        with pytest.raises(ExperimentError):
            JobManager().run_study(small_study(), models=models)

    def test_worker_death_retries_from_group_checkpoints(
            self, models, tmp_path):
        """A SIGKILLed shard attempt resumes instead of starting over.

        The flaky kind kills the worker once, while it prepares its
        second batch group; the first group is already checkpointed in
        the shared cache, so the retry answers it from disk and only
        simulates the remainder.
        """
        marker = tmp_path / "killed-once"

        class _FlakyKind(ScenarioKind):
            """Shunt resistor; SIGKILLs the first worker that builds it."""

            name = "flaky"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                if os.getpid() != _PARENT_PID and not marker.exists():
                    marker.touch()
                    os.kill(os.getpid(), signal.SIGKILL)
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

            def batch_structure(self, load) -> tuple:
                # a group of its own: the kill lands between two
                # checkpoints
                return ("flaky",)

        kind = _FlakyKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            # grid order puts both r scenarios (group 1) before the
            # flaky ones (group 2): the kill lands after checkpoint 1
            study = Study(patterns=("0110",),
                          loads=(LoadSpec(kind="r", r=50.0),
                                 LoadSpec(kind="r", r=150.0),
                                 LoadSpec(kind="flaky", r=50.0),
                                 LoadSpec(kind="flaky", r=150.0)))
            cache_dir = tmp_path / "cache"
            events = []
            mgr = JobManager(max_workers=1, retries=1)
            result = mgr.run_study(study, disk_cache=cache_dir,
                                   n_shards=1, models=models,
                                   progress=events.append)
            assert marker.exists()
            report = result.shard_reports[0]
            assert report.ok
            assert report.attempts == 2
            assert "worker died" in [e for e in events
                                     if e["event"] == "shard-retry"
                                     ][0]["error"]
            assert report.n_scenarios == 4
            assert report.n_cache_hits >= 2  # group 1 came from disk
            assert all(o.ok for o in result)
            direct = study.run(models=models, n_workers=1)
            assert result.csv_text() == direct.csv_text()
        finally:
            KINDS.pop("flaky", None)

    def test_exhausted_retries_reports_not_ok(self, models, tmp_path):
        """A shard that always dies is reported, not raised -- the merge
        reruns the dead shard in-process."""

        class _AlwaysKill(ScenarioKind):
            """SIGKILLs every worker that builds it (parent survives)."""

            name = "alwayskill"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                if os.getpid() != _PARENT_PID:
                    os.kill(os.getpid(), signal.SIGKILL)
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

        kind = _AlwaysKill()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            study = Study(patterns=("0110",),
                          loads=(LoadSpec(kind="alwayskill", r=50.0),))
            mgr = JobManager(max_workers=1, retries=1)
            result = mgr.run_study(study, disk_cache=tmp_path / "c",
                                   n_shards=1, models=models)
            report = result.shard_reports[0]
            assert not report.ok
            assert report.attempts == 2
            assert "worker died" in report.error
            # the merge reran the shard in the parent, where the
            # kind builds normally
            assert all(o.ok for o in result)
        finally:
            KINDS.pop("alwayskill", None)

    def test_large_shard_reply_does_not_hang(self, models, tmp_path):
        """A shard summary bigger than the pipe buffer still arrives.

        Every scenario fails to build with its own ~200-character error,
        so the one shard's summary carries ~130 kB of error text.  The
        parent must read the reply while the worker is still sending it;
        a parent that waits for the worker to exit first deadlocks with
        it until the attempt times out.
        """

        class _Refusing(ScenarioKind):
            """A load whose bench never builds, with a distinct error."""

            name = "refusing"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                raise ExperimentError(
                    f"load r={load.r:g} refuses to build: ".ljust(200, "."))

            def batch_structure(self, load) -> tuple:
                return ()

        kind = _Refusing()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            study = Study(patterns=("0110",),
                          loads=tuple(LoadSpec(kind="refusing",
                                               r=float(r))
                                      for r in range(1, 601)))
            mgr = JobManager(max_workers=1, retries=0, timeout_s=30.0)
            result = mgr.run_study(study, disk_cache=tmp_path / "c",
                                   n_shards=1, models=models)
            [report] = result.shard_reports
            assert report.ok, report.error
            assert report.n_failures == 600
            assert len(set(report.scenario_errors)) == 600
        finally:
            KINDS.pop("refusing", None)


# ---------------------------------------------------------------------------
# the HTTP service
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_service(tmp_path, models):
    """A served StudyService on an ephemeral port; yields (url, service)."""
    service = StudyService(cache_dir=tmp_path / "cache", max_workers=1,
                           retries=1, models=models)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(timeout=5.0)


@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestHTTPService:
    def test_submit_poll_fetch_round_trip(self, http_service, models):
        url, _service = http_service
        study = small_study()
        status = submit_study(url, study)
        assert status["created"] is True
        assert status["n_scenarios"] == len(study)
        final = wait_for_job(url, status["job"], poll_s=0.1,
                             timeout_s=300.0)
        assert final["state"] == "done"
        assert final["n_failures"] == 0
        assert final["progress"]["done_scenarios"] == len(study)
        doc = fetch_result(url, status["job"])
        assert doc["job"] == status["job"]
        assert len(doc["rows"]) == len(study)
        direct = study.run(models=models, n_workers=1)
        assert fetch_result(url, status["job"], csv=True) \
            == direct.csv_text()

    def test_error_paths(self, http_service):
        url, service = http_service
        with pytest.raises(ExperimentError, match="unknown job"):
            job_status(url, "0" * 32)
        with pytest.raises(ExperimentError, match="service error 404"):
            fetch_result(url, "not-a-job-id")
        # a queued (dispatcher stopped) job answers 409 for its result
        service.stop()
        status = submit_study(url, small_study(window="blackman"))
        assert status["state"] == "queued"
        with pytest.raises(ExperimentError, match="409"):
            fetch_result(url, status["job"])

    def test_full_queue_refuses_new_studies(self, http_service,
                                            monkeypatch):
        """With MAX_QUEUED_JOBS jobs queued, a new study is refused --
        503 with Retry-After over HTTP, QueueFull in process -- while a
        resubmission joins its queued job; once the queue drains, new
        studies are accepted again."""
        from repro.studies.service import serve
        monkeypatch.setattr(serve, "MAX_QUEUED_JOBS", 1)
        url, service = http_service
        service.stop()          # queued jobs stay queued
        first, second = (Study(patterns=(p,),
                               loads=(LoadSpec(kind="r", r=50.0),))
                         for p in ("0110", "0011"))
        status = submit_study(url, first)
        assert status["created"] is True and status["state"] == "queued"
        host, port = url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=3.0)
        try:
            conn.request("POST", "/studies",
                         body=json.dumps(second.to_dict()).encode(),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 503
            assert resp.getheader("Retry-After") \
                == str(serve.RETRY_AFTER_S)
            assert "queued" in json.loads(resp.read())["error"]
        finally:
            conn.close()
        with pytest.raises(ExperimentError, match="service error 503"):
            submit_study(url, second)
        with pytest.raises(serve.QueueFull):
            service.submit(second)
        again = submit_study(url, first)
        assert again["created"] is False and again["job"] == status["job"]
        assert [j["job"] for j in service.jobs()] == [status["job"]]
        service.start()
        done = wait_for_job(url, status["job"], poll_s=0.05,
                            timeout_s=300.0)
        assert done["state"] == "done"
        assert submit_study(url, second)["created"] is True

    def test_finished_jobs_are_a_bounded_lru(self, http_service,
                                             monkeypatch):
        """The registry keeps MAX_FINISHED_JOBS finished jobs, the least
        recently used evicted first and a queued job never: an evicted
        id answers 404, and resubmitting its study reruns it with every
        scenario a disk-cache hit."""
        from repro.studies.service import serve
        monkeypatch.setattr(serve, "MAX_FINISHED_JOBS", 2)
        url, service = http_service
        studies = [Study(patterns=(p,), loads=(LoadSpec(kind="r", r=50.0),
                                               LoadSpec(kind="r", r=75.0)))
                   for p in ("0110", "010110", "0011")]

        def run(study):
            status = submit_study(url, study)
            assert status["created"] is True
            final = wait_for_job(url, status["job"], poll_s=0.05,
                                 timeout_s=300.0)
            assert final["state"] == "done"
            return final

        first, second = run(studies[0]), run(studies[1])
        # reading the first job leaves the second least recently used
        assert fetch_result(url, first["job"])["job"] == first["job"]
        service.stop()          # the third job stays queued
        queued = submit_study(url, studies[2])
        assert queued["state"] == "queued"
        assert [j["job"] for j in service.jobs()] \
            == [first["job"], second["job"], queued["job"]]
        service.start()
        third = wait_for_job(url, queued["job"], poll_s=0.05,
                             timeout_s=300.0)
        assert third["n_cache_hits"] == 0
        assert [j["job"] for j in service.jobs()] \
            == [first["job"], queued["job"]]
        with pytest.raises(ExperimentError, match="service error 404"):
            job_status(url, second["job"])
        with pytest.raises(ExperimentError, match="service error 404"):
            fetch_result(url, second["job"], csv=True)

        again = run(studies[1])
        assert again["job"] == second["job"]
        assert again["n_cache_hits"] == len(studies[1])
        assert fetch_result(url, second["job"], csv=True) \
            == studies[1].run(models=service._models,
                              n_workers=1).csv_text()
        # the first job was the least recently used one this time
        assert [j["job"] for j in service.jobs()] \
            == [queued["job"], second["job"]]

    @pytest.mark.parametrize("doc, field", [
        (5, "table of fields"),
        ({"loads": 5}, "'loads'"),
        ({"patterns": ["01"], "loads": [{"kind": "r", "r": "abc"}]},
         "'loads'"),
        ({"patterns": ["01"], "bit_time": "fast"}, "'bit_time'"),
        ({"patterns": ["01"], "runner": {"backend": "fd"}}, "runner"),
        ({"patterns": ["01"], "runner": {"shared_waveforms": True}},
         "runner"),
        ({"patterns": ["01"], "runner": {"batch": False}}, "runner"),
        ({"patterns": ["01"], "runner": {"use_result_cache": "false"}},
         "'use_result_cache'"),
        ({"patterns": ["01"], "runner": {"n_workers": -2}}, "'n_workers'"),
        ({"patterns": ["01"], "runner": {"n_workers": 2.7}},
         "'n_workers'"),
        ({"patterns": ["01"], "runner": {"n_workers": True}},
         "'n_workers'"),
        ({"patterns": ["01"], "runner": {"disk_cache": 5}}, "'disk_cache'"),
        ({"patterns": ["01"], "runner": {"use_result_cache": False,
                                         "disk_cache": "c"}},
         "'disk_cache'"),
        ({"loads": [{"kind": "r"}], "stochastic": {"n_draws": 10**12}},
         "stochastic.n_draws"),
        # these three once passed parsing and crashed inside submit,
        # dropping the connection without an answer
        ({"patterns": ["01"], "bit_time": None}, "'bit_time'"),
        ({"loads": [{"kind": "r"}], "stochastic": {"seed": -1}},
         "stochastic.seed"),
        ({"loads": [{"kind": "r"}], "stochastic": {"params": {"r": "abc"}}},
         "stochastic.params.r"),
    ])
    def test_malformed_study_is_400(self, http_service, doc, field):
        """A malformed body answers 400 naming the field; the
        connection is not dropped."""
        url, _service = http_service
        with pytest.raises(ExperimentError,
                           match=f"service error 400.*{field}"):
            submit_study(url, doc)

    def test_study_over_the_ceiling_is_400(self, http_service):
        """A grid larger than the admission ceiling is refused before
        it renders or queues (the dispatcher is stopped, so nothing
        could run it either way)."""
        from repro.studies.spec import MAX_SCENARIOS
        url, service = http_service
        service.stop()
        n_loads = MAX_SCENARIOS // 100 + 1
        doc = {"patterns": ["01"] * 100,
               "loads": [{"kind": "r", "r": 50.0}] * n_loads}
        with pytest.raises(ExperimentError,
                           match="service error 400.*admission ceiling"):
            submit_study(url, doc)
        assert not service.jobs()

    def test_failing_submit_answers_500(self, http_service, monkeypatch):
        """Any other exception inside submit answers 500 with the error
        instead of closing the connection without a response."""
        url, service = http_service

        def broken(study):
            raise RuntimeError("registry on fire")

        monkeypatch.setattr(service, "submit", broken)
        with pytest.raises(ExperimentError,
                           match="service error 500.*registry on fire"):
            submit_study(url, {"patterns": ["01"]})

    @pytest.mark.parametrize("load, field", [
        ({"kind": "line", "c": -1e-12}, "'c'"),
        ({"kind": "line", "r": -50.0}, "'r'"),
        ({"kind": "line", "z0": -50.0}, "'z0'"),
        ({"kind": "line", "td": -1e-9}, "'td'"),
        ({"kind": "line", "td": 0.0}, "'td'"),
        ({"kind": "r", "r": -50.0}, "'r'"),
        ({"kind": "rc", "r": -75.0, "c": 5e-12}, "'r'"),
        ({"kind": "rc", "r": 75.0, "c": -5e-12}, "'c'"),
        ({"kind": "rx", "td": -1e-9}, "'td'"),
        ({"kind": "rx", "z0": 0.0}, "'z0'"),
        ({"kind": "rx", "c": -1e-12}, "'c'"),
    ])
    def test_nonphysical_load_is_400(self, http_service, load, field):
        """A non-physical load value answers 400 naming the field."""
        url, service = http_service
        with pytest.raises(ExperimentError,
                           match=f"service error 400.*{field}"):
            submit_study(url, {"patterns": ["01"], "loads": [load]})
        assert not service.jobs()

    @staticmethod
    def post_raw(url, length, body=b""):
        """POST ``body`` to /studies declaring ``length`` as its
        Content-Length (``None``: no header); ``(status, error)``."""
        host, port = url.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=3.0)
        try:
            conn.putrequest("POST", "/studies", skip_accept_encoding=True)
            if length is not None:
                conn.putheader("Content-Length", str(length))
            conn.endheaders(body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", [None, -1, "abc", "1.5", "1_0"])
    def test_bad_content_length_is_400(self, http_service, length):
        """A missing or non-integer Content-Length answers 400 at once,
        before any body is read."""
        url, service = http_service
        status, error = self.post_raw(url, length)
        assert status == 400
        assert "Content-Length" in error
        assert not service.jobs()

    def test_oversized_body_is_413(self, http_service):
        """A body declared beyond the limit (here 5 GB that never comes)
        answers 413 at once instead of being awaited."""
        url, service = http_service
        status, error = self.post_raw(url, 5 * 10**9)
        assert status == 413
        assert "Content-Length" in error
        status, _ = self.post_raw(url, MAX_BODY_BYTES + 1)
        assert status == 413
        assert not service.jobs()

    def test_body_at_the_limit_is_read(self, http_service):
        """A body within the limit is read and parsed as before."""
        url, _service = http_service
        body = b"{" + b" " * (MAX_BODY_BYTES - 2) + b"}"
        status, error = self.post_raw(url, len(body), body)
        assert status == 400
        assert "invalid study" in error

    def test_unknown_mask_is_400(self, http_service):
        """An unknown mask name answers 400 naming the field."""
        url, service = http_service
        with pytest.raises(ExperimentError,
                           match="service error 400.*spectral mask"):
            submit_study(url, {"patterns": ["01"],
                               "spectral": {"mask": "no-such-mask"}})
        assert not service.jobs()

    def test_concurrent_clients_share_one_job(self, http_service,
                                              models, tmp_path):
        """Two clients submitting the same study share one job -- and
        the grid is simulated exactly once."""
        url, service = http_service
        tally = tmp_path / "builds.log"

        class _TallyKind(ScenarioKind):
            """Shunt resistor that logs every circuit build."""

            name = "tally"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                with open(tally, "a") as fh:
                    fh.write(f"{os.getpid()} {load.r}\n")
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

            def batch_structure(self, load) -> tuple:
                return ()

        kind = _TallyKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            study = Study(patterns=("0110", "010110"),
                          loads=(LoadSpec(kind="tally", r=50.0),
                                 LoadSpec(kind="tally", r=150.0)))
            results = [None, None]

            def client(i):
                results[i] = submit_study(url, study)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert results[0]["job"] == results[1]["job"]
            assert sorted(r["created"] for r in results) == [False, True]
            final = wait_for_job(url, results[0]["job"], poll_s=0.1,
                                 timeout_s=300.0)
            assert final["state"] == "done"
            csvs = {fetch_result(url, r["job"], csv=True)
                    for r in results}
            assert len(csvs) == 1
            # every scenario was built exactly once, in a worker; the
            # merge assembled the shard replies without building
            builds = tally.read_text().splitlines()
            assert len(builds) == len(study)
            assert all(line.split()[0] != str(_PARENT_PID)
                       for line in builds)
        finally:
            KINDS.pop("tally", None)


# ---------------------------------------------------------------------------
# the acceptance drill: 64 scenarios, crash mid-study, resume
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestCrashResumeAcceptance:
    def test_64_scenarios_in_two_halves_with_a_crash_between(
            self, models, tmp_path):
        """The service's crash-resume guarantee, end to end over HTTP.

        A 64-scenario study (two 32-scenario batch groups) runs through
        the service; the worker is SIGKILLed once the shared cache holds
        the first half, so the study arrives in two halves with a dead
        worker between them.  The resumed attempt must answer at least
        the first half from disk-cache hits, and the fetched CSV must be
        byte-identical to a single in-process ``Study.run``.
        """
        cache_dir = tmp_path / "cache"
        marker = tmp_path / "killed-once"

        class _HalfwayKill(ScenarioKind):
            """Shunt resistor; kills the worker once half the grid is
            durably cached."""

            name = "ckpt"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                if os.getpid() != _PARENT_PID and not marker.exists() \
                        and len(SweepDiskCache(cache_dir)) >= 32:
                    marker.touch()
                    os.kill(os.getpid(), signal.SIGKILL)
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

            def batch_structure(self, load) -> tuple:
                # two structural halves -> two 32-scenario batch groups
                return (load.r < 105.0,)

        kind = _HalfwayKill()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            # 2 patterns x 32 loads, split by batch_structure into two
            # 32-scenario batch groups (= the two halves)
            study = Study(
                name="accept64", patterns=("0110", "010110"),
                loads=tuple(LoadSpec(kind="ckpt", r=float(r))
                            for r in range(25, 25 + 32 * 5, 5)),
                spectral=SpectralSpec(mask="board-b"))
            assert len(study) == 64

            service = StudyService(cache_dir=cache_dir, max_workers=1,
                                   n_shards=1, retries=1, models=models)
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.05},
                                      daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            try:
                status = submit_study(url, study)
                final = wait_for_job(url, status["job"], poll_s=0.2,
                                     timeout_s=600.0)
                assert final["state"] == "done"
                assert final["n_failures"] == 0
                csv = fetch_result(url, status["job"], csv=True)
                result = service.result(status["job"])
            finally:
                server.shutdown()
                server.server_close()
                service.stop()
                thread.join(timeout=5.0)

            assert marker.exists(), "the crash never happened"
            report = result.shard_reports[0]
            assert report.attempts == 2, "expected one death + resume"
            assert report.ok
            # the resumed half answered >= the first half from disk
            assert report.n_cache_hits >= 32
            assert report.n_scenarios == 64
            # byte-identical to one in-process run of the same study
            direct = study.run(models=models, n_workers=1)
            assert csv == direct.csv_text()
            assert csv == result.csv_text()
        finally:
            KINDS.pop("ckpt", None)
