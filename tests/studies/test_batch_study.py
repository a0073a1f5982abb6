"""Grid batching through the Study/runner layer.

Batching is an execution knob, never an identity: a batched study must
produce the same waveforms, metrics and disk-cache digests as the
per-scenario path, mixed grids must isolate their un-batchable
stragglers, and a worker killed mid-run must degrade into an in-parent
recompute instead of a hung sweep.
"""

import os
import signal
import sys

import numpy as np
import pytest

from repro.circuit import Resistor
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.studies import (CORNERS, KINDS, CoupledLoadSpec, LoadSpec,
                           RunnerOptions, ScenarioKind, ScenarioRunner,
                           SpectralSpec, Study, register_kind,
                           scenario_grid)

TOL = 1e-9


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


def line_study(n_workers=1, **options):
    loads = tuple(LoadSpec(kind="line", r=r, z0=z0, td=1e-9)
                  for r in (50.0, 150.0) for z0 in (50.0, 75.0))
    return Study(patterns=("0110", "0011"), loads=loads,
                 spectral=SpectralSpec(quantity="v_port"),
                 options=RunnerOptions(n_workers=n_workers,
                                       use_result_cache=False, **options))


def assert_outcomes_match(got, ref):
    for a, b in zip(got.outcomes, ref.outcomes):
        assert a.ok and b.ok, (a.error, b.error)
        np.testing.assert_allclose(a.v_port, b.v_port, rtol=TOL, atol=TOL)
        assert set(a.spectra) == set(b.spectra)
        for key in a.spectra:
            np.testing.assert_allclose(a.spectra[key].mag,
                                       b.spectra[key].mag,
                                       rtol=TOL, atol=TOL)
        for key, val in a.metrics.items():
            want = b.metrics[key]
            if isinstance(val, float) \
                    and not (np.isnan(val) and np.isnan(want)):
                assert val == pytest.approx(want, rel=TOL, abs=TOL), key


class TestBatchedStudyEquivalence:
    def test_serial_batch_matches_unbatched(self, models):
        study = line_study()
        assert_outcomes_match(study.run(models=models),
                              study.run(models=models, batch=False))

    def test_parallel_batch_matches_unbatched(self, models):
        study = line_study(n_workers=3)
        assert_outcomes_match(study.run(models=models),
                              study.run(models=models, batch=False,
                                        n_workers=1))

    def test_mixed_group_with_rx_straggler(self, models):
        """A nonlinear-receiver load rides alongside a batched group."""
        loads = (LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9),
                 LoadSpec(kind="line", r=150.0, z0=50.0, td=1e-9),
                 LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0))
        study = Study(patterns=("0110",), loads=loads,
                      options=RunnerOptions(n_workers=1,
                                            use_result_cache=False))
        assert_outcomes_match(study.run(models=models),
                              study.run(models=models, batch=False))


class TestMixedCornerGroups:
    """One lockstep group per bench topology, across corners, pattern
    lengths and the receiver port."""

    def test_corner_and_length_grid_matches_unbatched(self, md2_corners):
        models = {("MD2", c): m for c, m in md2_corners.items()}
        loads = (LoadSpec(kind="line", r=1e3, z0=65.0, td=1e-9),
                 LoadSpec(kind="rc", r=75.0, c=5e-12),
                 CoupledLoadSpec(length=0.1),
                 LoadSpec(kind="rx", z0=50.0, td=0.5e-9, r=0.0),
                 LoadSpec(kind="rx", td=0.0, r=50.0))
        study = Study(patterns=("0110", "011010"), loads=loads,
                      corners=CORNERS, bit_time=0.5e-9,
                      spectral=SpectralSpec(quantity="v_port"),
                      options=RunnerOptions(n_workers=1,
                                            use_result_cache=False))
        runner = ScenarioRunner(models=models, n_workers=1)
        groups = runner._group_pending(list(enumerate(study.scenarios())))
        assert [len(g) for g in groups] == [6] * len(loads)
        mine = MetricsRegistry()
        original = get_metrics()
        set_metrics(mine)
        try:
            got = study.run(models=models)
        finally:
            set_metrics(original)
        assert mine.total("batch_fallbacks_total") == 0
        ref = study.run(models=models, batch=False)
        assert_outcomes_match(got, ref)
        for a, b in zip(got.outcomes, ref.outcomes):
            assert a.warnings == b.warnings
            assert len(a.t) == len(b.t)
            for name in b.probes:
                np.testing.assert_allclose(a.probes[name], b.probes[name],
                                           rtol=TOL, atol=TOL)


class TestDispatchSplit:
    """Parallel runs split a group only to fill workers the groups
    leave idle."""

    def jobs(self, models, monkeypatch, loads, patterns):
        seen = []
        original = ScenarioRunner._drain_pool

        def spy(runner, pool, job_groups, *args):
            seen.extend(len(jobs) for jobs in job_groups)
            return original(runner, pool, job_groups, *args)

        monkeypatch.setattr(ScenarioRunner, "_drain_pool", spy)
        runner = ScenarioRunner(models=models, n_workers=2,
                                use_result_cache=False)
        result = runner.run(scenario_grid(patterns, loads))
        assert all(o.ok for o in result.outcomes)
        return seen

    def test_four_groups_on_two_workers_are_four_jobs(self, models,
                                                      monkeypatch):
        loads = [LoadSpec(kind="r", r=50.0), LoadSpec(kind="rc", c=1e-12),
                 LoadSpec(kind="line", td=0.3e-9),
                 LoadSpec(kind="line", td=0.3e-9, c=1e-12)]
        assert self.jobs(models, monkeypatch, loads,
                         ["01", "0110"]) == [2, 2, 2, 2]

    def test_one_group_on_two_workers_is_two_chunks(self, models,
                                                    monkeypatch):
        loads = [LoadSpec(kind="r", r=float(r)) for r in (25, 50, 75, 100)]
        assert self.jobs(models, monkeypatch, loads, ["01"]) == [2, 2]

    def test_chunks_never_shrink_to_one_member(self):
        from repro.studies.runner import _split_group
        assert [len(c) for c in _split_group(list(range(3)), 2, 1)] == [3]
        assert [len(c) for c in _split_group(list(range(5)), 4, 1)] \
            == [2, 3]
        assert [len(c) for c in _split_group(list(range(6)), 2, 4)] == [6]


class TestDigestInvariance:
    def test_disk_cache_hits_across_backends(self, models, tmp_path):
        """Batched and unbatched runs key the disk cache identically."""
        study = line_study()
        warm = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path, batch=True)
        first = warm.run(study.scenarios())
        assert all(o.ok and not o.cache_hit for o in first.outcomes)
        cold = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path, batch=False)
        second = cold.run(study.scenarios())
        assert all(o.cache_hit for o in second.outcomes)

    def test_study_digest_ignores_the_batch_knob(self):
        on = line_study(batch=True)
        off = line_study(batch=False)
        assert on.digest() == off.digest()


class TestGrouping:
    def test_groups_partition_by_structure(self, md2_model):
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1)
        loads = [LoadSpec(kind="line", r=r, z0=50.0, td=1e-9)
                 for r in (50.0, 75.0, 150.0)]
        loads += [LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9,
                           c=2e-12)]
        loads += [LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0)]
        pending = list(enumerate(scenario_grid(["0110"], loads)))
        groups = runner._group_pending(pending)
        assert sorted(len(g) for g in groups) == [1, 1, 3]

    def test_corners_and_pattern_lengths_share_a_group(self, md2_model):
        """The driver bank carries each member's corner model and short
        runs freeze, so only the topology splits groups."""
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1)
        load = LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9)
        pending = list(enumerate(
            scenario_grid(["0110"], [load], corners=("typ", "fast"))
            + scenario_grid(["011010"], [load])
            + scenario_grid(["0110"], [load], dt=10e-12)))
        groups = runner._group_pending(pending)
        assert sorted(len(g) for g in groups) == [1, 3]

    def test_batch_false_gives_singletons(self, md2_model):
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1, batch=False)
        loads = [LoadSpec(kind="line", r=r, z0=50.0, td=1e-9)
                 for r in (50.0, 75.0)]
        pending = list(enumerate(scenario_grid(["0110"], loads)))
        assert [len(g) for g in runner._group_pending(pending)] == [1, 1]


class TestRunnerOptionsBatch:
    def test_default_stays_out_of_to_dict(self):
        assert "batch" not in RunnerOptions().to_dict()
        assert RunnerOptions(batch=False).to_dict() == {"batch": False}

    def test_round_trip(self):
        opts = RunnerOptions.from_dict({"batch": False, "n_workers": 2})
        assert opts == RunnerOptions(batch=False, n_workers=2)

    def test_study_toml_round_trip(self):
        study = line_study(batch=False)
        again = Study.from_toml(study.to_toml())
        assert again.options.batch is False
        assert again == study


_PARENT_PID = os.getpid()


class _KillerKind(ScenarioKind):
    """Wires a plain shunt resistor -- but SIGKILLs any worker process.

    The parent (the pid that registered the kind) builds normally, so
    the runner's in-parent recompute of the lost job succeeds.
    """

    name = "killer"
    physics_fields = ("r",)

    def build_circuit(self, load, ckt, port: str) -> str:
        if os.getpid() != _PARENT_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        ckt.add(Resistor("rload", port, "0", load.r))
        return port


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="relies on fork workers")
class TestWorkerDeath:
    def test_killed_worker_degrades_to_parent_recompute(self, models):
        """A SIGKILLed worker must not hang the sweep, and the recovered
        outcomes equal an in-process run's."""
        kind = _KillerKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            loads = [LoadSpec(kind="killer", r=50.0)]
            loads += [LoadSpec(kind="line", r=r, z0=50.0, td=1e-9)
                      for r in (50.0, 75.0, 150.0)]
            runner = ScenarioRunner(models=models, n_workers=2,
                                    use_result_cache=False)
            runner._grace_s = 0.5
            grid = scenario_grid(["0110"], loads)
            result = runner.run(grid)
            assert all(o.ok for o in result.outcomes)
            assert len(result.outcomes) == 4
            ref = ScenarioRunner(models=models, n_workers=1,
                                 use_result_cache=False).run(grid)
            for a, b in zip(ref, result):
                np.testing.assert_array_equal(a.v_port, b.v_port)
                np.testing.assert_equal(a.metrics, b.metrics)
        finally:
            KINDS.pop("killer", None)
