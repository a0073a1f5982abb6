"""Grid batching through the Study/runner layer.

Batching is execution, never identity: a batched study must produce the
same waveforms and metrics as per-scenario :func:`simulate_scenario`
runs, and the same disk-cache digests under any grouping; mixed grids
must isolate their un-batchable stragglers, and a worker killed mid-run
must degrade into an in-parent recompute instead of a hung sweep.
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
                           scenario_grid, simulate_scenario)
from repro.studies.runner import batch_groups

TOL = 1e-9


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


def line_study(n_workers=1):
    loads = tuple(LoadSpec(kind="line", r=r, z0=z0, td=1e-9)
                  for r in (50.0, 150.0) for z0 in (50.0, 75.0))
    return Study(patterns=("0110", "0011"), loads=loads,
                 spectral=SpectralSpec(quantity="v_port"),
                 options=RunnerOptions(n_workers=n_workers,
                                       use_result_cache=False))


def per_scenario(study, models):
    """The serial reference: each scenario simulated alone."""
    return [simulate_scenario(sc, models[(sc.driver, sc.corner)])
            for sc in study.scenarios()]


def assert_outcomes_match(got, ref):
    assert len(got.outcomes) == len(ref)
    for a, b in zip(got.outcomes, ref):
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
                              per_scenario(study, models))

    def test_parallel_batch_matches_unbatched(self, models):
        study = line_study(n_workers=3)
        assert_outcomes_match(study.run(models=models),
                              per_scenario(study, models))

    def test_mixed_group_with_rx_straggler(self, models):
        """A nonlinear-receiver load rides alongside a batched group."""
        loads = (LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9),
                 LoadSpec(kind="line", r=150.0, z0=50.0, td=1e-9),
                 LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0))
        study = Study(patterns=("0110",), loads=loads,
                      options=RunnerOptions(n_workers=1,
                                            use_result_cache=False))
        assert_outcomes_match(study.run(models=models),
                              per_scenario(study, models))


class TestMixedCornerGroups:
    """One lockstep group per nonlinear skeleton, across corners,
    pattern lengths and linear load topologies; the receiver port has
    its own."""

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
        groups = batch_groups(enumerate(study.scenarios()))
        # line, rc and coupled fuse; each receiver placement is a group
        assert [len(g) for g in groups] == [18, 6, 6]
        mine = MetricsRegistry()
        original = get_metrics()
        set_metrics(mine)
        try:
            got = study.run(models=models)
        finally:
            set_metrics(original)
        assert mine.total("batch_fallbacks_total") == 0
        ref = per_scenario(study, models)
        assert_outcomes_match(got, ref)
        for a, b in zip(got.outcomes, ref):
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
        original = ScenarioRunner._dispatch

        def spy(runner, jobs, *args):
            seen.extend(len(job) for job in jobs)
            return original(runner, jobs, *args)

        monkeypatch.setattr(ScenarioRunner, "_dispatch", spy)
        runner = ScenarioRunner(models=models, n_workers=2,
                                use_result_cache=False)
        result = runner.run(scenario_grid(patterns, loads))
        assert all(o.ok for o in result.outcomes)
        return seen

    def test_four_groups_on_two_workers_are_four_jobs(self, models,
                                                      monkeypatch):
        """Linear loads (v_port, then i_port) and the two receiver
        placements: four groups."""
        i_port = SpectralSpec(quantity="i_port")
        loads = [LoadSpec(kind="r", r=50.0),
                 LoadSpec(kind="rc", c=1e-12, spectral=i_port),
                 LoadSpec(kind="rx", td=0.3e-9, r=50.0),
                 LoadSpec(kind="rx", td=0.0, r=50.0)]
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
    def test_disk_cache_hits_across_groupings(self, models, tmp_path):
        """A grid run as one batch group and its scenarios run one at a
        time key the disk cache identically."""
        study = line_study()
        warm = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path)
        first = warm.run(study.scenarios())
        assert all(o.ok and not o.cache_hit for o in first.outcomes)
        cold = ScenarioRunner(models=models, n_workers=1,
                              disk_cache=tmp_path)
        for sc in study.scenarios():
            [again] = cold.run([sc]).outcomes
            assert again.cache_hit


class TestGrouping:
    def test_groups_partition_by_structure(self):
        """Linear loads share one group whatever their shape (the
        far-end capacitor, the load kind); the receiver has its own."""
        loads = [LoadSpec(kind="line", r=r, z0=50.0, td=1e-9)
                 for r in (50.0, 75.0, 150.0)]
        loads += [LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9,
                           c=2e-12), LoadSpec(kind="rc", r=50.0, c=1e-12)]
        loads += [LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0)]
        groups = batch_groups(enumerate(scenario_grid(["0110"], loads)))
        assert sorted(len(g) for g in groups) == [1, 5]

    def test_corners_and_pattern_lengths_share_a_group(self):
        """The driver bank carries each member's corner model and short
        runs freeze, so only the topology splits groups."""
        load = LoadSpec(kind="line", r=50.0, z0=50.0, td=1e-9)
        pending = enumerate(
            scenario_grid(["0110"], [load], corners=("typ", "fast"))
            + scenario_grid(["011010"], [load])
            + scenario_grid(["0110"], [load], dt=10e-12))
        groups = batch_groups(pending)
        assert sorted(len(g) for g in groups) == [1, 3]


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
