"""ScenarioRunner: grid construction, parallel fan-out, metrics, caching."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import SweepDiskCache
from repro.studies import (CORNERS, CoupledLoadSpec, LoadSpec, Scenario,
                           ScenarioRunner, scenario_grid)

PATTERNS = ["01", "0110", "010", "0011"]
LOADS = [LoadSpec(kind="r", r=50.0),
         LoadSpec(kind="rc", r=150.0, c=5e-12),
         LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4)]


@pytest.fixture()
def runner(md2_model):
    return ScenarioRunner(models={("MD2", "typ"): md2_model}, n_workers=2)


@pytest.fixture()
def corner_runner(md2_model):
    """Runner with one (shared) model registered under every corner.

    Corner estimation costs seconds per corner; the corner fan-out
    mechanics are identical whichever model object each corner resolves
    to, so the tests reuse the session-scoped typ model.
    """
    return ScenarioRunner(models={("MD2", c): md2_model for c in CORNERS},
                          n_workers=2)


def test_grid_is_cartesian_product():
    grid = scenario_grid(PATTERNS, LOADS, bit_time=1e-9)
    assert len(grid) == len(PATTERNS) * len(LOADS)
    assert len({sc.key() for sc in grid}) == len(grid)
    assert all(sc.bit_time == 1e-9 for sc in grid)


def test_grid_fans_corners_through_product():
    grid = scenario_grid(PATTERNS[:2], LOADS[:2], corners=CORNERS)
    assert len(grid) == 2 * 2 * len(CORNERS)
    assert {sc.corner for sc in grid} == set(CORNERS)
    # distinct corners are distinct cache keys
    assert len({sc.key() for sc in grid}) == len(grid)


def test_parallel_sweep_runs_grid_and_reports_metrics(runner, md2_model):
    grid = scenario_grid(PATTERNS, LOADS)
    assert len(grid) >= 12
    result = runner.run(grid)
    assert len(result) == len(grid)
    assert not result.failures
    for out in result:
        assert out.t.size == out.v_port.size > 0
        for key in ("v_max", "v_min", "overshoot", "undershoot",
                    "ringing_rms", "n_crossings", "first_crossing"):
            assert key in out.metrics
        # driven port must swing: every pattern here has at least one edge
        assert out.metrics["swing"] > 0.5 * md2_model.vdd
        assert out.metrics["n_crossings"] >= 1
    # the unterminated line must ring harder than the matched resistor
    line_overshoot = max(o.metrics["overshoot"] for o in result
                         if o.scenario.load.kind == "line")
    r_overshoot = max(o.metrics["overshoot"] for o in result
                      if o.scenario.load.kind == "r")
    assert line_overshoot > r_overshoot + 0.2


def test_repeated_run_hits_result_cache(runner):
    grid = scenario_grid(PATTERNS[:2], LOADS[:2])
    first = runner.run(grid)
    assert first.n_cache_hits == 0
    second = runner.run(grid)
    assert second.n_cache_hits == len(grid)
    for a, b in zip(first, second):
        assert b.cache_hit
        np.testing.assert_array_equal(a.v_port, b.v_port)
        assert a.metrics == b.metrics


def test_result_cache_is_isolated_from_caller_mutation(runner):
    grid = scenario_grid(PATTERNS[:1], LOADS[:1])
    first = runner.run(grid)
    pristine = first[0].v_port.copy()
    # mutating a returned outcome (arrays or metrics) must not poison
    # what later cache hits see
    first[0].v_port *= 1e3
    first[0].metrics["overshoot"] = 99.0
    hit = runner.run(grid)[0]
    assert hit.cache_hit
    np.testing.assert_array_equal(hit.v_port, pristine)
    assert hit.metrics["overshoot"] != 99.0
    # renamed-but-identical scenario reuses the result under the new label
    renamed = [scenario_grid(PATTERNS[:1], LOADS[:1])[0]]
    renamed[0] = type(renamed[0])(**{**renamed[0].__dict__, "name": "retest"})
    out = runner.run(renamed)[0]
    assert out.cache_hit
    assert out.scenario.resolved_name() == "retest"
    # a relabeled (but electrically identical) load also hits the cache
    relabeled = Scenario(pattern=PATTERNS[0],
                         load=LoadSpec(kind=LOADS[0].kind, r=LOADS[0].r,
                                       label="matched"))
    assert runner.run([relabeled])[0].cache_hit


def test_serial_and_parallel_agree(md2_model):
    grid = scenario_grid(PATTERNS[:2], LOADS[:2])
    serial = ScenarioRunner(models={("MD2", "typ"): md2_model},
                            n_workers=1).run(grid)
    parallel = ScenarioRunner(models={("MD2", "typ"): md2_model},
                              n_workers=2).run(grid)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.v_port, b.v_port)


def test_failed_scenario_is_contained(runner):
    # dt far from the model sampling time must fail that scenario only
    bad = Scenario(pattern="01", load=LOADS[0], dt=1e-12)
    good = Scenario(pattern="01", load=LOADS[0])
    result = runner.run([bad, good])
    assert not result[0].ok and result[0].error
    assert result[1].ok
    assert len(result.failures) == 1
    # failures never enter the result cache
    assert runner.run([bad]).n_cache_hits == 0


def test_worst_and_metric_helpers(runner):
    result = runner.run(scenario_grid(PATTERNS[:2], LOADS))
    worst = result.worst("overshoot")
    assert worst.scenario.load.kind == "line"
    overshoots = result.metric("overshoot")
    assert overshoots.shape == (len(result),)
    assert np.nanmax(overshoots) == worst.metrics["overshoot"]
    with pytest.raises(ExperimentError):
        result.worst("no_such_metric")
    assert "overshoot" in result.table() or worst.ok  # table renders
    assert isinstance(result.table(), str)


def test_load_spec_validation():
    from repro.circuit import Circuit
    with pytest.raises(ExperimentError):
        LoadSpec(kind="rc", r=50.0).build(Circuit("x"), "out")
    with pytest.raises(ExperimentError):
        LoadSpec(kind="bogus").build(Circuit("x"), "out")
    # a pure-R load with a stray capacitance must be rejected, not silently
    # simulated under an 'r...' label that hides the C
    with pytest.raises(ExperimentError):
        LoadSpec(kind="r", r=50.0, c=1e-12).build(Circuit("x"), "out")
    assert "c2p" in LoadSpec(kind="line", z0=50.0, td=1e-9, r=1e4,
                             c=2e-12).describe()


def test_truncated_pattern_uses_active_bit_as_settle_reference(runner,
                                                               md2_model):
    # t_stop ends inside bit 0 of "01": the port correctly sits at 0 V, so
    # settle_error must be measured against the low rail, not pattern[-1]
    sc = Scenario(pattern="01", load=LOADS[0], bit_time=2e-9, t_stop=1.9e-9)
    out = runner.run([sc])[0]
    assert out.ok
    assert out.metrics["settle_error"] < 0.25 * md2_model.vdd


# ---------------------------------------------------------------------------
# crosstalk / receiver scenario kinds and the corner fan-out
# ---------------------------------------------------------------------------

class TestCoupledScenarios:
    def test_crosstalk_sweep_over_corners(self, corner_runner, md2_model):
        """Acceptance scenario: crosstalk grid over >= 3 corners reports
        NEXT/FEXT metrics through the standard runner."""
        grid = scenario_grid(["01", "0110"], [CoupledLoadSpec()],
                            corners=CORNERS)
        assert len(grid) == 2 * len(CORNERS)
        result = corner_runner.run(grid)
        assert not result.failures
        for out in result:
            for key in ("next_peak", "fext_peak", "next_ratio",
                        "fext_ratio"):
                assert key in out.metrics
                assert out.metrics[key] >= 0.0
            # the victim waveforms ride along for plotting/regression
            assert set(out.probes) == {"next", "fext"}
            assert out.probes["next"].shape == out.t.shape
            # a strongly coupled 10 cm pair must show real crosstalk
            assert out.metrics["fext_peak"] > 0.05
            # aggressor still swings
            assert out.metrics["swing"] > 0.5 * md2_model.vdd
        worst = result.worst("fext_peak")
        assert worst.metrics["fext_peak"] == \
            np.nanmax(result.metric("fext_peak"))

    def test_weaker_coupling_gives_less_crosstalk(self, runner):
        strong = CoupledLoadSpec()
        weak = CoupledLoadSpec(l_mut=15e-9, c_mut=1.25e-12)
        result = runner.run(scenario_grid(["01"], [strong, weak]))
        assert not result.failures
        fext = result.metric("fext_peak")
        assert fext[1] < fext[0]

    def test_coupled_cache_hit_preserves_probes(self, runner):
        grid = scenario_grid(["01"], [CoupledLoadSpec()])
        first = runner.run(grid)[0]
        hit = runner.run(grid)[0]
        assert hit.cache_hit
        np.testing.assert_array_equal(first.probes["fext"],
                                      hit.probes["fext"])
        # mutating a returned probe must not poison later hits
        hit.probes["fext"] *= 100.0
        again = runner.run(grid)[0]
        np.testing.assert_array_equal(first.probes["fext"],
                                      again.probes["fext"])

    def test_coupled_spec_validation(self):
        from repro.circuit import Circuit
        with pytest.raises(ExperimentError):
            CoupledLoadSpec(l_mut=400e-9).build(Circuit("x"), "out")
        with pytest.raises(ExperimentError):
            CoupledLoadSpec(c_mut=200e-12).build(Circuit("x"), "out")
        assert "xtalk" in CoupledLoadSpec().describe()
        assert CoupledLoadSpec(label="bus").describe() == "bus"
        # label is cosmetic: identical physics shares one key
        assert CoupledLoadSpec(label="a").canonical() == \
            CoupledLoadSpec(label="b").canonical()


class TestReceiverScenarios:
    def test_receiver_termination_scenarios(self, runner, md2_model):
        loads = [LoadSpec(kind="rx", z0=50.0, td=1e-9, r=0.0),
                 LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0)]
        result = runner.run(scenario_grid(["01"], loads))
        assert not result.failures
        unterm, term = result
        # the unterminated receiver pad reflects: more overshoot than the
        # resistively terminated pad
        assert unterm.metrics["v_max"] > term.metrics["v_max"] + 0.2
        assert term.metrics["swing"] > 0.5 * md2_model.vdd

    def test_receiver_load_descriptions_and_keys(self):
        a = LoadSpec(kind="rx", z0=50.0, td=1e-9, r=0.0)
        b = LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0)
        assert a.canonical() != b.canonical()
        assert "MD4" in a.describe()
        # non-rx kinds ignore the receiver field in their key
        assert LoadSpec(kind="r", r=50.0).canonical() == \
            LoadSpec(kind="r", r=50.0, receiver="XX").canonical()


class TestResultHardening:
    def test_worst_and_metric_skip_failures_and_none_metrics(self, runner):
        bad = Scenario(pattern="01", load=LOADS[0], dt=1e-12)
        good = Scenario(pattern="01", load=LOADS[0])
        result = runner.run([bad, good])
        assert not result[0].ok
        # a failed outcome with empty/None metrics must be skipped silently
        result[0].metrics = None
        vals = result.metric("overshoot")
        assert np.isnan(vals[0]) and np.isfinite(vals[1])
        assert result.worst("overshoot") is result[1]
        # metrics the good outcome does not carry still raise cleanly
        with pytest.raises(ExperimentError):
            result.worst("fext_peak")
        assert isinstance(result.table(), str)


# ---------------------------------------------------------------------------
# disk-persistent result cache
# ---------------------------------------------------------------------------

DISK_GRID_KW = dict(
    patterns=["01", "0110"],
    loads=[LoadSpec(kind="r", r=50.0), CoupledLoadSpec()])

_FRESH_PROCESS_SWEEP = """
import json, sys
import numpy as np
from repro.studies import (CoupledLoadSpec, LoadSpec, ScenarioRunner,
                           scenario_grid)
from repro.models import PWRBFDriverModel

model = PWRBFDriverModel.from_dict(json.load(open(sys.argv[1])))
runner = ScenarioRunner(models={("MD2", "typ"): model}, n_workers=1,
                        disk_cache=sys.argv[2])
grid = scenario_grid(
    patterns=["01", "0110"],
    loads=[LoadSpec(kind="r", r=50.0), CoupledLoadSpec()])
result = runner.run(grid)
print(json.dumps({"hits": result.n_cache_hits, "n": len(result),
                  "failures": len(result.failures),
                  "fext": result.metric("fext_peak").tolist()}))
"""


class TestDiskCache:
    def test_fresh_process_answers_from_disk(self, runner, md2_model,
                                             tmp_path):
        """Acceptance: a second sweep in a *fresh process* hits the disk
        cache for >= 90% of the scenarios."""
        cache_dir = tmp_path / "sweep_cache"
        disk_runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                     n_workers=2, disk_cache=cache_dir)
        grid = scenario_grid(**DISK_GRID_KW)
        first = disk_runner.run(grid)
        assert not first.failures and first.n_cache_hits == 0
        assert len(SweepDiskCache(cache_dir)) == len(grid)

        model_file = tmp_path / "md2.json"
        model_file.write_text(json.dumps(md2_model.to_dict()))
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_SWEEP,
             str(model_file), str(cache_dir)],
            capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["n"] == len(grid)
        assert report["failures"] == 0
        assert report["hits"] >= 0.9 * len(grid)
        # disk-cached crosstalk metrics survive the round trip
        fresh = np.array(report["fext"], dtype=float)
        np.testing.assert_allclose(fresh, first.metric("fext_peak"),
                                   rtol=0.0, atol=0.0, equal_nan=True)

    def test_disk_cache_round_trip_and_corruption(self, tmp_path):
        cache = SweepDiskCache(tmp_path / "c")
        key = ("01", ("r", 50.0, 0.0, 50.0, 1e-9), "MD2", "typ",
               2e-9, None, None)
        payload = {"t": np.arange(4.0), "v_port": np.ones(4),
                   "probes": {"fext": np.full(4, 0.25)},
                   "metrics": {"v_max": 1.0}, "warnings": ["w"]}
        digest = cache.put(key, payload)
        assert key in cache and len(cache) == 1
        back = cache.get(key)
        np.testing.assert_array_equal(back["t"], payload["t"])
        np.testing.assert_array_equal(back["probes"]["fext"],
                                      payload["probes"]["fext"])
        assert back["metrics"] == {"v_max": 1.0}
        assert back["warnings"] == ["w"]
        # the entry is the one file the put leaves behind
        assert [p.name for p in (tmp_path / "c").iterdir()] \
            == [Path(cache._path(digest)).name]
        # a torn/corrupt entry is a miss (and is dropped), never an error --
        # including a truncated one that still carries the entry magic
        for garbage in (b"garbage", b"RSC1truncated"):
            cache.put(key, payload)
            Path(cache._path(digest)).write_bytes(garbage)
            assert cache.get(key) is None
            assert key not in cache
        cache.put(key, payload)
        assert cache.get(key) is not None
        cache.clear()
        assert len(cache) == 0 and cache.get(key) is None

    def test_failed_scenarios_never_persist(self, md2_model, tmp_path):
        disk_runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                     n_workers=1,
                                     disk_cache=tmp_path / "c")
        bad = Scenario(pattern="01", load=LOADS[0], dt=1e-12)
        result = disk_runner.run([bad])
        assert not result[0].ok
        assert len(SweepDiskCache(tmp_path / "c")) == 0

    def test_disk_entries_are_scoped_to_the_model(self, md2_model,
                                                  tmp_path):
        """A runner holding a *different* MD2 model must never be served
        waveforms another model computed."""
        from repro.models import PWRBFDriverModel
        grid = [Scenario(pattern="01", load=LOADS[0])]
        a = ScenarioRunner(models={("MD2", "typ"): md2_model}, n_workers=1,
                           disk_cache=tmp_path / "c")
        assert not a.run(grid).n_cache_hits
        # same scenarios, same catalog name/corner -- different model
        tweaked = PWRBFDriverModel.from_dict(
            {**md2_model.to_dict(), "vdd": md2_model.vdd + 0.1})
        b = ScenarioRunner(models={("MD2", "typ"): tweaked}, n_workers=1,
                           disk_cache=tmp_path / "c")
        res = b.run(grid)
        assert res.n_cache_hits == 0
        # while an identical model in a fresh runner still hits
        c = ScenarioRunner(models={("MD2", "typ"): md2_model}, n_workers=1,
                           disk_cache=tmp_path / "c")
        assert c.run(grid).n_cache_hits == len(grid)

    def test_disk_cache_without_result_cache_is_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            ScenarioRunner(use_result_cache=False,
                           disk_cache=tmp_path / "c")
