"""Spectral emissions through the sweep stack: spectra, verdicts, the
pooled return path, receiver-aware pass/fail, and the spectral cache
keys."""

import numpy as np
import pytest

from repro.emc import get_mask
from repro.errors import ExperimentError
from repro.experiments import SweepDiskCache
from repro.experiments.cache import CACHE_VERSION
from repro.studies import (LoadSpec, Scenario, ScenarioRunner, SpectralSpec,
                           scenario_grid)

SPEC_V = SpectralSpec(mask="board-b")
SPEC_I = SpectralSpec(quantity="i_port", mask="board-i")

#: loads straddling the calibrated board-b mask: matched passes, the
#: unterminated 75 ohm line rings hard enough to fail
LOADS = [LoadSpec(kind="r", r=50.0),
         LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4)]


@pytest.fixture()
def runner(md2_model):
    return ScenarioRunner(models={("MD2", "typ"): md2_model}, n_workers=2)


@pytest.fixture()
def serial_runner(md2_model):
    return ScenarioRunner(models={("MD2", "typ"): md2_model}, n_workers=1)


class TestSpectralScenarios:
    def test_voltage_spectrum_verdict_and_metrics(self, serial_runner):
        result = serial_runner.run(
            scenario_grid(["0110"], LOADS, spectral=SPEC_V))
        assert not result.failures
        matched, ringing = result
        for o in result:
            s = o.spectra["v_port"]
            assert s.unit == "V" and s.kind == "amplitude"
            assert s.f.size == o.t.size // 2 + 1
            assert o.verdict is not None and o.verdict.mask == "board-b"
            for key in ("emis_peak_db", "emis_f_peak", "emis_margin_db",
                        "emis_f_worst", "spectral_pass"):
                assert key in o.metrics
            assert o.metrics["emis_margin_db"] == \
                pytest.approx(o.verdict.margin_db)
        # acceptance anchor: the grid straddles the preset mask
        assert matched.passed is True
        assert ringing.passed is False
        assert ringing.verdict.margin_db < 0.0 < matched.verdict.margin_db

    def test_current_probe_spectrum(self, serial_runner, md2_model):
        out = serial_runner.run(
            scenario_grid(["0110"], [LoadSpec(kind="r", r=50.0)],
                          spectral=SPEC_I))[0]
        assert out.ok
        i = out.probes["i_port"]
        assert i.shape == out.t.shape
        # ohm's law sanity: the probed current is v_port / 50 to the sample
        np.testing.assert_allclose(i, out.v_port / 50.0, atol=1e-9)
        s = out.spectra["i_port"]
        assert s.unit == "A"
        assert out.verdict.mask == "board-i"

    def test_load_level_spec_and_scenario_override(self, serial_runner):
        load = LoadSpec(kind="r", r=50.0, spectral=SPEC_V)
        sc = Scenario(pattern="0110", load=load)
        assert sc.spectral_spec() is SPEC_V
        override = Scenario(pattern="0110", load=load,
                            spectral=SpectralSpec(window="blackman"))
        assert override.spectral_spec().window == "blackman"
        # and the effective request is part of the cache identity
        assert sc.key() != override.key()
        assert sc.key() != Scenario(pattern="0110",
                                    load=LoadSpec(kind="r", r=50.0)).key()
        out = serial_runner.run([sc])[0]
        assert out.verdict is not None

    def test_no_spectral_request_carries_nothing(self, serial_runner):
        out = serial_runner.run(scenario_grid(["0110"], LOADS[:1]))[0]
        assert out.spectra == {} and out.verdict is None
        assert out.passed is None
        assert "emis_peak_db" not in out.metrics

    def test_spec_validation_fails_fast(self):
        with pytest.raises(ExperimentError):
            SpectralSpec(quantity="bogus")
        with pytest.raises(ExperimentError):
            SpectralSpec(window="han")  # typo must not cost a full sweep
        with pytest.raises(ExperimentError):
            SpectralSpec(n_fft=1)

    def test_named_custom_mask_survives_worker_dispatch(self, md2_model):
        """Masks registered by name are resolved in the parent, so workers
        never need the registry (spawn-start platforms)."""
        from repro.emc import MASKS, LimitMask, register_mask
        mask = LimitMask("tmp-sweep-mask", ((30e6, 20e9, 200.0, 200.0),))
        try:
            register_mask(mask)
            grid = scenario_grid(["0110", "01"], LOADS[:1],
                                 spectral=SpectralSpec(
                                     mask="tmp-sweep-mask"))
            result = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                    n_workers=2).run(grid)
            assert not result.failures
            assert all(o.verdict.mask == "tmp-sweep-mask" and o.passed
                       for o in result)
            # the caller's scenario objects ride the outcomes, not the
            # mask-resolved dispatch copies
            assert result[0].scenario is grid[0]
        finally:
            MASKS.pop("tmp-sweep-mask", None)

    def test_mask_shift_flips_a_verdict(self, serial_runner):
        """User-defined mask: shifting board-b far up makes ringing pass."""
        loose = SpectralSpec(mask=get_mask("board-b").shifted(40.0))
        result = serial_runner.run(
            scenario_grid(["0110"], [LOADS[1]], spectral=loose))
        assert result[0].passed is True


class TestSweepResultHelpers:
    def test_peak_hold_and_worst_margin(self, runner):
        result = runner.run(scenario_grid(["0110", "010101"], LOADS,
                                          spectral=SPEC_V))
        env = result.peak_hold()
        assert env.unit == "V"
        # the envelope dominates every constituent spectrum (on its grid)
        for s in result.spectra():
            lvl = np.interp(env.f, s.f, s.mag)
            assert np.all(env.mag >= lvl - 1e-12)
        worst = result.worst_margin()
        margins = [o.verdict.margin_db for o in result.verdicts()]
        assert worst.verdict.margin_db == min(margins)
        table = result.compliance_table()
        assert "PASS" in table and "FAIL" in table
        assert "board-b" in table

    def test_helpers_raise_without_spectra(self, runner):
        result = runner.run(scenario_grid(["0110"], LOADS[:1]))
        with pytest.raises(ExperimentError):
            result.peak_hold()
        with pytest.raises(ExperimentError):
            result.worst_margin()
        assert isinstance(result.compliance_table(), str)


def assert_same_outcomes(ref, other):
    """Two runs of one grid returned bit-equal outcomes: waveforms,
    probes, every spectrum, verdicts, metrics and failures."""
    assert len(ref) == len(other)
    for a, b in zip(ref, other):
        assert (a.ok, a.error, a.warnings) == (b.ok, b.error, b.warnings)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.v_port, b.v_port)
        assert set(a.probes) == set(b.probes)
        for name in a.probes:
            np.testing.assert_array_equal(a.probes[name], b.probes[name])
        assert set(a.spectra) == set(b.spectra)
        for key, sa in a.spectra.items():
            sb = b.spectra[key]
            np.testing.assert_array_equal(sa.f, sb.f)
            np.testing.assert_array_equal(sa.mag, sb.mag)
            assert (sa.unit, sa.kind, sa.label, sa.detector, sa.meta) \
                == (sb.unit, sb.kind, sb.label, sb.detector, sb.meta)
        assert a.verdict == b.verdict
        assert a.verdicts_by == b.verdicts_by
        np.testing.assert_equal(a.metrics, b.metrics)


class TestPooledReturn:
    """2-worker runs pickle their outcomes back from child processes;
    they must equal the in-process (``n_workers=1``) run bit for bit."""

    def test_parallel_matches_serial_bit_exact(self, md2_model):
        grid = scenario_grid(["0110", "010101"], LOADS, spectral=SPEC_V)
        models = {("MD2", "typ"): md2_model}
        ser = ScenarioRunner(models=models, n_workers=1).run(grid)
        par = ScenarioRunner(models=models, n_workers=2).run(grid)
        assert not ser.failures and not par.failures
        assert_same_outcomes(ser, par)

    def test_failed_scenarios_match_serial(self, md2_model):
        bad = Scenario(pattern="01", load=LOADS[0], dt=1e-12,
                       spectral=SPEC_V)
        grid = [bad] + scenario_grid(["0110", "01"], LOADS,
                                     spectral=SPEC_V)
        models = {("MD2", "typ"): md2_model}
        ser = ScenarioRunner(models=models, n_workers=1).run(grid)
        par = ScenarioRunner(models=models, n_workers=2).run(grid)
        assert not par[0].ok
        assert all(o.ok and o.spectra for o in par[1:])
        assert_same_outcomes(ser, par)

    def test_probes_match_serial(self, md2_model):
        """Coupled scenarios (two probes each) come back from the pool
        equal to the serial run."""
        from repro.studies import CoupledLoadSpec
        grid = scenario_grid(["0110", "01"], [CoupledLoadSpec()],
                             spectral=SPEC_V)
        models = {("MD2", "typ"): md2_model}
        ser = ScenarioRunner(models=models, n_workers=1).run(grid)
        par = ScenarioRunner(models=models, n_workers=2).run(grid)
        assert all(set(o.probes) == {"next", "fext"} for o in par)
        assert_same_outcomes(ser, par)

    def test_spawn_children_match_serial(self, md2_model, monkeypatch):
        """Spawn (the macOS/Windows default) pickles the models into the
        children, and the children re-import the mask registry: a mask
        registered by name in the parent reaches them only because the
        parent resolves it before dispatch."""
        import multiprocessing as mp

        from repro.emc import MASKS, LimitMask, register_mask
        from repro.studies import runner as runner_mod
        monkeypatch.setattr(runner_mod, "mp_context",
                            lambda: mp.get_context("spawn"))
        register_mask(LimitMask("tmp-spawn-mask",
                                get_mask("board-b").segments))
        try:
            grid = scenario_grid(["0110", "010101"], LOADS,
                                 spectral=SpectralSpec(
                                     mask="tmp-spawn-mask"))
            models = {("MD2", "typ"): md2_model}
            ser = ScenarioRunner(models=models, n_workers=1).run(grid)
            par = ScenarioRunner(models=models, n_workers=2).run(grid)
        finally:
            MASKS.pop("tmp-spawn-mask", None)
        assert not par.failures
        assert {o.verdict.mask for o in par} == {"tmp-spawn-mask"}
        assert {o.passed for o in par} == {True, False}
        assert_same_outcomes(ser, par)


class TestReceiverAwarePassFail:
    def test_rx_scenarios_carry_the_eye_check(self, runner, md2_model):
        loads = [LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0),
                 LoadSpec(kind="rx", z0=50.0, td=1e-9, r=0.0)]
        result = runner.run(scenario_grid(["0110"], loads))
        assert not result.failures
        for o in result:
            for key in ("rx_pass", "rx_margin", "rx_n_bad_bits",
                        "rx_n_checked", "rx_vih", "rx_vil"):
                assert key in o.metrics
            assert o.metrics["rx_n_checked"] == 4
            assert o.metrics["rx_vih"] == pytest.approx(0.7 * md2_model.vdd)
            # a clean point-to-point link reads every bit correctly
            assert o.metrics["rx_pass"] is True
            assert o.passed is True

    def test_combined_verdict_ands_spectral_and_eye(self, serial_runner):
        load = LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0)
        ok = serial_runner.run(scenario_grid(
            ["0110"], [load], spectral=SpectralSpec(mask="board-a")))[0]
        assert ok.metrics["rx_pass"] and ok.verdict.passed
        assert ok.passed is True
        # an impossible mask fails the combined verdict even though the
        # receiver eye is clean
        strict = serial_runner.run(scenario_grid(
            ["0110"], [load],
            spectral=SpectralSpec(
                mask=get_mask("board-b").shifted(-60.0))))[0]
        assert strict.metrics["rx_pass"] is True
        assert strict.verdict.passed is False
        assert strict.passed is False

    def test_non_rx_scenarios_have_no_eye_metrics(self, serial_runner):
        out = serial_runner.run(scenario_grid(["0110"], LOADS[:1]))[0]
        assert "rx_pass" not in out.metrics


class TestSpectralCacheKeys:
    def test_memory_cache_distinguishes_spectral_settings(self, runner):
        base = scenario_grid(["0110"], LOADS[:1], spectral=SPEC_V)
        first = runner.run(base)
        assert first.n_cache_hits == 0
        assert runner.run(base).n_cache_hits == 1
        for spec in (SpectralSpec(mask="board-a"),
                     SpectralSpec(window="blackman", mask="board-b"),
                     SpectralSpec(n_fft=4096, mask="board-b"),
                     None):
            grid = scenario_grid(["0110"], LOADS[:1], spectral=spec)
            assert runner.run(grid).n_cache_hits == 0

    def test_disk_cache_round_trips_spectra(self, md2_model, tmp_path):
        grid = scenario_grid(["0110"], LOADS, spectral=SPEC_V)
        models = {("MD2", "typ"): md2_model}
        first = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=tmp_path / "c").run(grid)
        second = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=tmp_path / "c").run(grid)
        assert second.n_cache_hits == len(grid)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.spectra["v_port"].f,
                                          b.spectra["v_port"].f)
            np.testing.assert_array_equal(a.spectra["v_port"].mag,
                                          b.spectra["v_port"].mag)
            assert b.spectra["v_port"].unit == "V"
            assert a.verdict == b.verdict
            assert b.passed == a.passed
        # changed spectral settings in a fresh runner: all misses
        regrid = scenario_grid(["0110"], LOADS,
                               spectral=SpectralSpec(window="hamming",
                                                     mask="board-b"))
        third = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=tmp_path / "c").run(regrid)
        assert third.n_cache_hits == 0

    def test_cache_version_scopes_entries(self, tmp_path):
        key = ("01", ("r", 50.0), "MD2", "typ")
        payload = {"t": np.arange(4.0), "v_port": np.ones(4),
                   "metrics": {}, "warnings": []}
        old = SweepDiskCache(tmp_path / "c", version=1)
        old.put(key, payload)
        # same key under the current version is a miss, not a stale hit
        cur = SweepDiskCache(tmp_path / "c")
        assert cur.version == CACHE_VERSION
        assert key not in cur and cur.get(key) is None
        cur.put(key, payload)
        assert key in cur and key in old  # distinct entries coexist
        assert len(cur) == 2

    def test_disk_payload_carries_verdict_dict(self, md2_model, tmp_path):
        grid = scenario_grid(["0110"], LOADS[1:], spectral=SPEC_V)
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1, disk_cache=tmp_path / "c")
        out = runner.run(grid)[0]
        payload = SweepDiskCache(tmp_path / "c").get(
            runner._disk_key(grid[0]))
        assert payload is not None
        assert "verdict" not in payload
        assert payload["verdicts_by"]["peak"]["mask"] == "board-b"
        assert payload["verdicts_by"]["peak"]["passed"] \
            == out.verdict.passed
        assert "v_port" in payload["spectra"]


# ---------------------------------------------------------------------------
# CISPR 16 detectors and radiated estimation through the sweep stack
# ---------------------------------------------------------------------------

from repro.experiments import AntennaModel  # noqa: E402

#: burst repeating at 1 kHz: quasi-peak relief is several dB in band C/D
SPEC_DET = SpectralSpec(mask="board-b",
                        detectors=("peak", "quasi-peak", "average"),
                        prf=1e3)
SPEC_RAD = SpectralSpec(quantity="i_port", mask="board-i",
                        detectors=("peak", "quasi-peak"), prf=1e3,
                        antenna=AntennaModel(length=1.0, distance=3.0,
                                             cm_fraction=5e-3),
                        radiated_mask="fcc-15b")


class TestDetectorScenarios:
    def test_detector_spectra_and_verdicts(self, serial_runner):
        out = serial_runner.run(
            scenario_grid(["0110"], LOADS[:1], spectral=SPEC_DET))[0]
        assert out.ok
        assert set(out.spectra) == {"v_port", "v_port@quasi-peak",
                                    "v_port@average"}
        assert out.spectra["v_port"].detector == "peak"
        assert out.spectra["v_port@quasi-peak"].detector == "quasi-peak"
        assert set(out.verdicts_by) == {"peak", "quasi-peak", "average"}
        for det, v in out.verdicts_by.items():
            assert v.detector == det and v.mask == "board-b"
        # detector relief is monotone: av margin >= qp margin >= pk margin
        m = out.verdicts_by
        assert m["average"].margin_db >= m["quasi-peak"].margin_db
        assert m["quasi-peak"].margin_db >= m["peak"].margin_db
        # the headline verdict is the binding (worst-margin) check
        assert out.verdict.margin_db == m["peak"].margin_db
        # per-check margins land in the metrics
        assert out.metrics["margin[quasi-peak]_db"] == pytest.approx(
            m["quasi-peak"].margin_db)

    def test_detector_changes_the_passfail(self, serial_runner):
        """QP relief flips a marginal failure into a pass: the reason
        detector choice is part of the verdict's identity."""
        from repro.emc import LimitMask, register_mask

        out = serial_runner.run(
            scenario_grid(["0110"], LOADS[:1], spectral=SPEC_DET))[0]
        pk = out.verdicts_by["peak"]
        # a mask sitting just above the peak level: peak fails, QP passes
        delta = pk.margin_db + 1.0
        tight = get_mask("board-b").shifted(-delta)
        spec = SpectralSpec(mask=tight,
                            detectors=("peak", "quasi-peak"), prf=1e3)
        out2 = serial_runner.run(
            scenario_grid(["0110"], LOADS[:1], spectral=spec))[0]
        assert out2.verdicts_by["peak"].passed is False
        assert out2.verdicts_by["quasi-peak"].passed is True
        assert out2.passed is False  # combined ANDs every detector

    def test_compliance_table_has_detector_columns(self, serial_runner):
        result = serial_runner.run(
            scenario_grid(["0110"], LOADS, spectral=SPEC_DET))
        table = result.compliance_table()
        for col in ("m(pk)", "m(qp)", "m(av)"):
            assert col in table

    def test_radiated_scenarios(self, serial_runner):
        out = serial_runner.run(
            scenario_grid(["0110"], LOADS[:1], spectral=SPEC_RAD))[0]
        assert out.ok
        assert set(out.spectra) == {"i_port", "i_port@quasi-peak",
                                    "e_field", "e_field@quasi-peak"}
        e = out.spectra["e_field"]
        assert e.unit == "V/m" and e.meta["distance_m"] == 3.0
        assert set(out.verdicts_by) == {"peak", "quasi-peak",
                                        "rad:peak", "rad:quasi-peak"}
        rad = out.verdicts_by["rad:peak"]
        assert rad.mask == "fcc-15b" and rad.detector == "peak"
        # e_field = i_port * cm_fraction * transfer, bin for bin
        i_spec = out.spectra["i_port"]
        ant = SPEC_RAD.antenna
        np.testing.assert_allclose(e.mag,
                                   ant.e_field(i_spec.f, i_spec.mag),
                                   rtol=1e-12)

    def test_radiated_peak_hold(self, serial_runner):
        result = serial_runner.run(
            scenario_grid(["0110", "010101"], LOADS[:1],
                          spectral=SPEC_RAD))
        env = result.peak_hold("e_field", "quasi-peak")
        assert env.unit == "V/m" and env.detector == "quasi-peak"

    def test_parallel_matches_serial_with_detectors(self, md2_model):
        """Detector/radiated spectra come back from the pool equal to
        the serial run."""
        grid = scenario_grid(["0110"], LOADS, spectral=SPEC_RAD)
        models = {("MD2", "typ"): md2_model}
        serial = ScenarioRunner(models=models, n_workers=1,
                                use_result_cache=False).run(grid)
        par = ScenarioRunner(models=models, n_workers=2,
                             use_result_cache=False).run(grid)
        assert all(len(o.spectra) > 1 for o in par)
        assert_same_outcomes(serial, par)

    def test_spec_validation(self):
        with pytest.raises(ExperimentError):
            SpectralSpec(detectors=())
        with pytest.raises(ExperimentError):
            SpectralSpec(detectors=("peak", "bogus"))
        with pytest.raises(ExperimentError):
            SpectralSpec(prf=-1.0)
        with pytest.raises(ExperimentError):
            SpectralSpec(quantity="v_port", antenna=AntennaModel())
        with pytest.raises(ExperimentError):
            SpectralSpec(quantity="i_port", radiated_mask="fcc-15b")
        # a string detector is normalized to a tuple
        assert SpectralSpec(detectors="quasi-peak").detectors == \
            ("quasi-peak",)


class TestDetectorCacheInvalidation:
    def test_memory_cache_distinguishes_detector_settings(self, runner):
        base = scenario_grid(["0110"], LOADS[:1], spectral=SPEC_DET)
        runner.run(base)
        assert runner.run(base).n_cache_hits == 1
        for spec in (SpectralSpec(mask="board-b",
                                  detectors=("peak", "quasi-peak"),
                                  prf=1e3),
                     SpectralSpec(mask="board-b",
                                  detectors=("peak", "quasi-peak",
                                             "average"), prf=2e3),
                     SpectralSpec(mask="board-b")):
            grid = scenario_grid(["0110"], LOADS[:1], spectral=spec)
            assert runner.run(grid).n_cache_hits == 0

    def test_detector_change_never_serves_stale_verdicts(self, md2_model,
                                                         tmp_path):
        """Same physics, different detector request: the disk entry must
        be a miss and the fresh verdicts must carry the new detector."""
        models = {("MD2", "typ"): md2_model}
        grid_pk = scenario_grid(["0110"], LOADS[:1],
                                spectral=SpectralSpec(mask="board-b"))
        grid_qp = scenario_grid(
            ["0110"], LOADS[:1],
            spectral=SpectralSpec(mask="board-b",
                                  detectors=("quasi-peak",), prf=1e3))
        first = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=tmp_path / "c").run(grid_pk)
        assert first[0].verdicts_by["peak"].detector == "peak"
        second = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=tmp_path / "c").run(grid_qp)
        assert second.n_cache_hits == 0
        assert set(second[0].verdicts_by) == {"quasi-peak"}
        assert second[0].verdict.detector == "quasi-peak"
        # and the original request still hits its own entry
        third = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=tmp_path / "c").run(grid_pk)
        assert third.n_cache_hits == 1
        assert third[0].verdict.detector == "peak"

    def test_disk_round_trips_detector_payload(self, md2_model, tmp_path):
        grid = scenario_grid(["0110"], LOADS[:1], spectral=SPEC_RAD)
        models = {("MD2", "typ"): md2_model}
        first = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=tmp_path / "c").run(grid)
        second = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=tmp_path / "c").run(grid)
        assert second.n_cache_hits == 1
        a, b = first[0], second[0]
        assert set(a.spectra) == set(b.spectra)
        for key in a.spectra:
            np.testing.assert_array_equal(a.spectra[key].mag,
                                          b.spectra[key].mag)
            assert b.spectra[key].detector == a.spectra[key].detector
        assert b.verdicts_by == a.verdicts_by
        assert b.passed == a.passed

    def test_antenna_change_is_a_fresh_entry(self, runner):
        grid = scenario_grid(["0110"], LOADS[:1], spectral=SPEC_RAD)
        runner.run(grid)
        moved = SpectralSpec(
            quantity="i_port", mask="board-i",
            detectors=("peak", "quasi-peak"), prf=1e3,
            antenna=AntennaModel(length=1.0, distance=10.0,
                                 cm_fraction=5e-3),
            radiated_mask="fcc-15b")
        grid2 = scenario_grid(["0110"], LOADS[:1], spectral=moved)
        assert runner.run(grid2).n_cache_hits == 0
