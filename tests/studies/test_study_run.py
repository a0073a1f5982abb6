"""Study.run facade: parity with the programmatic sweep, exports, CLI."""

import csv
import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.studies import (LoadSpec, RunnerOptions, Scenario,
                           ScenarioRunner, SpectralSpec, Study,
                           StudyResult, scenario_grid)

LOADS = (LoadSpec(kind="r", r=50.0),
         LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4))

STUDY = Study(name="parity", patterns=("01", "0110"), loads=LOADS,
              spectral=SpectralSpec(mask="board-b"),
              options=RunnerOptions(n_workers=1))


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


class TestRunFacade:
    def test_run_returns_a_study_result(self, models):
        result = STUDY.run(models=models)
        assert isinstance(result, StudyResult)
        assert result.study is STUDY
        assert result.elapsed_s > 0.0
        assert len(result) == len(STUDY) == 4
        assert not result.failures
        assert "parity" in result.summary()

    def test_run_matches_programmatic_scenario_grid(self, models):
        """Acceptance: the declarative study and the equivalent
        programmatic grid produce identical scenarios, waveforms,
        verdicts and cache keys."""
        grid = scenario_grid(["01", "0110"], list(LOADS),
                             spectral=SpectralSpec(mask="board-b"))
        assert [sc.key() for sc in STUDY.scenarios()] == \
            [sc.key() for sc in grid]
        study_res = STUDY.run(models=models)
        grid_res = ScenarioRunner(models=models, n_workers=1).run(grid)
        for a, b in zip(study_res, grid_res):
            np.testing.assert_array_equal(a.v_port, b.v_port)
            assert a.verdict == b.verdict
            assert a.metrics == b.metrics

    def test_toml_study_shares_the_disk_cache(self, models, tmp_path):
        """Acceptance: a TOML round-tripped study produces the same disk
        digests -- the second run answers fully from the first's cache,
        and the verdicts agree."""
        cache_dir = tmp_path / "cache"
        grid = scenario_grid(["01", "0110"], list(LOADS),
                             spectral=SpectralSpec(mask="board-b"))
        first = ScenarioRunner(models=models, n_workers=1,
                               disk_cache=cache_dir).run(grid)
        study = Study.load(STUDY.save(tmp_path / "parity.toml"))
        assert study == STUDY
        result = study.run(models=models, disk_cache=str(cache_dir),
                           n_workers=1)
        assert result.n_cache_hits == len(grid)
        for a, b in zip(first, result):
            np.testing.assert_array_equal(a.v_port, b.v_port)
            assert a.verdict == b.verdict
            assert a.passed == b.passed

    def test_runner_reuse_and_override_conflict(self, models):
        runner = ScenarioRunner(models=models, n_workers=1)
        first = STUDY.run(runner=runner)
        assert first.n_cache_hits == 0
        again = STUDY.run(runner=runner)
        assert again.n_cache_hits == len(STUDY)
        with pytest.raises(ExperimentError, match="not both"):
            STUDY.run(runner=runner, n_workers=2)
        # models alongside an explicit runner would silently be ignored
        # (the runner already holds its own) -- must refuse instead
        with pytest.raises(ExperimentError, match="not both"):
            STUDY.run(models=models, runner=runner)

    def test_option_overrides(self, models):
        result = STUDY.run(models=models, use_result_cache=False)
        assert result.n_cache_hits == 0


class TestComplianceExports:
    def test_rows_mirror_the_outcomes(self, models):
        result = STUDY.run(models=models)
        rows = result.compliance_rows()
        assert len(rows) == len(result)
        for row, out in zip(rows, result):
            assert row["scenario"] == out.scenario.resolved_name()
            assert row["pattern"] == out.scenario.pattern
            assert row["ok"] is True and row["error"] is None
            assert row["passed"] == out.passed
            assert row["mask"] == "board-b"
            assert row["margin[peak]_db"] == pytest.approx(
                out.verdict.margin_db)
        # the grid straddles board-b: both verdicts present
        assert {r["passed"] for r in rows} == {True, False}

    def test_to_csv(self, models, tmp_path):
        result = STUDY.run(models=models)
        path = result.to_csv(tmp_path / "verdicts.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result)
        assert set(rows[0]) == set(result.compliance_rows()[0])
        for row, out in zip(rows, result):
            assert row["scenario"] == out.scenario.resolved_name()
            assert row["passed"] == str(out.passed)
            assert float(row["margin[peak]_db"]) == pytest.approx(
                out.verdict.margin_db, abs=1e-9)

    def test_to_json(self, models, tmp_path):
        result = STUDY.run(models=models)
        doc = result.to_json()
        assert doc["n_scenarios"] == len(result)
        assert doc["n_failures"] == 0
        assert doc["passed"] is False  # one ringing corner fails board-b
        path = result.to_json(tmp_path / "verdicts.json")
        on_disk = json.loads(path.read_text())
        assert on_disk == doc

    def test_failed_scenarios_export_cleanly(self, models, tmp_path):
        bad = Scenario(pattern="01", load=LOADS[0], dt=1e-12,
                       spectral=SpectralSpec(mask="board-b"))
        good = Scenario(pattern="01", load=LOADS[0],
                        spectral=SpectralSpec(mask="board-b"))
        result = ScenarioRunner(models=models, n_workers=1).run([bad, good])
        rows = result.compliance_rows()
        assert rows[0]["ok"] is False and rows[0]["error"]
        assert rows[0]["passed"] is False
        assert rows[0]["margin[peak]_db"] is None
        doc = result.to_json()
        assert doc["n_failures"] == 1
        # json text must be valid (no NaN), csv must not raise
        json.loads(json.dumps(doc))
        result.to_csv(tmp_path / "with_failure.csv")

    def test_exports_without_any_verdict(self, models, tmp_path):
        result = ScenarioRunner(models=models, n_workers=1).run(
            scenario_grid(["01"], [LOADS[0]]))
        rows = result.compliance_rows()
        assert rows[0]["passed"] is None
        assert result.to_json()["passed"] is None
        result.to_csv(tmp_path / "plain.csv")


class TestCLI:
    @pytest.fixture()
    def seeded_cache(self, md2_model, monkeypatch):
        """Pre-seed the process-wide model cache so the CLI does not
        re-estimate MD2 inside the test."""
        from repro.experiments import cache
        key = ("driver", "MD2", "typ")
        had = key in cache._cache
        cache._cache.setdefault(key, md2_model)
        yield
        if not had:
            cache._cache.pop(key, None)

    def test_run_and_exports(self, seeded_cache, tmp_path, capsys):
        from repro.studies.cli import main
        path = STUDY.save(tmp_path / "s.toml")
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(["run", str(path), "--workers", "1",
                     "--csv", str(csv_path), "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" in out  # compliance table printed
        assert "parity:" in out                 # summary line
        assert csv_path.exists() and json_path.exists()
        report = json.loads(json_path.read_text())
        assert report["n_scenarios"] == len(STUDY)

    def test_strict_flags_failures(self, seeded_cache, tmp_path, capsys):
        from repro.studies.cli import main
        path = STUDY.save(tmp_path / "s.toml")
        assert main(["run", str(path), "--workers", "1",
                     "--strict", "--quiet"]) == 1

    def test_show(self, seeded_cache, tmp_path, capsys):
        from repro.studies.cli import main
        path = STUDY.save(tmp_path / "s.toml")
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "parity" in out and "scenarios: 4" in out

    def test_removed_backend_flag_exits_2(self, tmp_path, capsys):
        from repro.studies.cli import main
        path = STUDY.save(tmp_path / "s.toml")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--workers", "1", "--backend", "fd"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_bad_study_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.studies.cli import main
        bad = tmp_path / "bad.toml"
        bad.write_text("patterns = [unclosed")
        assert main(["run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        # malformed JSON gets the same clean path, not a traceback
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["run", str(bad_json)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, name", [("drivers", "NOPE"),
                                            ("corners", "bogus")])
    def test_unknown_driver_or_corner_exits_2(self, tmp_path, capsys,
                                              monkeypatch, axis, name):
        """An unknown driver or corner is an ExperimentError naming it,
        raised before any model estimation starts."""
        from repro.experiments import cache
        from repro.studies.cli import main

        def no_estimation(*args, **kwargs):
            raise AssertionError("estimation started")

        monkeypatch.setattr(cache, "estimate_driver_model", no_estimation)
        path = tmp_path / "s.toml"
        path.write_text(f'patterns = ["0110"]\n{axis} = ["{name}"]\n'
                        '[[loads]]\nkind = "r"\nr = 50.0\n')
        assert main(["run", str(path), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(name) in err
