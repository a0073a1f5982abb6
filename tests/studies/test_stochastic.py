"""The Monte Carlo study layer.

The contract under test is *determinism through sampling*: draw ``i`` of
seed ``s`` is a pure function of ``(s, i)``, so the rendered grid -- and
therefore every digest, cache key, shard plan and aggregate band -- is
identical across processes, shard counts and draw orders.  On top of
that sit the statistical properties of the traffic models, the
aggregation semantics of :class:`StochasticResult`, the TOML/JSON
round-trip, the CLI overrides, and the acceptance drill: a 128-draw
study through the sharded service with a SIGKILLed worker attempt must
reproduce a serial same-seed run byte for byte.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuit import Resistor
from repro.emc import quantile_hold
from repro.errors import ExperimentError
from repro.studies import (KINDS, Distribution, JitterSpec, LoadSpec,
                           RunnerOptions, ScenarioKind, ScenarioRunner,
                           SpectralSpec, StochasticResult, StochasticSpec,
                           StochasticStudy, Study, TrafficModel,
                           register_kind, wilson_interval)
from repro.studies import spec as spec_module
from repro.studies.runner import batch_key
from repro.studies.service import JobManager, shard_plan
from repro.studies.spec import MAX_SCENARIOS
from repro.studies.stochastic import _render_pattern, draw_rng

_PARENT_PID = os.getpid()
_LINUX = sys.platform.startswith("linux")
_SRC = str(Path(repro.__file__).resolve().parents[1])


def sto_study(seed=0, n_draws=6, **spec_kw):
    """A small stochastic study over one shunt resistor."""
    spec_kw.setdefault("traffic", TrafficModel(model="rll", n_bits=8))
    return StochasticStudy(
        loads=LoadSpec(kind="r", r=50.0),
        spectral=SpectralSpec(mask="board-b"),
        options=RunnerOptions(n_workers=1),
        stochastic=StochasticSpec(seed=seed, n_draws=n_draws, **spec_kw))


@pytest.fixture()
def models(md2_model):
    return {("MD2", "typ"): md2_model}


# ---------------------------------------------------------------------------
# sampler determinism (pure, no simulation)
# ---------------------------------------------------------------------------

class TestSamplerDeterminism:
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_rendering_is_a_pure_function_of_seed(self, seed, n):
        a = sto_study(seed=seed, n_draws=n).scenarios()
        b = sto_study(seed=seed, n_draws=n).scenarios()
        assert [sc.key() for sc in a] == [sc.key() for sc in b]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_draws_are_splittable_prefixes(self, seed):
        """Draw i depends on (seed, i) alone: growing the budget never
        changes the draws already rendered."""
        short = sto_study(seed=seed, n_draws=4).scenarios()
        long = sto_study(seed=seed, n_draws=9).scenarios()
        assert [sc.key() for sc in short] == \
            [sc.key() for sc in long[:4]]

    def test_draw_rng_streams_are_reproducible_and_distinct(self):
        a = draw_rng(7, 3).random(8)
        b = draw_rng(7, 3).random(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, draw_rng(7, 4).random(8))
        assert not np.array_equal(a, draw_rng(8, 3).random(8))

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_plan_is_draw_order_independent(self, n_shards):
        """Sharding partitions the draw indices exactly, and every
        shard renders its slice to the grid's scenario keys -- the
        property the service's workers rely on."""
        study = sto_study(
            seed=11, n_draws=12,
            corner=Distribution(dist="discrete",
                                choices=("slow", "typ", "fast")),
            params={"r": Distribution(dist="uniform", low=40.0,
                                      high=60.0)})
        grid = study.scenarios()
        shards = shard_plan(study, n_shards)
        seen = sorted(i for s in shards for i in s.indices)
        assert seen == list(range(len(study)))
        for s in shards:
            assert [sc.key() for sc in s.scenarios()] == \
                [grid[i].key() for i in s.indices]

    def test_rendering_is_identical_across_processes(self):
        """A fresh interpreter renders the same seed to the same
        scenario keys -- the cross-process half of the determinism
        contract (hash randomization included)."""
        code = (
            "import json\n"
            "from repro.studies import (Distribution, LoadSpec,\n"
            "    SpectralSpec, StochasticSpec, StochasticStudy,\n"
            "    TrafficModel)\n"
            "study = StochasticStudy(\n"
            "    loads=LoadSpec(kind='r', r=50.0),\n"
            "    spectral=SpectralSpec(mask='board-b'),\n"
            "    stochastic=StochasticSpec(\n"
            "        seed=123, n_draws=6,\n"
            "        traffic=TrafficModel(model='rll', n_bits=12),\n"
            "        jitter={'dist': 'uniform', 'scale': 5e-11,\n"
            "                'subdiv': 4},\n"
            "        corner=Distribution(dist='discrete',\n"
            "                            choices=('slow', 'typ')),\n"
            "        params={'r': {'dist': 'normal', 'mean': 50.0,\n"
            "                      'std': 2.0}}))\n"
            "print(json.dumps([sc.key() for sc in study.scenarios()]))\n")
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="random")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env,
                             check=True)
        child_keys = json.loads(out.stdout)
        study = StochasticStudy(
            loads=LoadSpec(kind="r", r=50.0),
            spectral=SpectralSpec(mask="board-b"),
            stochastic=StochasticSpec(
                seed=123, n_draws=6,
                traffic=TrafficModel(model="rll", n_bits=12),
                jitter={"dist": "uniform", "scale": 5e-11, "subdiv": 4},
                corner=Distribution(dist="discrete",
                                    choices=("slow", "typ")),
                params={"r": {"dist": "normal", "mean": 50.0,
                              "std": 2.0}}))
        assert [sc.key() for sc in study.scenarios()] == child_keys


# ---------------------------------------------------------------------------
# traffic models
# ---------------------------------------------------------------------------

class TestTrafficModels:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200),
           p=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_shape_and_alphabet(self, seed, n, p):
        bits = TrafficModel(model="bernoulli", n_bits=n,
                            p_one=p).sample_bits(draw_rng(seed, 0))
        assert len(bits) == n
        assert set(bits) <= {"0", "1"}

    def test_bernoulli_bias_converges(self):
        """Over many splittable draws the one-density approaches p_one
        (deterministic given the seeds -- no flake window)."""
        for p in (0.2, 0.5, 0.8):
            tm = TrafficModel(model="bernoulli", n_bits=256, p_one=p)
            ones = sum(tm.sample_bits(draw_rng(42, i)).count("1")
                       for i in range(16))
            assert abs(ones / (16 * 256) - p) < 0.05
        assert TrafficModel(model="bernoulli", n_bits=64, p_one=0.0
                            ).sample_bits(draw_rng(0, 0)) == "0" * 64
        assert TrafficModel(model="bernoulli", n_bits=64, p_one=1.0
                            ).sample_bits(draw_rng(0, 0)) == "1" * 64

    @given(seed=st.integers(0, 10_000), lo=st.integers(1, 4),
           span=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_rll_run_lengths_stay_in_band(self, seed, lo, span):
        hi = lo + span
        tm = TrafficModel(model="rll", n_bits=64, min_run=lo,
                          max_run=hi)
        bits = tm.sample_bits(draw_rng(seed, 0))
        runs = [len(r) for r in
                bits.replace("01", "0 1").replace("10", "1 0").split()]
        assert all(r <= hi for r in runs)
        # only the final run may be truncated by the stream length
        assert all(r >= lo for r in runs[:-1])

    @given(seed=st.integers(0, 10_000), bound=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_dc_balanced_disparity_stays_bounded(self, seed, bound):
        tm = TrafficModel(model="dc-balanced", n_bits=128,
                          max_disparity=bound)
        bits = tm.sample_bits(draw_rng(seed, 0))
        disparity = np.cumsum([1 if b == "1" else -1 for b in bits])
        assert np.abs(disparity).max() <= bound

    def test_validation(self):
        with pytest.raises(ExperimentError):
            TrafficModel(model="manchester")
        with pytest.raises(ExperimentError):
            TrafficModel(n_bits=0)
        with pytest.raises(ExperimentError):
            TrafficModel(p_one=1.5)
        with pytest.raises(ExperimentError):
            TrafficModel(model="rll", min_run=3, max_run=2)
        with pytest.raises(ExperimentError):
            TrafficModel.from_dict({"model": "rll", "bogus": 1})


# ---------------------------------------------------------------------------
# distributions + the Wilson interval
# ---------------------------------------------------------------------------

class TestDistributions:
    def test_families_sample_inside_their_support(self):
        rng = draw_rng(1, 0)
        assert Distribution(dist="constant", value=3.3).sample(rng) \
            == 3.3
        for _ in range(50):
            x = Distribution(dist="uniform", low=40.0,
                             high=60.0).sample(rng)
            assert 40.0 <= x <= 60.0
        choices = ("slow", "typ", "fast")
        d = Distribution(dist="discrete", choices=choices)
        assert all(d.sample(rng) in choices for _ in range(20))

    def test_discrete_weights_steer_the_draw(self):
        rng = draw_rng(2, 0)
        d = Distribution(dist="discrete", choices=("a", "b"),
                         weights=(1.0, 0.0))
        assert all(d.sample(rng) == "a" for _ in range(30))

    def test_normal_mean_converges(self):
        d = Distribution(dist="normal", mean=50.0, std=2.0)
        xs = [d.sample(draw_rng(3, i)) for i in range(200)]
        assert abs(np.mean(xs) - 50.0) < 1.0

    def test_from_dict_shorthands(self):
        assert Distribution.from_dict(47) == \
            Distribution(dist="constant", value=47.0)
        assert Distribution.from_dict("typ") == \
            Distribution(dist="discrete", choices=("typ",))
        d = Distribution(dist="uniform", low=1.0, high=2.0)
        assert Distribution.from_dict(d.to_dict()) == d

    def test_validation(self):
        with pytest.raises(ExperimentError):
            Distribution(dist="cauchy")
        with pytest.raises(ExperimentError):
            Distribution(dist="uniform", low=2.0, high=1.0)
        with pytest.raises(ExperimentError):
            Distribution(dist="normal", std=-1.0)
        with pytest.raises(ExperimentError):
            Distribution(dist="discrete")
        with pytest.raises(ExperimentError):
            Distribution(dist="discrete", choices=("a",),
                         weights=(1.0, 2.0))
        with pytest.raises(ExperimentError):
            Distribution.from_dict([1, 2])

    @given(k=st.integers(0, 64), extra=st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_wilson_interval_contains_the_estimate(self, k, extra):
        n = k + extra
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= hi <= 1.0
        if n:
            assert lo <= k / n <= hi

    def test_wilson_edge_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo > 0.6
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi < 0.35
        # the interval tightens as evidence accumulates
        w = [wilson_interval(n, n)[1] - wilson_interval(n, n)[0]
             for n in (4, 16, 64, 256)]
        assert w == sorted(w, reverse=True)
        with pytest.raises(ExperimentError):
            wilson_interval(5, 4)


# ---------------------------------------------------------------------------
# jitter rendering
# ---------------------------------------------------------------------------

class TestJitter:
    def test_no_jitter_passes_the_stream_through(self):
        assert _render_pattern("0110", 1e-9, None, draw_rng(0, 0)) \
            == ("0110", 1e-9)

    @given(seed=st.integers(0, 10_000),
           scale=st.floats(0.0, 1e-9), subdiv=st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_jitter_preserves_duration_and_bit_order(self, seed, scale,
                                                     subdiv):
        """The rasterized pattern always spans exactly n x subdiv
        sub-bits of bit_time/subdiv each (constant resolved duration =
        constant batch_key), and edges never reorder: stripping repeats
        yields a subsequence of the original stream."""
        bits = TrafficModel(model="rll", n_bits=10).sample_bits(
            draw_rng(seed, 0))
        jit = JitterSpec(dist="uniform", scale=scale, subdiv=subdiv)
        pattern, sub_time = _render_pattern(bits, 1e-9, jit,
                                            draw_rng(seed, 1))
        assert len(pattern) == len(bits) * subdiv
        assert sub_time == 1e-9 / subdiv
        collapsed = [pattern[0]] + [b for a, b in zip(pattern, pattern[1:])
                                    if a != b] if pattern else []
        it = iter(bits)
        assert all(any(b == c for c in it) for b in collapsed)

    def test_jittered_draws_share_one_batch_group(self):
        study = sto_study(n_draws=8,
                          jitter=JitterSpec(scale=50e-12, subdiv=8),
                          params={"r": Distribution(dist="uniform",
                                                    low=40.0,
                                                    high=60.0)})
        keys = {batch_key(sc) for sc in study.scenarios()}
        assert len(keys) == 1, "jitter or spread broke batchability"

    def test_validation(self):
        with pytest.raises(ExperimentError):
            JitterSpec(dist="sinusoidal")
        with pytest.raises(ExperimentError):
            JitterSpec(scale=-1.0)
        with pytest.raises(ExperimentError):
            JitterSpec(subdiv=1)


# ---------------------------------------------------------------------------
# spec round-trips + digest identity
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def full_study(self):
        return sto_study(
            seed=5, n_draws=7,
            jitter=JitterSpec(dist="normal", scale=20e-12, subdiv=4),
            corner=Distribution(dist="discrete",
                                choices=("slow", "typ", "fast"),
                                weights=(0.25, 0.5, 0.25)),
            params={"r": Distribution(dist="normal", mean=50.0,
                                      std=2.0)},
            stop_ci=0.05, min_draws=4)

    def test_toml_round_trip_preserves_identity(self, tmp_path):
        study = self.full_study()
        again = Study.load(study.save(tmp_path / "mc.toml"))
        assert isinstance(again, StochasticStudy)
        assert again == study
        assert again.digest() == study.digest()
        assert [sc.key() for sc in again.scenarios()] == \
            [sc.key() for sc in study.scenarios()]

    def test_json_round_trip_via_the_base_class(self, tmp_path):
        study = self.full_study()
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(study.to_dict()))
        again = Study.load(path)
        assert isinstance(again, StochasticStudy)
        assert again == study

    def test_digest_tracks_the_sampler(self):
        base = sto_study(seed=1, n_draws=6)
        assert base.digest() != sto_study(seed=2, n_draws=6).digest()
        assert base.digest() != sto_study(seed=1, n_draws=7).digest()
        # stopping knobs change how much of the grid an inline run
        # executes, so they must not alias
        stopping = sto_study(seed=1, n_draws=6, stop_ci=0.1,
                             min_draws=2)
        assert base.digest() != stopping.digest()

    def test_patterns_axis_must_stay_empty(self):
        with pytest.raises(ExperimentError, match="patterns"):
            StochasticStudy(patterns=("0110",),
                            loads=LoadSpec(kind="r", r=50.0))

    def test_params_must_name_numeric_load_fields(self):
        with pytest.raises(ExperimentError, match="not a field"):
            sto_study(params={"bogus": 1.0})
        with pytest.raises(ExperimentError, match="not numeric"):
            sto_study(params={"kind": 1.0})

    def test_from_dict_requires_the_stochastic_table(self):
        with pytest.raises(ExperimentError, match="stochastic"):
            StochasticStudy.from_dict({"loads": [{"kind": "r",
                                                  "r": 50.0}]})

    @pytest.mark.parametrize("runner", [{"backend": "fd"},
                                        {"shared_waveforms": True}])
    def test_from_dict_rejects_removed_runner_options(self, runner):
        doc = self.full_study().to_dict()
        doc["runner"] = runner
        with pytest.raises(ExperimentError, match="runner"):
            StochasticStudy.from_dict(doc)

    def test_spec_validation(self):
        with pytest.raises(ExperimentError):
            StochasticSpec(n_draws=0)
        with pytest.raises(ExperimentError):
            StochasticSpec(stop_ci=0.6)
        with pytest.raises(ExperimentError):
            StochasticSpec(min_draws=0)
        with pytest.raises(ExperimentError):
            StochasticSpec.from_dict({"seed": 1, "bogus": 2})

    def test_draw_budget_has_an_admission_ceiling(self):
        """A budget above the ceiling is refused before any draw
        renders, naming the field."""
        assert StochasticSpec(n_draws=MAX_SCENARIOS).n_draws == MAX_SCENARIOS
        for n in (MAX_SCENARIOS + 1, 10**12):
            with pytest.raises(ExperimentError, match="stochastic.n_draws"):
                StochasticSpec(n_draws=n)


# ---------------------------------------------------------------------------
# running + aggregation (simulates; small budgets)
# ---------------------------------------------------------------------------

class TestRunAndAggregate:
    def test_run_aggregates_the_population(self, models):
        study = sto_study(n_draws=6,
                          params={"r": Distribution(dist="uniform",
                                                    low=40.0,
                                                    high=60.0)})
        result = study.run(models=models)
        assert isinstance(result, StochasticResult)
        assert len(result) == 6 and not result.failures
        bands = result.quantile_bands()
        env = result.peak_hold()
        assert np.all(bands["p50"].mag <= bands["p95"].mag)
        assert np.all(bands["p95"].mag <= bands["p99"].mag)
        assert np.all(bands["p99"].mag <= env.mag + 1e-15)
        pp = result.pass_probability()
        assert pp.n == 6 and 0 <= pp.k <= 6
        lo, hi = pp.interval
        assert 0.0 <= lo <= hi <= 1.0
        summary = result.stochastic_summary()
        assert "draws" in summary and "P(pass" in summary
        spg = result.spectrogram(0, nperseg=64)
        assert spg.mag.shape == (spg.t.size, spg.f.size)

    def test_sequential_stopping_halts_at_the_ci_target(self, models):
        """With every draw passing, 4 draws already pin the Wilson
        half-width under 0.25 -- the run must stop there instead of
        spending the full budget."""
        study = sto_study(n_draws=16, stop_ci=0.25, min_draws=4)
        result = study.run(models=models)
        assert len(result) == 4
        lo, hi = result.pass_probability().interval
        assert (hi - lo) / 2.0 <= 0.25

    def test_warm_pass_renders_no_key_and_copies_no_array(
            self, models, monkeypatch):
        """A re-run of the same study answers every draw from the
        result cache without rendering a key, and the bands read each
        hit's stored arrays without copying them."""
        study = sto_study(n_draws=128)
        runner = ScenarioRunner(models=models, n_workers=1)
        cold = study.run(runner=runner)
        renders = []
        render = spec_module._canonical_json
        monkeypatch.setattr(spec_module, "_canonical_json",
                            lambda obj: renders.append(obj) or render(obj))
        warm = study.run(runner=runner)
        bands = warm.quantile_bands()
        assert renders == []
        assert warm.n_cache_hits == 128
        # not even the spectra dicts were cloned; the public route
        # (quantile_hold over spectra()) clones them but copies no array
        assert not any("spectra" in vars(o) for o in warm.outcomes)
        public = quantile_hold(warm.spectra())
        for o in warm.outcomes:
            held = o.spectra["v_port"]
            assert "f" not in vars(held) and "mag" not in vars(held)
        for name, band in cold.quantile_bands().items():
            np.testing.assert_array_equal(bands[name].mag, band.mag)
            np.testing.assert_array_equal(public[name].mag, band.mag)

    def test_writes_to_a_warm_hit_never_reach_the_cache(self, models):
        study = sto_study(n_draws=4)
        runner = ScenarioRunner(models=models, n_workers=1)
        cold = study.run(runner=runner)
        warm = study.run(runner=runner)
        warm.quantile_bands()
        for o in warm.outcomes:
            o.v_port[:] = -1.0
            o.spectra["v_port"].mag[:] = -1.0
        again = study.run(runner=runner)
        assert again.n_cache_hits == 4
        for a, c in zip(again.outcomes, cold.outcomes):
            np.testing.assert_array_equal(a.v_port, c.v_port)
            np.testing.assert_array_equal(a.spectra["v_port"].mag,
                                          c.spectra["v_port"].mag)
        np.testing.assert_array_equal(
            again.quantile_bands()["p50"].mag,
            cold.quantile_bands()["p50"].mag)

    def test_seeded_rerun_answers_from_the_disk_cache(self, models,
                                                      tmp_path):
        study = sto_study(n_draws=4)
        first = study.run(models=models, disk_cache=tmp_path)
        assert first.n_cache_hits == 0
        again = sto_study(n_draws=4).run(models=models,
                                         disk_cache=tmp_path)
        assert again.n_cache_hits == 4
        np.testing.assert_array_equal(
            first.quantile_bands()["p95"].mag,
            again.quantile_bands()["p95"].mag)


# ---------------------------------------------------------------------------
# CLI overrides
# ---------------------------------------------------------------------------

class TestCLI:
    @pytest.fixture()
    def seeded_cache(self, md2_model):
        """Pre-seed the process-wide model cache so the CLI does not
        re-estimate MD2 inside the test."""
        from repro.experiments import cache
        key = ("driver", "MD2", "typ")
        had = key in cache._cache
        cache._cache.setdefault(key, md2_model)
        yield
        if not had:
            cache._cache.pop(key, None)

    def test_run_honors_draw_and_seed_overrides(self, seeded_cache,
                                                tmp_path, capsys):
        from repro.studies.cli import main
        path = sto_study(seed=0, n_draws=16).save(tmp_path / "mc.toml")
        assert main(["run", str(path), "--workers", "1",
                     "--draws", "3", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "draws     : 3" in out
        assert "P(pass" in out

    def test_show_reports_the_sampled_grid_size(self, tmp_path, capsys):
        from repro.studies.cli import main
        path = sto_study(n_draws=5).save(tmp_path / "mc.toml")
        assert main(["show", str(path)]) == 0
        assert "scenarios: 5" in capsys.readouterr().out

    def test_overrides_on_a_plain_study_exit_2(self, tmp_path, capsys):
        from repro.studies.cli import main
        plain = Study(patterns=("0110",),
                      loads=LoadSpec(kind="r", r=50.0))
        path = plain.save(tmp_path / "plain.toml")
        assert main(["run", str(path), "--draws", "4"]) == 2
        assert "stochastic" in capsys.readouterr().err
        assert main(["run", str(path), "--seed", "1"]) == 2

    def test_draw_budget_over_the_ceiling_exits_2(self, tmp_path,
                                                   capsys):
        from repro.studies.cli import main
        path = tmp_path / "huge.toml"
        path.write_text('[[loads]]\nkind = "r"\n\n'
                        '[stochastic]\nn_draws = 1000000000000\n')
        assert main(["run", str(path)]) == 2
        assert "stochastic.n_draws" in capsys.readouterr().err
        ok = sto_study(n_draws=2).save(tmp_path / "mc.toml")
        assert main(["run", str(ok), "--draws", str(10**12)]) == 2
        assert "stochastic.n_draws" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        """A negative seed is refused where it is read, in the file or
        on the command line, instead of failing inside the sampler."""
        from repro.studies.cli import main
        path = tmp_path / "negative.toml"
        path.write_text('[[loads]]\nkind = "r"\n\n'
                        '[stochastic]\nseed = -1\nn_draws = 2\n')
        assert main(["run", str(path)]) == 2
        assert "stochastic.seed" in capsys.readouterr().err
        ok = sto_study(n_draws=2).save(tmp_path / "mc.toml")
        assert main(["run", str(ok), "--seed", "-1"]) == 2
        assert "stochastic.seed" in capsys.readouterr().err

    def test_submit_applies_the_same_overrides(self, tmp_path):
        """The submit path folds --draws/--seed through the same
        helper (checked without a live server)."""
        from repro.studies.cli import _apply_stochastic_overrides

        class _Args:
            draws, seed = 8, 3
        study = _apply_stochastic_overrides(sto_study(n_draws=2),
                                            _Args())
        assert study.stochastic.n_draws == 8
        assert study.stochastic.seed == 3
        with pytest.raises(ExperimentError):
            _apply_stochastic_overrides(
                Study(patterns=("01",),
                      loads=LoadSpec(kind="r", r=50.0)), _Args())


# ---------------------------------------------------------------------------
# the acceptance drill: 128 draws, 2 shards, one SIGKILLed attempt
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not _LINUX, reason="shard workers rely on fork")
class TestServiceDrill:
    def test_128_draws_through_the_sharded_service(self, models,
                                                   tmp_path):
        """A 128-draw stochastic study runs through the sharded
        JobManager (2 shards, one worker SIGKILLed mid-study) and must
        produce quantile bands and pass-probabilities byte-identical to
        a serial same-seed run; resubmitting answers (well over) 90% of
        the draws from the shared disk cache.
        """
        marker = tmp_path / "killed-once"

        class _KillOnceKind(ScenarioKind):
            """Shunt resistor; SIGKILLs the first worker to build it."""

            name = "mckill"
            physics_fields = ("r",)

            def build_circuit(self, load, ckt, port: str) -> str:
                if os.getpid() != _PARENT_PID and not marker.exists():
                    marker.touch()
                    os.kill(os.getpid(), signal.SIGKILL)
                ckt.add(Resistor("rload", port, "0", load.r))
                return port

            def batch_structure(self, load) -> tuple:
                return ()

        kind = _KillOnceKind()
        kind.load_cls = LoadSpec
        register_kind(kind, overwrite=True)
        try:
            # two load kinds -> two batch groups -> two shards; the
            # param spread keeps every draw inside its kind's group
            study = StochasticStudy(
                name="mc128",
                loads=(LoadSpec(kind="r", r=50.0),
                       LoadSpec(kind="mckill", r=50.0)),
                spectral=SpectralSpec(mask="board-b"),
                options=RunnerOptions(n_workers=1),
                stochastic=StochasticSpec(
                    seed=1234, n_draws=128,
                    traffic=TrafficModel(model="bernoulli", n_bits=8),
                    params={"r": Distribution(dist="uniform",
                                              low=40.0, high=60.0)}))
            assert len(study) == 128
            assert len(shard_plan(study, 2)) == 2

            cache_dir = tmp_path / "cache"
            mgr = JobManager(max_workers=2, retries=1)
            result = mgr.run_study(study, disk_cache=cache_dir,
                                   n_shards=2, models=models)
            assert marker.exists(), "the kill never happened"
            assert isinstance(result, StochasticResult)
            assert sorted(r.attempts for r in result.shard_reports) \
                == [1, 2]
            assert all(r.ok for r in result.shard_reports)
            assert not result.failures

            # byte-identical to a serial same-seed run (no kill in the
            # parent process, no shared cache)
            direct = study.run(models=models)
            assert isinstance(direct, StochasticResult)
            for q in ("p50", "p95", "p99"):
                np.testing.assert_array_equal(
                    result.quantile_bands()[q].mag,
                    direct.quantile_bands()[q].mag)
            assert result.pass_probability() == \
                direct.pass_probability()
            assert result.csv_text() == direct.csv_text()

            # resubmission: >= 90% of the draws answer from disk
            again = mgr.run_study(study, disk_cache=cache_dir,
                                  n_shards=2, models=models)
            cached = sum(r.n_cache_hits for r in again.shard_reports)
            assert cached >= 0.9 * len(study)
            assert again.csv_text() == direct.csv_text()
        finally:
            KINDS.pop("mckill", None)
