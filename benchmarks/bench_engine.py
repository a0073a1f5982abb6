"""Simulation-engine micro-benchmarks (assembly, Newton, lines, estimation)."""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, IdealLine, MNASystem,
                           NonlinearCurrentSource, Resistor,
                           TransientOptions, VoltageSource, run_transient)
from repro.circuit.waveforms import Pulse
from repro.devices import MD2, build_driver
from repro.models import OLSOptions, fit_rbf_ols


def ladder_circuit(n=40):
    ckt = Circuit("ladder")
    ckt.add(VoltageSource("vs", "n0", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=2e-9)))
    for k in range(n):
        ckt.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", 10.0))
        ckt.add(Capacitor(f"c{k}", f"n{k + 1}", "0", 0.5e-12))
    return ckt


@pytest.mark.benchmark(group="engine")
def test_linear_ladder_transient(benchmark):
    def run():
        return run_transient(ladder_circuit(),
                             TransientOptions(dt=25e-12, t_stop=5e-9))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    # the pulse has propagated down the RC ladder (diffusive delay ~ 4 ns)
    v_end = res.v("n40")
    assert np.all(np.isfinite(v_end))
    assert v_end.max() > 0.2


@pytest.mark.benchmark(group="engine")
def test_transistor_driver_transient(benchmark):
    def run():
        ckt = Circuit("drv")
        drv = build_driver(ckt, MD2, "d1", "out", initial_state="0")
        drv.drive_pattern("0101", 2e-9)
        ckt.add(Resistor("rl", "out", "0", 50.0))
        return run_transient(ckt, TransientOptions(dt=25e-12, t_stop=8e-9,
                                                   method="damped"))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.v("out").max() > 0.5 * MD2.vdd


@pytest.mark.benchmark(group="engine")
def test_branin_line_transient(benchmark):
    def run():
        ckt = Circuit("line")
        ckt.add(VoltageSource("vs", "src", "0",
                              Pulse(v2=1.0, rise=0.1e-9, width=2e-9)))
        ckt.add(Resistor("rs", "src", "ne", 50.0))
        ckt.add(IdealLine("t1", "ne", "fe", 50.0, 1e-9))
        ckt.add(Resistor("rl", "fe", "0", 50.0))
        return run_transient(ckt, TransientOptions(dt=10e-12, t_stop=10e-9))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert abs(res.v("fe")).max() > 0.4


def coupled_bus_circuit(n_sections=6):
    """Two-land lossy MCM bus (Fig. 3 class): CoupledIdealLine cascade."""
    from repro.circuit.builders import LineSpec, add_lossy_line

    spec = LineSpec(
        L=np.array([[300e-9, 60e-9], [60e-9, 300e-9]]),
        C=np.array([[100e-12, -5e-12], [-5e-12, 100e-12]]),
        length=0.1, rdc=60.0, k_skin=1.6e-3, tan_delta=0.02, f_knee=1e9)
    ckt = Circuit("bus")
    ckt.add(VoltageSource("vs", "src", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=4e-9)))
    ckt.add(Resistor("rs", "src", "ne1", 25.0))
    ckt.add(Resistor("rq", "ne2", "0", 50.0))
    add_lossy_line(ckt, "bus", ["ne1", "ne2"], ["fe1", "fe2"], spec,
                   n_sections=n_sections)
    ckt.add(Resistor("rl1", "fe1", "0", 50.0))
    ckt.add(Resistor("rl2", "fe2", "0", 50.0))
    return ckt


def rlgc_coupled_ladder(n_sections=30):
    """Fully lumped coupled RLGC ladder: CoupledInductors + CapacitanceMatrix."""
    from repro.circuit.builders import LineSpec, add_rlgc_ladder

    spec = LineSpec(
        L=np.array([[300e-9, 60e-9], [60e-9, 300e-9]]),
        C=np.array([[100e-12, -5e-12], [-5e-12, 100e-12]]),
        length=0.1, rdc=60.0)
    ckt = Circuit("rlgc")
    ckt.add(VoltageSource("vs", "src", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=4e-9)))
    ckt.add(Resistor("rs", "src", "ne1", 25.0))
    ckt.add(Resistor("rq", "ne2", "0", 50.0))
    add_rlgc_ladder(ckt, "bus", ["ne1", "ne2"], ["fe1", "fe2"], spec,
                    n_sections=n_sections)
    ckt.add(Resistor("rl1", "fe1", "0", 50.0))
    ckt.add(Resistor("rl2", "fe2", "0", 50.0))
    return ckt


@pytest.mark.benchmark(group="engine")
def test_coupled_bus_transient(benchmark):
    """Modal coupled-line cascade: the CoupledIdealLine group hot path."""
    def run():
        return run_transient(coupled_bus_circuit(),
                             TransientOptions(dt=10e-12, t_stop=10e-9,
                                              method="damped"))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.v("fe1").max() > 0.2
    # the quiet land sees nonzero coupled noise
    assert np.abs(res.v("fe2")).max() > 1e-4


@pytest.mark.benchmark(group="engine")
def test_rlgc_coupled_ladder_transient(benchmark):
    """Lumped coupled ladder: CoupledInductors/CapacitanceMatrix groups."""
    def run():
        return run_transient(rlgc_coupled_ladder(),
                             TransientOptions(dt=10e-12, t_stop=10e-9,
                                              method="damped"))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.v("fe1").max() > 0.2
    assert np.abs(res.v("fe2")).max() > 1e-4


@pytest.mark.benchmark(group="engine")
def test_linear_ladder_newton_path(benchmark):
    """Same bench plus a zero-current nonlinear source, which sends it down
    the Newton path: the price of Newton."""
    def run():
        ckt = ladder_circuit()
        ckt.add(NonlinearCurrentSource("gzero", "n40", "0", ["n40"],
                                       lambda vs, t: 0.0,
                                       lambda vs, t: [0.0]))
        return run_transient(ckt, TransientOptions(dt=25e-12, t_stop=5e-9))
    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert not res.fast_path
    assert res.v("n40").max() > 0.2


@pytest.mark.benchmark(group="engine")
def test_scenario_sweep_small(benchmark, md2_model):
    """A small serial ScenarioRunner sweep (driver + 4 load/pattern corners)."""
    from repro.studies import LoadSpec, ScenarioRunner, scenario_grid

    grid = scenario_grid(
        patterns=["01", "0110"],
        loads=[LoadSpec(kind="r", r=50.0),
               LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4)],
        t_stop=8e-9)

    def run():
        runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                                n_workers=1)
        return runner.run(grid)
    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == 4 and not result.failures


@pytest.mark.benchmark(group="engine")
def test_batched_grid_64(benchmark, md2_model):
    """Grid-batched transient solving: 64 line-load scenarios advanced as
    one batch on one core must amortize to <= 20x a single scenario's
    cost (the serial path would cost 64x)."""
    import time

    from repro.studies import LoadSpec, ScenarioRunner, scenario_grid

    loads = [LoadSpec(kind="line", z0=z0, td=1e-9, r=r)
             for z0 in (40.0, 50.0, 65.0, 90.0)
             for r in (33.0, 50.0, 75.0, 120.0, 200.0, 390.0, 1e3, 1e4)]
    grid = scenario_grid(patterns=["01", "0110"], loads=loads,
                         t_stop=8e-9)
    assert len(grid) == 64
    models = {("MD2", "typ"): md2_model}

    def run():
        runner = ScenarioRunner(models=models, n_workers=1,
                                use_result_cache=False)
        return runner.run(grid)

    result = benchmark.pedantic(run, rounds=7, iterations=1,
                                warmup_rounds=1)
    assert len(result) == 64 and not result.failures

    # one-scenario reference cost on the same core (median of 3)
    from repro.studies import simulate_scenario
    singles = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = simulate_scenario(grid[0], md2_model)
        singles.append(time.perf_counter() - t0)
        assert out.ok
    single_s = sorted(singles)[1]
    batch_s = benchmark.stats.stats.median
    benchmark.extra_info["single_s"] = single_s
    benchmark.extra_info["per_scenario_s"] = batch_s / 64.0
    benchmark.extra_info["speedup_vs_serial"] = single_s * 64.0 / batch_s
    # the gated amortization target: a 64-member batch within 20x one run
    assert batch_s <= 20.0 * single_s, (
        f"64-scenario batch took {batch_s:.3f}s vs single "
        f"{single_s:.3f}s ({batch_s / single_s:.1f}x > 20x)")


@pytest.mark.benchmark(group="engine")
def test_stochastic_128draws(benchmark, md2_model):
    """Monte Carlo study cost: a 128-draw stochastic line study (random
    RLL traffic + resistor spread) on one core, including quantile-band
    aggregation, must amortize each draw to no more than one single
    transient run -- randomized patterns must not forfeit the
    sweep-regime economics of the batched engine."""
    import time

    from repro.studies import (Distribution, LoadSpec, ScenarioRunner,
                               SpectralSpec, StochasticSpec,
                               StochasticStudy, TrafficModel)

    study = StochasticStudy(
        name="bench-mc",
        loads=LoadSpec(kind="line", z0=50.0, td=1e-9, r=50.0),
        spectral=SpectralSpec(mask="board-b"),
        stochastic=StochasticSpec(
            seed=7, n_draws=128,
            traffic=TrafficModel(model="rll", n_bits=8),
            params={"r": Distribution(dist="uniform", low=40.0,
                                      high=60.0)}))
    grid = study.scenarios()  # memoized: rendering stays untimed
    assert len(grid) == 128
    models = {("MD2", "typ"): md2_model}

    def run():
        runner = ScenarioRunner(models=models, n_workers=1,
                                use_result_cache=False)
        return study.run(runner=runner)

    result = benchmark.pedantic(run, rounds=7, iterations=1,
                                warmup_rounds=1)
    assert len(result) == 128 and not result.failures
    bands = result.quantile_bands()
    assert set(bands) == {"p50", "p95", "p99"}

    # one-draw transient reference cost on the same core (median of 3)
    from repro.studies import simulate_scenario
    singles = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = simulate_scenario(grid[0], md2_model)
        singles.append(time.perf_counter() - t0)
        assert out.ok
    single_s = sorted(singles)[1]
    batch_s = benchmark.stats.stats.median
    per_draw = batch_s / 128.0
    benchmark.extra_info["single_s"] = single_s
    benchmark.extra_info["per_draw_s"] = per_draw
    benchmark.extra_info["speedup_vs_serial"] = single_s * 128.0 / batch_s
    assert per_draw <= single_s, (
        f"per-draw cost {per_draw * 1e3:.2f} ms exceeds one transient "
        f"run {single_s * 1e3:.2f} ms")


@pytest.mark.benchmark(group="engine")
def test_spectrum_peak_hold_64(benchmark):
    """Spectral emissions hot path: windowed FFT + mask check + max-hold
    envelope over a 64-scenario grid's worth of waveforms."""
    from repro.emc import amplitude_spectrum, get_mask, peak_hold

    rng = np.random.default_rng(0)
    t = np.arange(3201) * 25e-12  # an 80 ns record at the model ts
    base = 1.25 * (1.0 + np.sign(np.sin(2 * np.pi * 250e6 * t + 1e-9)))
    waves = [base * rng.uniform(0.5, 1.5)
             + rng.normal(scale=0.05, size=t.size) for _ in range(64)]
    mask = get_mask("board-b")

    def run():
        specs = [amplitude_spectrum(t, w, window="hann") for w in waves]
        verdicts = [mask.check(s) for s in specs]
        return peak_hold(specs), verdicts

    env, verdicts = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(verdicts) == 64 and len(env) == t.size // 2 + 1
    # the amplitude spread straddles the mask: both outcomes occur
    assert any(v.passed for v in verdicts)
    assert any(not v.passed for v in verdicts)


@pytest.mark.benchmark(group="engine")
def test_qp_weighting_batch_64(benchmark):
    """CISPR 16 quasi-peak weighting of a 64-scenario grid in one batched
    call, from a cold weight cache: the steady-state charge/discharge IIR
    runs once per distinct (band, prf) pair, then broadcasts."""
    from repro.emc import amplitude_spectrum, apply_detector_batch
    from repro.emc import detectors as det_mod

    rng = np.random.default_rng(0)
    t = np.arange(3201) * 25e-12  # an 80 ns record at the model ts
    base = 1.25 * (1.0 + np.sign(np.sin(2 * np.pi * 250e6 * t + 1e-9)))
    specs = [amplitude_spectrum(
        t, base * rng.uniform(0.5, 1.5)
        + rng.normal(scale=0.05, size=t.size)) for _ in range(64)]

    def run():
        det_mod._WEIGHT_CACHE.clear()  # measure the solve, not the memo
        return apply_detector_batch(specs, "quasi-peak", prf=1e3)

    weighted = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(weighted) == 64
    assert all(w.detector == "quasi-peak" for w in weighted)
    # the weighting strictly attenuates a 1 kHz-PRF burst in band C/D
    assert all(np.all(w.mag <= s.mag + 1e-15)
               for w, s in zip(weighted, specs))
    assert weighted[0].mag[40] < 0.8 * specs[0].mag[40]


@pytest.mark.benchmark(group="engine")
def test_mna_assembly(benchmark):
    ckt = ladder_circuit()
    sys_ = MNASystem(ckt)
    sys_.build_base(25e-12, 0.55)
    x = np.zeros(sys_.size)

    def assemble():
        b = sys_.assemble_rhs(1e-9)
        return sys_.assemble_iter(x, 1e-9, b)
    A, b, _ = benchmark.pedantic(assemble, rounds=20, iterations=5)
    assert A.shape[0] == sys_.size


@pytest.mark.benchmark(group="estimation")
def test_ols_fit_cost(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3000, 5))
    y = np.tanh(X[:, 0]) + 0.2 * X[:, 1]
    model = benchmark.pedantic(
        lambda: fit_rbf_ols(X, y, OLSOptions(n_bases=12)),
        rounds=3, iterations=1)
    assert model.n_bases == 12


@pytest.mark.benchmark(group="estimation")
def test_full_driver_estimation_cost(benchmark):
    """The paper: 'some ten seconds' on a Pentium-II; measure ours."""
    from repro.models import estimate_driver_model
    model = benchmark.pedantic(
        lambda: estimate_driver_model(MD2, order=2, n_bases_high=9,
                                      n_bases_low=9),
        rounds=1, iterations=1)
    assert model.meta["estimation_seconds"] < 60.0
