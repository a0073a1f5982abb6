"""Grid-batched transient backend: equivalence, eligibility, fallback.

The batched path must be a pure execution detail: for any group it
accepts, every member's waveforms must match a fresh serial
``run_transient`` of the same circuit to well below solver tolerance,
and any group it cannot accept must silently fall back to the serial
path.  Fresh circuits are built per backend -- a transient run consumes
and rewrites element state (histories, DC fixed points), so the two
backends must never share element objects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (Capacitor, Circuit, Diode, IdealLine, Resistor,
                           TransientOptions, VoltageSource, batch_signature,
                           run_transient, run_transient_batch)
from repro.circuit.waveforms import Pulse
from repro.models import PWRBFDriverElement

TOL = 1e-9
OPTS = TransientOptions(dt=25e-12, t_stop=4e-9, method="damped")


def linear_bench(kind, r, c, z0, td):
    """One pulse-driven linear bench of the grid kinds (r / rc / line)."""
    ckt = Circuit(f"{kind}-bench")
    ckt.add(VoltageSource("vs", "in", "0",
                          Pulse(v1=0.0, v2=2.5, delay=0.1e-9,
                                rise=0.15e-9, width=1.5e-9)))
    ckt.add(Resistor("rs", "in", "out", 25.0))
    if kind == "line":
        ckt.add(IdealLine("tl", "out", "far", z0, td))
        ckt.add(Resistor("rl", "far", "0", r))
        ckt.add(Capacitor("cl", "far", "0", c))
    else:
        ckt.add(Resistor("rl", "out", "0", r))
        if kind == "rc":
            ckt.add(Capacitor("cl", "out", "0", c))
    return ckt


def random_params(kind, rng, n):
    """N random parameter tuples for :func:`linear_bench`."""
    return [(kind, float(rng.uniform(30.0, 300.0)),
             float(rng.uniform(0.5e-12, 5e-12)),
             float(rng.uniform(40.0, 90.0)),
             float(rng.uniform(0.3e-9, 1.2e-9)))
            for _ in range(n)]


def assert_batch_matches_serial(param_sets, opts=OPTS, expect_batched=True):
    """Batch over fresh circuits == serial over fresh circuits."""
    batched = run_transient_batch(
        [linear_bench(*p) for p in param_sets], opts)
    for p, res in zip(param_sets, batched):
        assert getattr(res, "batched", False) == expect_batched
        ref = run_transient(linear_bench(*p), opts)
        np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(res.t, ref.t)


class TestLinearEquivalence:
    def test_rc_grid_matches_serial(self):
        rng = np.random.default_rng(7)
        assert_batch_matches_serial(random_params("rc", rng, 6))

    def test_line_grid_matches_serial(self):
        rng = np.random.default_rng(11)
        assert_batch_matches_serial(random_params("line", rng, 5))

    @given(st.sampled_from(["r", "rc", "line"]), st.integers(2, 7),
           st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_random_grids_match_serial(self, kind, n, seed):
        """Property: any same-kind random grid batches equivalently."""
        rng = np.random.default_rng(seed)
        assert_batch_matches_serial(random_params(kind, rng, n))


class TestNonlinearEquivalence:
    def driver_bench(self, model, r, c):
        ckt = Circuit("drv-bench")
        ckt.add(PWRBFDriverElement.for_pattern(
            "drv", "out", model, "0101", 2e-9, 9e-9))
        ckt.add(Resistor("rl", "out", "0", r))
        ckt.add(Capacitor("cl", "out", "0", c))
        return ckt

    def test_driver_grid_matches_serial(self, md2_model):
        """The banked pw-RBF driver batch tracks serial Newton."""
        opts = TransientOptions(dt=md2_model.ts, t_stop=9e-9,
                                method="damped", strict=False)
        params = [(60.0, 1e-12), (120.0, 2e-12), (250.0, 0.7e-12),
                  (45.0, 3e-12)]
        batched = run_transient_batch(
            [self.driver_bench(md2_model, *p) for p in params], opts)
        for p, res in zip(params, batched):
            assert res.batched
            ref = run_transient(self.driver_bench(md2_model, *p), opts)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)
            assert res.warnings == ref.warnings


class TestDriverLineGroup:
    """Driver -> line -> far-end load, the paper's EMC bench, batched."""

    PATTERNS = ("0110100111010010", "1001011000101101",
                "0011001101011100", "1110001010011011",
                "0101110010100110", "1011010001110001")
    R_FAR = (33.0, 50.0, 75.0, 120.0, 220.0, 470.0)
    BIT = 0.4e-9

    def bench(self, model, pattern, r):
        t_stop = len(pattern) * self.BIT
        ckt = Circuit("drv-line")
        ckt.add(PWRBFDriverElement.for_pattern(
            "drv", "out", model, pattern, self.BIT, t_stop))
        ckt.add(IdealLine("tl", "out", "far", 60.0, 0.3e-9))
        ckt.add(Resistor("rl", "far", "0", r))
        ckt.add(Capacitor("cl", "far", "0", 1e-12))
        return ckt

    def run_both(self, model, opts):
        members = list(zip(self.PATTERNS, self.R_FAR))
        batched = run_transient_batch(
            [self.bench(model, p, r) for p, r in members], opts)
        for (p, r), res in zip(members, batched):
            assert res.batched
            ref = run_transient(self.bench(model, p, r), opts)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)
            assert res.warnings == ref.warnings
        return batched

    def test_unique_patterns_match_serial(self, md2_model):
        opts = TransientOptions(dt=md2_model.ts,
                                t_stop=16 * self.BIT, method="damped")
        self.run_both(md2_model, opts)

    @pytest.mark.parametrize("max_iter", [3, 2])
    def test_forced_retries_match_serial(self, md2_model, monkeypatch,
                                         max_iter):
        """A small Newton budget fails members in lockstep; they retry
        through the subset path and still track serial exactly.  At 3
        passes every retry converges, at 2 some fail and warn."""
        from repro.circuit.newton import NewtonOptions
        from repro.models.elements import _DriverBank
        subsets = []
        original = _DriverBank.eval

        def spy(bank, V, t, idx=None):
            if idx is not None:
                subsets.append(len(idx))
            return original(bank, V, t, idx)

        monkeypatch.setattr(_DriverBank, "eval", spy)
        # zero initial conditions: so small a budget would fail the DC
        # operating point before stepping starts
        opts = TransientOptions(dt=md2_model.ts, t_stop=16 * self.BIT,
                                method="damped", strict=False, ic="zero",
                                newton=NewtonOptions(max_iter=max_iter))
        batched = self.run_both(md2_model, opts)
        assert subsets and max(subsets) < len(self.PATTERNS)
        assert any(res.warnings for res in batched) == (max_iter == 2)


class TestEligibilityAndFallback:
    def test_empty_and_singleton(self):
        assert run_transient_batch([], OPTS) == []
        [res] = run_transient_batch([linear_bench("rc", 50., 1e-12,
                                                  50., 1e-9)], OPTS)
        assert not getattr(res, "batched", False)

    def test_mixed_topologies_fall_back(self):
        """Different signatures -> per-member serial, still correct."""
        params = [("rc", 50.0, 1e-12, 50.0, 1e-9),
                  ("line", 75.0, 1e-12, 60.0, 0.5e-9)]
        assert_batch_matches_serial(params, expect_batched=False)

    def test_two_nonlinear_elements_fall_back(self):
        def bench():
            ckt = linear_bench("rc", 80.0, 1e-12, 50.0, 1e-9)
            ckt.add(Diode("d1", "out", "0"))
            ckt.add(Diode("d2", "in", "0"))
            return ckt
        batched = run_transient_batch([bench(), bench()], OPTS)
        ref = run_transient(bench(), OPTS)
        for res in batched:
            assert not getattr(res, "batched", False)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)

    def test_disabled_fast_path_falls_back(self):
        opts = TransientOptions(dt=25e-12, t_stop=4e-9, method="damped",
                                fast_path=False)
        params = [("rc", 50.0, 1e-12, 50.0, 1e-9)] * 2
        batched = run_transient_batch(
            [linear_bench(*p) for p in params], opts)
        assert all(not getattr(r, "batched", False) for r in batched)

    def test_signature_separates_structure_not_values(self):
        a = linear_bench("line", 50.0, 1e-12, 50.0, 1e-9)
        b = linear_bench("line", 300.0, 4e-12, 80.0, 0.4e-9)
        c = linear_bench("rc", 50.0, 1e-12, 50.0, 1e-9)
        assert batch_signature(a) == batch_signature(b)
        assert batch_signature(a) != batch_signature(c)

    def test_strict_batch_raises_on_nonconvergence(self, md2_model):
        """strict=True surfaces a per-member Newton failure."""
        from repro.circuit.newton import NewtonOptions
        from repro.errors import ConvergenceError
        opts = TransientOptions(
            dt=md2_model.ts, t_stop=9e-9, method="damped", strict=True,
            newton=NewtonOptions(max_iter=1))
        circuits = [TestNonlinearEquivalence().driver_bench(
            md2_model, r, 1e-12) for r in (60.0, 120.0)]
        with pytest.raises(ConvergenceError):
            run_transient_batch(circuits, opts)
