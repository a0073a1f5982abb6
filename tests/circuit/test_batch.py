"""Grid-batched transient backend: equivalence, eligibility, fallback.

The batched path must be a pure execution detail: for any group it
accepts, every member's waveforms must match a fresh lone
``run_transient`` of the same circuit (a batch of one) to well below
solver tolerance, and any group it cannot accept must silently run
member by member.  A lone run is checked against closed-form solutions
and circuit identities.  Fresh circuits are built per run -- a transient
run consumes and rewrites element state (histories, DC fixed points), so
two runs must never share element objects.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (Capacitor, Circuit, CoupledIdealLine, Diode,
                           IdealLine, NewtonOptions, NonlinearCurrentSource,
                           Resistor,
                           TransientOptions, VoltageSource, batch_signature,
                           run_transient, run_transient_batch, solve_dcop)
from repro.circuit.elements import DiodeParams
from repro.circuit.netlist import Element
from repro.circuit.waveforms import Constant, Pulse, Step
from repro.errors import CircuitError
from repro.models import PWRBFDriverElement, ParametricReceiverElement
from repro.obs import Tracer, set_tracer

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
    """Batch over fresh circuits == lone runs of fresh circuits."""
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
    def test_empty_and_singleton(self, fresh_metrics):
        """A lone circuit is a lockstep batch of one, through either
        entry point: an RC low-pass fed a ramp follows the closed-form
        response to within the trapezoidal rule's error at tau / 100."""
        assert run_transient_batch([], OPTS) == []
        r, c, tr = 1e3, 1e-12, 0.1e-9
        tau = r * c

        def rc():
            ckt = Circuit("rc")
            ckt.add(VoltageSource("vin", "in", "0",
                                  Step(v0=0.0, v1=1.0, t0=0.0, rise=tr)))
            ckt.add(Resistor("r1", "in", "out", r))
            ckt.add(Capacitor("c1", "out", "0", c))
            return ckt
        opts = TransientOptions(dt=tau / 100, t_stop=5 * tau, ic="zero")
        [res] = run_transient_batch([rc()], opts)
        lone = run_transient(rc(), opts)
        assert res.batched and lone.batched
        np.testing.assert_array_equal(res.x, lone.x)
        t = res.t
        during = (t - tau + tau * np.exp(-t / tau)) / tr
        at_tr = (tr - tau + tau * np.exp(-tr / tau)) / tr
        exact = np.where(t <= tr, during,
                         1.0 + (at_tr - 1.0) * np.exp(-(t - tr) / tau))
        assert np.max(np.abs(res.v("out") - exact)) < 2e-4
        assert fresh_metrics.total("batch_fallbacks_total") == 0

    def test_mixed_topologies_fall_back(self):
        """Different nonlinear skeletons (a diode on ``out`` in one
        member, none in the other) -> member by member, still correct."""
        def bench(diode):
            ckt = linear_bench("rc", 50.0, 1e-12, 50.0, 1e-9)
            if diode:
                ckt.add(Diode("d1", "out", "0"))
            return ckt
        batched = run_transient_batch([bench(True), bench(False)], OPTS)
        for diode, res in zip((True, False), batched):
            assert not res.batched
            ref = run_transient(bench(diode), OPTS)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)

    def test_bankless_element_is_named(self):
        """A behavioural source beside a banked diode batches with it; a
        user-defined nonlinear element without a bank has no engine, and
        the error names it, alone or in a group."""
        def bench(gain):
            ckt = linear_bench("rc", 80.0, 1e-12, 50.0, 1e-9)
            ckt.add(Diode("d1", "out", "0"))
            ckt.add(NonlinearCurrentSource(
                "g2", "out", "0", ["out"],
                lambda vs, t: gain * np.tanh(vs[0]),
                lambda vs, t: [gain / np.cosh(vs[0]) ** 2]))
            return ckt
        gains = (1e-3, 4e-3)
        batched = run_transient_batch([bench(g) for g in gains], OPTS)
        for gain, res in zip(gains, batched):
            assert res.batched
            ref = run_transient(bench(gain), OPTS)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)

        class Custom(Element):
            nonlinear = True

        def custom():
            ckt = linear_bench("rc", 80.0, 1e-12, 50.0, 1e-9)
            ckt.add(Custom("x1", ["out", "0"]))
            return ckt
        for group in ([custom()], [custom(), custom()],
                      [custom(), linear_bench("rc", 50., 1e-12, 50., 1e-9)]):
            with pytest.raises(CircuitError, match="Custom 'x1'"):
                run_transient_batch(group, OPTS)

    def test_singular_dc_matrix_falls_back(self, fresh_metrics):
        """An inductor across the source shorts it at DC: the group goes
        member by member and raises what a lone run raises, LAPACK's
        error with no warning."""
        from repro.circuit import Inductor
        from repro.errors import SingularMatrixError

        def bench(r):
            ckt = linear_bench("r", r, 0.0, 0.0, 0.0)
            ckt.add(Inductor("lsh", "in", "0", 1e-9))
            return ckt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as err:
                run_transient(bench(50.0), OPTS)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        with pytest.raises(SingularMatrixError):
            run_transient_batch([bench(50.0), bench(80.0)], OPTS)
        assert fresh_metrics.value("batch_fallbacks_total",
                                   reason="singular DC matrix") == 1

    def test_signature_separates_structure_not_values(self):
        """The signature is the nonlinear skeleton: linear networks of
        any shape share one, a diode's type and nodes split them."""
        a = linear_bench("line", 50.0, 1e-12, 50.0, 1e-9)
        b = linear_bench("line", 300.0, 4e-12, 80.0, 0.4e-9)
        c = linear_bench("rc", 50.0, 1e-12, 50.0, 1e-9)
        assert batch_signature(a) == batch_signature(b) == batch_signature(c)
        d, e, f = (linear_bench("rc", r, 1e-12, 50.0, 1e-9)
                   for r in (50.0, 80.0, 50.0))
        d.add(Diode("d1", "out", "0"))
        e.add(Diode("d1", "out", "0", DiodeParams(isat=2e-14)))
        f.add(Diode("d1", "in", "0"))
        assert batch_signature(d) == batch_signature(e)
        assert batch_signature(d) != batch_signature(c)
        assert batch_signature(d) != batch_signature(f)

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


class TestMixedGroups:
    """One lockstep group across driver corners, pattern lengths and
    the receiver port: every member still matches its own serial run."""

    BIT = 0.4e-9
    PATTERNS = ("011010", "100101101")

    def bench(self, model, pattern, kind, rx_model=None, td=0.5e-9, r=75.0):
        """Driver into a study-style load; returns ``(circuit, t_stop)``."""
        t_stop = (len(pattern) + 2) * self.BIT
        ckt = Circuit(kind)
        ckt.add(PWRBFDriverElement.for_pattern(
            "drv", "out", model, pattern, self.BIT, t_stop))
        if kind == "line":
            ckt.add(IdealLine("tl", "out", "far", 65.0, 1e-9))
            ckt.add(Resistor("rl", "far", "0", r))
            ckt.add(Capacitor("cl", "far", "0", 1e-12))
        elif kind == "rc":
            ckt.add(Resistor("rl", "out", "0", r))
            ckt.add(Capacitor("cl", "out", "0", 5e-12))
        elif kind == "coupled":
            L = np.array([[300e-9, 60e-9], [60e-9, 300e-9]])
            C = np.array([[100e-12, -5e-12], [-5e-12, 100e-12]])
            ckt.add(CoupledIdealLine("tc", ["out", "vne"], ["afe", "vfe"],
                                     L, C, 0.1))
            for name, node in (("ra", "afe"), ("rn", "vne"), ("rf", "vfe")):
                ckt.add(Resistor(name, node, "0", r))
        else:   # "rx": line (td > 0) into the receiver, or straight on
            pad = "out"
            if td > 0.0:
                ckt.add(IdealLine("tl", "out", "pad", 50.0, td))
                pad = "pad"
            ckt.add(ParametricReceiverElement("rx", pad, rx_model))
            ckt.add(Resistor("rt", pad, "0", r))
        return ckt, t_stop

    def members(self, corners):
        """3 corners x 2 pattern lengths, each with its own load value."""
        return [(corners[c], p, 40.0 + 25.0 * k)
                for k, (c, p) in enumerate(
                    (c, p) for c in ("slow", "typ", "fast")
                    for p in self.PATTERNS)]

    def run_both(self, corners, kind, opts, **bench_kw):
        mem = self.members(corners)
        built = [self.bench(m, p, kind, r=r, **bench_kw) for m, p, r in mem]
        batched = run_transient_batch(
            [c for c, _ in built], opts, t_stops=[t for _, t in built])
        for (m, p, r), (_, t_stop), res in zip(mem, built, batched):
            assert res.batched
            ckt, _ = self.bench(m, p, kind, r=r, **bench_kw)
            ref = run_transient(ckt, replace(opts, t_stop=t_stop))
            np.testing.assert_array_equal(res.t, ref.t)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)
            assert res.warnings == ref.warnings
        return batched

    def opts(self, model, **kw):
        kw = {"t_stop": 1e-9, "strict": False, **kw}
        return TransientOptions(dt=model.ts, method="damped", **kw)

    @pytest.mark.parametrize("kind", ["line", "rc", "coupled"])
    def test_corners_and_lengths_match_serial(self, md2_corners, kind):
        res = self.run_both(md2_corners, kind, self.opts(md2_corners["typ"]))
        assert {len(r.t) for r in res} == {len(self.PATTERNS[0]) * 16 + 33,
                                           len(self.PATTERNS[1]) * 16 + 33}

    @pytest.mark.parametrize("td", [0.5e-9, 0.0])
    def test_receiver_group_matches_serial(self, md2_corners, md4_model,
                                           td):
        """Two ports (line into the receiver), or one merged port (the
        receiver straight on the driver pad)."""
        self.run_both(md2_corners, "rx", self.opts(md2_corners["typ"]),
                      rx_model=md4_model, td=td)

    def test_two_port_forced_retries_match_serial(self, md2_corners,
                                                  md4_model, monkeypatch):
        from repro.circuit.newton import NewtonOptions
        from repro.models.elements import _ReceiverBank
        subsets = []
        original = _ReceiverBank.eval

        def spy(bank, V, t, idx=None):
            if idx is not None:
                subsets.append(len(idx))
            return original(bank, V, t, idx)

        monkeypatch.setattr(_ReceiverBank, "eval", spy)
        opts = self.opts(md2_corners["typ"], ic="zero",
                         newton=NewtonOptions(max_iter=2))
        self.run_both(md2_corners, "rx", opts, rx_model=md4_model)
        assert subsets and min(subsets) < 6

    def test_three_ports_match_serial(self, md2_model, md4_model):
        """Two receivers on two lines: the general K x K solve."""
        def bench(r):
            ckt, t_stop = self.bench(md2_model, "0110", "rx", md4_model,
                                     r=r)
            ckt.add(IdealLine("t2", "out", "pad2", 75.0, 0.3e-9))
            ckt.add(ParametricReceiverElement("rx2", "pad2", md4_model))
            ckt.add(Resistor("r2", "pad2", "0", 2.0 * r))
            return ckt, t_stop
        opts = self.opts(md2_model, t_stop=6 * self.BIT)
        batched = run_transient_batch([bench(r)[0] for r in (50.0, 90.0)],
                                      opts)
        for r, res in zip((50.0, 90.0), batched):
            assert res.batched
            ref = run_transient(bench(r)[0], opts)
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)

    def test_retries_with_and_without_frozen_members(self, md2_corners,
                                                     monkeypatch):
        """A small Newton budget forces retries both on steps where every
        member is live (passes assign the new iterate outright) and on
        steps where the short pattern's members have already ended
        (passes copy into the live members only); every member still
        matches serial, and the span counts the lockstep passes."""
        from repro.circuit.batch import _Ports
        calls = []
        original = _Ports.newton

        def spy(ports, Y0, X, active, t=None, idx=None):
            out = original(ports, Y0, X, active, t, idx)
            if ports.atol.shape[1] > 1:     # the group, not a lone ref
                calls.append((t, idx is not None, bool(np.all(active)),
                              out[4]))
            return out

        monkeypatch.setattr(_Ports, "newton", spy)
        opts = self.opts(md2_corners["typ"], ic="zero",
                         newton=NewtonOptions(max_iter=2))
        tracer = Tracer(collect=True)
        set_tracer(tracer)
        try:
            res = self.run_both(md2_corners, "line", opts)
        finally:
            set_tracer(None)
        assert len({len(r.t) for r in res}) == 2
        # a retry's step: was every member live on its first call?
        first_all_live = [calls[i - 1][2]
                          for i, c in enumerate(calls) if c[1]]
        assert True in first_all_live and False in first_all_live
        [span] = [sp for sp in tracer.finished
                  if sp.name == "transient.batch"
                  and sp.attrs["members"] > 1]
        passes = sum(c[3] for c in calls if c[0] is not None)
        assert span.attrs["passes"] == passes
        assert 0 < passes < span.attrs["newton_iters"]

    def test_strict_ignores_frozen_members(self, md2_corners, monkeypatch):
        """A frozen member's padded steps run no Newton: poisoning its
        driver current past its own stop time raises nothing."""
        from repro.models.elements import _DriverBank
        stops = {}
        original = _DriverBank.eval

        def poisoned(bank, V, t, idx=None):
            i, g = original(bank, V, t, idx)
            ended = stops[id(bank)] < t - 1e-15
            if idx is not None:
                ended = ended[idx]
            i = np.where(ended, np.nan, i)
            return i, g

        orig_init = _DriverBank.__init__

        def init(bank, els):
            orig_init(bank, els)
            stops[id(bank)] = np.array(
                [(el.wh.size - 2) * el.ts for el in els])

        monkeypatch.setattr(_DriverBank, "__init__", init)
        monkeypatch.setattr(_DriverBank, "eval", poisoned)
        res = self.run_both(md2_corners, "line",
                            self.opts(md2_corners["typ"], strict=True))
        assert len({len(r.t) for r in res}) == 2


class TestFusedTopologies:
    """Benches sharing one nonlinear skeleton (the driver on ``out``) but
    not their linear networks run as one lockstep group, the smaller
    padded to the largest."""

    BIT = 0.4e-9
    PATTERN = "0110100111010010"
    #: load kind -> the bench's MNA size
    SIZES = {"r": 1, "rc": 1, "line": 4, "line_c": 4, "series_line": 5,
             "coupled": 8}

    def bench(self, model, kind, r):
        ckt = Circuit(kind)
        ckt.add(PWRBFDriverElement.for_pattern(
            "drv", "out", model, self.PATTERN, self.BIT, 16 * self.BIT))
        if kind in ("r", "rc"):
            ckt.add(Resistor("rl", "out", "0", r))
            if kind == "rc":
                ckt.add(Capacitor("cl", "out", "0", 2e-12))
        elif kind in ("line", "line_c", "series_line"):
            near = "out"
            if kind == "series_line":
                ckt.add(Resistor("rs", "out", "mid", 15.0))
                near = "mid"
            ckt.add(IdealLine("tl", near, "far", 60.0, 0.3e-9))
            ckt.add(Resistor("rl", "far", "0", r))
            if kind == "line_c":
                ckt.add(Capacitor("cl", "far", "0", 1e-12))
        else:
            L = np.array([[300e-9, 60e-9], [60e-9, 300e-9]])
            C = np.array([[100e-12, -5e-12], [-5e-12, 100e-12]])
            ckt.add(CoupledIdealLine("tc", ["out", "vne"], ["afe", "vfe"],
                                     L, C, 0.1))
            for name, node in (("ra", "afe"), ("rn", "vne"), ("rf", "vfe")):
                ckt.add(Resistor(name, node, "0", r))
        return ckt

    def run(self, model, members, opts):
        return run_transient_batch(
            [self.bench(model, kind, r) for kind, r in members], opts)

    def opts(self, model, ic):
        return TransientOptions(dt=model.ts, t_stop=16 * self.BIT,
                                method="damped", strict=False, ic=ic)

    @pytest.mark.parametrize("ic", ["dcop", "zero"])
    def test_members_match_their_own_topology_groups(self, md2_model, ic):
        """Every member of a group fusing sizes 1, 4, 5 and 8 (with and
        without a capacitor or a line) matches its own-topology group
        at 1e-9, holding only its own unknowns; from zero initial
        conditions the first steps clamp ``max_dv`` on each member's
        own nodes."""
        opts = self.opts(md2_model, ic)
        members = [(kind, r) for kind in self.SIZES for r in (40.0, 150.0)]
        tracer = Tracer(collect=True)
        set_tracer(tracer)
        try:
            fused = self.run(md2_model, members, opts)
        finally:
            set_tracer(None)
        [span] = [sp for sp in tracer.finished
                  if sp.name == "transient.batch"]
        assert span.attrs["size"] == 8
        assert span.attrs["topologies"] == len(self.SIZES)
        assert span.attrs["padded"] == sum(
            8 - self.SIZES[kind] for kind, _ in members)
        for (kind, r), res in zip(members, fused):
            assert res.batched
            assert res.x.shape == (len(res.t), self.SIZES[kind])
            own = self.run(md2_model, [(kind, r), (kind, 90.0)], opts)[0]
            np.testing.assert_allclose(res.x, own.x, rtol=TOL, atol=TOL)
            assert res.warnings == own.warnings

    @pytest.mark.parametrize("ic", ["dcop", "zero"])
    def test_member_bits_do_not_depend_on_the_group(self, md2_model, ic):
        """A member is bitwise the same in groups of two or more members
        of other topologies and other padded sizes."""
        opts = self.opts(md2_model, ic)
        groups = ([("line", 50.0), ("rc", 80.0), ("coupled", 60.0)],
                  [("series_line", 70.0), ("line", 50.0), ("rc", 80.0)],
                  [("line", 50.0), ("rc", 80.0)],
                  [("rc", 80.0), ("rc", 30.0), ("line", 50.0),
                   ("line", 120.0)])
        seen: dict = {}
        for members in groups:
            for member, res in zip(members, self.run(md2_model, members,
                                                     opts)):
                seen.setdefault(member, []).append(res)
        for member in (("line", 50.0), ("rc", 80.0)):
            first, *rest = seen[member]
            assert len(rest) == 3
            for res in rest:
                np.testing.assert_array_equal(res.x, first.x)

    def test_clamp_spares_branch_rows_of_smaller_members(self, md2_model):
        """A member's branch current may sit on a row that is a node of
        a larger member: the ``max_dv`` clamp leaves it alone, so a
        10 A step there runs as in the member's own group."""
        def with_source(r):
            ckt = self.bench(md2_model, "r", r)
            ckt.add(VoltageSource("vs", "a", "0",
                                  Pulse(v1=0.0, v2=10.0, delay=1e-9,
                                        rise=0.1e-9, width=2e-9)))
            ckt.add(Resistor("ra", "a", "0", 1.0))
            ckt.add(Resistor("rc", "a", "out", 100.0))
            return ckt
        opts = self.opts(md2_model, "zero")
        pair = [with_source(50.0), with_source(80.0)]
        fused = run_transient_batch(
            pair + [self.bench(md2_model, "coupled", 60.0)], opts)
        own = run_transient_batch([with_source(50.0), with_source(80.0)],
                                  opts)
        assert pair[0].node("a") == 1 and fused[0].x.shape[1] == 3
        assert np.abs(fused[0].x[:, 2]).max() > 5.0    # the branch row
        for a, b in zip(fused, own):
            np.testing.assert_array_equal(a.x, b.x)

    def test_ladder_shifts_each_members_own_nodes(self, md2_model,
                                                  fresh_metrics):
        """A DC Newton budget one short of the slowest member's plain
        Newton sends it onto the gmin ladder inside the fused group;
        every member still equals its own-topology group bitwise."""
        members = [("rc", 40.0), ("line", 150.0), ("series_line", 70.0),
                   ("coupled", 60.0)]
        plain = []
        for kind, r in members:
            fresh_metrics.reset()
            solve_dcop(self.bench(md2_model, kind, r))
            plain.append(fresh_metrics.value("dcop_newton_iters"))
        fresh_metrics.reset()
        opts = replace(self.opts(md2_model, "dcop"),
                       newton=NewtonOptions(max_iter=max(plain) - 1))
        fused = self.run(md2_model, members, opts)
        assert fresh_metrics.value("batch_fallbacks_total",
                                   reason="dcop") >= 1
        for member, res in zip(members, fused):
            own = self.run(md2_model, [member, (member[0], 90.0)], opts)[0]
            np.testing.assert_array_equal(res.x, own.x)


class TestReusedCircuit:
    """Line elements keep no wave history, so a circuit solved again after
    a serial or batched run -- at DC or transient -- gives a fresh
    circuit's result.  The benches sit on a DC bias: waves left behind by
    a run would show in the next DC point."""

    L = np.array([[300e-9, 60e-9], [60e-9, 300e-9]])
    C = np.array([[100e-12, -5e-12], [-5e-12, 100e-12]])

    def bench(self, kind, r=200.0):
        """1 V plus a pulse, 25 ohm, a 50 ohm / 0.5 ns ``IdealLine`` (or a
        coupled pair with its victim land terminated) into ``r`` ohm."""
        ckt = Circuit(f"biased-{kind}")
        ckt.add(VoltageSource("vs", "in", "0",
                              Constant(1.0) + Pulse(v2=1.0, delay=0.1e-9,
                                                    rise=0.15e-9,
                                                    width=1.5e-9)))
        ckt.add(Resistor("rs", "in", "out", 25.0))
        if kind == "line":
            ckt.add(IdealLine("tl", "out", "far", 50.0, 0.5e-9))
        else:
            ckt.add(CoupledIdealLine("tc", ["out", "vne"], ["far", "vfe"],
                                     self.L, self.C, 0.1))
            ckt.add(Resistor("rn", "vne", "0", 50.0))
            ckt.add(Resistor("rf", "vfe", "0", 50.0))
        ckt.add(Resistor("rl", "far", "0", r))
        return ckt

    @pytest.mark.parametrize("kind", ["line", "coupled"])
    def test_dcop_after_transient_equals_fresh(self, kind):
        ckt = self.bench(kind)
        run_transient(ckt, OPTS)
        fresh = solve_dcop(self.bench(kind))
        assert fresh.v("far") > 0.5
        np.testing.assert_allclose(solve_dcop(ckt).x, fresh.x,
                                   rtol=TOL, atol=TOL)

    @pytest.mark.parametrize("kind", ["line", "coupled"])
    def test_second_serial_run_reproduces_first(self, kind):
        ckt = self.bench(kind)
        first = run_transient(ckt, OPTS)
        again = run_transient(ckt, OPTS)
        np.testing.assert_allclose(again.x, first.x, rtol=TOL, atol=TOL)

    @pytest.mark.parametrize("kind", ["line", "coupled"])
    def test_rerun_after_batch_reproduces_first(self, kind):
        loads = (50.0, 200.0)
        circuits = [self.bench(kind, r) for r in loads]
        batched = run_transient_batch(circuits, OPTS)
        for r, ckt, res in zip(loads, circuits, batched):
            assert res.batched
            first = run_transient(self.bench(kind, r), OPTS)
            np.testing.assert_allclose(res.x, first.x, rtol=TOL, atol=TOL)
            again = run_transient(ckt, OPTS)
            np.testing.assert_allclose(again.x, first.x, rtol=TOL, atol=TOL)


class TestBatchedOperatingPoint:
    """Every member's DC operating point comes from one lockstep Newton
    over the group: its x0, its waveforms and the group's DC Newton
    iterations all match serial :func:`solve_dcop`."""

    KINDS = ("line", "rc", "coupled", "rx")

    def circuits(self, corners, kind, rx_model):
        """Fresh benches of the 3-corner x 2-length group, with stops."""
        group = TestMixedGroups()
        if kind in ("line", "rc", "coupled"):
            return [group.bench(m, p, kind, r=r)
                    for m, p, r in group.members(corners)]
        return [group.bench(m, p, "rx", rx_model,
                            r=1e9 if kind == "rx-open" else r)
                for m, p, r in group.members(corners)]

    def run_both(self, metrics, corners, kind, rx_model, opts):
        """Batched vs serial; returns the ``transient.dcop`` span and the
        serial DC Newton iterations."""
        refs = [solve_dcop(c, options=opts.newton).x
                for c, _ in self.circuits(corners, kind, rx_model)]
        serial_iters = metrics.value("dcop_newton_iters")
        metrics.reset()
        built = self.circuits(corners, kind, rx_model)
        tracer = Tracer(collect=True)
        set_tracer(tracer)
        try:
            batched = run_transient_batch(
                [c for c, _ in built], opts, t_stops=[t for _, t in built])
        finally:
            set_tracer(None)
        assert metrics.value("dcop_newton_iters") == serial_iters
        for (_, t_stop), x0, res, (ckt, _) in zip(
                built, refs, batched,
                self.circuits(corners, kind, rx_model)):
            assert res.batched
            np.testing.assert_allclose(res.x[0], x0, rtol=TOL, atol=TOL)
            ref = run_transient(ckt, replace(opts, t_stop=t_stop))
            np.testing.assert_allclose(res.x, ref.x, rtol=TOL, atol=TOL)
            assert res.warnings == ref.warnings
        [batch] = [sp for sp in tracer.finished
                   if sp.name == "transient.batch"]
        [dcop] = [sp for sp in tracer.finished
                  if sp.name == "transient.dcop"]
        assert dcop.parent_id == batch.span_id
        assert dcop.attrs["members"] == len(built)
        return dcop, serial_iters

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_serial(self, fresh_metrics, md2_corners, md4_model,
                            kind):
        opts = TestMixedGroups().opts(md2_corners["typ"])
        dcop, serial_iters = self.run_both(fresh_metrics, md2_corners,
                                           kind, md4_model, opts)
        assert dcop.attrs["member_iters"] == serial_iters
        assert dcop.attrs["fallbacks"] == 0
        assert 0 < dcop.attrs["passes"] < dcop.attrs["member_iters"]
        assert fresh_metrics.total("batch_fallbacks_total") == 0

    def test_unterminated_receiver(self, fresh_metrics, md2_corners,
                                   md4_model):
        """The unterminated receiver (a 1 Gohm reference, as the study
        kind wires it): at DC the line shorts both ports into one node
        whose only other path to ground is ~1 nS.  The receiver's
        nominal DC port conductance keeps that base well conditioned
        (without it cond(A_dc) ~ 4e9, and serial and batched agreed only
        to ~1e-7), so the lockstep matches serial at 1e-9 in the serial
        iteration count."""
        opts = TestMixedGroups().opts(md2_corners["typ"])
        dcop, serial_iters = self.run_both(fresh_metrics, md2_corners,
                                           "rx-open", md4_model, opts)
        assert dcop.attrs["member_iters"] == serial_iters
        assert dcop.attrs["fallbacks"] == 0

    def test_ladder_drill(self, fresh_metrics, md2_corners):
        """A Newton budget one short of the slowest member's plain DC
        Newton sends that member, and only it, onto the gmin ladder;
        it still matches serial, which takes the same ladder."""
        plain = []
        for ckt, _ in self.circuits(md2_corners, "line", None):
            fresh_metrics.reset()
            solve_dcop(ckt)
            assert fresh_metrics.total("batch_fallbacks_total") == 0
            plain.append(fresh_metrics.value("dcop_newton_iters"))
        fresh_metrics.reset()
        budget = max(plain) - 1
        assert sorted(plain)[-2] <= budget
        opts = TestMixedGroups().opts(
            md2_corners["typ"], newton=NewtonOptions(max_iter=budget))
        dcop, serial_iters = self.run_both(fresh_metrics, md2_corners,
                                           "line", None, opts)
        # the ladder's iterations count too, outside the lockstep's
        assert dcop.attrs["member_iters"] < serial_iters
        assert dcop.attrs["fallbacks"] == 1
        # that member in the group, and again in its lone reference run
        assert fresh_metrics.value("batch_fallbacks_total",
                                   reason="dcop") == 2
