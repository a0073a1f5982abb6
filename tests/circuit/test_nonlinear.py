"""Nonlinear elements (diode, MOSFET, behavioral sources) and controlled sources."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (CCCS, CCVS, VCCS, VCVS, Capacitor, Circuit, Diode,
                           DiodeParams, MOSFET, MOSParams,
                           NonlinearCurrentSource, Resistor,
                           TransientOptions, VoltageSource, run_transient,
                           scale_corner, solve_dcop)
from repro.circuit.elements.diode import diode_current, junction_capacitance
from repro.circuit.elements.mosfet import nmos_ids
from repro.circuit.waveforms import Constant, Step
from repro.errors import CircuitError


class TestControlledSources:
    def test_vccs(self):
        ckt = Circuit("g")
        ckt.add(VoltageSource("vc", "c", "0", Constant(2.0)))
        ckt.add(VCCS("g1", "0", "out", "c", "0", gm=1e-3))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        op = solve_dcop(ckt)
        # 2 mA pushed into 'out' through the source -> +2 V over 1k
        assert op.v("out") == pytest.approx(2.0, rel=1e-6)

    def test_vcvs(self):
        ckt = Circuit("e")
        ckt.add(VoltageSource("vc", "c", "0", Constant(0.5)))
        ckt.add(VCVS("e1", "out", "0", "c", "0", mu=4.0))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.v("out") == pytest.approx(2.0, rel=1e-6)

    def test_cccs(self):
        ckt = Circuit("f")
        vs = ckt.add(VoltageSource("vc", "c", "0", Constant(1.0)))
        ckt.add(Resistor("rc", "c", "0", 1e3))  # 1 mA loop, source i = -1 mA
        ckt.add(CCCS("f1", "0", "out", vs, beta=2.0))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.v("out") == pytest.approx(-2.0, rel=1e-6)

    def test_ccvs(self):
        ckt = Circuit("h")
        vs = ckt.add(VoltageSource("vc", "c", "0", Constant(1.0)))
        ckt.add(Resistor("rc", "c", "0", 1e3))
        ckt.add(CCVS("h1", "out", "0", vs, r=500.0))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.v("out") == pytest.approx(-0.5, rel=1e-6)

    def test_cccs_without_branch_rejected(self):
        ckt = Circuit("bad")
        r_ctl = ckt.add(Resistor("rc", "c", "0", 1e3))
        ckt.add(VoltageSource("vc", "c", "0", Constant(1.0)))
        ckt.add(CCCS("f1", "0", "out", r_ctl, beta=2.0))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        with pytest.raises(CircuitError):
            solve_dcop(ckt)


class TestDiodeFunctions:
    def test_forward_current_positive(self):
        p = DiodeParams()
        i, g = diode_current(0.7, p)
        assert i > 1e-4
        assert g > 0

    def test_reverse_saturation(self):
        p = DiodeParams(isat=1e-14)
        i, _ = diode_current(-1.0, p)
        assert i == pytest.approx(-1e-14, rel=1e-6)

    def test_overflow_guard(self):
        p = DiodeParams()
        i, g = diode_current(100.0, p)  # would overflow exp(100/0.026)
        assert np.isfinite(i) and np.isfinite(g)

    @given(st.floats(-2.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_derivative_consistency(self, v):
        p = DiodeParams()
        i, g = diode_current(v, p)
        eps = 1e-7
        i2, _ = diode_current(v + eps, p)
        assert (i2 - i) / eps == pytest.approx(g, rel=1e-3, abs=1e-12)

    def test_junction_capacitance_increases_toward_forward(self):
        p = DiodeParams(cj0=1e-12)
        assert junction_capacitance(0.3, p) > junction_capacitance(-1.0, p)

    def test_junction_capacitance_continuous_at_fc(self):
        p = DiodeParams(cj0=1e-12)
        fc = 0.5 * p.vj
        assert junction_capacitance(fc - 1e-9, p) == pytest.approx(
            junction_capacitance(fc + 1e-9, p), rel=1e-4)


class TestDiodeInCircuit:
    def test_forward_drop(self):
        ckt = Circuit("d")
        ckt.add(VoltageSource("v1", "a", "0", Constant(5.0)))
        ckt.add(Resistor("r1", "a", "k", 1e3))
        ckt.add(Diode("d1", "k", "0"))
        op = solve_dcop(ckt)
        vd = op.v("k")
        assert 0.55 < vd < 0.85
        # KCL: resistor current equals diode current
        i_r = (5.0 - vd) / 1e3
        i_d, _ = diode_current(vd, DiodeParams())
        assert i_r == pytest.approx(i_d, rel=1e-3)

    def test_reverse_blocking(self):
        ckt = Circuit("d")
        ckt.add(VoltageSource("v1", "a", "0", Constant(-5.0)))
        ckt.add(Resistor("r1", "a", "k", 1e3))
        ckt.add(Diode("d1", "k", "0"))
        op = solve_dcop(ckt)
        assert op.v("k") == pytest.approx(-5.0, abs=1e-3)

    def test_clamp_limits_transient_overshoot(self):
        """ESD-style clamp: diode to a 3.3 V rail limits the excursion."""
        ckt = Circuit("clamp")
        ckt.add(VoltageSource("vdd", "vdd", "0", Constant(3.3)))
        ckt.add(VoltageSource("vin", "in", "0",
                              Step(v1=6.0, t0=0.2e-9, rise=0.1e-9)))
        ckt.add(Resistor("rs", "in", "pad", 50.0))
        ckt.add(Diode("dup", "pad", "vdd"))
        ckt.add(Capacitor("cp", "pad", "0", 1e-12))
        res = run_transient(ckt, TransientOptions(dt=5e-12, t_stop=3e-9))
        assert np.max(res.v("pad")) < 4.4  # 3.3 + ~diode drop

    def test_transient_with_junction_capacitance(self):
        ckt = Circuit("djc")
        ckt.add(VoltageSource("vin", "in", "0",
                              Step(v1=1.0, t0=0.2e-9, rise=0.1e-9)))
        ckt.add(Resistor("rs", "in", "pad", 1e3))
        ckt.add(Diode("d1", "pad", "0", DiodeParams(cj0=2e-12)))
        res = run_transient(ckt, TransientOptions(dt=5e-12, t_stop=5e-9))
        v = res.v("pad")
        assert np.all(np.isfinite(v))
        assert v[-1] > 0.4  # settles to the forward drop


NP = MOSParams(kp=200e-6, vto=0.5, lam=0.02, w=20e-6, l=0.5e-6)


class TestMosfetEquations:
    def test_cutoff(self):
        assert nmos_ids(0.3, 1.0, NP) == (0.0, 0.0, 0.0)

    def test_saturation_value(self):
        vgs, vds = 1.5, 2.0
        ids, gm, gds = nmos_ids(vgs, vds, NP)
        beta = NP.beta
        vgt = vgs - NP.vto
        assert ids == pytest.approx(0.5 * beta * vgt ** 2 * (1 + NP.lam * vds))
        assert gm == pytest.approx(beta * vgt * (1 + NP.lam * vds))

    def test_triode_value(self):
        vgs, vds = 2.0, 0.3
        ids, _, gds = nmos_ids(vgs, vds, NP)
        beta = NP.beta
        vgt = vgs - NP.vto
        expect = beta * (vgt * vds - 0.5 * vds ** 2) * (1 + NP.lam * vds)
        assert ids == pytest.approx(expect)

    def test_continuity_at_saturation_boundary(self):
        vgs = 1.5
        vgt = vgs - NP.vto
        below = nmos_ids(vgs, vgt - 1e-9, NP)[0]
        above = nmos_ids(vgs, vgt + 1e-9, NP)[0]
        assert below == pytest.approx(above, rel=1e-6)

    def test_reverse_vds_antisymmetry(self):
        # exchange symmetry: i(vgs, -vds) = -i(vgs + vds, vds)
        ids_fwd, _, _ = nmos_ids(1.5 + 0.4, 0.4, NP)
        ids_rev, _, _ = nmos_ids(1.5, -0.4, NP)
        assert ids_rev == pytest.approx(-ids_fwd)

    @given(st.floats(-1.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_derivatives_match_finite_differences(self, vgs, vds):
        ids, gm, gds = nmos_ids(vgs, vds, NP)
        eps = 1e-6
        gm_fd = (nmos_ids(vgs + eps, vds, NP)[0] - ids) / eps
        gds_fd = (nmos_ids(vgs, vds + eps, NP)[0] - ids) / eps
        # abs floor covers the O(eps*beta/2) finite-difference artifact when
        # the probe straddles the cutoff/saturation corner exactly
        assert gm_fd == pytest.approx(gm, rel=1e-3, abs=2e-8)
        assert gds_fd == pytest.approx(gds, rel=1e-3, abs=2e-8)

    def test_corners_order_drive_strength(self):
        slow = scale_corner(NP, "slow")
        fast = scale_corner(NP, "fast")
        i_slow = nmos_ids(1.5, 2.0, slow)[0]
        i_typ = nmos_ids(1.5, 2.0, NP)[0]
        i_fast = nmos_ids(1.5, 2.0, fast)[0]
        assert i_slow < i_typ < i_fast

    def test_unknown_corner_rejected(self):
        with pytest.raises(CircuitError):
            scale_corner(NP, "nominal")


def cmos_inverter(vdd=3.3):
    """Minimal CMOS inverter for VTC tests."""
    ckt = Circuit("inv")
    ckt.add(VoltageSource("vdd", "vdd", "0", Constant(vdd)))
    ckt.add(VoltageSource("vin", "in", "0", Constant(0.0)))
    ckt.add(MOSFET("mp", "out", "in", "vdd", NP, polarity="p"))
    ckt.add(MOSFET("mn", "out", "in", "0", NP, polarity="n"))
    ckt.add(Resistor("rl", "out", "0", 1e7))
    return ckt


class TestMosfetInCircuit:
    def test_inverter_rails(self):
        ckt = cmos_inverter()
        ckt["vin"].waveform = Constant(0.0)
        op = solve_dcop(ckt)
        assert op.v("out") == pytest.approx(3.3, abs=0.05)
        ckt2 = cmos_inverter()
        ckt2["vin"].waveform = Constant(3.3)
        op2 = solve_dcop(ckt2)
        assert op2.v("out") == pytest.approx(0.0, abs=0.05)

    def test_vtc_monotonic_decreasing(self):
        vs = np.linspace(0.0, 3.3, 23)
        outs = []
        for v in vs:
            ckt = cmos_inverter()
            ckt["vin"].waveform = Constant(float(v))
            outs.append(solve_dcop(ckt).v("out"))
        outs = np.array(outs)
        assert np.all(np.diff(outs) <= 1e-6)
        assert outs[0] > 3.2 and outs[-1] < 0.1

    def test_inverter_transient_switching(self):
        ckt = cmos_inverter()
        ckt["vin"].waveform = Step(v1=3.3, t0=0.5e-9, rise=0.2e-9)
        ckt.add(Capacitor("cl", "out", "0", 100e-15))
        res = run_transient(ckt, TransientOptions(dt=10e-12, t_stop=4e-9))
        v = res.v("out")
        assert v[0] == pytest.approx(3.3, abs=0.05)
        assert v[-1] == pytest.approx(0.0, abs=0.05)
        # falling edge happens after the input edge
        t_fall = res.t[np.argmax(v < 1.65)]
        assert t_fall > 0.5e-9


class TestNonlinearCurrentSource:
    def test_quadratic_load_dc(self):
        # i = 1e-3 * v^2 from node to ground, driven via 1k from 2 V:
        # v + 1e-3*v^2*1e3 = 2  -> v^2 + v - 2 = 0 -> v = 1
        ckt = Circuit("nl")
        ckt.add(VoltageSource("v1", "a", "0", Constant(2.0)))
        ckt.add(Resistor("r1", "a", "b", 1e3))
        ckt.add(NonlinearCurrentSource(
            "q1", "b", "0", controls=["b"],
            f=lambda vs, t: 1e-3 * vs[0] ** 2,
            dfdv=lambda vs, t: [2e-3 * vs[0]]))
        ckt.add(Resistor("rleak", "b", "0", 1e9))
        op = solve_dcop(ckt)
        assert op.v("b") == pytest.approx(1.0, rel=1e-4)

    def test_numeric_gradient_fallback(self):
        ckt = Circuit("nl2")
        ckt.add(VoltageSource("v1", "a", "0", Constant(2.0)))
        ckt.add(Resistor("r1", "a", "b", 1e3))
        ckt.add(NonlinearCurrentSource(
            "q1", "b", "0", controls=["b"],
            f=lambda vs, t: 1e-3 * vs[0] ** 2))
        ckt.add(Resistor("rleak", "b", "0", 1e9))
        op = solve_dcop(ckt)
        assert op.v("b") == pytest.approx(1.0, rel=1e-3)

    def test_remote_control_node(self):
        # current at out mirrors v(c): i = gm*v(c), like a VCCS
        ckt = Circuit("nl3")
        ckt.add(VoltageSource("vc", "c", "0", Constant(1.5)))
        ckt.add(Resistor("rc", "c", "0", 1e3))
        ckt.add(NonlinearCurrentSource(
            "g1", "0", "out", controls=["c"],
            f=lambda vs, t: 1e-3 * vs[0],
            dfdv=lambda vs, t: [1e-3]))
        ckt.add(Resistor("rl", "out", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.v("out") == pytest.approx(1.5, rel=1e-6)

    def test_source_of_time_alone(self):
        # no control node: i(t) = 1 mA sin(wt) into 50 ohm (and the
        # engine's 1e-12 S gmin, 5e-11 of it)
        w = 1e9
        ckt = Circuit("nl4")
        ckt.add(NonlinearCurrentSource(
            "g1", "a", "0", controls=[],
            f=lambda vs, t: 1e-3 * np.sin(w * t), dfdv=lambda vs, t: []))
        ckt.add(Resistor("r1", "a", "0", 50.0))
        res = run_transient(ckt, TransientOptions(dt=10e-12, t_stop=2e-9))
        np.testing.assert_allclose(res.v("a"), -50e-3 * np.sin(w * res.t),
                                   rtol=1e-10, atol=1e-15)
