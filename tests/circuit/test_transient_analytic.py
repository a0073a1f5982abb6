"""Transient engine vs closed-form solutions of canonical circuits."""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, CurrentSource, Inductor,
                           MNASystem, Resistor, TransientOptions,
                           VoltageSource, run_transient, solve_dcop)
from repro.circuit.waveforms import Constant, Sine, Step
from repro.errors import CircuitError, ConvergenceError


def rc_circuit(r=1e3, c=1e-12, v=1.0, rise=0.0):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vin", "in", "0",
                          Step(v0=0.0, v1=v, t0=0.0, rise=rise)))
    ckt.add(Resistor("r1", "in", "out", r))
    ckt.add(Capacitor("c1", "out", "0", c))
    return ckt


def ramp_response(t, v, tr, tau):
    """First-order lowpass response to a 0->v ramp of duration ``tr``."""
    t = np.asarray(t, dtype=float)
    during = (v / tr) * (t - tau + tau * np.exp(-t / tau))
    v_tr = (v / tr) * (tr - tau + tau * np.exp(-tr / tau))
    after = v + (v_tr - v) * np.exp(-(t - tr) / tau)
    return np.where(t <= tr, during, after)


class TestRCCharging:
    @pytest.mark.parametrize("method", ["trap", "be", "damped"])
    def test_matches_ramp_response(self, method):
        r, c, v = 1e3, 1e-12, 1.0
        tau = r * c
        tr = tau / 10  # finite-rise input, kinks aligned with the grid
        ckt = rc_circuit(r, c, v, rise=tr)
        res = run_transient(ckt, TransientOptions(
            dt=tau / 100, t_stop=5 * tau, method=method, ic="zero"))
        exact = ramp_response(res.t, v, tr, tau)
        tol = 2e-4 if method == "trap" else 2e-2
        assert np.max(np.abs(res.v("out") - exact)) < tol

    def test_trap_second_order_convergence(self):
        """Halving dt must reduce the trapezoidal error by ~4x."""
        r, c, v = 1e3, 1e-12, 1.0
        tau = r * c
        tr = tau / 10
        errs = []
        for n in (50, 100):
            res = run_transient(rc_circuit(r, c, v, rise=tr),
                                TransientOptions(dt=tau / n, t_stop=3 * tau,
                                                 method="trap", ic="zero"))
            exact = ramp_response(res.t, v, tr, tau)
            errs.append(np.max(np.abs(res.v("out") - exact)))
        assert errs[0] / errs[1] > 3.0

    def test_final_value(self):
        res = run_transient(rc_circuit(v=2.5, rise=1e-13), TransientOptions(
            dt=1e-13, t_stop=1e-8, ic="zero"))
        assert res.v("out")[-1] == pytest.approx(2.5, abs=1e-3)


class TestRLCircuit:
    def test_inductor_current_rise(self):
        r, l, v = 50.0, 10e-9, 1.0
        tau = l / r
        tr = tau / 10
        ckt = Circuit("rl")
        ckt.add(VoltageSource("vin", "in", "0", Step(v1=v, rise=tr)))
        ckt.add(Resistor("r1", "in", "mid", r))
        ckt.add(Inductor("l1", "mid", "0", l))
        res = run_transient(ckt, TransientOptions(
            dt=tau / 200, t_stop=5 * tau, ic="zero"))
        exact = ramp_response(res.t, v / r, tr, tau)
        assert np.max(np.abs(res.i("l1") - exact)) < 1e-3 * (v / r)


class TestSeriesRLC:
    def test_underdamped_ringing_frequency(self):
        r, l, c = 1.0, 10e-9, 1e-12
        ckt = Circuit("rlc")
        ckt.add(VoltageSource("vin", "in", "0", Step(v1=1.0, rise=0.0)))
        ckt.add(Resistor("r1", "in", "a", r))
        ckt.add(Inductor("l1", "a", "b", l))
        ckt.add(Capacitor("c1", "b", "0", c))
        w0 = 1.0 / np.sqrt(l * c)
        t_stop = 6 * 2 * np.pi / w0
        res = run_transient(ckt, TransientOptions(
            dt=t_stop / 4000, t_stop=t_stop, ic="zero"))
        v = res.v("b")
        # find the first two maxima above 1.0 and compare their spacing with
        # the damped natural period
        alpha = r / (2 * l)
        wd = np.sqrt(w0 ** 2 - alpha ** 2)
        peaks = [i for i in range(1, len(v) - 1)
                 if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > 1.0]
        assert len(peaks) >= 2
        period = res.t[peaks[1]] - res.t[peaks[0]]
        assert period == pytest.approx(2 * np.pi / wd, rel=0.02)

    def test_energy_decays_with_resistance(self):
        r, l, c = 5.0, 10e-9, 1e-12
        ckt = Circuit("rlc")
        ckt.add(VoltageSource("vin", "in", "0", Constant(0.0)))
        ckt.add(Resistor("r1", "in", "a", r))
        ckt.add(Inductor("l1", "a", "b", l))
        ckt.add(Capacitor("c1", "b", "0", c, ic=1.0))
        res = run_transient(ckt, TransientOptions(
            dt=5e-12, t_stop=50e-9, ic="zero"))
        v = res.v("b")
        assert abs(v[-1]) < 0.05  # rings down


class TestSources:
    def test_current_source_into_resistor(self):
        ckt = Circuit("ir")
        ckt.add(CurrentSource("i1", "0", "out", Constant(1e-3)))
        ckt.add(Resistor("r1", "out", "0", 1e3))
        res = run_transient(ckt, TransientOptions(dt=1e-12, t_stop=1e-10))
        assert res.v("out")[-1] == pytest.approx(1.0, rel=1e-6)

    def test_sine_steady_state_amplitude(self):
        # RC low-pass driven far below its corner: output ~ input
        ckt = Circuit("sin")
        ckt.add(VoltageSource("vin", "in", "0",
                              Sine(amplitude=1.0, freq=1e8)))
        ckt.add(Resistor("r1", "in", "out", 10.0))
        ckt.add(Capacitor("c1", "out", "0", 1e-13))
        res = run_transient(ckt, TransientOptions(dt=1e-11, t_stop=30e-9))
        last = res.v("out")[len(res.t) // 2:]
        assert last.max() == pytest.approx(1.0, abs=0.02)

    def test_vsource_branch_current_sign(self):
        # V source drives 1 V into 1 kOhm: 1 mA flows out of the + terminal,
        # so the SPICE-convention branch current is -1 mA... with our
        # convention (current from a through source to b) the series loop
        # current is +1 mA into the resistor, i.e. the source branch carries
        # -1 mA (absorbing negative power).
        ckt = Circuit("sign")
        ckt.add(VoltageSource("v1", "p", "0", Constant(1.0)))
        ckt.add(Resistor("r1", "p", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.i("v1") == pytest.approx(-1e-3, rel=1e-9)


class TestDCOperatingPoint:
    def test_resistive_divider(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("v1", "top", "0", Constant(3.0)))
        ckt.add(Resistor("r1", "top", "mid", 1e3))
        ckt.add(Resistor("r2", "mid", "0", 2e3))
        op = solve_dcop(ckt)
        assert op.v("mid") == pytest.approx(2.0, rel=1e-9)

    def test_inductor_is_dc_short(self):
        ckt = Circuit("lshort")
        ckt.add(VoltageSource("v1", "a", "0", Constant(1.0)))
        ckt.add(Resistor("r1", "a", "b", 1e3))
        ckt.add(Inductor("l1", "b", "c", 1e-9))
        ckt.add(Resistor("r2", "c", "0", 1e3))
        op = solve_dcop(ckt)
        assert op.v("b") == pytest.approx(op.v("c"), abs=1e-9)
        assert op.i("l1") == pytest.approx(0.5e-3, rel=1e-6)

    def test_capacitor_is_dc_open(self):
        ckt = Circuit("copen")
        ckt.add(VoltageSource("v1", "a", "0", Constant(1.0)))
        ckt.add(Resistor("r1", "a", "b", 1e3))
        ckt.add(Capacitor("c1", "b", "0", 1e-12))
        ckt.add(Resistor("rload", "b", "0", 1e6))
        op = solve_dcop(ckt)
        assert op.v("b") == pytest.approx(1e6 / (1e6 + 1e3), rel=1e-6)


class TestValidation:
    def test_dangling_node_rejected(self):
        ckt = Circuit("bad")
        ckt.add(VoltageSource("v1", "a", "0", Constant(1.0)))
        ckt.add(Resistor("r1", "a", "b", 1e3))  # node b dangles
        with pytest.raises(CircuitError):
            run_transient(ckt, TransientOptions(dt=1e-12, t_stop=1e-10))

    def test_no_ground_rejected(self):
        ckt = Circuit("nognd")
        ckt.add(Resistor("r1", "a", "b", 1e3))
        ckt.add(Resistor("r2", "a", "b", 1e3))
        with pytest.raises(CircuitError):
            run_transient(ckt, TransientOptions(dt=1e-12, t_stop=1e-10))

    def test_duplicate_name_rejected(self):
        ckt = Circuit("dup")
        ckt.add(Resistor("r1", "a", "0", 1e3))
        with pytest.raises(CircuitError):
            ckt.add(Resistor("r1", "a", "0", 2e3))

    def test_bad_dt_rejected(self):
        with pytest.raises(CircuitError):
            run_transient(rc_circuit(), TransientOptions(dt=0.0, t_stop=1e-9))

    def test_ic_dict(self):
        ckt = rc_circuit()
        res = run_transient(ckt, TransientOptions(
            dt=1e-14, t_stop=1e-12, ic={"out": 0.7}))
        assert res.v("out")[0] == pytest.approx(0.7)

    def test_foreign_system_rejected(self):
        """A system built on another instance of the same circuit would
        seed this circuit's capacitors from the DC point and step the
        other's: a 1 V-biased RC dipped to 0.01 V."""
        def biased_rc():
            ckt = Circuit("bias")
            ckt.add(VoltageSource("vin", "in", "0", Constant(1.0)))
            ckt.add(Resistor("r1", "in", "out", 50.0))
            ckt.add(Capacitor("c1", "out", "0", 1e-12))
            return ckt
        opts = TransientOptions(dt=1e-12, t_stop=2e-10)
        with pytest.raises(CircuitError, match="system"):
            run_transient(biased_rc(), opts, system=MNASystem(biased_rc()))
        own = biased_rc()
        res = run_transient(own, opts, system=MNASystem(own))
        np.testing.assert_allclose(res.v("out"), 1.0, atol=1e-9)
