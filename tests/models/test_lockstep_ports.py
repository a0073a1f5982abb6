"""The macromodel ports on the lockstep engine, against independent
references.

The pw-RBF driver and the parametric receiver have no scalar stamp: a
lone circuit holding one is a lockstep batch of one.  So the references
here are not a second circuit implementation but the models' own
free-run simulators and circuit identities:

* a driver whose port an ideal source forces reproduces
  :meth:`PWRBFDriverModel.simulate` along the forced voltage,
* a forced receiver reproduces :meth:`ParametricReceiverModel.simulate`,
* k identical drivers on one node into R/k are one driver into R,
* on a driver -> line -> receiver bench, the current an ammeter measures
  into each port is the port's model current at the solved voltage (a
  KCL residual over both macromodels at once).

The free-run simulators start their output histories at zero while the
circuit settles them at the DC point; both forget the start within a few
dozen samples of a constant input, so every forcing holds its start
level for longer than that before its first edge.
"""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, CurrentProbe, IdealLine,
                           Resistor, TransientOptions, VoltageSource,
                           run_transient, solve_dcop)
from repro.circuit.waveforms import Trapezoid
from repro.models import (CVReceiverElement, PWRBFDriverElement,
                          ParametricReceiverElement)
from repro.errors import CircuitError
from repro.obs import Tracer, set_tracer

N = 600          # samples per run
SETTLE = 100     # samples before the comparison window (first edge at 160)
EDGE = 4e-9


def forcing(amplitude, ts, delay=EDGE):
    """0 V for ``delay``, then a trapezoid pulse of ``amplitude``."""
    return Trapezoid(amplitude=amplitude, transition=8 * ts,
                     width=2.5e-9, delay=delay)


def test_forced_driver_reproduces_free_run(md2_model):
    ts = md2_model.ts
    ckt = Circuit("forced-driver")
    drv = PWRBFDriverElement.for_pattern("drv", "out", md2_model,
                                         "000110", 1.5e-9, N * ts)
    ckt.add(drv)
    ckt.add(VoltageSource("vf", "out", "0",
                          forcing(0.8 * md2_model.vdd, ts)))
    res = run_transient(ckt, TransientOptions(dt=ts, t_stop=N * ts,
                                              method="damped"))
    assert res.batched
    v, i_port = res.v("out"), -res.i("vf")
    ref = md2_model.simulate(v, drv.wh[:N + 1], drv.wl[:N + 1])
    scale = np.abs(ref).max()
    assert scale > 1e-3     # the driver switches and drives current
    np.testing.assert_allclose(i_port[SETTLE:], ref[SETTLE:], rtol=0,
                               atol=1e-10 * scale)
    assert drv.current(None) == i_port[-1]


def test_forced_receiver_reproduces_free_run(md4_model):
    """Overdriven past the supply, so both protection submodels and the
    ARX part carry current in the window."""
    ts = md4_model.ts
    ckt = Circuit("forced-rx")
    rx = ParametricReceiverElement("rx", "pad", md4_model)
    ckt.add(rx)
    ckt.add(VoltageSource("vf", "pad", "0",
                          forcing(md4_model.vdd + 0.8, ts)
                          + forcing(-0.8, ts, EDGE + 3.5e-9)))
    res = run_transient(ckt, TransientOptions(dt=ts, t_stop=N * ts,
                                              method="damped"))
    assert res.batched
    v, i_port = res.v("pad"), -res.i("vf")
    assert v.min() < -0.5 and v.max() > md4_model.vdd + 0.5
    ref = md4_model.simulate(v)
    scale = np.abs(ref).max()
    np.testing.assert_allclose(i_port[SETTLE:], ref[SETTLE:], rtol=0,
                               atol=1e-10 * scale)
    assert rx.current(None) == i_port[-1]


@pytest.mark.parametrize("k", [2, 3])
def test_k_drivers_on_one_node_are_one_driver(md2_model, k):
    """k identical drivers on one node merge into one lockstep column;
    into R/k and k C they are one driver into R and C."""
    ts = md2_model.ts
    t_stop = 4e-9

    def bench(n_drivers, r, c):
        ckt = Circuit(f"x{n_drivers}")
        for j in range(n_drivers):
            ckt.add(PWRBFDriverElement.for_pattern(
                f"drv{j}", "out", md2_model, "0110", 1e-9, t_stop))
        ckt.add(Resistor("rl", "out", "0", r))
        ckt.add(Capacitor("cl", "out", "0", c))
        return ckt

    opts = TransientOptions(dt=ts, t_stop=t_stop, method="damped")
    one = run_transient(bench(1, 60.0, 1e-12), opts)
    many = run_transient(bench(k, 60.0 / k, k * 1e-12), opts)
    assert one.batched and many.batched
    assert np.ptp(one.v("out")) > 0.5 * md2_model.vdd
    np.testing.assert_allclose(many.v("out"), one.v("out"), rtol=1e-9,
                               atol=1e-9)


def test_kcl_at_both_ports_of_an_rx_bench(md2_model, md4_model):
    """Driver -> 50 ohm line -> receiver with a 200 ohm termination.
    Ammeters in series with each port read the current the solved
    circuit pushes into it; the free-run models, fed the solved port
    voltages, predict the same currents.  The ammeters read each port's
    Newton linearization at the last iterate, which lies within the
    Newton tolerance (1e-6 V) of the solution: with port conductances
    below 1 S, within 1e-8 A of the model current there."""
    ts = md2_model.ts
    n = 560
    ckt = Circuit("rx-kcl")
    drv = PWRBFDriverElement.for_pattern("drv", "dp", md2_model,
                                         "00000000000110100", 0.4e-9,
                                         n * ts)
    ckt.add(drv)
    ckt.add(CurrentProbe("idrv", "out", "dp"))
    ckt.add(IdealLine("tl", "out", "far", 50.0, 0.6e-9))
    ckt.add(CurrentProbe("irx", "far", "pad"))
    ckt.add(ParametricReceiverElement("rx", "pad", md4_model))
    ckt.add(Resistor("rt", "far", "0", 200.0))
    res = run_transient(ckt, TransientOptions(dt=ts, t_stop=n * ts,
                                              method="damped"))
    assert res.batched
    i_drv_ref = md2_model.simulate(res.v("dp"), drv.wh[:n + 1],
                                   drv.wl[:n + 1])
    i_rx_ref = md4_model.simulate(res.v("pad"))
    for probe, ref in (("idrv", i_drv_ref), ("irx", i_rx_ref)):
        scale = np.abs(ref).max()
        assert scale > 1e-4
        np.testing.assert_allclose(res.i(probe)[SETTLE:], ref[SETTLE:],
                                   rtol=0, atol=1e-8)


def test_macromodel_dcop_is_a_lockstep_group_of_one(md2_model, md4_model):
    """``solve_dcop`` of a circuit holding macromodel ports runs no
    scalar stamp (the ports have none) and no serial Newton: its one
    ``transient.dcop`` span is a lockstep group of one."""
    ckt = Circuit("dc")
    ckt.add(PWRBFDriverElement.for_pattern("drv", "out", md2_model, "1",
                                           1e-9, 1e-9))
    ckt.add(IdealLine("tl", "out", "pad", 50.0, 0.5e-9))
    ckt.add(ParametricReceiverElement("rx", "pad", md4_model))
    ckt.add(Resistor("rt", "pad", "0", 1e3))
    tracer = Tracer(collect=True)
    set_tracer(tracer)
    try:
        op = solve_dcop(ckt)
    finally:
        set_tracer(None)
    [dcop] = [sp for sp in tracer.finished if sp.name == "transient.dcop"]
    assert dcop.attrs["members"] == 1 and dcop.attrs["passes"] > 0
    assert "serial" not in dcop.attrs
    assert op.v("pad") == pytest.approx(op.v("out"), abs=1e-9)
    assert op.v("out") > 0.0     # the parked-high driver sources current
    # the lockstep DC has no warm start and no custom ladder: asking for
    # one is an error, not a silent cold solve
    with pytest.raises(CircuitError, match="no x0 or gmin_steps"):
        solve_dcop(ckt, x0=op.x)
    with pytest.raises(CircuitError, match="no x0 or gmin_steps"):
        solve_dcop(ckt, gmin_steps=(1e-3, 0.0))


def test_dcop_reports_each_port_dc_current(md2_model, md4_model):
    """``OperatingPoint.i`` of a macromodel port is its DC current, on a
    fresh circuit and on one whose last transient left another current
    on the element: a driver parked high sources v/R into 50 ohm, and a
    receiver fed through 100 ohm from 1 V draws (1 V - v)/R, both
    within the DC Newton's relative tolerance (1e-4)."""
    ts = md2_model.ts

    def bench(pattern):
        ckt = Circuit("dc-current")
        ckt.add(PWRBFDriverElement.for_pattern("drv", "out", md2_model,
                                               pattern, 1e-9, 2e-9))
        ckt.add(Resistor("rl", "out", "0", 50.0))
        ckt.add(VoltageSource("vs", "in", "0", 1.0))
        ckt.add(Resistor("rs", "in", "pad", 100.0))
        ckt.add(ParametricReceiverElement("rx", "pad", md4_model))
        return ckt

    fresh = solve_dcop(bench("10"))
    assert fresh.v("out") > 0.5 * md2_model.vdd
    assert fresh.i("drv") == pytest.approx(-fresh.v("out") / 50.0,
                                           rel=1e-3)
    assert fresh.i("rx") == pytest.approx((1.0 - fresh.v("pad")) / 100.0,
                                          rel=1e-3)
    used = bench("10")
    run_transient(used, TransientOptions(dt=ts, t_stop=4e-9,
                                         method="damped"))
    assert abs(used["drv"].current(None)) < 1e-3 * abs(fresh.i("drv"))
    again = solve_dcop(used)
    np.testing.assert_array_equal(again.x, fresh.x)
    assert again.i("drv") == fresh.i("drv")
    assert again.i("rx") == fresh.i("rx")


def test_engine_per_circuit_in_the_trace(md2_model, md4_cv):
    """Every lone circuit is a lockstep group of one: a pw-RBF driver
    bench, a C-V receiver bench and a bench holding both each export one
    ``transient.batch`` span over one ``transient.dcop`` span."""
    ts = md2_model.ts
    opts = TransientOptions(dt=ts, t_stop=2e-9, method="damped")

    def bench(driver, receiver):
        ckt = Circuit("lone")
        if driver:
            ckt.add(PWRBFDriverElement.for_pattern("drv", "out", md2_model,
                                                   "01", 1e-9, 2e-9))
            ckt.add(Resistor("rl", "out", "0", 75.0))
        else:
            ckt.add(VoltageSource("vs", "in", "0", forcing(1.0, ts, 0.5e-9)))
            ckt.add(Resistor("rs", "in", "out", 50.0))
        if receiver:
            ckt.add(CVReceiverElement("rx", "out", md4_cv))
        return ckt

    for driver, receiver in ((True, False), (False, True), (True, True)):
        tracer = Tracer(collect=True)
        set_tracer(tracer)
        try:
            res = run_transient(bench(driver, receiver), opts)
        finally:
            set_tracer(None)
        assert res.batched
        assert sorted(sp.name for sp in tracer.finished) == [
            "transient.batch", "transient.dcop"]


def test_pwrbf_driver_into_cv_receiver_kcl(md2_model, md4_cv):
    """A pw-RBF driver and a C-V receiver on one pad, beside a 75 ohm
    load.  Ammeters in series with each port read what the solved
    circuit pushes into it: the currents sum to zero at the pad; the
    driver's is its free-run model current at the solved voltage; the
    receiver's is its static current plus its capacitance's
    theta-method current, recomputed here from the pad voltage.  Both
    within the Newton tolerance's reach (1e-8 A, as above)."""
    ts = md2_model.ts
    n = 400
    ckt = Circuit("drv-cv")
    drv = PWRBFDriverElement.for_pattern("drv", "dp", md2_model,
                                         "0000000110", 0.8e-9, n * ts)
    ckt.add(drv)
    ckt.add(CurrentProbe("idrv", "pad", "dp"))
    ckt.add(CurrentProbe("irx", "pad", "rp"))
    ckt.add(CVReceiverElement("rx", "rp", md4_cv))
    ckt.add(Resistor("rl", "pad", "0", 75.0))
    opts = TransientOptions(dt=ts, t_stop=n * ts, method="damped")
    res = run_transient(ckt, opts)
    assert res.batched
    v = res.v("pad")
    assert np.ptp(v) > 0.5 * md2_model.vdd
    # the load and the engine's gmin (1e-12 S) carry the rest
    kcl = res.i("idrv") + res.i("irx") + v / 75.0 + 1e-12 * v
    assert np.abs(kcl).max() < 1e-13
    i_drv_ref = md2_model.simulate(res.v("dp"), drv.wh[:n + 1],
                                   drv.wl[:n + 1])
    theta = opts.resolved_theta()
    gc = md4_cv.capacitance / (theta * ts)
    ic = np.zeros_like(v)
    for k in range(1, v.size):
        ic[k] = gc * (v[k] - v[k - 1]) - (1.0 - theta) / theta * ic[k - 1]
    i_rx_ref = md4_cv.static_current(v) + ic
    for probe, ref in (("idrv", i_drv_ref), ("irx", i_rx_ref)):
        assert np.abs(ref).max() > 1e-4
        np.testing.assert_allclose(res.i(probe)[SETTLE:], ref[SETTLE:],
                                   rtol=0, atol=1e-8)


def test_no_engine_for_a_macromodel_beside_a_transistor_device(md2_model):
    """A transistor-level driver (its MOSFET bank has no DC
    linearization, so its DC point is serial) beside a pw-RBF port
    (which has no scalar stamp): no DC solver can take the circuit."""
    from repro.devices import MD2, build_driver
    ckt = Circuit("mixed")
    build_driver(ckt, MD2, "ref", "a", initial_state="0")
    ckt.add(Resistor("ra", "a", "0", 50.0))
    ckt.add(PWRBFDriverElement.for_pattern("drv", "b", md2_model, "01",
                                           1e-9, 2e-9))
    ckt.add(Resistor("rb", "b", "0", 50.0))
    with pytest.raises(CircuitError, match="no DC solver"):
        run_transient(ckt, TransientOptions(dt=md2_model.ts, t_stop=2e-9))
