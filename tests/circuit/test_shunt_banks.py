"""The IBIS driver and the C-V receiver on their shared one-port bank.

Both are a static characteristic beside a shunt capacitance
(:class:`~repro.circuit.elements.bank.ShuntPort`), evaluated only by
:class:`~repro.circuit.elements.bank.ShuntBank` on the lockstep engine.
The references are independent of that bank:

* a port forced by an ideal source draws the static current at the
  forced voltage plus the theta-method companion current of its
  capacitance, recomputed here by hand from the voltage samples,
* a member's waveforms do not depend on the group it runs in: corners
  or models batched together match their lone runs.

The models are small hand-built tables, so no extraction runs.
"""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, IdealLine, Resistor,
                           TransientOptions, VoltageSource, run_transient,
                           run_transient_batch, solve_dcop)
from repro.circuit.waveforms import Trapezoid
from repro.ibis import IbisCorner, IbisDriverElement, IVTable, Ramp
from repro.models import CVReceiverElement, CVReceiverModel
from repro.obs import Tracer, set_tracer

VDD = 2.5
V = np.linspace(-2.5, 5.0, 16)
OPTS = TransientOptions(dt=25e-12, t_stop=6e-9, method="damped")


def corner(scale: float) -> IbisCorner:
    """A buffer whose stages scale with ``scale`` (a process corner)."""
    clamp = np.where(V < -0.6, 0.05 * (V + 0.6), 0.0)
    return IbisCorner(
        pullup=IVTable(V, -scale * 0.04 * np.tanh(VDD - V)),
        pulldown=IVTable(V, scale * 0.03 * np.tanh(V)),
        power_clamp=IVTable(V, np.where(V > VDD + 0.6,
                                        0.05 * (V - VDD - 0.6), 0.0)),
        gnd_clamp=IVTable(V, clamp),
        ramp=Ramp(dv_dt_rise=scale * 2.5e9, dv_dt_fall=scale * 2e9),
        c_comp=scale * 2e-12, vdd=VDD)


CORNERS = {"slow": corner(0.8), "typ": corner(1.0), "fast": corner(1.25)}


def cv_model(name: str, c: float, g_clamp: float) -> CVReceiverModel:
    i = np.where(V > VDD + 0.5, g_clamp * (V - VDD - 0.5), 0.0) \
        + np.where(V < -0.5, g_clamp * (V + 0.5), 0.0) + 1e-6 * V
    return CVReceiverModel(name=name, capacitance=c, v_grid=V, i_grid=i,
                           vdd=VDD)


CV_MODELS = [cv_model("a", 3e-12, 0.05), cv_model("b", 1.5e-12, 0.12)]


def ibis_bench(which: str) -> Circuit:
    ckt = Circuit(f"ibis-{which}")
    ckt.add(IbisDriverElement.for_pattern("dut", "out", CORNERS[which],
                                          "0110", bit_time=1.5e-9))
    ckt.add(IdealLine("tl", "out", "fe", 60.0, 0.4e-9))
    ckt.add(Capacitor("cl", "fe", "0", 5e-12))
    return ckt


def cv_bench(model: CVReceiverModel) -> Circuit:
    ckt = Circuit(f"cv-{model.name}")
    ckt.add(VoltageSource("vs", "src", "0",
                          Trapezoid(amplitude=4.5, transition=0.4e-9,
                                    width=2e-9, delay=0.5e-9)))
    ckt.add(Resistor("rs", "src", "ne", 40.0))
    ckt.add(IdealLine("tl", "ne", "pad", 50.0, 0.5e-9))
    ckt.add(CVReceiverElement("rx", "pad", model))
    return ckt


def test_ibis_corners_in_one_group_match_their_lone_runs():
    tracer = Tracer(collect=True)
    set_tracer(tracer)
    try:
        group = run_transient_batch([ibis_bench(k) for k in CORNERS], OPTS)
    finally:
        set_tracer(None)
    [span] = [sp for sp in tracer.finished if sp.name == "transient.batch"]
    assert span.attrs["members"] == 3 and span.attrs["models"] == 3
    finals = []
    for which, res in zip(CORNERS, group):
        assert res.batched
        lone = run_transient(ibis_bench(which), OPTS)
        np.testing.assert_allclose(res.x, lone.x, rtol=1e-9, atol=1e-9)
        finals.append(res.v("fe")[-1])
    # every corner drove the line high; on the last falling edge the
    # faster corners have discharged it further
    assert all(np.ptp(res.v("fe")) > 0.8 * VDD for res in group)
    assert finals[0] > finals[1] > finals[2]


def test_cv_receivers_of_two_models_match_their_lone_runs():
    group = run_transient_batch([cv_bench(m) for m in CV_MODELS], OPTS)
    for model, res in zip(CV_MODELS, group):
        assert res.batched
        lone = run_transient(cv_bench(model), OPTS)
        np.testing.assert_allclose(res.x, lone.x, rtol=1e-9, atol=1e-9)
    # the clamps engage, harder on the stiffer model
    peaks = [res.v("pad").max() for res in group]
    assert VDD + 0.5 < peaks[1] < peaks[0]


def theta_companion(v: np.ndarray, c: float, dt: float,
                    theta: float) -> np.ndarray:
    """Capacitor current of the theta method along the samples ``v``,
    starting from no current."""
    gc = c / (theta * dt)
    ic = np.zeros_like(v)
    for k in range(1, v.size):
        ic[k] = gc * (v[k] - v[k - 1]) - (1.0 - theta) / theta * ic[k - 1]
    return ic


@pytest.mark.parametrize("kind", ["ibis", "cv"])
def test_forced_port_draws_static_plus_companion_current(kind):
    """An ideal source forced onto the port: the source current is the
    element's static current at the forced voltage plus its shunt
    capacitance's theta-method current, to rounding."""
    ckt = Circuit("forced")
    if kind == "ibis":
        el = IbisDriverElement.for_pattern("dut", "pad", CORNERS["typ"],
                                           "010", bit_time=1.5e-9)
        wave = Trapezoid(amplitude=VDD + 1.2, transition=0.3e-9,
                         width=1e-9, delay=0.8e-9)
    else:
        el = CVReceiverElement("dut", "pad", CV_MODELS[1])
        wave = Trapezoid(amplitude=VDD + 1.5, transition=0.3e-9,
                         width=1e-9, delay=0.8e-9)
    ckt.add(el)
    ckt.add(VoltageSource("vf", "pad", "0", wave + Trapezoid(
        amplitude=-1.2, transition=0.2e-9, width=0.8e-9, delay=3.5e-9)))
    res = run_transient(ckt, OPTS)
    v, t = res.v("pad"), res.t
    assert v.min() < -1.0 and v.max() > VDD + 1.0
    static = np.array([el.static(vk, tk)[0] for vk, tk in zip(v, t)])
    # the source also feeds the engine's gmin (1e-12 S) at the node
    expected = static + theta_companion(v, el.capacitance, OPTS.dt,
                                        OPTS.resolved_theta()) + 1e-12 * v
    i_port = -res.i("vf")
    assert np.abs(i_port).max() > 1e-2
    np.testing.assert_allclose(i_port, expected, rtol=0, atol=1e-12)
    assert el.current(None) == pytest.approx(i_port[-1], abs=1e-15)


def test_dc_point_of_a_port_with_no_other_dc_path():
    """Into a line and a capacitor, the IBIS port's node has no DC path
    but the driver itself: the DC point is the driver's own zero-current
    voltage, and the element reports that zero current."""
    op = solve_dcop(ibis_bench("typ"))
    assert op.v("out") == pytest.approx(0.0, abs=1e-6)
    assert op.v("fe") == pytest.approx(op.v("out"), abs=1e-9)
    assert op.i("dut") == pytest.approx(0.0, abs=1e-9)
