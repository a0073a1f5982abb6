"""Solver counters: DC-op Newton iterations, batch fallback reasons and
the shape of a lockstep group.

``dcop_newton_iters`` counts every Newton iteration the operating-point
solver spends (plain Newton and each homotopy stage) and stays apart
from ``newton_iters``, which counts transient stepping only.
``batch_fallbacks_total{reason}`` counts each group the grid-batched
backend declined, labelled with the reason its span records.  A group
spanning corners and pattern lengths records its distinct models, its
nonlinear ports and the member-steps run past a member's own stop on
its ``transient.batch`` span; ``batch_padded_steps_total`` carries the
padding too, and ``solver_steps`` counts only the steps members needed.
"""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, Diode, IdealLine,
                           NewtonOptions, NonlinearCurrentSource, Resistor,
                           TransientOptions,
                           VoltageSource, run_transient, run_transient_batch,
                           solve_dcop)
from repro.circuit.mna import MNASystem
from repro.circuit.newton import newton_solve
from repro.circuit.waveforms import Pulse
from repro.errors import ConvergenceError
from repro.models import PWRBFDriverElement, ParametricReceiverElement
from repro.obs import Tracer, set_tracer


def diode_clamp(v=2.0):
    """A source driving a diode through a resistor: DC Newton iterates."""
    ckt = Circuit("clamp")
    ckt.add(VoltageSource("vs", "in", "0", v))
    ckt.add(Resistor("r1", "in", "out", 100.0))
    ckt.add(Diode("d1", "out", "0"))
    return ckt


def rc_bench(r, with_cap=True):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vs", "in", "0",
                          Pulse(v1=0.0, v2=1.0, delay=0.1e-9, rise=0.1e-9,
                                width=1e-9)))
    ckt.add(Resistor("rs", "in", "out", 25.0))
    ckt.add(Resistor("rl", "out", "0", r))
    if with_cap:
        ckt.add(Capacitor("cl", "out", "0", 1e-12))
    return ckt


def cascade(halves):
    """25 ohm into a 0.4 ns, 50 ohm line -- one piece or two halves --
    loaded by 150 ohm."""
    ckt = Circuit("cascade")
    ckt.add(VoltageSource("vs", "in", "0",
                          Pulse(v1=0.0, v2=1.0, delay=0.1e-9, rise=0.1e-9,
                                width=1e-9)))
    ckt.add(Resistor("rs", "in", "ne", 25.0))
    if halves:
        ckt.add(IdealLine("t1", "ne", "mid", 50.0, 0.2e-9))
        ckt.add(IdealLine("t2", "mid", "fe", 50.0, 0.2e-9))
    else:
        ckt.add(IdealLine("t1", "ne", "fe", 50.0, 0.4e-9))
    ckt.add(Resistor("rl", "fe", "0", 150.0))
    return ckt


OPTS = TransientOptions(dt=25e-12, t_stop=1e-9)


class TestDcopCounter:
    def test_counts_the_operating_point_iterations(self, fresh_metrics):
        op = solve_dcop(diode_clamp())
        ckt = diode_clamp()
        system = MNASystem(ckt)
        system.build_base(None, 1.0)
        ref = newton_solve(system, np.zeros(system.size), 0.0,
                           NewtonOptions())
        assert ref.converged and ref.iterations > 1
        assert op.v("out") == pytest.approx(ref.x[ckt.node("out")])
        assert fresh_metrics.value("dcop_newton_iters") == ref.iterations
        # transient stepping's counter is untouched by a DC analysis
        assert fresh_metrics.value("newton_iters") == 0

    def test_homotopy_stages_all_count(self, fresh_metrics):
        """A Newton budget too small for plain Newton forces the
        homotopy ladder; every stage's iterations land in the counter."""
        opts = NewtonOptions(max_iter=2)
        with pytest.raises(ConvergenceError):
            solve_dcop(diode_clamp(5.0), options=opts)
        # plain Newton (2) plus at least the first gmin stage
        assert fresh_metrics.value("dcop_newton_iters") > opts.max_iter

    def test_transient_counts_its_dcop_apart(self, fresh_metrics):
        solve_dcop(diode_clamp())
        dc = fresh_metrics.value("dcop_newton_iters")
        fresh_metrics.reset()
        run_transient(diode_clamp(), OPTS)
        assert fresh_metrics.value("dcop_newton_iters") == dc
        assert fresh_metrics.value("newton_iters") > 0


class TestBatchFallbackCounter:
    def test_mixed_topology_fallback(self, fresh_metrics):
        """Members whose nonlinear skeletons differ (a diode in one, none
        in the other) run member by member."""
        results = run_transient_batch([diode_clamp(), rc_bench(80.0)], OPTS)
        assert not any(getattr(r, "batched", False) for r in results)
        assert fresh_metrics.value(
            "batch_fallbacks_total",
            reason="structural signatures differ") == 1
        assert fresh_metrics.total("batch_fallbacks_total") == 1

    def test_declined_group_spans_count_each_member_once(self,
                                                         fresh_metrics):
        """The members of a declined group run as batches of one inside
        the group's span and export no ``transient.batch`` span of their
        own: over all such spans the members sum to the group's size,
        every one a fallback member.  Each member is checked against a
        reference of its own: its lone run, the same waveforms from one
        line of ``td`` as from two cascaded lines of ``td / 2``, and KCL
        at the port of a behavioural source."""
        clamp = rc_bench(60.0, with_cap=False)
        clamp.add(NonlinearCurrentSource(
            "g1", "out", "0", ["out"], lambda vs, t: 1e-2 * np.tanh(vs[0]),
            lambda vs, t: [1e-2 / np.cosh(vs[0]) ** 2]))
        for group in ([diode_clamp(), rc_bench(80.0, with_cap=False)],
                      [diode_clamp(), cascade(True), clamp]):
            tracer = Tracer(collect=True)
            set_tracer(tracer)
            try:
                results = run_transient_batch(group, OPTS)
            finally:
                set_tracer(None)
            batches = [sp for sp in tracer.finished
                       if sp.name == "transient.batch"]
            assert len(batches) == 1
            assert batches[0].attrs["members"] == len(group)
            assert batches[0].attrs["fallback"] == (
                "structural signatures differ")
            assert not any(r.batched for r in results)
            for ckt, res in zip(group, results):
                ref = run_transient(ckt, OPTS)
                np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-12)
        # the diode clamp's lockstep Newton iterations count on the span
        assert batches[0].attrs["newton_iters"] > 0
        one = run_transient(cascade(False), OPTS)
        # the halves' extra node leaks through its gmin (1e-12 S): a few
        # 1e-11 V behind a 50 ohm line
        np.testing.assert_allclose(results[1].v("fe"), one.v("fe"),
                                   rtol=0, atol=1e-10)
        assert np.ptp(one.v("fe")) > 0.5
        v_in, v = results[2].v("in"), results[2].v("out")
        kcl = (v_in - v) / 25.0 - v / 60.0 - 1e-2 * np.tanh(v)
        assert np.ptp(v) > 0.2
        assert np.abs(kcl).max() < 1e-9

    def test_batched_group_counts_no_fallback(self, fresh_metrics):
        results = run_transient_batch(
            [rc_bench(50.0), rc_bench(80.0)], OPTS)
        assert all(r.batched for r in results)
        assert fresh_metrics.total("batch_fallbacks_total") == 0

    def test_single_member_and_prometheus_rendering(self, fresh_metrics):
        """A lone member is a lockstep batch of one, no fallback, and
        follows the RC charging law; a declined group's reason
        renders."""
        [res] = run_transient_batch([rc_bench(50.0)], OPTS)
        assert res.batched
        assert fresh_metrics.total("batch_fallbacks_total") == 0
        # 1 V through 25 || 50 ohm into 1 pF: the pulse's flat top
        # settles to the divider's 2/3 V within tau = 16.7 ps
        top = (res.t > 0.5e-9) & (res.t < 1.1e-9)
        np.testing.assert_allclose(res.v("out")[top], 2.0 / 3.0, atol=1e-9)
        results = run_transient_batch([diode_clamp(), rc_bench(80.0)], OPTS)
        assert not any(r.batched for r in results)
        reason = "structural signatures differ"
        assert fresh_metrics.value("batch_fallbacks_total",
                                   reason=reason) == 1
        text = fresh_metrics.render_prometheus()
        assert f'batch_fallbacks_total{{reason="{reason}"}} 1' in text


class TestMixedGroupSpan:
    """A 3-corner x 2-length group, with and without the receiver."""

    BIT = 0.4e-9
    PATTERNS = ("0110", "0110100")

    def group(self, corners, rx_model=None, td=0.0):
        circuits, steps = [], []
        for c in ("slow", "typ", "fast"):
            model = corners[c]
            for p in self.PATTERNS:
                t_stop = (len(p) + 2) * self.BIT
                ckt = Circuit("mixed")
                ckt.add(PWRBFDriverElement.for_pattern(
                    "drv", "out", model, p, self.BIT, t_stop))
                pad = "out"
                if td > 0.0:
                    ckt.add(IdealLine("tl", "out", "pad", 50.0, td))
                    pad = "pad"
                if rx_model is not None:
                    ckt.add(ParametricReceiverElement("rx", pad, rx_model))
                ckt.add(Resistor("rl", pad, "0", 75.0))
                circuits.append(ckt)
                steps.append(int(round(t_stop / model.ts)))
        return circuits, steps

    def run(self, fresh_metrics, circuits, steps, dt):
        tracer = Tracer(collect=True)
        set_tracer(tracer)
        try:
            run_transient_batch(
                circuits, TransientOptions(dt=dt, t_stop=1e-9,
                                           method="damped", strict=False),
                t_stops=[k * dt for k in steps])
        finally:
            set_tracer(None)
        [span] = [s for s in tracer.finished if s.name == "transient.batch"]
        padded = max(steps) * len(steps) - sum(steps)
        assert padded > 0
        assert span.attrs["members"] == 6
        assert span.attrs["models"] == 3
        assert span.attrs["padded_steps"] == padded
        assert fresh_metrics.value("batch_padded_steps_total") == padded
        assert span.attrs["n_steps"] * 6 == sum(steps)
        assert fresh_metrics.value("solver_steps") == sum(steps)
        assert fresh_metrics.total("batch_fallbacks_total") == 0
        return span

    def test_driver_only_group_is_one_port(self, fresh_metrics,
                                           md2_corners):
        circuits, steps = self.group(md2_corners)
        span = self.run(fresh_metrics, circuits, steps,
                        md2_corners["typ"].ts)
        assert span.attrs["ports"] == 1

    @pytest.mark.parametrize("td, ports", [(0.3e-9, 2), (0.0, 1)])
    def test_receiver_ports(self, fresh_metrics, md2_corners, md4_model,
                            td, ports):
        """A receiver behind a line is a second port; one straight on
        the driver pad merges into the driver's."""
        circuits, steps = self.group(md2_corners, md4_model, td)
        span = self.run(fresh_metrics, circuits, steps,
                        md2_corners["typ"].ts)
        assert span.attrs["ports"] == ports
