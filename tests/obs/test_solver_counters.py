"""Solver counters: DC-op Newton iterations and batch fallback reasons.

``dcop_newton_iters`` counts every Newton iteration the operating-point
solver spends (plain Newton and each homotopy stage) and stays apart
from ``newton_iters``, which counts transient stepping only.
``batch_fallbacks_total{reason}`` counts each group the grid-batched
backend declined, labelled with the reason its span records.
"""

import numpy as np
import pytest

from repro.circuit import (Capacitor, Circuit, Diode, NewtonOptions,
                           Resistor, TransientOptions, VoltageSource,
                           run_transient, run_transient_batch, solve_dcop)
from repro.circuit.mna import MNASystem
from repro.circuit.newton import newton_solve
from repro.circuit.waveforms import Pulse
from repro.errors import ConvergenceError
from repro.obs import MetricsRegistry, get_metrics, set_metrics


@pytest.fixture()
def fresh_metrics():
    """A private process-wide registry, restored after the test."""
    original = get_metrics()
    mine = MetricsRegistry()
    set_metrics(mine)
    try:
        yield mine
    finally:
        set_metrics(original)


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
        results = run_transient_batch(
            [rc_bench(50.0), rc_bench(80.0, with_cap=False)], OPTS)
        assert not any(getattr(r, "batched", False) for r in results)
        assert fresh_metrics.value(
            "batch_fallbacks_total",
            reason="structural signatures differ") == 1
        assert fresh_metrics.total("batch_fallbacks_total") == 1

    def test_batched_group_counts_no_fallback(self, fresh_metrics):
        results = run_transient_batch(
            [rc_bench(50.0), rc_bench(80.0)], OPTS)
        assert all(r.batched for r in results)
        assert fresh_metrics.total("batch_fallbacks_total") == 0

    def test_single_member_and_prometheus_rendering(self, fresh_metrics):
        run_transient_batch([rc_bench(50.0)], OPTS)
        assert fresh_metrics.value("batch_fallbacks_total",
                                   reason="single member") == 1
        text = fresh_metrics.render_prometheus()
        assert 'batch_fallbacks_total{reason="single member"} 1' in text
