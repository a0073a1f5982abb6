"""Engine-level property and equivalence tests.

Checks physical invariants of the transient engine (KCL residuals,
passivity, convergence reporting) on randomized circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (Capacitor, Circuit, Diode, MNASystem, Resistor,
                           TransientOptions, VoltageSource, run_transient)
from repro.circuit.companion import build_companion_groups
from repro.circuit.waveforms import Pulse, Step
from repro.errors import ConvergenceError


def diode_ladder(n_sections=4, seed=0):
    """Randomized nonlinear RC ladder with clamp diodes."""
    rng = np.random.default_rng(seed)
    ckt = Circuit("prop")
    ckt.add(VoltageSource("vs", "n0", "0",
                          Pulse(v1=0.0, v2=3.0, delay=0.2e-9, rise=0.2e-9,
                                width=2e-9)))
    for k in range(n_sections):
        r = float(rng.uniform(20, 200))
        c = float(rng.uniform(0.2e-12, 2e-12))
        ckt.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", r))
        ckt.add(Capacitor(f"c{k}", f"n{k + 1}", "0", c))
        if k % 2 == 0:
            ckt.add(Diode(f"d{k}", f"n{k + 1}", "0"))
    return ckt


class TestPhysicalInvariants:
    @given(st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_kcl_residual_small(self, seed):
        """The accepted solution satisfies the assembled equations of its
        step: the sources, the companion history of the step before, and
        the diodes linearized at the solution."""
        ckt = diode_ladder(seed=seed)
        sys_ = MNASystem(ckt)
        opts = TransientOptions(dt=20e-12, t_stop=2e-9, method="damped")
        res = run_transient(ckt, opts, system=sys_)
        # replay the accepted steps but the last into fresh history
        x, theta = res.x, opts.resolved_theta()
        for el in ckt.elements:
            el.init_state(x[0], sys_)
        comp = build_companion_groups(ckt.elements, opts.dt, x[0])
        for t, x_k in zip(res.t[1:-1], x[1:-1]):
            comp.update(x_k)
            for el in ckt.elements:
                el.update_state(x_k, t, opts.dt, theta)
        b_step = sys_.assemble_rhs(res.t[-1])
        comp.add_rhs(b_step)
        A, b, _ = sys_.assemble_iter(x[-1], res.t[-1], b_step)
        resid = A @ x[-1] - b
        # Newton converges on |delta_v| < vabstol (1e-6 V); through a stiff
        # forward-biased clamp (g up to ~1e3 S) that bounds the KCL current
        # residual at vabstol * g_max, not at machine precision
        assert np.max(np.abs(resid)) < 1e-3

    def test_passive_network_bounded(self):
        """A passive RC network never exceeds the source range."""
        ckt = Circuit("passive")
        ckt.add(VoltageSource("vs", "n0", "0",
                              Step(v1=1.0, t0=0.1e-9, rise=0.3e-9)))
        prev = "n0"
        for k in range(6):
            ckt.add(Resistor(f"r{k}", prev, f"m{k}", 50.0))
            ckt.add(Capacitor(f"c{k}", f"m{k}", "0", 1e-12))
            prev = f"m{k}"
        res = run_transient(ckt, TransientOptions(dt=10e-12, t_stop=6e-9))
        for k in range(6):
            v = res.v(f"m{k}")
            assert v.min() > -1e-6
            assert v.max() < 1.0 + 1e-6

    def test_monotone_rc_chain_ordering(self):
        """Voltages decay monotonically down a driven RC chain."""
        ckt = Circuit("chain")
        ckt.add(VoltageSource("vs", "n0", "0",
                              Step(v1=1.0, t0=0.0, rise=0.2e-9)))
        prev = "n0"
        for k in range(4):
            ckt.add(Resistor(f"r{k}", prev, f"m{k}", 100.0))
            ckt.add(Capacitor(f"c{k}", f"m{k}", "0", 1e-12))
            prev = f"m{k}"
        res = run_transient(ckt, TransientOptions(dt=10e-12, t_stop=2e-9))
        k_mid = len(res.t) // 2
        vals = [res.v(f"m{k}")[k_mid] for k in range(4)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestConvergenceReporting:
    def test_non_strict_records_warnings(self):
        """With strict=False a failing step is recorded, not raised."""
        from repro.circuit import NewtonOptions
        ckt = diode_ladder(seed=1)
        # absurdly tight iteration budget forces failures
        opts = TransientOptions(dt=20e-12, t_stop=1e-9, method="damped",
                                strict=False,
                                newton=NewtonOptions(max_iter=1))
        res = run_transient(ckt, opts)
        assert len(res.warnings) > 0

    def test_strict_raises(self):
        from repro.circuit import NewtonOptions
        ckt = diode_ladder(seed=1)
        opts = TransientOptions(dt=20e-12, t_stop=1e-9, method="damped",
                                strict=True, newton=NewtonOptions(max_iter=1))
        with pytest.raises(ConvergenceError):
            run_transient(ckt, opts)
