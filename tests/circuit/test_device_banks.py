"""Transistor-level device banks of the grid-batched engine.

A bank must reproduce, for every element of every member, exactly what the
element's own ``stamp_nonlinear`` writes into the MNA system: the bank's
rank-one columns ``u (sum_t c_t w_t)^T`` and right-hand side ``-u ieq``
rebuild the serial stamps, the limiter flags agree, and the limiter state
the bank carries between Newton passes is the element's.
"""

import numpy as np
import pytest

from repro.circuit import (Circuit, Diode, DiodeParams, MOSFET, MOSParams,
                           Resistor, TransientOptions, VoltageSource,
                           run_transient, run_transient_batch)
from repro.circuit.mna import Stamper
from repro.circuit.waveforms import Pulse

SIZE = 10

#: (polarity, d, g, s): distinct terminals, a grounded source and a
#: grounded gate, plus a finger sharing the first element's terminals
MOS_LAYOUT = [("n", 0, 1, 2), ("p", 3, 4, 5), ("n", 6, 7, -1),
              ("p", 8, -1, 9), ("n", 0, 1, 2)]

#: (anode, cathode): grounded cathode, grounded anode, floating
DIODE_LAYOUT = [(0, -1), (-1, 1), (2, 3)]

#: every (vgs, vds) pair of this grid is one member: cutoff, triode,
#: saturation and source/drain exchange in both polarities
GRID = np.linspace(-3.0, 3.0, 7)
PAIRS = [(vgs, vds) for vgs in GRID for vds in GRID]


def _mosfets(rng):
    """The (E, N) MOSFET grid, its members' solutions (N, SIZE) and
    random limiter states (the previous Newton iterate)."""
    rows = []
    for e, (pol, d, g, s) in enumerate(MOS_LAYOUT):
        row = []
        for m in range(len(PAIRS)):
            kp = (80e-6, 220e-6)[pol == "n"] * (0.8 + 0.2 * (m % 3))
            card = MOSParams(kp=kp, vto=0.45 + 0.05 * (m % 3),
                             lam=0.05 + 0.01 * e, w=50e-6 * (1 + e),
                             l=0.25e-6)
            el = MOSFET(f"m{e}", "a", "b", "c", card, polarity=pol)
            el.bind([d, g, s])
            el._vgs_prev, el._vds_prev = rng.uniform(-3.0, 3.0, 2)
            row.append(el)
        rows.append(row)
    X = np.zeros((len(PAIRS), SIZE))
    for m, (vgs, vds) in enumerate(PAIRS):
        for e, (_, d, g, s) in enumerate(MOS_LAYOUT):
            vs = 0.0 if s < 0 else 0.1 * (e + 1)
            if s >= 0:
                X[m, s] = vs
            if g >= 0:
                X[m, g] = vs + vgs
            X[m, d] = vs + vds
    for row in rows:
        for el, x in zip(row[::2], X[::2]):
            # every other member starts at its own voltages: no limiting
            el._vgs_prev, el._vds_prev = el._voltages(x)
    return rows, X


def _diodes(rng, dt=None, theta=0.55):
    """The (E, N) diode grid over reverse, forward and limited biases."""
    biases = np.linspace(-3.0, 1.5, 16)
    rows = []
    for e, (a, b) in enumerate(DIODE_LAYOUT):
        row = []
        for m in range(biases.size):
            card = DiodeParams(isat=1e-14 * (1 + e + m % 3),
                               n=1.0 + 0.05 * e,
                               cj0=(0.0, 0.9e-12, 0.5e-12)[e])
            el = Diode(f"d{e}", "a", "b", card)
            el.bind([a, b])
            el.prepare(dt, theta)
            el._v_prev = float(rng.uniform(-1.0, 0.8))
            el._v_iter = float(rng.uniform(-1.0, 0.8))
            el._ic_prev = float(rng.normal(0.0, 1e-3)) if dt else 0.0
            row.append(el)
        rows.append(row)
    X = np.zeros((biases.size, SIZE))
    for m, v in enumerate(biases):
        X[m, 0] = v
        X[m, 1] = -v
        X[m, 2], X[m, 3] = 0.3 + v, 0.3
    return rows, X


def _controls(bank, X):
    """The bank's control voltages ``(T, N)`` of the solutions ``X``."""
    Xp = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)
    return np.array([Xp[:, a] - Xp[:, b] for _, a, b in bank.terms])


def _from_bank(bank, ieq, c, m):
    """Member ``m``'s MNA stamps ``(A, b)`` rebuilt from a linearization."""
    A, b = np.zeros((SIZE + 1, SIZE + 1)), np.zeros(SIZE + 1)
    for k, (p, n) in enumerate(bank.cols):
        u = np.zeros(SIZE + 1)
        u[p] += 1.0
        u[n] -= 1.0
        w = np.zeros(SIZE + 1)
        for t, (col, a_, b_) in enumerate(bank.terms):
            if col == k:
                w[a_] += c[t, m]
                w[b_] -= c[t, m]
        A += np.outer(u, w)
        b -= u * ieq[k, m]
    return A[:SIZE, :SIZE], b[:SIZE]   # index -1 (ground) is dropped


def _serial(rows, X, m, t=0.0):
    """Member ``m``'s MNA stamps and limiter flag from the elements."""
    A, b = np.zeros((SIZE, SIZE)), np.zeros(SIZE)
    st = Stamper(A, b, SIZE)
    for row in rows:
        row[m].stamp_nonlinear(st, X[m], t)
    return A, b, st.limited


def _assert_matches(rows, bank, X, ieq, c, limited):
    for m in range(X.shape[0]):
        A, b = _from_bank(bank, ieq, c, m)
        A_ref, b_ref, lim_ref = _serial(rows, X, m)
        np.testing.assert_allclose(A, A_ref, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(b, b_ref, rtol=1e-12, atol=1e-18)
        assert bool(limited[m]) == lim_ref


class TestMOSFETBank:
    def test_matches_stamps_over_regions(self):
        rows, X = _mosfets(np.random.default_rng(3))
        [bank] = MOSFET.batch_bank(rows)
        # the finger shares the first element's column and terms
        assert len(bank.cols) == 4 and len(bank.terms) == 8
        active = np.ones(X.shape[0], dtype=bool)
        ieq, c, limited = bank.linearize(_controls(bank, X), 0.0, active)
        assert limited.any() and not limited.all()
        _assert_matches(rows, bank, X, ieq, c, limited)
        # the limiter iterate the bank carries is the elements' own
        E = len(rows)
        for e, row in enumerate(rows):
            np.testing.assert_array_equal(
                bank.prev[e], [el._vgs_prev for el in row])
            np.testing.assert_array_equal(
                bank.prev[E + e], [el._vds_prev for el in row])

    def test_regions_are_covered(self):
        """The grid reaches cutoff, triode, saturation and the source/
        drain exchange of both polarities."""
        rows, X = _mosfets(np.random.default_rng(3))
        seen = set()
        for row in rows[:2]:
            for el, (vgs, vds) in zip(row, PAIRS):
                sign = 1.0 if el.polarity == "n" else -1.0
                vg, vd = sign * vgs, sign * vds
                if vd < 0.0:
                    vg, vd = vg - vd, -vd
                    seen.add((el.polarity, "reverse"))
                vgt = vg - el.params.vto
                seen.add((el.polarity, "cutoff" if vgt <= 0.0 else
                          "triode" if vd < vgt else "saturation"))
        assert seen == {(p, r) for p in "np" for r in
                        ("cutoff", "triode", "saturation", "reverse")}

    def test_inactive_members_keep_their_limiter_state(self):
        rows, X = _mosfets(np.random.default_rng(5))
        [bank] = MOSFET.batch_bank(rows)
        before = bank.prev.copy()
        active = np.arange(X.shape[0]) % 4 == 1     # limited members
        bank.linearize(_controls(bank, X), 0.0, active)
        np.testing.assert_array_equal(bank.prev[:, ~active],
                                      before[:, ~active])
        assert not np.array_equal(bank.prev[:, active], before[:, active])

    def test_member_subset(self):
        """A retry's member subset linearizes like the full group."""
        rows, X = _mosfets(np.random.default_rng(7))
        idx = np.array([3, 11, 40])
        [full] = MOSFET.batch_bank(rows)
        [part] = MOSFET.batch_bank(rows)
        V = _controls(full, X)
        ones = np.ones(X.shape[0], dtype=bool)
        ieq, c, lim = full.linearize(V, 0.0, ones)
        ieq_s, c_s, lim_s = part.linearize(V[:, idx], 0.0,
                                           np.ones(idx.size, dtype=bool),
                                           idx)
        np.testing.assert_array_equal(ieq_s, ieq[:, idx])
        np.testing.assert_array_equal(c_s, c[:, idx])
        np.testing.assert_array_equal(lim_s, lim[idx])
        np.testing.assert_array_equal(part.prev[:, idx], full.prev[:, idx])

    @pytest.mark.parametrize("clamp_first", [True, False],
                             ids=["clamp drain is node 0", "clamp last"])
    def test_grounded_gate_and_source_batch(self, clamp_first):
        """A clamp with gate and source both grounded controls its
        current by 0 V, not by whichever unknown a ground index reads;
        beside a grounded-source NMOS it runs batched and matches
        serial."""
        def bench(r):
            ckt = Circuit("clamped inverter")
            # a depletion clamp conducts at vgs = 0, so a misread vgs
            # shows in its current
            clamp = MOSFET("mclamp", "out", "0", "0",
                           MOSParams(vto=-0.3, w=20e-6), polarity="n")
            if clamp_first:
                ckt.add(clamp)
            ckt.add(VoltageSource("vin", "in", "0",
                                  Pulse(v1=0.0, v2=3.3, delay=0.2e-9,
                                        rise=0.3e-9, width=1e-9)))
            ckt.add(Resistor("rin", "in", "0", 50.0))
            # the last unknown, vdd's branch current, is never 0
            ckt.add(VoltageSource("vdd", "vdd", "0", 3.3))
            ckt.add(Resistor("rl", "vdd", "out", r))
            ckt.add(MOSFET("mn", "out", "in", "0",
                           MOSParams(w=40e-6), polarity="n"))
            if not clamp_first:
                ckt.add(clamp)
            return ckt
        opts = TransientOptions(dt=25e-12, t_stop=3e-9, method="damped")
        loads = (1e3, 2e3)
        batched = run_transient_batch([bench(r) for r in loads], opts)
        for r, res in zip(loads, batched):
            assert res.batched
            ref = run_transient(bench(r), opts)
            np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-9)

    def test_subclass_has_no_bank(self):
        class Custom(MOSFET):
            pass
        el = Custom("m", "a", "b", "c", MOSParams())
        assert MOSFET.batch_bank([[el]]) is None


class TestDiodeBank:
    def test_matches_stamps_at_dc(self):
        rows, X = _diodes(np.random.default_rng(11))
        [bank] = Diode.batch_bank(rows)
        active = np.ones(X.shape[0], dtype=bool)
        ieq, c, limited = bank.linearize_dc(_controls(bank, X), active)
        assert limited.any() and not limited.all()
        _assert_matches(rows, bank, X, ieq, c, limited)
        for e, row in enumerate(rows):
            np.testing.assert_array_equal(bank.v_iter[e],
                                          [el._v_iter for el in row])

    def test_matches_stamps_in_a_transient(self):
        """The junction capacitance's companion, then one accepted step."""
        dt, theta = 25e-12, 0.55
        rows, X = _diodes(np.random.default_rng(13), dt, theta)
        [bank] = Diode.batch_bank(rows)
        active = np.ones(X.shape[0], dtype=bool)
        ieq, c, limited = bank.linearize(_controls(bank, X), 0.0, active)
        _assert_matches(rows, bank, X, ieq, c, limited)
        bank.update(_controls(bank, X), dt)
        for row in rows:
            for el, x in zip(row, X):
                el.update_state(x, dt, dt, theta)
        for e, row in enumerate(rows):
            np.testing.assert_allclose(
                bank.ic_prev[e], [el._ic_prev for el in row], rtol=1e-13,
                atol=1e-20)
            np.testing.assert_array_equal(bank.v_prev[e],
                                          [el._v_prev for el in row])
        # the next step's stamps still agree
        X2 = X * 0.9
        ieq, c, limited = bank.linearize(_controls(bank, X2), 0.0, active)
        _assert_matches(rows, bank, X2, ieq, c, limited)

    @pytest.mark.parametrize("both", [False, True],
                             ids=["one diode", "two diodes"])
    def test_diode_benches_batch(self, both):
        """A diode grounded at its anode, alone or beside a floating
        one, runs batched and matches serial."""
        def bench(r):
            ckt = Circuit("clamps")
            ckt.add(VoltageSource("vs", "in", "0",
                                  Pulse(v1=-2.0, v2=3.0, delay=0.2e-9,
                                        rise=0.3e-9, width=1e-9)))
            ckt.add(Resistor("rs", "in", "out", r))
            if both:
                ckt.add(Diode("dup", "out", "in2",
                              DiodeParams(cj0=0.5e-12)))
                ckt.add(Resistor("r2", "in2", "0", 2.0 * r))
            ckt.add(Diode("ddn", "0", "out", DiodeParams(cj0=0.7e-12)))
            return ckt
        opts = TransientOptions(dt=25e-12, t_stop=3e-9, method="damped")
        batched = run_transient_batch([bench(r) for r in (20.0, 50.0)], opts)
        for r, res in zip((20.0, 50.0), batched):
            assert res.batched
            ref = run_transient(bench(r), opts)
            np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-9)
