"""Equivalence of the engine's solver paths, and identities of its
companion groups.

The linear fast path (cached-factorization back-substitution, no Newton)
must reproduce the damped-Newton path on the EMC workhorse benches, and
the Woodbury low-rank ``solve_step`` must match the full
assemble-and-solve on a nonlinear driver circuit.  The companion groups
-- the one implementation of C/L/line history -- are held to circuit
identities instead of a second implementation: two cascaded half-length
lines are one line, parallel capacitors are one capacitor, an uncoupled
coupled line is two scalar lines, and diagonal matrix companions are
scalar ones; each holds serially and on the batched backend.
"""

import numpy as np
import pytest

from repro.circuit import (CapacitanceMatrix, Capacitor, Circuit,
                           CoupledIdealLine, CoupledInductors, IdealLine,
                           Inductor, MNASystem, NonlinearCurrentSource,
                           Resistor, TransientOptions, VoltageSource,
                           run_transient, run_transient_batch, solve_dcop)
from repro.circuit.waveforms import Constant, Pulse
from repro.devices import MD2, build_driver

TOL = 1e-9


def rc_ladder(n=40):
    ckt = Circuit("ladder")
    ckt.add(VoltageSource("vs", "n0", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=2e-9)))
    for k in range(n):
        ckt.add(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", 10.0))
        ckt.add(Capacitor(f"c{k}", f"n{k + 1}", "0", 0.5e-12))
    return ckt


def branin_line():
    ckt = Circuit("line")
    ckt.add(VoltageSource("vs", "src", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=2e-9)))
    ckt.add(Resistor("rs", "src", "ne", 50.0))
    ckt.add(IdealLine("t1", "ne", "fe", 50.0, 1e-9))
    ckt.add(Resistor("rl", "fe", "0", 50.0))
    return ckt


def rlc_tank():
    ckt = Circuit("rlc")
    ckt.add(VoltageSource("vs", "in", "0",
                          Pulse(v2=1.0, rise=0.2e-9, width=3e-9)))
    ckt.add(Resistor("r1", "in", "mid", 25.0))
    ckt.add(Inductor("l1", "mid", "out", 5e-9))
    ckt.add(Capacitor("c1", "out", "0", 2e-12))
    ckt.add(Resistor("r2", "out", "0", 200.0))
    return ckt


L2 = np.array([[300e-9, 60e-9], [60e-9, 300e-9]])
C2 = np.array([[100e-12, -5e-12], [-5e-12, 100e-12]])


def _excite_two_lands(ckt, r=50.0):
    """Pulse into land 1 through 25 ohm; land 2 quiet behind 50 ohm; both
    far ends loaded by ``r`` ohm."""
    ckt.add(VoltageSource("vs", "src", "0",
                          Pulse(v2=1.0, rise=0.1e-9, width=4e-9)))
    ckt.add(Resistor("rs", "src", "ne1", 25.0))
    ckt.add(Resistor("rq", "ne2", "0", 50.0))
    ckt.add(Resistor("rl1", "fe1", "0", r))
    ckt.add(Resistor("rl2", "fe2", "0", r))


def coupled_line_pair():
    """Two cascaded CoupledIdealLine sections (the modal Branin group)."""
    ckt = Circuit("cline")
    _excite_two_lands(ckt)
    ckt.add(CoupledIdealLine("t1", ["ne1", "ne2"], ["m1", "m2"],
                             L2, C2, 0.05))
    ckt.add(CoupledIdealLine("t2", ["m1", "m2"], ["fe1", "fe2"],
                             L2, C2, 0.05))
    return ckt


def coupled_rlgc_ladder(n_sections=8):
    """Lumped coupled ladder: CoupledInductors + CapacitanceMatrix groups."""
    seg = 0.1 / n_sections
    ckt = Circuit("crlgc")
    _excite_two_lands(ckt)
    prev = ["ne1", "ne2"]
    for s in range(n_sections):
        nxt = ["fe1", "fe2"] if s == n_sections - 1 \
            else [f"n{s}_1", f"n{s}_2"]
        ckt.add(CoupledInductors(f"l{s}", [(prev[0], nxt[0]),
                                           (prev[1], nxt[1])], L2 * seg))
        ckt.add(CapacitanceMatrix(f"c{s}", nxt, C2 * seg))
        prev = nxt
    return ckt


PARAMS = [
    (rc_ladder, TransientOptions(dt=25e-12, t_stop=5e-9)),
    (branin_line, TransientOptions(dt=10e-12, t_stop=10e-9)),
    (rlc_tank, TransientOptions(dt=20e-12, t_stop=6e-9, method="damped")),
    (coupled_line_pair, TransientOptions(dt=10e-12, t_stop=10e-9,
                                         method="damped")),
    (coupled_rlgc_ladder, TransientOptions(dt=10e-12, t_stop=10e-9,
                                           method="damped")),
]
IDS = ["rc-ladder", "branin-line", "rlc-tank", "coupled-line",
       "coupled-rlgc"]


def with_zero_current_source(ckt):
    """``ckt`` plus a nonlinear source carrying no current: the circuit
    is unchanged, but it now takes the Newton path."""
    node = ckt.node_name(0)
    ckt.add(NonlinearCurrentSource("gzero", node, "0", [node],
                                   lambda vs, t: 0.0, lambda vs, t: [0.0]))
    return ckt


class TestLinearFastPath:
    @pytest.mark.parametrize("build,opts", PARAMS, ids=IDS)
    def test_matches_newton_path(self, build, opts):
        res_fast = run_transient(build(), opts)
        res_newton = run_transient(with_zero_current_source(build()), opts)
        assert res_fast.fast_path
        assert not res_newton.fast_path
        assert np.max(np.abs(res_fast.x - res_newton.x)) <= TOL

    def test_coupled_netlists_see_real_coupling(self):
        """The quiet land carries crosstalk, so the new groups are not
        silently simulating decoupled lines."""
        res = run_transient(coupled_line_pair(),
                            TransientOptions(dt=10e-12, t_stop=10e-9,
                                             method="damped"))
        assert res.fast_path
        assert res.v("fe1").max() > 0.3
        assert np.abs(res.v("fe2")).max() > 1e-3

    def test_group_state_flushes_back_to_elements(self):
        """Post-run element accessors reflect the group-advanced state."""
        ckt = coupled_rlgc_ladder(4)
        res = run_transient(ckt, TransientOptions(dt=10e-12, t_stop=5e-9,
                                                  method="damped"))
        # CoupledInductors.current reads the flushed branch current
        el = ckt["l0"]
        assert el.current(res.x[-1]) == res.x[-1, el.branches[0]]

    def test_fast_path_not_taken_for_nonlinear(self):
        ckt = Circuit("drv")
        drv = build_driver(ckt, MD2, "d1", "out", initial_state="0")
        drv.drive_pattern("01", 2e-9)
        ckt.add(Resistor("rl", "out", "0", 50.0))
        res = run_transient(ckt, TransientOptions(dt=25e-12, t_stop=3e-9,
                                                  method="damped"))
        assert not res.fast_path
        assert res.v("out").max() > 0.5 * MD2.vdd

    def test_source_table_matches_scalar_rhs(self):
        ckt = rc_ladder(8)
        sys_ = MNASystem(ckt)
        sys_.build_base(25e-12, 0.55)
        t_grid = 25e-12 * np.arange(80)
        table = sys_.build_source_table(t_grid)
        # only the rows a source actually drives are materialized (one
        # voltage-source branch row here), not n_steps x size zeros
        assert len(table.cols) == 1
        dense = table.dense()
        row = np.empty(sys_.size)
        # the scalar RHS of a DC analysis at t is the table's row at t
        for k in (0, 1, 7, 41, 79):
            np.testing.assert_array_equal(sys_.assemble_rhs(t_grid[k]),
                                          dense[k])
            np.testing.assert_array_equal(table.fill_row(k, row), dense[k])


class TestWoodburyStepEquivalence:
    def test_solve_step_matches_full_assembly(self):
        """Low-rank updated solve == dense assemble+solve on a real driver."""
        ckt = Circuit("drv")
        drv = build_driver(ckt, MD2, "d1", "out", initial_state="0")
        drv.drive_pattern("01", 2e-9)
        ckt.add(Resistor("rl", "out", "0", 50.0))
        sys_ = MNASystem(ckt)
        op = solve_dcop(ckt, system=sys_)
        for el in ckt.elements:
            el.init_state(op.x, sys_)
        dt, theta = 25e-12, 0.55
        sys_.build_base(dt, theta)
        t = dt
        b_step = sys_.assemble_rhs(t)
        # iterate at the (unlimited) DC solution: stamps are identical
        # across repeated linearizations there
        A, b, _ = sys_.assemble_iter(op.x, t, b_step)
        x_ref = sys_.solve(A, b)
        x_wb, _ = sys_.solve_step(op.x, t, b_step)
        assert np.max(np.abs(x_wb - x_ref)) <= TOL


def _drive(v2=1.0):
    """A DC bias plus a pulse: the identities hold off the zero state."""
    return Constant(0.5) + Pulse(v2=v2, delay=0.1e-9, rise=0.1e-9,
                                 width=2e-9)


def line_cascade(r, halves):
    """25 ohm into a 1 ns, 50 ohm line -- one piece or two halves --
    loaded by ``r`` ohm."""
    ckt = Circuit("cascade")
    ckt.add(VoltageSource("vs", "src", "0", _drive()))
    ckt.add(Resistor("rs", "src", "ne", 25.0))
    if halves:
        ckt.add(IdealLine("t1", "ne", "mid", 50.0, 0.5e-9))
        ckt.add(IdealLine("t2", "mid", "fe", 50.0, 0.5e-9))
    else:
        ckt.add(IdealLine("t1", "ne", "fe", 50.0, 1e-9))
    ckt.add(Resistor("rl", "fe", "0", r))
    return ckt


def rlc_load(r, n_caps):
    """25 ohm and 5 nH into a 2 pF load -- one capacitor or ``n_caps``
    parallel ones of 2/n_caps pF -- beside ``r`` ohm."""
    ckt = Circuit("rlc-load")
    ckt.add(VoltageSource("vs", "src", "0", _drive()))
    ckt.add(Resistor("rs", "src", "mid", 25.0))
    ckt.add(Inductor("l1", "mid", "out", 5e-9))
    for k in range(n_caps):
        ckt.add(Capacitor(f"c{k}", "out", "0", 2e-12 / n_caps))
    ckt.add(Resistor("rl", "out", "0", r))
    return ckt


#: per-unit-length L and C of two uncoupled lands, and the line length
L_DIAG = np.diag([300e-9, 400e-9])
C_DIAG = np.diag([100e-12, 90e-12])
LENGTH = 0.1


def two_lands(r, coupled):
    """Two driven lands into ``r`` ohm loads: one ``CoupledIdealLine`` with
    diagonal L and C, or two ``IdealLine`` with ``z0 = sqrt(L/C)`` and
    ``td = length * sqrt(L C)``."""
    ckt = Circuit("lands")
    ckt.add(VoltageSource("vs1", "s1", "0", _drive()))
    ckt.add(VoltageSource("vs2", "s2", "0", _drive(v2=-0.7)))
    ckt.add(Resistor("rs1", "s1", "ne1", 25.0))
    ckt.add(Resistor("rs2", "s2", "ne2", 40.0))
    if coupled:
        ckt.add(CoupledIdealLine("t", ["ne1", "ne2"], ["fe1", "fe2"],
                                 L_DIAG, C_DIAG, LENGTH))
    else:
        for k in range(2):
            lk, ck = L_DIAG[k, k], C_DIAG[k, k]
            ckt.add(IdealLine(f"t{k}", f"ne{k + 1}", f"fe{k + 1}",
                              np.sqrt(lk / ck), LENGTH * np.sqrt(lk * ck)))
    ckt.add(Resistor("rl1", "fe1", "0", r))
    ckt.add(Resistor("rl2", "fe2", "0", 2.0 * r))
    return ckt


def diagonal_ladder(r, matrix):
    """A two-land lumped ladder with diagonal L and C per section, as
    ``CoupledInductors``/``CapacitanceMatrix`` or as scalar L and C."""
    seg = LENGTH / 4
    ckt = Circuit("diag")
    _excite_two_lands(ckt, r)
    prev = ["ne1", "ne2"]
    for s in range(4):
        nxt = ["fe1", "fe2"] if s == 3 else [f"n{s}_1", f"n{s}_2"]
        if matrix:
            ckt.add(CoupledInductors(f"l{s}", list(zip(prev, nxt)),
                                     L_DIAG * seg))
            ckt.add(CapacitanceMatrix(f"c{s}", nxt, C_DIAG * seg))
        else:
            for k in range(2):
                ckt.add(Inductor(f"l{s}_{k}", prev[k], nxt[k],
                                 L_DIAG[k, k] * seg))
            for k in range(2):
                ckt.add(Capacitor(f"c{s}_{k}", nxt[k], "0",
                                  C_DIAG[k, k] * seg))
        prev = nxt
    return ckt


IDENTITIES = [
    # (build(r, variant), the two variants, nodes compared, options)
    (line_cascade, (True, False), ["ne", "fe"],
     TransientOptions(dt=10e-12, t_stop=8e-9)),
    (rlc_load, (4, 1), ["mid", "out"],
     TransientOptions(dt=20e-12, t_stop=6e-9, method="damped")),
    (two_lands, (True, False), ["ne1", "ne2", "fe1", "fe2"],
     TransientOptions(dt=10e-12, t_stop=8e-9)),
    (diagonal_ladder, (True, False), ["ne1", "ne2", "fe1", "fe2"],
     TransientOptions(dt=10e-12, t_stop=8e-9, method="damped")),
]
IDENTITY_IDS = ["two-half-lines-are-one", "parallel-caps-are-one",
                "uncoupled-line-is-two-lines", "diagonal-matrices-are-scalar"]


class TestCompanionIdentities:
    """Circuit identities of the companion groups, serial and batched."""

    LOADS = (200.0, 30.0)

    @staticmethod
    def waves(results, nodes):
        return [np.array([res.v(n) for n in nodes]) for res in results]

    @pytest.mark.parametrize("build,variants,nodes,opts", IDENTITIES,
                             ids=IDENTITY_IDS)
    def test_serial(self, build, variants, nodes, opts):
        lhs, rhs = ([run_transient(build(r, v), opts) for r in self.LOADS]
                    for v in variants)
        for a, b in zip(self.waves(lhs, nodes), self.waves(rhs, nodes)):
            assert np.abs(a).max() > 0.1     # the bench is driven
            np.testing.assert_allclose(a, b, rtol=0.0, atol=TOL)

    @pytest.mark.parametrize("build,variants,nodes,opts", IDENTITIES,
                             ids=IDENTITY_IDS)
    def test_batched(self, build, variants, nodes, opts):
        lhs, rhs = (run_transient_batch([build(r, v) for r in self.LOADS],
                                        opts) for v in variants)
        assert all(res.batched for res in lhs + rhs)
        serial = [run_transient(build(r, variants[1]), opts)
                  for r in self.LOADS]
        for a, b, s in zip(self.waves(lhs, nodes), self.waves(rhs, nodes),
                           self.waves(serial, nodes)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=TOL)
            np.testing.assert_allclose(b, s, rtol=0.0, atol=TOL)

    @pytest.mark.parametrize("batched", [False, True])
    def test_ic_mapping_seeds_every_winding(self, batched):
        """Under an ``ic`` mapping an inductor starts with a voltage across
        it: ``CoupledInductors`` seeds it per winding from ``x0``, as
        ``Inductor`` does, so the diagonal-matrix ladder stays the scalar
        ladder (they differed by 5.5 mV while the windings started at 0)."""
        opts = TransientOptions(dt=10e-12, t_stop=8e-9, method="damped",
                                ic={"ne1": 0.4, "n0_1": 0.1})
        nodes = ["ne1", "ne2", "fe1", "fe2"]
        run = (lambda ckts: run_transient_batch(ckts, opts)) if batched \
            else (lambda ckts: [run_transient(c, opts) for c in ckts])
        lhs, rhs = (run([diagonal_ladder(r, matrix) for r in self.LOADS])
                    for matrix in (True, False))
        for a, b in zip(self.waves(lhs, nodes), self.waves(rhs, nodes)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
