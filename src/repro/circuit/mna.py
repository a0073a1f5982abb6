"""Modified nodal analysis (MNA) system assembly.

The unknown vector is ``x = [v_0 .. v_{n-1}, i_0 .. i_{m-1}]`` where the first
``n`` entries are non-ground node voltages and the remaining ``m`` are branch
currents requested by elements.  Ground has index ``-1`` and is skipped by the
:class:`Stamper`.

The assembly is split into layers that change at different rates, so the hot
Newton loop only rewrites what it must:

* ``A_const``   -- topology + linear element values (stamped once),
* ``A_dyn``     -- companion conductances of reactive elements (re-stamped when
  ``dt`` or the integration method changes),
* per-iteration -- nonlinear linearized stamps on a copy of the base matrix.

Storage is dense: the largest system the figures and examples build has
224 unknowns (the fig. 4 transistor-level testbed).
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularMatrixError
from .netlist import Circuit, Element


class Stamper:
    """Write helper that skips ground (-1) indices.

    Matrix rows/cols 0..n-1 are node KCL equations / node voltages; rows/cols
    n..n+m-1 are branch equations / branch currents.  Branch indices passed to
    the ``*_branch`` helpers are already absolute (offset by ``n``).
    """

    __slots__ = ("A", "b", "n", "limited")

    def __init__(self, A, b, n_nodes: int):
        self.A = A
        self.b = b
        self.n = n_nodes
        self.limited = False  # set by devices when junction limiting engaged

    # -- raw access -------------------------------------------------------------
    def add_A(self, row: int, col: int, val: float) -> None:
        if row >= 0 and col >= 0:
            self.A[row, col] += val

    def add_b(self, row: int, val: float) -> None:
        if row >= 0:
            self.b[row] += val

    # -- common stamp patterns ----------------------------------------------------
    def conductance(self, a: int, bnode: int, g: float) -> None:
        """Two-terminal conductance ``g`` between nodes ``a`` and ``bnode``."""
        if a >= 0:
            self.A[a, a] += g
        if bnode >= 0:
            self.A[bnode, bnode] += g
        if a >= 0 and bnode >= 0:
            self.A[a, bnode] -= g
            self.A[bnode, a] -= g

    def transconductance(self, out_p: int, out_n: int,
                         ctl_p: int, ctl_n: int, g: float) -> None:
        """Current ``g*(v_ctl_p - v_ctl_n)`` flowing out of ``out_p`` into
        ``out_n`` through the element (VCCS pattern)."""
        for row, sign_r in ((out_p, 1.0), (out_n, -1.0)):
            if row < 0:
                continue
            for col, sign_c in ((ctl_p, 1.0), (ctl_n, -1.0)):
                if col >= 0:
                    self.A[row, col] += sign_r * sign_c * g

    def inject(self, node: int, current: float) -> None:
        """Current ``current`` flows from the element INTO ``node``."""
        if node >= 0:
            self.b[node] += current

    def kcl_branch(self, node: int, branch: int, sign: float = 1.0) -> None:
        """Register branch current (absolute index) leaving ``node``."""
        if node >= 0:
            self.A[node, branch] += sign

    def branch_voltage(self, branch: int, a: int, bnode: int,
                       coeff: float = 1.0) -> None:
        """Add ``coeff*(v_a - v_b)`` to the branch equation ``branch``."""
        if a >= 0:
            self.A[branch, a] += coeff
        if bnode >= 0:
            self.A[branch, bnode] -= coeff


class SourceTable:
    """Column-sparse ``(n_t, size)`` table of the time-only RHS.

    Sources touch a handful of rows, so only those columns are stored as
    ``(n_t,)`` arrays -- memory scales with the number of driven rows, not
    with ``n_steps * size``.
    """

    __slots__ = ("n_t", "size", "cols")

    def __init__(self, n_t: int, size: int):
        self.n_t = n_t
        self.size = size
        self.cols: dict[int, np.ndarray] = {}

    def col(self, row: int) -> np.ndarray:
        """The (n_t,) column of ``row``, created zero-filled on first use."""
        c = self.cols.get(row)
        if c is None:
            c = self.cols[row] = np.zeros(self.n_t)
        return c

    def fill_row(self, k: int, out: np.ndarray) -> np.ndarray:
        """Write time-row ``k`` (the source RHS at ``t_grid[k]``) into ``out``."""
        out[:] = 0.0
        for r, vals in self.cols.items():
            out[r] = vals[k]
        return out

    def dense(self) -> np.ndarray:
        """Materialize the full ``(n_t, size)`` array (tests/inspection)."""
        table = np.zeros((self.n_t, self.size))
        for r, vals in self.cols.items():
            table[:, r] = vals
        return table


class StackedSourceTable:
    """Column-sparse stack of ``N`` :class:`SourceTable` objects.

    The grid-batched transient backend advances ``N`` circuits per step;
    their per-member source tables merge into one table whose column for
    ``row`` is an ``(n_t, N)`` array.  ``fill_row`` then writes the source
    RHS of *every* member at time-row ``k`` in one pass.  The members'
    systems may differ in size: the stack is as wide as the largest, and
    a row beyond a member's own size reads 0.
    """

    __slots__ = ("n_t", "n_members", "size", "cols")

    def __init__(self, tables: list):
        if not tables:
            raise ValueError("need at least one SourceTable")
        self.n_t = tables[0].n_t
        self.size = max(t.size for t in tables)
        self.n_members = len(tables)
        if any(t.n_t != self.n_t for t in tables):
            raise ValueError("source tables differ in length; cannot "
                             "stack")
        rows = sorted(set().union(*(t.cols.keys() for t in tables)))
        zero = np.zeros(self.n_t)
        self.cols: dict[int, np.ndarray] = {
            r: np.stack([t.cols.get(r, zero) for t in tables], axis=1)
            for r in rows}

    def fill_row(self, k: int, out: np.ndarray) -> np.ndarray:
        """Write time-row ``k`` for all members into ``out`` (N, size)."""
        out[:] = 0.0
        for r, vals in self.cols.items():
            out[:, r] = vals[k]
        return out


class TableStamper:
    """RHS stamper over a whole time grid at once.

    Elements whose RHS depends only on time add a ``(n_t,)`` array per
    touched row via :meth:`add_b` / :meth:`inject`; the backing
    :class:`SourceTable` stores only the touched columns.
    """

    __slots__ = ("table", "n")

    def __init__(self, table: SourceTable, n_nodes: int):
        self.table = table
        self.n = n_nodes

    def add_b(self, row: int, vals) -> None:
        if row >= 0:
            col = self.table.col(row)
            col += vals

    def inject(self, node: int, vals) -> None:
        if node >= 0:
            col = self.table.col(node)
            col += vals


class TripletStamper(Stamper):
    """Stamper collecting matrix entries as triplets.

    The Woodbury solve path solves against the linear base matrix and
    turns the per-iteration nonlinear triplets into a low-rank correction
    (see :meth:`MNASystem.solve_step`).
    """

    __slots__ = ("rows", "cols", "vals")

    def __init__(self, b, n_nodes: int):
        self.A = None
        self.b = b
        self.n = n_nodes
        self.limited = False
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add_A(self, row, col, val):
        if row >= 0 and col >= 0:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(val)

    def conductance(self, a, bnode, g):
        if a >= 0:
            self.add_A(a, a, g)
        if bnode >= 0:
            self.add_A(bnode, bnode, g)
        if a >= 0 and bnode >= 0:
            self.add_A(a, bnode, -g)
            self.add_A(bnode, a, -g)

    def transconductance(self, out_p, out_n, ctl_p, ctl_n, g):
        for row, sign_r in ((out_p, 1.0), (out_n, -1.0)):
            if row < 0:
                continue
            for col, sign_c in ((ctl_p, 1.0), (ctl_n, -1.0)):
                if col >= 0:
                    self.add_A(row, col, sign_r * sign_c * g)

    def kcl_branch(self, node, branch, sign=1.0):
        if node >= 0:
            self.add_A(node, branch, sign)

    def branch_voltage(self, branch, a, bnode, coeff=1.0):
        if a >= 0:
            self.add_A(branch, a, coeff)
        if bnode >= 0:
            self.add_A(branch, bnode, -coeff)


class MNASystem:
    """Assembles and solves the MNA equations of a bound :class:`Circuit`.

    Serial DC Newton steps (:meth:`solve_step`) solve against the
    constant linear part and apply each iteration's nonlinear stamps as a
    low-rank Sherman-Morrison-Woodbury correction -- a device touches a
    few matrix entries, so an iteration needs no assembled matrix.
    Every base solve is numpy's LAPACK ``gesv`` (a fresh factorization
    per call), the only linear solver the process loads.
    """

    def __init__(self, circuit: Circuit, gmin: float = 1e-12):
        circuit.validate()
        self.circuit = circuit
        self.n_nodes = circuit.n_nodes
        self.gmin = gmin
        # Assign branch-current unknowns.
        m = 0
        for el in circuit.elements:
            if el.n_branch:
                el.assign_branches(range(self.n_nodes + m,
                                         self.n_nodes + m + el.n_branch))
                m += el.n_branch
        self.n_branches = m
        self.size = self.n_nodes + m
        self._nl = [el for el in circuit.elements if el.nonlinear]
        # the sources: the only elements with a right-hand side of their own
        # (companion histories are stamped by the transient's groups)
        self._rhs_els = [el for el in circuit.elements
                         if type(el).stamp_rhs_table
                         is not Element.stamp_rhs_table]
        self._A_base: np.ndarray | None = None
        self._dt = None
        self._theta = None
        self._A_scratch = None        # reusable dense A for assemble_iter
        self._b_scratch = None        # reusable b for the Newton iteration
        self._wb_pattern = None       # (rows_key, cols_key) of nl stamps
        self._wb_R = self._wb_C = None
        self._wb_Z = None             # B^-1 E_R  (n x p)
        self._wb_S = None             # E_C^T B^-1 E_R  (q x p)

    @property
    def lockstep_only(self) -> list:
        """Nonlinear elements with no scalar stamp (all but the MOSFETs
        and diodes): only the lockstep engine of :mod:`repro.circuit.batch`
        takes the DC point of a circuit holding one."""
        return [el for el in self._nl if type(el).stamp_nonlinear
                is Element.stamp_nonlinear]

    @property
    def is_linear(self) -> bool:
        """True when no element is nonlinear: a step is one base-matrix
        solve, with no Newton iteration."""
        return not self._nl

    # -- base matrix (constant + companion) -------------------------------------
    def build_base(self, dt: float | None, theta: float) -> None:
        """(Re)build the linear part of the system matrix.

        ``dt is None`` means DC analysis: reactive companion stamps are skipped
        (capacitors open, inductors short via their branch equation with
        ``L/(theta*dt)`` term zeroed).
        """
        st = Stamper(np.zeros((self.size, self.size)), np.zeros(self.size),
                     self.n_nodes)
        for el in self.circuit.elements:
            el.prepare(dt, theta)
            el.stamp_const(st)
            if dt is not None:
                el.stamp_dynamic(st, dt, theta)
            else:
                dc = getattr(el, "stamp_dc", None)
                if dc is not None:
                    dc(st)
        # gmin from every node to ground keeps the matrix regular when
        # nonlinear devices are cut off.
        for i in range(self.n_nodes):
            st.add_A(i, i, self.gmin)
        self._A_base = st.A
        self._dt = dt
        self._theta = theta
        self._wb_pattern = None

    # -- per-step / per-iteration assembly -----------------------------------------
    def assemble_rhs(self, t: float, source_scale: float = 1.0) -> np.ndarray:
        """The source right-hand side at time ``t``, scaled by
        ``source_scale`` (DC analyses and source stepping).

        One row of a one-point :meth:`build_source_table`, so DC sees
        exactly the values a transient's table holds at ``t``.
        """
        b = self.build_source_table(np.array([t])).fill_row(
            0, np.empty(self.size))
        if source_scale != 1.0:
            b *= source_scale
        return b

    def build_source_table(self, t_grid: np.ndarray) -> SourceTable:
        """Evaluate every vectorized source over the whole time grid at once.

        Returns a :class:`SourceTable` whose row ``k`` is the time-only part
        of the RHS at ``t_grid[k]``.  Waveforms are sampled vectorized (one
        numpy call per source for the entire analysis), so the per-step loop
        never touches source elements again.
        """
        t_grid = np.asarray(t_grid, dtype=float)
        table = SourceTable(t_grid.size, self.size)
        st = TableStamper(table, self.n_nodes)
        for el in self._rhs_els:
            el.stamp_rhs_table(st, t_grid)
        return table

    def assemble_iter(self, x: np.ndarray, t: float, b_step: np.ndarray, *,
                      extra_gmin: float = 0.0, scratch: bool = False):
        """Linearize the nonlinear elements around ``x`` on top of the
        per-step base; returns ``(A, b, limited)``.

        With ``scratch=True`` the returned ``A`` and ``b`` live in
        buffers reused across calls (the Newton loop consumes them before the
        next assembly); callers that hold on to the arrays must use the
        default fresh copies.
        """
        if scratch:
            if self._b_scratch is None:
                self._b_scratch = np.empty(self.size)
            b = self._b_scratch
            np.copyto(b, b_step)
        else:
            b = b_step.copy()
        if scratch:
            if self._A_scratch is None:
                self._A_scratch = np.empty_like(self._A_base)
            A = self._A_scratch
            np.copyto(A, self._A_base)
        else:
            A = self._A_base.copy()
        st = Stamper(A, b, self.n_nodes)
        for el in self._nl:
            el.stamp_nonlinear(st, x, t)
        if extra_gmin > 0.0:
            for i in range(self.n_nodes):
                st.add_A(i, i, extra_gmin)
        return A, b, st.limited

    # -- linear algebra -------------------------------------------------------------
    def solve(self, A, b: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"MNA matrix is singular: {exc}") from exc

    # -- Woodbury fast path -----------------------------------------------------
    def _wb_prepare(self, rows, cols):
        """(Re)build the position-dependent Woodbury caches."""
        R = sorted(set(rows))
        C = sorted(set(cols))
        self._wb_R = {r: k for k, r in enumerate(R)}
        self._wb_C = {c: k for k, c in enumerate(C)}
        E_R = np.zeros((self.size, len(R)))
        for k, r in enumerate(R):
            E_R[r, k] = 1.0
        Z = self.solve(self._A_base, E_R)             # B^-1 E_R
        self._wb_Z = Z
        self._wb_S = Z[C, :]                          # E_C^T B^-1 E_R
        self._wb_pattern = (tuple(R), tuple(C))
        self._wb_Clist = C

    def solve_step(self, x: np.ndarray, t: float, b_step: np.ndarray
                   ) -> tuple[np.ndarray, bool]:
        """One Newton linear solve via the low-rank update path.

        Returns ``(x_new, limited)``.  Falls back to full assembly when
        the correction is ill-conditioned.
        """
        if self._b_scratch is None:
            self._b_scratch = np.empty(self.size)
        b = self._b_scratch
        np.copyto(b, b_step)
        st = TripletStamper(b, self.n_nodes)
        for el in self._nl:
            el.stamp_nonlinear(st, x, t)
        if not st.rows:
            return self.solve(self._A_base, b), st.limited
        pattern = (tuple(sorted(set(st.rows))), tuple(sorted(set(st.cols))))
        if pattern != self._wb_pattern:
            self._wb_prepare(st.rows, st.cols)
        p = len(self._wb_R)
        q = len(self._wb_C)
        M = np.zeros((p, q))
        r_map, c_map = self._wb_R, self._wb_C
        for r, c, v in zip(st.rows, st.cols, st.vals):
            M[r_map[r], c_map[c]] += v
        y = self.solve(self._A_base, b)               # B^-1 b
        K = np.eye(q) + self._wb_S @ M                # I + E_C^T B^-1 E_R M
        try:
            w = np.linalg.solve(K, y[self._wb_Clist])
        except np.linalg.LinAlgError:
            A, bb, limited = self.assemble_iter(x, t, b_step)
            return self.solve(A, bb), st.limited or limited
        x_new = y - self._wb_Z @ (M @ w)
        return x_new, st.limited
