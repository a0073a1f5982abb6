"""Junction diode with exponential I-V, junction capacitance and limiting.

Used by the receiver reference devices (ESD protection clamps, Section 3 of
the paper) and by the IBIS clamp extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..netlist import Element
from .bank import DeviceBank, index_of, scatter

__all__ = ["DiodeParams", "Diode"]

_EXP_LIM = 80.0  # argument above which exp() is linearized to avoid overflow


@dataclass(frozen=True)
class DiodeParams:
    """Diode model card.

    ``isat``: saturation current (A); ``n``: emission coefficient;
    ``rs``: ohmic series resistance (ohm, 0 disables); ``cj0``: zero-bias
    junction capacitance (F); ``vj``/``mj``: junction potential / grading;
    ``temp_vt``: thermal voltage (V).
    """

    isat: float = 1e-14
    n: float = 1.0
    rs: float = 0.0
    cj0: float = 0.0
    vj: float = 0.7
    mj: float = 0.5
    temp_vt: float = 0.02585

    @property
    def nvt(self) -> float:
        return self.n * self.temp_vt


def diode_current(v: float, p: DiodeParams) -> tuple[float, float]:
    """Return ``(i, di/dv)`` of the intrinsic exponential junction.

    Above ``_EXP_LIM * nvt`` the exponential is continued linearly (value and
    slope) so Newton iterates cannot overflow.
    """
    nvt = p.nvt
    arg = v / nvt
    if arg > _EXP_LIM:
        e = math.exp(_EXP_LIM)
        i = p.isat * (e * (1.0 + (arg - _EXP_LIM)) - 1.0)
        g = p.isat * e / nvt
    else:
        e = math.exp(arg)
        i = p.isat * (e - 1.0)
        g = p.isat * e / nvt
    return i, g


def junction_capacitance(v: float, p: DiodeParams) -> float:
    """Depletion capacitance; forward bias is clamped at ``fc = 0.5 * vj``."""
    if p.cj0 <= 0.0:
        return 0.0
    fc = 0.5 * p.vj
    if v < fc:
        return p.cj0 / (1.0 - v / p.vj) ** p.mj
    # linearized beyond fc (standard SPICE treatment)
    c_fc = p.cj0 / (1.0 - fc / p.vj) ** p.mj
    dcdv = c_fc * p.mj / (p.vj * (1.0 - fc / p.vj))
    return c_fc + dcdv * (v - fc)


class Diode(Element):
    """Two-terminal diode (anode ``a``, cathode ``b``).

    The junction capacitance is handled with the same theta-method companion
    scheme as :class:`~repro.circuit.elements.rlc.Capacitor`, evaluated at the
    bias of the previous accepted step (secant capacitance), which keeps the
    Newton Jacobian simple while remaining charge-accurate for the smooth
    waveforms of interest here.
    """

    nonlinear = True

    def __init__(self, name: str, a: str, b: str,
                 params: DiodeParams | None = None):
        super().__init__(name, [a, b])
        self.params = params or DiodeParams()
        self._v_prev = 0.0   # bias at the last accepted timestep
        self._v_iter = 0.0   # bias at the last Newton iterate (for limiting)
        self._ic_prev = 0.0  # capacitive current history
        self._dt = None
        self._theta = 1.0

    def _vab(self, x) -> float:
        a, b = self.nodes
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        return va - vb

    def init_state(self, x, system) -> None:
        self._v_prev = self._vab(x)
        self._v_iter = self._v_prev
        self._ic_prev = 0.0

    def prepare(self, dt, theta):
        self._dt = dt
        self._theta = theta

    def stamp_nonlinear(self, st, x, t):
        p = self.params
        a, b = self.nodes
        v = self._vab(x)
        # Junction voltage limiting (simplified pnjlim): pull extreme forward
        # excursions back toward the previous Newton iterate so exp() cannot
        # blow up; the limiting point must track the iterate, not the last
        # accepted timestep, or Newton can stall against the limiter.
        v_crit = p.nvt * math.log(p.nvt / (math.sqrt(2.0) * p.isat))
        if v > v_crit and v - self._v_iter > 10.0 * p.nvt:
            v = self._v_iter + 10.0 * p.nvt
            st.limited = True  # convergence must wait for the limiter
        self._v_iter = v
        i, g = diode_current(v, p)
        # Linearization around the (possibly limited) iterate v:
        #   i(v') ~= i + g (v' - v)
        st.conductance(a, b, g)
        ieq = i - g * v
        st.add_b(a, -ieq)
        st.add_b(b, ieq)
        # Companion of the junction capacitance, evaluated at the bias of the
        # previous accepted step (secant treatment).
        if self._dt is not None:
            cj = junction_capacitance(self._v_prev, p)
            if cj > 0.0:
                gc = cj / (self._theta * self._dt)
                st.conductance(a, b, gc)
                ic_hist = gc * self._v_prev \
                    + (1.0 - self._theta) / self._theta * self._ic_prev
                st.inject(a, ic_hist)
                st.inject(b, -ic_hist)

    def update_state(self, x, t, dt, theta):
        v_new = self._vab(x)
        cj = junction_capacitance(self._v_prev, self.params)
        gc = cj / (theta * dt)
        self._ic_prev = gc * (v_new - self._v_prev) \
            - (1.0 - theta) / theta * self._ic_prev
        self._v_prev = v_new
        self._v_iter = v_new

    def current(self, x: np.ndarray) -> float:
        i, _ = diode_current(self._vab(x), self.params)
        return i + self._ic_prev

    @classmethod
    def batch_bank(cls, rows) -> "list[_DiodeBank] | None":
        """One vectorized lockstep bank over every diode of a batch group
        (``rows``: one list of member elements per position).

        Returns ``None`` for a subclass, whose overridden evaluation the
        bank could not honor.
        """
        if any(type(el) is not Diode for row in rows for el in row):
            return None
        return [_DiodeBank(rows)]


def _junction_capacitance(v, cj0, vj, mj):
    """:func:`junction_capacitance` over arrays of biases and cards
    (``cj0 >= 0``)."""
    fc = 0.5 * vj
    cj = cj0 / (1.0 - np.minimum(v, fc) / vj) ** mj
    above = v >= fc
    if above.any():     # linearized beyond fc (standard SPICE treatment)
        c_fc = cj0 / (1.0 - fc / vj) ** mj
        dcdv = c_fc * mj / (vj * (1.0 - fc / vj))
        cj = np.where(above, c_fc + dcdv * (v - fc), cj)
    return cj


class _DiodeBank(DeviceBank):
    """Struct-of-arrays lockstep evaluator over the ``(E, N)`` diode grid.

    Mirrors :meth:`Diode.stamp_nonlinear` per element -- the pnjlim-style
    limiter and the iterate it carries, the ``limited`` flag, the
    linearly continued exponential and, in a transient, the junction
    capacitance's companion (its conductance and history current are
    constant over a step, so they are refreshed once per accepted step).
    Each element is the column ``u = e_a - e_b`` with its conductance on
    the control pair ``(a, b)``; diodes with identical terminals share
    one column.  ``flush`` writes the state back onto the elements.
    """

    def __init__(self, rows):
        super().__init__(rows)
        self.a, self.b = self.nodes(0), self.nodes(1)
        col = np.array([index_of(self.cols, (a, b))
                        for a, b in zip(self.a, self.b)])
        self.terms = [(k, a, b) for k, (a, b) in enumerate(self.cols)]
        self.te = col
        # parallel diodes sum into their shared column
        self.P = None if len(self.cols) == len(col) \
            else scatter(col, len(self.cols))
        self.isat = self.param(lambda el: el.params.isat)
        self.nvt = self.param(lambda el: el.params.nvt)
        self.isat_nvt = self.isat / self.nvt
        self.ten_nvt = self.param(lambda el: 10.0 * el.params.nvt)
        self.v_crit = self.param(lambda el: el.params.nvt * math.log(
            el.params.nvt / (math.sqrt(2.0) * el.params.isat)))
        # a card without capacitance (cj0 <= 0) has cj = 0 at every bias
        self.cj0 = self.param(lambda el: max(el.params.cj0, 0.0))
        self.vj = self.param(lambda el: el.params.vj)
        self.mj = self.param(lambda el: el.params.mj)
        self.load()

    def load(self) -> None:
        """Snapshot the elements' bias and capacitor history."""
        self.v_prev = self.param(lambda el: el._v_prev)
        self.v_iter = self.param(lambda el: el._v_iter)
        self.ic_prev = self.param(lambda el: el._ic_prev)
        first = self.els[0]
        self.dt, self.theta = first._dt, first._theta
        self._companion()

    def _companion(self) -> None:
        """The junction capacitance's conductance and history current
        for the step in progress (none at DC)."""
        if self.dt is None:
            self.gc = self.ic_hist = None
            return
        cj = _junction_capacitance(self.v_prev, self.cj0, self.vj, self.mj)
        self.gc = cj / (self.theta * self.dt)
        self.ic_hist = np.where(
            cj > 0.0, self.gc * self.v_prev
            + (1.0 - self.theta) / self.theta * self.ic_prev, 0.0)

    def init_state(self, X: np.ndarray) -> None:
        """Every element's ``init_state`` at its member's row of ``X``
        (N, size), in the transient the elements were prepared for."""
        self.v_prev = self.terminal(X, self.a) - self.terminal(X, self.b)
        self.v_iter = self.v_prev.copy()
        self.ic_prev = np.zeros_like(self.v_prev)
        first = self.els[0]
        self.dt, self.theta = first._dt, first._theta
        self._companion()

    def update(self, V: np.ndarray, t: float) -> None:
        """Accept the step at the control voltages ``V`` (T, N)."""
        v_new = V[self.te]     # a copy: the state is updated in place
        self.ic_prev = self.gc * (v_new - self.v_prev) \
            - (1.0 - self.theta) / self.theta * self.ic_prev
        self.v_prev = v_new
        self.v_iter = v_new.copy()
        self._companion()

    def linearize(self, V, t, active, idx=None):
        """``(ieq, c, limited)`` of the transient Newton pass."""
        return self._linearize(V, active, idx, self.gc is not None)

    def linearize_dc(self, V, active):
        """``(ieq, c, limited)`` at DC: no junction capacitance."""
        return self._linearize(V, active, None, False)

    def _linearize(self, V, active, idx, companion):
        v_raw = V if self.P is None else V[self.te]
        v_iter = self.members(self.v_iter, idx)
        ten = self.members(self.ten_nvt, idx)
        lim = (v_raw > self.members(self.v_crit, idx)) \
            & (v_raw - v_iter > ten)
        v = np.where(lim, v_iter + ten, v_raw)
        self.commit(self.v_iter, v, active, idx)
        isat = self.members(self.isat, idx)
        arg = v / self.members(self.nvt, idx)
        e = np.exp(np.minimum(arg, _EXP_LIM))
        if arg.max() > _EXP_LIM:
            # continued linearly above the limit, as diode_current does
            e_lin = e * (1.0 + np.maximum(arg - _EXP_LIM, 0.0))
            i = isat * (e_lin - 1.0)
        else:
            i = isat * (e - 1.0)
        g = self.members(self.isat_nvt, idx) * e
        ieq = i - g * v
        if companion:
            ieq -= self.members(self.ic_hist, idx)
            g += self.members(self.gc, idx)
        if self.P is not None:
            ieq, g = self.P @ ieq, self.P @ g
        return ieq, g, lim.any(axis=0)

    def flush(self) -> None:
        """Write bias, limiter iterate and capacitor history back."""
        for e, row in enumerate(self.rows):
            for m, el in enumerate(row):
                el._v_prev = float(self.v_prev[e, m])
                el._v_iter = float(self.v_iter[e, m])
                el._ic_prev = float(self.ic_prev[e, m])
