"""Level-1 (square-law) MOSFET for the transistor-level reference devices.

The paper estimates its macromodels from detailed transistor-level models of
commercial buffers.  We reproduce that substrate with a classic SPICE level-1
device: square-law channel with channel-length modulation, plus linear
gate-source/gate-drain overlap capacitors handled by the device builders in
:mod:`repro.devices` (keeping the element itself purely resistive makes the
Newton Jacobian exact).

Sign conventions follow SPICE: for NMOS, positive ``ids`` flows drain->source;
PMOS mirrors all polarities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...errors import CircuitError
from ..netlist import Element
from .bank import DeviceBank, index_of, scatter

__all__ = ["MOSParams", "MOSFET", "nmos_ids", "scale_corner"]


@dataclass(frozen=True)
class MOSParams:
    """Level-1 model card (positive quantities also for PMOS).

    ``kp``: process transconductance (A/V^2, already includes mobility*Cox);
    ``vto``: threshold voltage magnitude (V); ``lam``: channel-length
    modulation (1/V); ``w``/``l``: geometry (m).
    """

    kp: float = 100e-6
    vto: float = 0.5
    lam: float = 0.05
    w: float = 10e-6
    l: float = 0.35e-6

    @property
    def beta(self) -> float:
        return self.kp * self.w / self.l


def nmos_ids(vgs: float, vds: float, p: MOSParams) -> tuple[float, float, float]:
    """Return ``(ids, gm, gds)`` of the level-1 NMOS equations.

    Handles ``vds < 0`` by source/drain exchange symmetry so the device is
    usable in pass-gate configurations.
    """
    if vds < 0.0:
        # exchange drain and source: ids(vgs, vds) = -ids(vgd, -vds)
        ids, gm, gds = nmos_ids(vgs - vds, -vds, p)
        # derivative bookkeeping for the swap:
        #   i = -f(vgs - vds, -vds)
        #   di/dvgs = -f_vgs
        #   di/dvds = f_vgs + f_vds
        return -ids, -gm, gm + gds
    vgt = vgs - p.vto
    if vgt <= 0.0:
        return 0.0, 0.0, 0.0
    beta = p.beta
    clm = 1.0 + p.lam * vds
    if vds < vgt:  # triode
        ids = beta * (vgt * vds - 0.5 * vds * vds) * clm
        gm = beta * vds * clm
        gds = beta * (vgt - vds) * clm + beta * (vgt * vds - 0.5 * vds * vds) * p.lam
    else:  # saturation
        ids = 0.5 * beta * vgt * vgt * clm
        gm = beta * vgt * clm
        gds = 0.5 * beta * vgt * vgt * p.lam
    return ids, gm, gds


def scale_corner(p: MOSParams, corner: str) -> MOSParams:
    """Return process-corner variants of a model card.

    ``slow``: -20% kp, +15% vto; ``fast``: +20% kp, -15% vto; ``typ``
    unchanged.  These spreads emulate the slow/typical/fast data sets that the
    74LVC244 IBIS file provides in the paper's Example 1.
    """
    if corner in ("typ", "typical"):
        return p
    if corner == "slow":
        return replace(p, kp=p.kp * 0.8, vto=p.vto * 1.15)
    if corner == "fast":
        return replace(p, kp=p.kp * 1.2, vto=p.vto * 0.85)
    raise CircuitError(f"unknown corner {corner!r}")


class MOSFET(Element):
    """Three-terminal (d, g, s) level-1 MOSFET; bulk is implied at source.

    ``polarity``: ``"n"`` or ``"p"``.  The gate draws no DC current (gate
    capacitance is added externally as linear capacitors by device builders).
    """

    nonlinear = True

    def __init__(self, name: str, d: str, g: str, s: str,
                 params: MOSParams, polarity: str = "n"):
        super().__init__(name, [d, g, s])
        if polarity not in ("n", "p"):
            raise CircuitError(f"{name}: polarity must be 'n' or 'p'")
        self.params = params
        self.polarity = polarity
        self._vgs_prev = 0.0
        self._vds_prev = 0.0

    def _voltages(self, x) -> tuple[float, float]:
        d, g, s = self.nodes
        vd = x[d] if d >= 0 else 0.0
        vg = x[g] if g >= 0 else 0.0
        vs = x[s] if s >= 0 else 0.0
        return vg - vs, vd - vs

    def init_state(self, x, system) -> None:
        self._vgs_prev, self._vds_prev = self._voltages(x)

    @staticmethod
    def _limit(v_new: float, v_old: float, step: float = 0.6) -> float:
        """Damp large voltage excursions between Newton iterates."""
        if v_new > v_old + step:
            return v_old + step
        if v_new < v_old - step:
            return v_old - step
        return v_new

    def evaluate(self, vgs: float, vds: float) -> tuple[float, float, float]:
        """Return ``(id, gm, gds)`` in terminal polarity (drain current)."""
        if self.polarity == "n":
            return nmos_ids(vgs, vds, self.params)
        ids, gm, gds = nmos_ids(-vgs, -vds, self.params)
        return -ids, gm, gds

    def stamp_nonlinear(self, st, x, t):
        d, g, s = self.nodes
        vgs_raw, vds_raw = self._voltages(x)
        vgs = self._limit(vgs_raw, self._vgs_prev)
        vds = self._limit(vds_raw, self._vds_prev, step=1.0)
        if vgs != vgs_raw or vds != vds_raw:
            st.limited = True  # convergence must wait for the limiter
        self._vgs_prev, self._vds_prev = vgs, vds
        ids, gm, gds = self.evaluate(vgs, vds)
        # Linearized drain current flowing d -> s inside the device:
        #   i ~= ids + gm*(vgs' - vgs) + gds*(vds' - vds)
        st.transconductance(d, s, g, s, gm)
        st.conductance(d, s, gds)
        ieq = ids - gm * vgs - gds * vds
        st.add_b(d, -ieq)
        st.add_b(s, ieq)

    def update_state(self, x, t, dt, theta):
        self._vgs_prev, self._vds_prev = self._voltages(x)

    def current(self, x: np.ndarray) -> float:
        vgs, vds = self._voltages(x)
        return self.evaluate(vgs, vds)[0]

    @classmethod
    def batch_bank(cls, rows) -> "list[_MOSFETBank] | None":
        """One vectorized lockstep bank over every MOSFET of a batch
        group (``rows``: one list of member elements per position).

        Returns ``None`` for a subclass, whose overridden evaluation the
        bank could not honor.
        """
        if any(type(el) is not MOSFET for row in rows for el in row):
            return None
        return [_MOSFETBank(rows)]


class _MOSFETBank(DeviceBank):
    """Struct-of-arrays lockstep evaluator over the ``(E, N)`` MOSFET grid.

    Mirrors :meth:`MOSFET.stamp_nonlinear` per element -- the vgs/vds
    limiters and the iterate they carry, the ``limited`` flag, the
    level-1 equations with source/drain exchange, polarity -- in one
    numpy pass over every element of every member.  Each element is the
    column ``u = e_d - e_s`` with ``gm`` on the control pair ``(g, s)``
    and ``gds`` on ``(d, s)``; elements with identical terminals share
    one column.  The limiters act on the stacked ``(2E, n)`` control
    voltages ``[vgs; vds]``.  ``flush`` writes the limiter state back
    onto the elements.

    The bank has no DC linearization: a transistor-level bench's DC base
    matrix (capacitors open) leaves an inverter chain's drain nodes with
    only ``gmin`` (cond ~ 1e12), so a low-rank DC update from it rounds
    at the 1e-5 V level, serially as well.  Its members take the serial
    operating point (see :func:`repro.circuit.batch._operating_points`),
    whose exact digits the models estimated from these benches inherit.
    """

    def __init__(self, rows):
        super().__init__(rows)
        self.d, self.g, self.s = (self.nodes(k) for k in range(3))
        col, tg, td = [], [], []
        for d, g, s in zip(self.d, self.g, self.s):
            k = index_of(self.cols, (d, s))
            col.append(k)
            tg.append(index_of(self.terms, (k, g, s)))
            td.append(index_of(self.terms, (k, d, s)))
        self.E = len(rows)
        self.t_ctl = np.array(tg + td)     # [vgs; vds] rows of V
        self.P_col = scatter(np.array(col), len(self.cols))
        self.P_term = scatter(self.t_ctl, len(self.terms))
        #: limiter step per stacked row: 0.6 V on vgs, 1 V on vds
        self.step = np.repeat([[0.6], [1.0]], self.E, axis=0)
        sign = self.param(lambda el: 1.0 if el.polarity == "n" else -1.0)
        self.sign = np.concatenate([sign, sign])
        self.vto = self.param(lambda el: el.params.vto)
        self.lam = self.param(lambda el: el.params.lam)
        self.beta = self.param(lambda el: el.params.beta)
        self.beta_lam = self.beta * self.lam
        self.load()

    def load(self) -> None:
        """Snapshot the elements' limiter state."""
        self.prev = np.concatenate([self.param(lambda el: el._vgs_prev),
                                    self.param(lambda el: el._vds_prev)])

    def init_state(self, X: np.ndarray) -> None:
        """Every element's ``init_state`` at its member's row of ``X``
        (N, size)."""
        vs = self.terminal(X, self.s)
        self.prev = np.concatenate([self.terminal(X, self.g) - vs,
                                    self.terminal(X, self.d) - vs])

    def update(self, V: np.ndarray, t: float) -> None:
        """Accept the step: the limiters restart from the accepted
        control voltages ``V`` (T, N)."""
        self.prev = V[self.t_ctl]

    def linearize(self, V, t, active, idx=None):
        """``(ieq, c, limited)`` of a transient Newton pass."""
        raw = V[self.t_ctl]
        prev = self.members(self.prev, idx)
        v = np.minimum(np.maximum(raw, prev - self.step), prev + self.step)
        limited = (v != raw).any(axis=0)
        self.commit(self.prev, v, active, idx)
        ids, G = self._evaluate(v, idx)
        E = self.E
        Gv = G * v
        ieq = ids - Gv[:E] - Gv[E:]
        return self.P_col @ ieq, self.P_term @ G, limited

    def _evaluate(self, v, idx):
        """:meth:`MOSFET.evaluate` (via :func:`nmos_ids`) per element at
        the stacked terminal voltages ``v`` = ``[vgs; vds]``: the drain
        currents ``(E, n)`` and the stacked ``[gm; gds]`` (2E, n)."""
        E = self.E
        sign = self.members(self.sign, idx)
        vn = sign * v                   # n-channel frame
        vgs, vds = vn[:E], vn[E:]
        rev = vds < 0.0                 # source/drain exchange
        vd = np.abs(vds)
        # cut off at vgt <= 0: vgt = m = 0 zeroes every output
        vgt = np.maximum(vgs - np.minimum(vds, 0.0)
                         - self.members(self.vto, idx), 0.0)
        # triode below vd = vgt, saturation above: m = min(vgt, vd)
        m = np.minimum(vgt, vd)
        q = m * (vgt - 0.5 * m)
        bc = self.members(self.beta, idx) \
            * (1.0 + self.members(self.lam, idx) * vd)
        ids = bc * q
        G = np.empty_like(v)
        gm, gds = G[:E], G[E:]
        np.multiply(bc, m, out=gm)
        np.multiply(bc, vgt - m, out=gds)
        gds += q * self.members(self.beta_lam, idx)
        sign = sign[:E]
        if rev.any():
            # i = -f(vgs - vds, -vds): di/dvgs = -f_vgs,
            # di/dvds = f_vgs + f_vds
            flip = np.where(rev, -1.0, 1.0)
            gds += gm * rev
            gm *= flip
            sign = sign * flip
        ids *= sign
        return ids, G

    def flush(self) -> None:
        """Write the limiter state back onto the elements."""
        E = self.E
        for e, row in enumerate(self.rows):
            for m, el in enumerate(row):
                el._vgs_prev = float(self.prev[e, m])
                el._vds_prev = float(self.prev[E + e, m])
