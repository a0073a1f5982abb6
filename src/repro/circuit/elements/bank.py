"""Shared plumbing of the vectorized element banks.

The grid-batched transient backend (:mod:`repro.circuit.batch`) evaluates
every nonlinear element class of a group through one vectorized *bank*:
:class:`DeviceBank` is the base of the transistor-level devices' banks,
:class:`NodeBank` that of the one-port macromodels' banks, and
:class:`ShuntBank` the one bank of every :class:`ShuntPort` (a static
port characteristic beside a shunt capacitance: the IBIS driver and the
C-V receiver).
A device bank holds the ``(E, N)`` grid of a class's elements -- ``E``
positions in the bench, ``N`` members -- with per-element parameters and
limiter state as ``(E, N)`` arrays, so process corners differ only in
parameters.  Each device is a rank-one update of the linear network: a
current along ``u = e_p - e_n`` whose linearization is ``ieq + sum_t c_t
v_t`` over control voltages ``v_t = x_a - x_b`` (see
:class:`repro.circuit.batch._Ports`).  Devices with identical terminals
(the fingers of a driver stage) share one column and its terms.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Element

__all__ = ["DeviceBank", "NodeBank", "ShuntBank", "ShuntPort", "index_of",
           "one_port", "pick", "scatter"]


def index_of(items: list, item) -> int:
    """Position of ``item`` in ``items``, appended when new."""
    if item not in items:
        items.append(item)
    return items.index(item)


def pick(M: np.ndarray, idx, axis: int) -> np.ndarray:
    """``M.take(idx, axis)`` where node index -1 (ground) picks zeros."""
    pad = np.zeros_like(M.take([0], axis))
    return np.concatenate([M, pad], axis).take(idx, axis)


def scatter(index: np.ndarray, n: int) -> np.ndarray:
    """One-hot ``(n, len(index))`` matrix summing entries into slots."""
    return (index[None, :] == np.arange(n)[:, None]).astype(float)


def one_port(els) -> bool:
    """Whether every element sits on the same ungrounded node."""
    node = els[0].nodes[0]
    return node >= 0 and all(el.nodes[0] == node for el in els)


class DeviceBank:
    """Base of the device banks: the element grid and its bookkeeping.

    Subclasses set ``cols`` (the ``u`` node pairs) and ``terms`` (``(col,
    a, b)`` control pairs) and implement ``linearize``,
    ``linearize_dc``, ``init_state``, ``update``, ``load`` and ``flush``.
    """

    def __init__(self, rows):
        self.rows = [list(row) for row in rows]
        self.els = [el for row in self.rows for el in row]
        self.cols: list = []
        self.terms: list = []

    @property
    def n_models(self) -> int:
        """Distinct parameter sets over the grid."""
        return len({el.params for el in self.els})

    def param(self, f) -> np.ndarray:
        """``(E, N)`` array of ``f(element)`` over the grid."""
        return np.array([[float(f(el)) for el in row] for row in self.rows])

    def nodes(self, k: int) -> np.ndarray:
        """``(E,)`` node index of terminal ``k`` per position."""
        return np.array([row[0].nodes[k] for row in self.rows])

    @staticmethod
    def terminal(X: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """``(E, N)`` voltages of ``nodes`` in the members' solutions
        ``X`` (N, size); ground (-1) reads 0."""
        return pick(X, nodes, 1).T

    @staticmethod
    def commit(state: np.ndarray, new: np.ndarray, active: np.ndarray,
               idx) -> None:
        """Store ``new`` into the ``active`` members of ``state``
        (members ``idx`` of it, all when None)."""
        if idx is None:
            np.copyto(state, new, where=active)
        else:
            state[:, idx[active]] = new[:, active]

    @staticmethod
    def members(arr: np.ndarray, idx) -> np.ndarray:
        """Members ``idx`` of an ``(E, N)`` array (all when None)."""
        return arr if idx is None else arr[:, idx]


class NodeBank:
    """Base of the one-port banks: a current into ``node`` (to ground).

    Subclasses set ``node`` and provide ``eval(V, t, idx)`` and
    ``eval_dc(V, active)`` returning the port current and conductance
    ``(i, g)`` at port voltages ``V`` (n,), ``accept(V, t)``, which
    advances their histories at the accepted voltages (N,), and
    ``flush()``, which writes the port currents ``_last_i`` (N,) back
    onto their elements.  This base
    turns them into the rank-one form of
    :class:`repro.circuit.batch._Ports`: one column and
    one control term, ``(1, n)`` arrays, ``ieq = i - g V`` and ``c = g``.
    At DC the term is ``g - g_dc``, where ``g_dc`` is a nominal port
    conductance the elements stamp into the DC base matrix.
    """

    g_dc = 0.0

    @property
    def cols(self) -> list:
        """The one column: a current from ``node`` to ground."""
        return [(self.node, -1)]

    @property
    def terms(self) -> list:
        """The one control term: the node voltage."""
        return [(0, self.node, -1)]

    def linearize(self, V, t, active, idx=None):
        """``(ieq, g, None)`` at port voltages ``V`` (1, n) of members
        ``idx`` (all when None) at time ``t``; ``eval`` is stateless
        within a step, so ``active`` is not needed."""
        v = V[0]
        i, g = self.eval(v, t, idx)
        return (i - g * v)[None], g[None], None

    def linearize_dc(self, V, active):
        """``(ieq, g, None)`` at the DC operating point; ``eval_dc``
        advances its ``active`` members' state."""
        v = V[0]
        i, g = self.eval_dc(v, active)
        return (i - g * v)[None], (g - self.g_dc)[None], None

    def update(self, V, t):
        """Accept the step at the port voltages ``V`` (1, N)."""
        self.accept(V[0], t)

    def flush_dc(self, V):
        """Write each member's DC port current at the solved port
        voltages ``V`` (1, N) back onto its element; ``eval_dc`` with no
        member active leaves the bank's state as it is."""
        v = V[0]
        self._last_i = self.eval_dc(v, np.zeros(v.size, dtype=bool))[0]
        self.flush()


class ShuntPort(Element):
    """A one-port element: a static characteristic beside a shunt
    capacitance ``capacitance`` (F), the load-line view of a buffer.

    Subclasses implement ``static(v, t)``, the port current (into the
    element) and conductance ``(i, g)`` of the characteristic at port
    voltage ``v`` and time ``t``.  Only :class:`ShuntBank` evaluates the
    element, on the lockstep engine of :mod:`repro.circuit.batch`; it
    adds the capacitor's theta-method companion and writes back the
    port current of the last accepted step (:meth:`current`).  The DC
    base matrix carries a nominal port conductance :attr:`G_DC` that the
    bank takes back out, so a port whose node has no other DC path (a
    driver into a line and a capacitor) does not leave the DC matrix
    singular up to ``gmin``.
    """

    nonlinear = True

    #: nominal port conductance of the DC base matrix (S)
    G_DC = 1e-3

    def __init__(self, name: str, port: str, model, capacitance: float):
        super().__init__(name, [port])
        self.model = model
        self.capacitance = float(capacitance)
        self._dt = None
        self._theta = 1.0
        self._last_i = 0.0

    def prepare(self, dt, theta):
        self._dt = dt
        self._theta = theta

    def stamp_dc(self, st) -> None:
        st.conductance(self.nodes[0], -1, self.G_DC)

    def static(self, v: float, t: float) -> tuple[float, float]:
        raise NotImplementedError

    def current(self, x) -> float:
        """Port current (into the element) at the last accepted step, or
        at the DC operating point after a DC analysis."""
        return self._last_i

    @classmethod
    def batch_bank(cls, rows) -> "list[ShuntBank] | None":
        """One :class:`ShuntBank` per row (a position in the bench, over
        the members); ``None`` when a row's elements sit on different or
        grounded ports."""
        rows = [list(els) for els in rows]
        if not all(one_port(els) for els in rows):
            return None
        return [ShuntBank(els) for els in rows]


class ShuntBank(NodeBank):
    """Lockstep evaluator over N :class:`ShuntPort` elements on one node.

    Each member's static ``(i, g)`` comes from its own element; the bank
    adds the theta-method companion of the shunt capacitances, ``i_c =
    gc (v - v_prev) - (1 - theta) / theta i_c,prev`` with ``gc = C /
    (theta dt)``, whose history term is constant over a step and so is
    refreshed once per accepted step.  At DC the capacitors are open.
    """

    g_dc = ShuntPort.G_DC

    def __init__(self, els: list):
        self.els = els
        self.node = els[0].nodes[0]
        self.n_models = len({id(el.model) for el in els})
        self.c = np.array([el.capacitance for el in els])
        self._last_i = np.zeros(len(els))
        self._t = None      # time of the last accepted step

    def _static(self, V: np.ndarray, t: float, idx=None):
        """Members' static ``(i, g)`` at port voltages ``V``."""
        els = self.els if idx is None else [self.els[m] for m in idx]
        i, g = np.array([el.static(v, t)
                         for el, v in zip(els, V.tolist())]).T
        return i, g

    def init_state(self, X: np.ndarray) -> None:
        """Settle the capacitors at each member's port voltage in its
        row of ``X`` (N, size), with no current, for the transient the
        elements were prepared for."""
        first = self.els[0]
        self.gc = self.c / (first._theta * first._dt)
        self.k = (1.0 - first._theta) / first._theta
        self.v_prev = X[:, self.node].copy()
        self.ic_prev = np.zeros_like(self.v_prev)
        self.hist = self.gc * self.v_prev

    def eval(self, V, t, idx=None):
        """Port current and conductance of members ``idx`` (all when
        None): the static characteristic plus the capacitor's companion."""
        i, g = self._static(V, t, idx)
        gc, hist = (self.gc, self.hist) if idx is None \
            else (self.gc[idx], self.hist[idx])
        return i + gc * V - hist, g + gc

    def eval_dc(self, V, active):
        """The static characteristic at ``t = 0``; stateless."""
        return self._static(V, 0.0)

    def accept(self, V: np.ndarray, t: float) -> None:
        """Accept the step: advance every capacitor's history."""
        self.ic_prev = self.gc * (V - self.v_prev) - self.k * self.ic_prev
        self.v_prev = V.copy()
        self.hist = self.gc * self.v_prev + self.k * self.ic_prev
        self._t = t

    def flush(self) -> None:
        """Write each member's port current of the last accepted step
        back onto its element."""
        if self._t is not None:
            self._last_i = self._static(self.v_prev, self._t)[0] \
                + self.ic_prev
        for el, i in zip(self.els, self._last_i.tolist()):
            el._last_i = i
