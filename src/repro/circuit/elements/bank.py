"""Shared plumbing of the vectorized element banks.

The grid-batched transient backend (:mod:`repro.circuit.batch`) evaluates
every nonlinear element class of a group through one vectorized *bank*:
:class:`DeviceBank` is the base of the transistor-level devices' banks,
:class:`NodeBank` that of the one-port macromodels' banks.
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

__all__ = ["DeviceBank", "NodeBank", "index_of", "pick", "scatter"]


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
