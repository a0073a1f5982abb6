"""Linear passive elements: R, C, L, coupled inductors, capacitance matrix.

Reactive elements use the theta-method companion model

    i_{n+1} = (C/(theta*dt)) (v_{n+1} - v_n) - ((1-theta)/theta) i_n      (C)
    v_{n+1} = (L/(theta*dt)) (i_{n+1} - i_n) - ((1-theta)/theta) v_n      (L)

with ``theta = 1`` giving backward Euler and ``theta = 0.5`` the trapezoidal
rule.  The elements stamp the companion conductances; the history terms
are advanced by the companion groups of the analysis
(:mod:`repro.circuit.companion`), which load each element's initial state
(``init_state``, honouring ``ic``) and write the last accepted one back
when the run ends.
"""

from __future__ import annotations

import numpy as np

from ...errors import CircuitError
from ..netlist import Element

__all__ = ["Resistor", "Capacitor", "Inductor", "CoupledInductors",
           "CapacitanceMatrix"]


class Resistor(Element):
    """Two-terminal linear resistor."""

    def __init__(self, name: str, a: str, b: str, resistance: float):
        super().__init__(name, [a, b])
        if resistance <= 0.0:
            raise CircuitError(f"{name}: resistance must be positive")
        self.resistance = float(resistance)

    @property
    def g(self) -> float:
        return 1.0 / self.resistance

    def stamp_const(self, st):
        a, b = self.nodes
        st.conductance(a, b, self.g)

    def current(self, x: np.ndarray) -> float:
        a, b = self.nodes
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        return (va - vb) * self.g


class Capacitor(Element):
    """Two-terminal linear capacitor with optional initial voltage ``ic``."""

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: float | None = None):
        super().__init__(name, [a, b])
        if capacitance <= 0.0:
            raise CircuitError(f"{name}: capacitance must be positive")
        self.capacitance = float(capacitance)
        self.ic = ic
        self._v_prev = 0.0 if ic is None else float(ic)
        self._i_prev = 0.0
        self._geq = 0.0
        self._theta = 1.0

    def _vab(self, x) -> float:
        a, b = self.nodes
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        return va - vb

    def init_state(self, x, system) -> None:
        self._v_prev = self._vab(x) if self.ic is None else float(self.ic)
        self._i_prev = 0.0

    def prepare(self, dt, theta):
        self._geq = 0.0 if dt is None else self.capacitance / (theta * dt)
        self._theta = theta

    def stamp_dynamic(self, st, dt, theta):
        a, b = self.nodes
        st.conductance(a, b, self._geq)

    def current(self, x: np.ndarray) -> float:
        """Current at the last accepted step (into terminal ``a``)."""
        return self._i_prev


class Inductor(Element):
    """Two-terminal linear inductor (one branch-current unknown)."""

    n_branch = 1

    def __init__(self, name: str, a: str, b: str, inductance: float,
                 ic: float | None = None):
        super().__init__(name, [a, b])
        if inductance <= 0.0:
            raise CircuitError(f"{name}: inductance must be positive")
        self.inductance = float(inductance)
        self.ic = ic
        self._i_prev = 0.0 if ic is None else float(ic)
        self._v_prev = 0.0
        self._req = 0.0
        self._theta = 1.0

    def init_state(self, x, system) -> None:
        br = self.branches[0]
        self._i_prev = x[br] if self.ic is None else float(self.ic)
        a, b = self.nodes
        va = x[a] if a >= 0 else 0.0
        vb = x[b] if b >= 0 else 0.0
        self._v_prev = va - vb

    def stamp_const(self, st):
        a, b = self.nodes
        br = self.branches[0]
        st.kcl_branch(a, br, 1.0)
        st.kcl_branch(b, br, -1.0)
        st.branch_voltage(br, a, b, 1.0)

    def prepare(self, dt, theta):
        self._req = 0.0 if dt is None else self.inductance / (theta * dt)
        self._theta = theta

    def stamp_dynamic(self, st, dt, theta):
        st.add_A(self.branches[0], self.branches[0], -self._req)

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])


class CoupledInductors(Element):
    """N coupled inductors sharing a symmetric inductance matrix.

    ``pairs`` is a list of ``(a, b)`` node-name tuples, one per inductor;
    ``L`` is the N x N symmetric positive-definite inductance matrix.
    Used to build lumped-segment multiconductor line models.
    """

    def __init__(self, name: str, pairs, L):
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise CircuitError(f"{name}: L must be square")
        if len(pairs) != L.shape[0]:
            raise CircuitError(f"{name}: need one node pair per inductor")
        if not np.allclose(L, L.T):
            raise CircuitError(f"{name}: L must be symmetric")
        if np.any(np.linalg.eigvalsh(L) <= 0.0):
            raise CircuitError(f"{name}: L must be positive definite")
        flat = [n for pair in pairs for n in pair]
        super().__init__(name, flat)
        self.L = L
        self.n = L.shape[0]
        self.n_branch = self.n
        self._i_prev = np.zeros(self.n)
        self._v_prev = np.zeros(self.n)
        self._Req = np.zeros_like(self.L)
        self._theta = 1.0

    def _pair_nodes(self, k: int) -> tuple[int, int]:
        return self.nodes[2 * k], self.nodes[2 * k + 1]

    def init_state(self, x, system) -> None:
        self._i_prev = np.array([x[br] for br in self.branches])
        # each winding's terminal voltage, as Inductor.init_state takes it
        self._v_prev = np.array([
            (x[a] if a >= 0 else 0.0) - (x[b] if b >= 0 else 0.0)
            for a, b in map(self._pair_nodes, range(self.n))])

    def stamp_const(self, st):
        for k in range(self.n):
            a, b = self._pair_nodes(k)
            br = self.branches[k]
            st.kcl_branch(a, br, 1.0)
            st.kcl_branch(b, br, -1.0)
            st.branch_voltage(br, a, b, 1.0)

    def prepare(self, dt, theta):
        self._Req = np.zeros_like(self.L) if dt is None else self.L / (theta * dt)
        self._theta = theta

    def stamp_dynamic(self, st, dt, theta):
        for k in range(self.n):
            for j in range(self.n):
                st.add_A(self.branches[k], self.branches[j], -self._Req[k, j])

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])


class CapacitanceMatrix(Element):
    """Maxwell capacitance matrix among N nodes (vs ground).

    ``i = C dv/dt`` with ``v`` the node-voltage vector.  ``C`` must be the
    Maxwell form: positive diagonal, non-positive off-diagonal, diagonally
    dominant -- the natural description of coupled-line shunt capacitance.
    """

    def __init__(self, name: str, node_list, C):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise CircuitError(f"{name}: C must be square")
        if len(node_list) != C.shape[0]:
            raise CircuitError(f"{name}: need one node per row of C")
        if not np.allclose(C, C.T):
            raise CircuitError(f"{name}: C must be symmetric")
        if np.any(np.diag(C) <= 0.0):
            raise CircuitError(f"{name}: Maxwell C must have positive diagonal")
        super().__init__(name, list(node_list))
        self.C = C
        self.n = C.shape[0]
        self._v_prev = np.zeros(self.n)
        self._i_prev = np.zeros(self.n)
        self._Geq = np.zeros_like(self.C)
        self._theta = 1.0

    def _voltages(self, x) -> np.ndarray:
        return np.array([x[n] if n >= 0 else 0.0 for n in self.nodes])

    def init_state(self, x, system) -> None:
        self._v_prev = self._voltages(x)
        self._i_prev = np.zeros(self.n)

    def prepare(self, dt, theta):
        self._Geq = np.zeros_like(self.C) if dt is None else self.C / (theta * dt)
        self._theta = theta

    def stamp_dynamic(self, st, dt, theta):
        for k in range(self.n):
            for j in range(self.n):
                st.add_A(self.nodes[k], self.nodes[j], self._Geq[k, j])
