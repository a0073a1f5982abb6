"""Transmission-line elements: ideal single and coupled lossless lines.

Both use the method of characteristics (Branin's model): each end is a
Thevenin source ``v - Z0*i = E(t)`` whose EMF is the incident wave launched
from the far end one delay earlier.  With the engine's fixed timestep the
delayed lookups are exact up to linear interpolation between grid samples.
The elements stamp the Thevenin branch equations; the wave history and its
delayed lookups belong to the line groups of :mod:`repro.circuit.companion`,
which take their first wave row from the analysis's initial solution.

The N-conductor :class:`CoupledIdealLine` diagonalizes the per-unit-length
``L``/``C`` matrices once:

* Cholesky ``C = U U^T``,
* eigendecomposition ``U^T L U = Q diag(lam) Q^T`` (symmetric, so ``Q`` is
  orthogonal),
* ``W = U Q``; then modal voltages/currents ``vm = W^T v``, ``i = W im``
  decouple the line into N independent ideal lines with impedance
  ``Zm = sqrt(lam_m)`` and delay ``length * sqrt(lam_m)``.

Lossy lines are built as section cascades by
:mod:`repro.circuit.builders` on top of these elements.
"""

from __future__ import annotations

import numpy as np

from ...errors import CircuitError
from ..netlist import Element

__all__ = ["IdealLine", "CoupledIdealLine", "modal_decomposition"]


def modal_decomposition(L, C):
    """Return ``(W, zm, tau_per_len)`` decoupling an N-conductor line.

    ``W`` maps modal currents to conductor currents (``i = W im``) and modal
    voltages are ``vm = W^T v``; ``zm`` are modal impedances and
    ``tau_per_len`` the modal delays per unit length.
    """
    L = np.asarray(L, dtype=float)
    C = np.asarray(C, dtype=float)
    if L.shape != C.shape or L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise CircuitError("L and C must be square matrices of equal size")
    if not (np.allclose(L, L.T, rtol=1e-6, atol=0.0)
            and np.allclose(C, C.T, rtol=1e-6, atol=0.0)):
        raise CircuitError("L and C must be symmetric")
    try:
        U = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise CircuitError(f"C matrix is not positive definite: {exc}") from exc
    M = U.T @ L @ U
    lam, Q = np.linalg.eigh(M)
    if np.any(lam <= 0.0):
        raise CircuitError("L*C has non-positive eigenvalues; check matrices")
    W = U @ Q
    zm = np.sqrt(lam)
    tau_per_len = np.sqrt(lam)
    return W, zm, tau_per_len


class IdealLine(Element):
    """Ideal lossless two-conductor line (signal + ground reference).

    Terminals: ``(p1, p2)`` both referenced to ground.  ``z0`` is the
    characteristic impedance and ``td`` the one-way delay.  Branch currents
    are the currents flowing *into* the line at each port.
    """

    n_branch = 2

    def __init__(self, name: str, p1: str, p2: str, z0: float, td: float):
        super().__init__(name, [p1, p2])
        if z0 <= 0.0 or td <= 0.0:
            raise CircuitError(f"{name}: z0 and td must be positive")
        self.z0 = float(z0)
        self.td = float(td)

    def stamp_const(self, st):
        p1, p2 = self.nodes
        b1, b2 = self.branches
        st.kcl_branch(p1, b1, 1.0)
        st.kcl_branch(p2, b2, 1.0)
        st.branch_voltage(b1, p1, -1, 1.0)
        st.branch_voltage(b2, p2, -1, 1.0)
        st.add_A(b1, b1, -self.z0)
        st.add_A(b2, b2, -self.z0)

    def stamp_dynamic(self, st, dt, theta):
        if dt > self.td * (1.0 + 1e-9):
            raise CircuitError(
                f"{self.name}: timestep {dt:g}s exceeds line delay {self.td:g}s; "
                "refine dt or lump the line")

    def stamp_dc(self, st):
        """DC: the lossless line is a through-connection (v1=v2, i1=-i2).

        The branch rows already contain ``v - z0*i`` from stamp_const; adding
        ``z0*i`` back and the far-end constraints turns them into
        ``v1 - v2 = 0`` and ``i1 + i2 = 0``.
        """
        p1, p2 = self.nodes
        b1, b2 = self.branches
        st.add_A(b1, b1, self.z0)             # cancel -z0 on the diagonal
        st.branch_voltage(b1, p2, -1, -1.0)   # row b1: v1 - v2 = 0
        # row b2: i1 + i2 = 0 -> cancel the v2 and -z0*i2 terms first
        st.add_A(b2, b2, self.z0)
        st.branch_voltage(b2, p2, -1, -1.0)
        st.add_A(b2, b1, 1.0)
        st.add_A(b2, b2, 1.0)

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])


class CoupledIdealLine(Element):
    """N-conductor lossless coupled line over a common ground reference.

    ``end1``/``end2`` are equal-length sequences of terminal node names;
    ``L``/``C`` are the per-unit-length inductance and Maxwell capacitance
    matrices; ``length`` is in meters.
    """

    def __init__(self, name: str, end1, end2, L, C, length: float):
        end1, end2 = list(end1), list(end2)
        if len(end1) != len(end2):
            raise CircuitError(f"{name}: end1/end2 must have the same size")
        if length <= 0.0:
            raise CircuitError(f"{name}: length must be positive")
        super().__init__(name, [*end1, *end2])
        self.n = len(end1)
        self.n_branch = 2 * self.n  # modal currents at each end
        self.length = float(length)
        self.W, self.zm, tau = modal_decomposition(L, C)
        self.td = self.length * tau   # per-mode delays
        self.L = np.asarray(L, dtype=float)
        self.C = np.asarray(C, dtype=float)

    # node/branch helpers ------------------------------------------------------
    def _end_nodes(self, end: int) -> list[int]:
        return self.nodes[end * self.n:(end + 1) * self.n]

    def _end_branches(self, end: int) -> list[int]:
        return self.branches[end * self.n:(end + 1) * self.n]

    def stamp_const(self, st):
        for end in (0, 1):
            nodes = self._end_nodes(end)
            brs = self._end_branches(end)
            for m in range(self.n):
                br = brs[m]
                # KCL: conductor current into the line = sum_m W[k,m] im
                for k, node in enumerate(nodes):
                    st.kcl_branch(node, br, self.W[k, m])
                # branch row: sum_k W[k,m] v_k - Zm*im = E_m(t)
                for k, node in enumerate(nodes):
                    if node >= 0:
                        st.add_A(br, node, self.W[k, m])
                st.add_A(br, br, -self.zm[m])

    def stamp_dc(self, st):
        """DC continuity: vm1 = vm2 and im1 = -im2 per mode."""
        for m in range(self.n):
            b1 = self._end_branches(0)[m]
            b2 = self._end_branches(1)[m]
            # row b1 currently: vm1 - Zm im1; add Zm im1 and subtract vm2
            st.add_A(b1, b1, self.zm[m])
            for k, node in enumerate(self._end_nodes(1)):
                if node >= 0:
                    st.add_A(b1, node, -self.W[k, m])
            # row b2: im1 + im2 = 0
            st.add_A(b2, b2, self.zm[m])
            for k, node in enumerate(self._end_nodes(1)):
                if node >= 0:
                    st.add_A(b2, node, -self.W[k, m])
            st.add_A(b2, b1, 1.0)
            st.add_A(b2, b2, 1.0)

    def stamp_dynamic(self, st, dt, theta):
        if dt > float(np.min(self.td)) * (1.0 + 1e-9):
            raise CircuitError(
                f"{self.name}: timestep {dt:g}s exceeds the fastest modal delay "
                f"{float(np.min(self.td)):g}s; refine dt or add more sections")

    def characteristic_impedance(self) -> np.ndarray:
        """Terminal-domain characteristic impedance matrix ``Zc``.

        With ``v = W^-T vm`` and ``i = W im``, a matched line (``vm = Zm im``)
        gives ``Zc = W^-T diag(zm) W^-1``.
        """
        w_inv = np.linalg.inv(self.W)
        return w_inv.T @ np.diag(self.zm) @ w_inv
