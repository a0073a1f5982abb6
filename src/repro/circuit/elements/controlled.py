"""Linear controlled sources (VCCS, VCVS, CCCS, CCVS) and behavioral sources.

The behavioral :class:`NonlinearCurrentSource` is the building block of
the macromodel synthesis backend (Section 2 of the paper: "RC circuits
with controlled sources").
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ...errors import CircuitError
from ..netlist import Element
from .bank import index_of

__all__ = ["VCCS", "VCVS", "CCCS", "CCVS", "NonlinearCurrentSource"]


class VCCS(Element):
    """Voltage-controlled current source: ``i = gm * (v(cp) - v(cn))``.

    Current flows from ``a`` through the source into ``b``.
    """

    def __init__(self, name: str, a: str, b: str, cp: str, cn: str, gm: float):
        super().__init__(name, [a, b, cp, cn])
        self.gm = float(gm)

    def stamp_const(self, st):
        a, b, cp, cn = self.nodes
        st.transconductance(a, b, cp, cn, self.gm)


class VCVS(Element):
    """Voltage-controlled voltage source: ``v(a) - v(b) = mu * (v(cp) - v(cn))``."""

    n_branch = 1

    def __init__(self, name: str, a: str, b: str, cp: str, cn: str, mu: float):
        super().__init__(name, [a, b, cp, cn])
        self.mu = float(mu)

    def stamp_const(self, st):
        a, b, cp, cn = self.nodes
        br = self.branches[0]
        st.kcl_branch(a, br, 1.0)
        st.kcl_branch(b, br, -1.0)
        st.branch_voltage(br, a, b, 1.0)
        st.branch_voltage(br, cp, cn, -self.mu)

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])


class CCCS(Element):
    """Current-controlled current source: ``i = beta * i(ctrl)``.

    ``ctrl`` is an element exposing a branch current (voltage source,
    inductor, VCVS...).  Resolution of the controlling branch happens lazily at
    stamp time so netlist ordering does not matter.
    """

    def __init__(self, name: str, a: str, b: str, ctrl, beta: float):
        super().__init__(name, [a, b])
        self.ctrl = ctrl
        self.beta = float(beta)

    def _ctrl_branch(self) -> int:
        if not getattr(self.ctrl, "branches", None):
            raise CircuitError(
                f"{self.name}: controlling element {self.ctrl.name!r} has no branch current")
        return self.ctrl.branches[0]

    def stamp_const(self, st):
        a, b = self.nodes
        br = self._ctrl_branch()
        st.kcl_branch(a, br, self.beta)
        st.kcl_branch(b, br, -self.beta)


class CCVS(Element):
    """Current-controlled voltage source: ``v(a) - v(b) = r * i(ctrl)``."""

    n_branch = 1

    def __init__(self, name: str, a: str, b: str, ctrl, r: float):
        super().__init__(name, [a, b])
        self.ctrl = ctrl
        self.r = float(r)

    def stamp_const(self, st):
        a, b = self.nodes
        br = self.branches[0]
        if not getattr(self.ctrl, "branches", None):
            raise CircuitError(
                f"{self.name}: controlling element {self.ctrl.name!r} has no branch current")
        st.kcl_branch(a, br, 1.0)
        st.kcl_branch(b, br, -1.0)
        st.branch_voltage(br, a, b, 1.0)
        st.add_A(br, self.ctrl.branches[0], -self.r)

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])


class NonlinearCurrentSource(Element):
    """Behavioral current source ``i = f(v_1, ..., v_k, t)``.

    ``f(vs, t)`` receives the control-node voltage vector and must return the
    current (A) flowing from ``a`` through the source into ``b``;
    ``dfdv(vs, t)`` returns the gradient with respect to each control voltage.
    If ``dfdv`` is omitted a forward-difference approximation is used.

    This is the engine-level realization of SPICE "B" sources and the target
    of the macromodel synthesis backend.  Its bank (:meth:`batch_bank`)
    calls ``f`` and ``dfdv`` member by member.
    """

    nonlinear = True

    def __init__(self, name: str, a: str, b: str, controls: Sequence[str],
                 f: Callable, dfdv: Callable | None = None):
        super().__init__(name, [a, b, *controls])
        self.f = f
        self.dfdv = dfdv
        self.n_controls = len(controls)

    def linearize(self, vs: np.ndarray, t: float) -> tuple[float, np.ndarray]:
        """``(i, grad)`` at the control voltages ``vs``."""
        i0 = float(self.f(vs, t))
        if self.dfdv is not None:
            return i0, np.asarray(self.dfdv(vs, t), dtype=float)
        grad = np.empty(self.n_controls)
        eps = 1e-7
        for k in range(self.n_controls):
            vp = vs.copy()
            vp[k] += eps
            grad[k] = (float(self.f(vp, t)) - i0) / eps
        return i0, grad

    @classmethod
    def batch_bank(cls, rows) -> "list[_SourceBank]":
        """One bank per row (a source's position in the bench)."""
        return [_SourceBank(list(els)) for els in rows]


class _SourceBank:
    """Lockstep evaluator over N behavioral sources at one position.

    One column ``u = e_a - e_b`` and one control term per distinct
    control node (a node listed twice sums its gradients), the
    multi-term form of :class:`repro.circuit.batch._Ports`.  Each
    member's ``f``/``dfdv`` runs on its own control voltages; the
    sources are stateless, at DC as in a transient step.
    """

    def __init__(self, els: list):
        self.els = els
        a, b, *ctl = els[0].nodes
        nodes: list = []
        self.pos = [index_of(nodes, n) for n in ctl]
        self.cols = [(a, b)]
        # a source of time alone keeps one zero term, on its own port
        self.terms = [(0, n, -1) for n in nodes] or [(0, a, b)]
        self.n_models = len({el.f for el in els})

    def linearize(self, V, t, active, idx=None):
        """``(ieq (1, n), c (T, n), None)`` at the control voltages ``V``
        (T, n) of members ``idx`` (all when None)."""
        els = self.els if idx is None else [self.els[m] for m in idx]
        ieq = np.empty((1, V.shape[1]))
        c = np.zeros(V.shape)
        for m, el in enumerate(els):
            vs = V[self.pos, m]
            i0, grad = el.linearize(vs, t)
            np.add.at(c[:, m], self.pos, grad)
            ieq[0, m] = i0 - float(grad @ vs)
        return ieq, c, None

    def linearize_dc(self, V, active):
        return self.linearize(V, 0.0, active)

    def init_state(self, X) -> None:
        pass

    def update(self, V, t) -> None:
        pass

    def flush(self) -> None:
        pass
