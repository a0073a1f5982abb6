"""Circuit elements embedding the estimated macromodels.

This is the native-engine counterpart of the paper's SPICE implementation:
the discrete-time models advance their internal state once per timestep (the
engine must run at ``dt = ts``), and expose ``i(v)``/``di/dv`` of the present
sample to the Newton loop, so the macromodel participates in the circuit
solution exactly like a transistor-level device.

For the text-netlist/state-space route see :mod:`repro.models.synthesis`.
"""

from __future__ import annotations

import numpy as np

from ..circuit.elements.bank import NodeBank
from ..circuit.netlist import Element
from ..circuit.waveforms import BitPattern
from ..errors import ModelError
from .driver import PWRBFDriverModel
from .rbf import GaussianRBF, StackedRBF
from .receiver import CVReceiverModel, ParametricReceiverModel
from .regressors import RegressorScaler

__all__ = ["PWRBFDriverElement", "ParametricReceiverElement",
           "CVReceiverElement"]

_TS_TOL = 1e-3  # relative tolerance between engine dt and model ts


class _DiscretePortElement(Element):
    """Shared plumbing: one-port element locked to the model sampling time."""

    nonlinear = True

    def __init__(self, name: str, port: str, ts: float):
        super().__init__(name, [port])
        self.ts = float(ts)
        self._dc = False

    def prepare(self, dt, theta):
        if dt is None:
            self._dc = True
            return
        self._dc = False
        if abs(dt - self.ts) > _TS_TOL * self.ts:
            raise ModelError(
                f"{self.name}: engine dt={dt:g}s must equal the model "
                f"sampling time ts={self.ts:g}s")

    def _port_voltage(self, x) -> float:
        node = self.nodes[0]
        return float(x[node]) if node >= 0 else 0.0

    def _stamp_iv(self, st, i: float, g: float, v: float,
                  g_base: float = 0.0) -> None:
        """Stamp linearized ``i(v') ~= i + g (v' - v)`` into the port node,
        less a conductance ``g_base`` the base matrix already holds."""
        node = self.nodes[0]
        st.conductance(node, -1, g - g_base)
        ieq = i - g * v
        st.add_b(node, -ieq)


class PWRBFDriverElement(_DiscretePortElement):
    """Eq. (1) as a circuit element with scheduled switching weights."""

    def __init__(self, name: str, port: str, model: PWRBFDriverModel,
                 wh: np.ndarray, wl: np.ndarray, initial_state: str = "0"):
        super().__init__(name, port, model.ts)
        self.model = model
        self.wh = np.asarray(wh, dtype=float)
        self.wl = np.asarray(wl, dtype=float)
        if self.wh.shape != self.wl.shape:
            raise ModelError("weight timelines must have equal length")
        self.initial_state = initial_state
        r = model.order
        # plain-float histories: np.float64 arithmetic is several times
        # slower than float in the pure-Python hot loop
        self._v_hist = [0.0] * r     # v(k-1) .. v(k-r)
        self._i_hist = [0.0] * r     # i(k-1) .. i(k-r)
        self._i_dc = 0.0
        # pure-Python compiled evaluators for the per-iteration hot path
        self._fast_high = model.sub_high.compile()
        self._fast_low = model.sub_low.compile()

    @classmethod
    def for_pattern(cls, name: str, port: str, model: PWRBFDriverModel,
                    pattern: str, bit_time: float, t_stop: float,
                    delay: float = 0.0) -> "PWRBFDriverElement":
        """Build the element with the weight timeline of a bit pattern."""
        wave = BitPattern(pattern, bit_time=bit_time, v_low=0.0,
                          v_high=model.vdd, delay=delay)
        n = int(round(t_stop / model.ts)) + 2
        wh, wl = model.weights_timeline(wave.edges(), n,
                                        initial_state=pattern[0])
        return cls(name, port, model, wh, wl, initial_state=pattern[0])

    def _weights(self, k: int) -> tuple[float, float]:
        k = min(max(k, 0), self.wh.size - 1)
        return float(self.wh[k]), float(self.wl[k])

    def _eval(self, v_now: float, wh: float, wl: float
              ) -> tuple[float, float]:
        x = [v_now, *self._v_hist, *self._i_hist]
        i = g = 0.0
        if wh != 0.0:
            fh, gh = self._fast_high.eval_grad(x)
            i += wh * fh
            g += wh * gh
        if wl != 0.0:
            fl, gl = self._fast_low.eval_grad(x)
            i += wl * fl
            g += wl * gl
        return i, g

    def init_state(self, x, system) -> None:
        v0 = self._port_voltage(x)
        i0 = float(self.model.static_current(v0, self.initial_state))
        r = self.model.order
        self._v_hist = [v0] * r
        self._i_hist = [i0] * r
        self._i_dc = i0

    def stamp_nonlinear(self, st, x, t):
        v = self._port_voltage(x)
        if self._dc:
            r = self.model.order
            xr = np.concatenate([np.full(r + 1, v), np.full(r, self._i_dc)])
            sub = (self.model.sub_high if self.initial_state == "1"
                   else self.model.sub_low)
            i, g = sub.eval_with_gradient(xr)
            self._i_dc = 0.5 * self._i_dc + 0.5 * i  # damped fixed point
            self._stamp_iv(st, i, g, v)
            return
        k = int(round(t / self.ts))
        wh, wl = self._weights(k)
        i, g = self._eval(v, wh, wl)
        self._stamp_iv(st, i, g, v)

    def update_state(self, x, t, dt, theta):
        v = self._port_voltage(x)
        k = int(round(t / self.ts))
        wh, wl = self._weights(k)
        i, _ = self._eval(v, wh, wl)
        if self._v_hist:
            self._v_hist = [v] + self._v_hist[:-1]
            self._i_hist = [i] + self._i_hist[:-1]
        self._last_i = i

    def current(self, x) -> float:
        """Port current (into the device) at the last accepted step."""
        return getattr(self, "_last_i", 0.0)

    @classmethod
    def batch_bank(cls, rows) -> "list[_DriverBank] | None":
        """Vectorized lockstep evaluators over driver elements, one bank
        per row (a driver's position in the bench, over the members).

        The grid-batched transient backend
        (:mod:`repro.circuit.batch`) calls this to advance every member's
        driver in one numpy pass per Newton iteration.  Members may run
        different models of one driver (its corners) and weight
        timelines of different lengths.  Returns ``None`` when the
        elements are not bank-compatible -- different sampling times or
        model orders, different or grounded ports, or a subclass (whose
        overridden evaluation the bank could not honor) -- in which case
        the group falls back to per-member simulation.
        """
        rows = [list(els) for els in rows]
        if cls is not PWRBFDriverElement:
            return None
        for els in rows:
            if any(type(el) is not cls for el in els):
                return None
            first = els[0]
            if any(el.ts != first.ts or el.model.order != first.model.order
                   for el in els[1:]):
                return None
            if not _one_port(els):
                return None
        return [_DriverBank(els) for els in rows]


class ParametricReceiverElement(_DiscretePortElement):
    """Eq. (2): ARX + up/down RBF submodels as a circuit element.

    At the DC operating point the linear base matrix carries a nominal
    port conductance :attr:`G_DC` that the Newton stamp takes back out,
    so the Jacobian is unchanged.  A receiver input is high-impedance:
    unterminated, its node's only other DC path can be a 1 Gohm
    reference, and a base matrix without the nominal conductance (cond
    ~ 4e9) would round the low-rank DC update at the 1e-7 V level.
    """

    #: nominal port conductance of the DC base matrix (S)
    G_DC = 1e-3

    def __init__(self, name: str, port: str,
                 model: ParametricReceiverModel):
        super().__init__(name, port, model.ts)
        self.model = model
        r_max = max(model.linear.order, model.up_order, model.down_order)
        self._v_hist = [0.0] * r_max       # v(k-1) .. v(k-r_max)
        self._lin_hist = [0.0] * max(model.linear.order, 1)
        self._b_lin = [float(v) for v in model.linear.b]
        self._a_lin = [float(v) for v in model.linear.a]
        self._c_lin = float(model.linear.c)
        self._fast_up = model.up.compile()
        self._fast_down = model.down.compile()

    def _nfir_regressor(self, v_now: float, order: int) -> np.ndarray:
        x = np.empty(order + 1)
        x[0] = v_now
        x[1:] = self._v_hist[:order]
        return x

    def _eval(self, v_now: float) -> tuple[float, float, float, float, float]:
        m = self.model
        r_lin = m.linear.order
        i_lin = self._c_lin + self._b_lin[0] * v_now
        for j in range(r_lin):
            i_lin += self._b_lin[j + 1] * self._v_hist[j] \
                - self._a_lin[j] * self._lin_hist[j]
        g_lin = self._b_lin[0]
        i_up, g_up = self._fast_up.eval_grad(
            [v_now, *self._v_hist[:m.up_order]])
        i_dn, g_dn = self._fast_down.eval_grad(
            [v_now, *self._v_hist[:m.down_order]])
        return i_lin, i_up, i_dn, g_lin + g_up + g_dn, i_lin + i_up + i_dn

    def init_state(self, x, system) -> None:
        v0 = self._port_voltage(x)
        self._v_hist = [v0] * len(self._v_hist)
        # settle the linear submodel at its DC fixed point (the NFIR
        # protection submodels have no output state to settle)
        g_dc = self.model.linear.dc_gain()
        i0 = g_dc * v0 + self.model.linear.c \
            / max(1.0 + float(np.sum(self.model.linear.a)), 1e-12)
        self._lin_hist = [i0] * len(self._lin_hist)

    def stamp_dc(self, st) -> None:
        st.conductance(self.nodes[0], -1, self.G_DC)

    def stamp_nonlinear(self, st, x, t):
        # DC and transient alike: the ARX part plus both RBF slopes on
        # the present histories (zero before ``init_state``)
        v = self._port_voltage(x)
        _, _, _, g, i = self._eval(v)
        self._stamp_iv(st, i, g, v, self.G_DC if self._dc else 0.0)

    def update_state(self, x, t, dt, theta):
        v = self._port_voltage(x)
        i_lin, i_up, i_dn, _, i_tot = self._eval(v)
        self._lin_hist = [i_lin] + self._lin_hist[:-1]
        self._v_hist = [v] + self._v_hist[:-1]
        self._last_i = i_tot

    def current(self, x) -> float:
        return getattr(self, "_last_i", 0.0)

    @classmethod
    def batch_bank(cls, rows) -> "list[_ReceiverBank] | None":
        """Vectorized lockstep evaluators over receiver elements, one bank
        per row.

        The receiver counterpart of :meth:`PWRBFDriverElement.batch_bank`:
        the ARX part and both NFIR protection submodels of every member
        advance in one numpy pass per Newton iteration.  Returns ``None``
        when the elements differ in sampling time or submodel orders, sit
        on different or grounded ports, or are a subclass.
        """
        rows = [list(els) for els in rows]
        if cls is not ParametricReceiverElement:
            return None
        for els in rows:
            if any(type(el) is not cls for el in els):
                return None
            orders = {(el.ts, el.model.linear.order, el.model.up_order,
                       el.model.down_order) for el in els}
            if len(orders) != 1 or not _one_port(els):
                return None
        return [_ReceiverBank(els) for els in rows]


class CVReceiverElement(Element):
    """C-V baseline receiver: shunt C plus static nonlinear resistor.

    Continuous-time (no ``ts`` lock): the capacitor uses the standard
    theta-method companion, the resistor a table linearization.
    """

    nonlinear = True

    def __init__(self, name: str, port: str, model: CVReceiverModel):
        super().__init__(name, [port])
        self.model = model
        self._v_prev = 0.0
        self._ic_prev = 0.0
        self._dt = None
        self._theta = 1.0

    def prepare(self, dt, theta):
        self._dt = dt
        self._theta = theta

    def _port_voltage(self, x) -> float:
        node = self.nodes[0]
        return float(x[node]) if node >= 0 else 0.0

    def init_state(self, x, system) -> None:
        self._v_prev = self._port_voltage(x)
        self._ic_prev = 0.0

    def stamp_nonlinear(self, st, x, t):
        node = self.nodes[0]
        v = self._port_voltage(x)
        i_st = float(self.model.static_current(np.array(v)))
        g_st = self.model.static_conductance(v)
        st.conductance(node, -1, g_st)
        st.add_b(node, -(i_st - g_st * v))
        if self._dt is not None:
            gc = self.model.capacitance / (self._theta * self._dt)
            st.conductance(node, -1, gc)
            ic_hist = gc * self._v_prev \
                + (1.0 - self._theta) / self._theta * self._ic_prev
            st.inject(node, ic_hist)

    def update_state(self, x, t, dt, theta):
        v_new = self._port_voltage(x)
        gc = self.model.capacitance / (theta * dt)
        self._ic_prev = gc * (v_new - self._v_prev) \
            - (1.0 - theta) / theta * self._ic_prev
        self._v_prev = v_new

    def current(self, x) -> float:
        v = self._port_voltage(x)
        return float(self.model.static_current(np.array(v))) + self._ic_prev


def _one_port(els) -> bool:
    """Whether every element sits on the same ungrounded node."""
    node = els[0].nodes[0]
    return node >= 0 and all(el.nodes[0] == node for el in els)


def _padded(net: GaussianRBF, dim: int) -> GaussianRBF:
    """``net`` over ``dim`` regressor columns, ignoring the extra ones.

    Each added column clips to the single point 0 and has a zero center
    and affine coefficient, so it adds nothing to any distance; this
    lets NFIR submodels of different orders share one
    :class:`~repro.models.rbf.StackedRBF`.
    """
    extra = dim - net.dim
    if extra == 0:
        return net
    zeros = np.zeros(extra)
    sc = net.scaler
    scaler = RegressorScaler(
        mean=np.concatenate([sc.mean, zeros]),
        scale=np.concatenate([sc.scale, np.ones(extra)]),
        lo=np.concatenate([sc.lo, zeros]), hi=np.concatenate([sc.hi, zeros]))
    return GaussianRBF(
        centers=np.hstack([net.centers, np.zeros((net.n_bases, extra))]),
        sigma=net.sigma, weights=net.weights,
        affine=np.concatenate([net.affine, zeros]), bias=net.bias,
        scaler=scaler)


class _DriverBank(NodeBank):
    """Struct-of-arrays lockstep evaluator over N driver elements.

    Built by :meth:`PWRBFDriverElement.batch_bank` for the grid-batched
    transient backend: the members' NARX histories stack into one
    ``(2r, N)`` array ``[v(k-1..k-r), i(k-1..k-r)]``, their
    switching-weight timelines into one ``(n_w, 2, N)`` array (high, low
    per step; a shorter timeline pads with its last sample, which is
    exactly the element's own clamp), and both RBF submodels of every
    member's model evaluate through one
    :class:`~repro.models.rbf.StackedRBF`.  The history terms are reduced
    once per accepted step, so a Newton pass only adds the present
    voltage.  Zero-weight submodels are multiplied by exactly ``0.0``,
    matching the scalar path's skip.  ``flush`` writes the advanced
    histories back onto the elements, like the companion groups.

    At the DC operating point every member's *parked* submodel
    (``sub_high`` for initial state "1", else ``sub_low``) evaluates
    through a second :class:`~repro.models.rbf.StackedRBF`, with the
    element's damped DC current ``i_dc`` as one ``(N,)`` vector.

    A transient step looks its switching weights up once, on its first
    pass; accepting it shifts the histories and rewrites their terms in
    place, in buffers made once per bank.
    """

    def __init__(self, els: list[PWRBFDriverElement]):
        self.els = els
        first = els[0]
        self.node = first.nodes[0]
        self.ts = first.ts
        self.order = first.model.order
        self.n_models = len({id(el.model) for el in els})
        self.W = np.empty((max(el.wh.size for el in els), 2, len(els)))
        for m, el in enumerate(els):
            n = el.wh.size
            self.W[:n, 0, m] = el.wh
            self.W[:n, 1, m] = el.wl
            self.W[n:, :, m] = (el.wh[-1], el.wl[-1])
        self.rbf = StackedRBF(([el.model.sub_high for el in els],
                               [el.model.sub_low for el in els]))
        self.parked = StackedRBF(([
            el.model.sub_high if el.initial_state == "1"
            else el.model.sub_low for el in els],))
        self.load()

    def load(self) -> None:
        """Snapshot per-element NARX histories and DC currents."""
        H = np.array([el._v_hist + el._i_hist for el in self.els],
                     dtype=float).reshape(len(self.els), 2 * self.order)
        self.H = np.ascontiguousarray(H.T)
        self.i_dc = np.array([el._i_dc for el in self.els])
        self._last_i = np.array([getattr(el, "_last_i", 0.0)
                                 for el in self.els])
        self._terms = self.rbf.history(self.H)
        self._t = None      # the time of the weights in self._w

    def _static_history(self, v: np.ndarray, i: np.ndarray) -> np.ndarray:
        """History columns ``(2r, N)`` of the static regressor
        ``[v]*(r+1) + [i]*r``."""
        r = self.order
        return np.concatenate([np.broadcast_to(v, (r, v.size)),
                               np.broadcast_to(i, (r, i.size))])

    def _static(self, v: np.ndarray, i: np.ndarray, grad: bool = True):
        """The parked submodels on the static regressor, gradient
        w.r.t. the present voltage."""
        H = self._static_history(v, i)
        out = self.parked.eval(v, *self.parked.history(H), grad=grad)
        return tuple(a[0] for a in out) if grad else out[0]

    def eval_dc(self, V: np.ndarray, active: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance at the DC operating point.

        Mirrors the element's ``stamp_nonlinear`` DC branch, including
        its damped fixed point ``i_dc <- (i_dc + i) / 2``, which advances
        on the ``active`` members only (those still iterating).
        """
        i, g = self._static(V, self.i_dc)
        self.i_dc = np.where(active, 0.5 * self.i_dc + 0.5 * i, self.i_dc)
        return i, g

    def init_state(self, X: np.ndarray) -> None:
        """Every member's ``init_state`` at its initial solution row of
        ``X`` (N, size), vectorized.

        :meth:`PWRBFDriverModel.static_current` per member -- the same
        damping, 1e-12 stop and 50-iteration cap, a member frozen once
        it has converged -- then NARX histories settled at ``(v0, i0)``.
        """
        v = X[:, self.node].copy()
        i = np.zeros_like(v)
        live = np.ones(v.size, dtype=bool)
        for _ in range(50):
            i_new = self._static(v, i, grad=False)
            done = live & (np.abs(i_new - i) < 1e-12)
            i = np.where(done, i_new,
                         np.where(live, 0.5 * i + 0.5 * i_new, i))
            live &= ~done
            if not live.any():
                break
        self.H = self._static_history(v, i)
        self.i_dc = i
        self._terms = self.rbf.history(self.H)

    def _weights(self, t: float) -> np.ndarray:
        """``(2, N)`` high/low weights at the step of time ``t``, indexed
        like the element: ``round(t / ts)`` clamped to the timeline;
        looked up on a step's first call, kept for the others."""
        if t != self._t:
            k = int(round(t / self.ts))
            self._w = self.W[min(max(k, 0), self.W.shape[0] - 1)]
            self._t = t
        return self._w

    def eval(self, V: np.ndarray, t: float, idx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance of members ``idx`` (all when None).

        Mirrors the element's ``stamp_nonlinear`` transient branch on the
        history terms of the step in progress.
        """
        w = self._weights(t)
        D, A = self._terms
        if idx is not None:
            w, D, A = w[:, idx], D[:, :, idx], A[:, idx]
        f, g = self.rbf.eval(V, D, A, idx)
        return (w * f).sum(axis=0), (w * g).sum(axis=0)

    def accept(self, V: np.ndarray, t: float) -> None:
        """Accept the step: shift every member's NARX history by one."""
        f = self.rbf.eval(V, *self._terms, grad=False)
        i = (self._weights(t) * f).sum(axis=0)
        r = self.order
        if r:
            H = self.H
            H[1:r] = H[:r - 1]
            H[0] = V
            H[r + 1:] = H[r:-1]
            H[r] = i
            self.rbf.history(H, out=self._terms)
        self._last_i = i

    def flush(self) -> None:
        """Write bank state back onto the owning elements."""
        r = self.order
        for m, el in enumerate(self.els):
            el._v_hist = self.H[:r, m].tolist()
            el._i_hist = self.H[r:, m].tolist()
            el._i_dc = float(self.i_dc[m])
            el._last_i = float(self._last_i[m])


class _ReceiverBank(NodeBank):
    """Struct-of-arrays lockstep evaluator over N receiver elements.

    Built by :meth:`ParametricReceiverElement.batch_bank`.  Eq. (2) per
    member: the ARX part's history terms ``c + sum b_j v(k-j) - a_j
    i_L(k-j)`` reduce once per accepted step to one ``(N,)`` vector, so
    a Newton pass adds ``b_0 v(k)``; the up/down NFIR submodels
    (padded to one regressor dimension, see :func:`_padded`) evaluate
    through one history-split :class:`~repro.models.rbf.StackedRBF`.
    Histories are ``(r, N)`` arrays, shifted in place on every accepted
    step; ``flush`` writes them back onto the elements.
    """

    #: the DC base matrix holds the elements' nominal port conductance
    g_dc = ParametricReceiverElement.G_DC

    def __init__(self, els: list[ParametricReceiverElement]):
        self.els = els
        first = els[0]
        self.node = first.nodes[0]
        self.n_models = len({id(el.model) for el in els})
        m0 = first.model
        self.r_lin = m0.linear.order
        self.r_nfir = max(m0.up_order, m0.down_order)
        self.b0 = np.array([el._b_lin[0] for el in els])
        self.b_h = np.array([el._b_lin[1:] for el in els]).T.reshape(
            self.r_lin, len(els))
        self.a = np.array([el._a_lin for el in els]).T.reshape(
            self.r_lin, len(els))
        self.c = np.array([el._c_lin for el in els])
        dim = self.r_nfir + 1
        self.rbf = StackedRBF(([_padded(el.model.up, dim) for el in els],
                               [_padded(el.model.down, dim) for el in els]))
        self.load()

    def init_state(self, X: np.ndarray) -> None:
        """Every member's ``init_state`` at its initial solution row of
        ``X`` (N, size), then a fresh snapshot."""
        for el, x in zip(self.els, X):
            el.init_state(x, None)
        self.load()

    def load(self) -> None:
        """Snapshot per-element histories."""
        self.Hv = np.array([el._v_hist for el in self.els],
                           dtype=float).reshape(len(self.els), -1).T.copy()
        self.Hl = np.array([el._lin_hist for el in self.els],
                           dtype=float).reshape(len(self.els), -1).T.copy()
        self._last_i = np.array([getattr(el, "_last_i", 0.0)
                                 for el in self.els])
        self._terms = self._history()

    def _history(self, out=None):
        """``(D, A, lin)``: the NFIR history terms (written into ``out``,
        the present ``(D, A)``, when given) and the ARX part's history
        sum of the step in progress."""
        r = self.r_lin
        lin = self.c + (self.b_h * self.Hv[:r]).sum(axis=0) \
            - (self.a * self.Hl[:r]).sum(axis=0)
        return (*self.rbf.history(self.Hv[:self.r_nfir], out), lin)

    def eval(self, V: np.ndarray, t: float, idx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance of members ``idx`` (all when None),
        mirroring the element's ``stamp_nonlinear``."""
        D, A, lin = self._terms
        b0 = self.b0
        if idx is not None:
            D, A, lin, b0 = D[:, :, idx], A[:, idx], lin[idx], b0[idx]
        f, g = self.rbf.eval(V, D, A, idx)
        return lin + b0 * V + f.sum(axis=0), b0 + g.sum(axis=0)

    def eval_dc(self, V: np.ndarray, active: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance at the DC operating point: the
        element's ``stamp_nonlinear`` on its pre-``init_state`` (zero)
        histories.  Stateless, so ``active`` is not needed."""
        return self.eval(V, 0.0)

    def accept(self, V: np.ndarray, t: float) -> None:
        """Accept the step: shift every member's histories by one."""
        D, A, lin = self._terms
        i_lin = lin + self.b0 * V
        f = self.rbf.eval(V, D, A, grad=False)
        Hv, Hl = self.Hv, self.Hl
        Hv[1:] = Hv[:-1]
        Hv[:1] = V
        Hl[1:] = Hl[:-1]
        Hl[:1] = i_lin
        self._last_i = i_lin + f.sum(axis=0)
        self._terms = self._history((D, A))

    def flush(self) -> None:
        """Write bank state back onto the owning elements."""
        for m, el in enumerate(self.els):
            el._v_hist = self.Hv[:, m].tolist()
            el._lin_hist = self.Hl[:, m].tolist()
            el._last_i = float(self._last_i[m])
