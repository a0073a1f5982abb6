"""Circuit elements embedding the estimated macromodels.

This is the native-engine counterpart of the paper's SPICE implementation:
the discrete-time models advance their internal state once per timestep (the
engine must run at ``dt = ts``), and expose ``i(v)``/``di/dv`` of the present
sample to the Newton loop, so the macromodel participates in the circuit
solution exactly like a transistor-level device.

The pw-RBF driver and the parametric receiver are evaluated only through
their vectorized banks (``batch_bank``) on the lockstep engine of
:mod:`repro.circuit.batch`, which solves a lone circuit as a batch of one;
the banks own every history.  The C-V baseline receiver is a
:class:`~repro.circuit.elements.bank.ShuntPort`, evaluated by the bank
it shares with the IBIS driver.

For the text-netlist/state-space route see :mod:`repro.models.synthesis`.
"""

from __future__ import annotations

import numpy as np

from ..circuit.elements.bank import NodeBank, ShuntPort, one_port
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
    """Shared plumbing: one-port element locked to the model sampling time.

    The element holds the model and its schedule; its bank holds the
    histories and writes back the port current of the last accepted step
    (:meth:`current`) when a run ends.
    """

    nonlinear = True

    def __init__(self, name: str, port: str, ts: float):
        super().__init__(name, [port])
        self.ts = float(ts)
        self._last_i = 0.0

    def prepare(self, dt, theta):
        if dt is not None and abs(dt - self.ts) > _TS_TOL * self.ts:
            raise ModelError(
                f"{self.name}: engine dt={dt:g}s must equal the model "
                f"sampling time ts={self.ts:g}s")

    def current(self, x) -> float:
        """Port current (into the device) at the last accepted step."""
        return self._last_i


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

    @classmethod
    def batch_bank(cls, rows) -> "list[_DriverBank] | None":
        """Vectorized lockstep evaluators over driver elements, one bank
        per row (a driver's position in the bench, over the members).

        The lockstep engine (:mod:`repro.circuit.batch`) calls this to
        advance every member's driver in one numpy pass per Newton
        iteration.  Members may run different models of one driver (its
        corners) and weight timelines of different lengths.  Returns
        ``None`` when the elements are not bank-compatible -- different
        sampling times or model orders, different or grounded ports.
        """
        rows = [list(els) for els in rows]
        for els in rows:
            first = els[0]
            if any(el.ts != first.ts or el.model.order != first.model.order
                   for el in els[1:]):
                return None
            if not one_port(els):
                return None
        return [_DriverBank(els) for els in rows]


class ParametricReceiverElement(_DiscretePortElement):
    """Eq. (2): ARX + up/down RBF submodels as a circuit element.

    At the DC operating point the linear base matrix carries a nominal
    port conductance :attr:`G_DC` that the bank's DC linearization takes
    back out, so the Jacobian is unchanged.  A receiver input is
    high-impedance: unterminated, its node's only other DC path can be a
    1 Gohm reference, and a base matrix without the nominal conductance
    (cond ~ 4e9) would round the low-rank DC update at the 1e-7 V level.
    """

    #: nominal port conductance of the DC base matrix (S)
    G_DC = 1e-3

    def __init__(self, name: str, port: str,
                 model: ParametricReceiverModel):
        super().__init__(name, port, model.ts)
        self.model = model

    def stamp_dc(self, st) -> None:
        st.conductance(self.nodes[0], -1, self.G_DC)

    @classmethod
    def batch_bank(cls, rows) -> "list[_ReceiverBank] | None":
        """Vectorized lockstep evaluators over receiver elements, one bank
        per row.

        The receiver counterpart of :meth:`PWRBFDriverElement.batch_bank`:
        the ARX part and both NFIR protection submodels of every member
        advance in one numpy pass per Newton iteration.  Returns ``None``
        when the elements differ in sampling time or submodel orders, or
        sit on different or grounded ports.
        """
        rows = [list(els) for els in rows]
        for els in rows:
            orders = {(el.ts, el.model.linear.order, el.model.up_order,
                       el.model.down_order) for el in els}
            if len(orders) != 1 or not one_port(els):
                return None
        return [_ReceiverBank(els) for els in rows]


class CVReceiverElement(ShuntPort):
    """C-V baseline receiver: shunt C plus static nonlinear resistor.

    Continuous-time (no ``ts`` lock): its :class:`ShuntBank
    <repro.circuit.elements.bank.ShuntBank>` gives the capacitor the
    standard theta-method companion, the resistor a table linearization.
    """

    def __init__(self, name: str, port: str, model: CVReceiverModel):
        super().__init__(name, port, model, model.capacitance)

    def static(self, v: float, t: float) -> tuple[float, float]:
        """The table's current and slope at ``v``."""
        return (float(self.model.static_current(np.array(v))),
                self.model.static_conductance(v))


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

    Built by :meth:`PWRBFDriverElement.batch_bank`: the members' NARX
    histories stack into one ``(2r, N)`` array ``[v(k-1..k-r),
    i(k-1..k-r)]``, their switching-weight timelines into one ``(n_w, 2,
    N)`` array (high, low per step; a shorter timeline pads with its last
    sample, the clamp of a lookup past its end) whose columns the
    elements' ``wh``/``wl`` then view, and both RBF submodels
    of every member's model evaluate through one
    :class:`~repro.models.rbf.StackedRBF`.  The history terms are reduced
    once per accepted step, so a Newton pass only adds the present
    voltage.  A zero weight multiplies its submodel by exactly ``0.0``.

    At the DC operating point every member's *parked* submodel
    (``sub_high`` for initial state "1", else ``sub_low``) evaluates
    through a second :class:`~repro.models.rbf.StackedRBF` on the static
    regressor, with the damped DC current ``i_dc`` as one ``(N,)``
    vector, zero in a fresh bank.

    A transient step looks its switching weights up once, on its first
    pass; accepting it shifts the histories and rewrites their terms in
    place, in buffers made once per bank.  The bank owns every history;
    ``flush`` writes back only each element's last port current.
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
            # the element reads its timeline out of W from now on, so
            # the run holds one copy of it
            el.wh, el.wl = self.W[:n, 0, m], self.W[:n, 1, m]
        self.rbf = StackedRBF(([el.model.sub_high for el in els],
                               [el.model.sub_low for el in els]))
        self.parked = StackedRBF(([
            el.model.sub_high if el.initial_state == "1"
            else el.model.sub_low for el in els],))
        self.i_dc = np.zeros(len(els))
        self._last_i = np.zeros(len(els))
        self._t = None      # the time of the weights in self._w

    @property
    def timeline_nbytes(self) -> int:
        """Bytes of the stacked weight timelines."""
        return self.W.nbytes

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

        The parked submodel on the static regressor, whose current
        history is the damped fixed point ``i_dc <- (i_dc + i) / 2``; it
        advances on the ``active`` members only (those still iterating).
        """
        i, g = self._static(V, self.i_dc)
        self.i_dc = np.where(active, 0.5 * self.i_dc + 0.5 * i, self.i_dc)
        return i, g

    def init_state(self, X: np.ndarray) -> None:
        """Settle every member at its initial solution row of ``X`` (N,
        size).

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
        """``(2, N)`` high/low weights at the step of time ``t``:
        ``round(t / ts)`` clamped to the timeline; looked up on a step's
        first call, kept for the others."""
        if t != self._t:
            k = int(round(t / self.ts))
            self._w = self.W[min(max(k, 0), self.W.shape[0] - 1)]
            self._t = t
        return self._w

    def eval(self, V: np.ndarray, t: float, idx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance of members ``idx`` (all when
        None): eq. (1) on the history terms of the step in progress."""
        w = self._weights(t)
        D, A = self._terms
        if idx is not None:
            w, D, A = w[:, idx], D[:, :, idx], A[:, idx]
        f, g = self.rbf.eval(V, D, A, idx)
        return np.add.reduce(w * f), np.add.reduce(w * g)

    def accept(self, V: np.ndarray, t: float) -> None:
        """Accept the step: shift every member's NARX history by one."""
        f = self.rbf.eval(V, *self._terms, grad=False)
        i = np.add.reduce(self._weights(t) * f)
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
        """Write each member's last port current back onto its element."""
        for el, i in zip(self.els, self._last_i.tolist()):
            el._last_i = i


class _ReceiverBank(NodeBank):
    """Struct-of-arrays lockstep evaluator over N receiver elements.

    Built by :meth:`ParametricReceiverElement.batch_bank`.  Eq. (2) per
    member: the ARX part's history terms ``c + sum b_j v(k-j) - a_j
    i_L(k-j)`` reduce once per accepted step to one ``(N,)`` vector, so
    a Newton pass adds ``b_0 v(k)``; the up/down NFIR submodels
    (padded to one regressor dimension, see :func:`_padded`) evaluate
    through one history-split :class:`~repro.models.rbf.StackedRBF`.
    Histories are ``(r, N)`` arrays, zero in a fresh bank (the DC
    operating point evaluates on them) and shifted in place on every
    accepted step.  The bank owns every history; ``flush`` writes back
    only each element's last port current.
    """

    #: the DC base matrix holds the elements' nominal port conductance
    g_dc = ParametricReceiverElement.G_DC

    def __init__(self, els: list[ParametricReceiverElement]):
        self.els = els
        first = els[0]
        self.node = first.nodes[0]
        self.n_models = len({id(el.model) for el in els})
        m0 = first.model
        self.r_lin = r = m0.linear.order
        self.r_nfir = max(m0.up_order, m0.down_order)
        lin = [el.model.linear for el in els]
        n = len(els)
        self.b0 = np.array([m.b[0] for m in lin])
        self.b_h = np.array([m.b[1:] for m in lin]).T.reshape(r, n)
        self.a = np.array([m.a for m in lin]).T.reshape(r, n)
        self.c = np.array([m.c for m in lin])
        # the ARX part's DC fixed point i = g_dc v + c_dc
        self.g_dc_lin = np.array([m.dc_gain() for m in lin])
        self.c_dc_lin = np.array([m.c / max(1.0 + float(np.sum(m.a)), 1e-12)
                                  for m in lin])
        dim = self.r_nfir + 1
        self.rbf = StackedRBF(([_padded(el.model.up, dim) for el in els],
                               [_padded(el.model.down, dim) for el in els]))
        self.Hv = np.zeros((max(r, self.r_nfir), n))
        self.Hl = np.zeros((max(r, 1), n))
        self._last_i = np.zeros(n)
        self._terms = self._history()

    def init_state(self, X: np.ndarray) -> None:
        """Settle every member at its initial solution row of ``X`` (N,
        size): voltage histories at the port voltage, the ARX part's
        current history at its DC fixed point (the NFIR protection
        submodels have no output state to settle)."""
        v = X[:, self.node]
        self.Hv[:] = v
        self.Hl[:] = self.g_dc_lin * v + self.c_dc_lin
        self._terms = self._history()

    def _history(self, out=None):
        """``(D, A, lin)``: the NFIR history terms (written into ``out``,
        the present ``(D, A)``, when given) and the ARX part's history
        sum of the step in progress."""
        r = self.r_lin
        lin = self.c + np.add.reduce(self.b_h * self.Hv[:r]) \
            - np.add.reduce(self.a * self.Hl[:r])
        return (*self.rbf.history(self.Hv[:self.r_nfir], out), lin)

    def eval(self, V: np.ndarray, t: float, idx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance of members ``idx`` (all when
        None): eq. (2) on the history terms of the step in progress."""
        D, A, lin = self._terms
        b0 = self.b0
        if idx is not None:
            D, A, lin, b0 = D[:, :, idx], A[:, idx], lin[idx], b0[idx]
        f, g = self.rbf.eval(V, D, A, idx)
        return lin + b0 * V + np.add.reduce(f), b0 + np.add.reduce(g)

    def eval_dc(self, V: np.ndarray, active: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Port current and conductance at the DC operating point:
        :meth:`eval` on the fresh bank's zero histories.  Stateless, so
        ``active`` is not needed."""
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
        self._last_i = i_lin + np.add.reduce(f)
        self._terms = self._history((D, A))

    def flush(self) -> None:
        """Write each member's last port current back onto its element."""
        for el, i in zip(self.els, self._last_i.tolist()):
            el._last_i = i
