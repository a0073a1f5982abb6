"""Frequency-domain ABCD interconnect backend.

The transient engine pays O(timesteps) per scenario even when the whole
interconnect is linear and the only nonlinear device is the driver
macromodel at the near-end port.  This module is the fast path for that
case: the interconnect is an ABCD (chain-parameter) two-port composed
block by block over an rfft frequency grid, the driver port is solved
by a Newton-Krylov harmonic balance over the record plus a settling
tail (batched NARX evaluations over the whole period), and the port
voltage/current records come back on exactly the transient time grid --
so windowed spectra, detector weighting and mask verdicts downstream are
computed by the very same :mod:`repro.emc` code path.

Three layers:

* **ABCD blocks and composition** -- :func:`series_impedance`,
  :func:`shunt_admittance`, :func:`lossless_line`, :func:`rlgc_line`,
  :func:`compose` (matrix product over the frequency axis),
  :func:`abcd_to_s`;
* **passivity checking** -- :func:`passivity_margin` (``1 - sigma_max``
  of the S-matrix) and the adaptively sampled :func:`check_passivity`
  producing a :class:`PassivityReport` (De Stefano-style refinement
  near the smallest margin);
* **the driver-port solver** -- :func:`extract_thevenin` (two-load
  Thevenin identification of the driver's periodic source spectrum) and
  :func:`solve_driver_port`, the harmonic-balance iteration returning a
  :class:`FDSolution`.

The scenario-level entry point is
:func:`repro.studies.simulate.simulate_scenario` with
``backend="fd"`` (or ``RunnerOptions(backend="fd")`` /
``--backend fd`` on the CLI); load kinds opt in through
:meth:`repro.studies.kinds.ScenarioKind.fd_network`.  Accuracy and the
documented equivalence tolerance are stated in ``docs/fd_backend.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExperimentError
from ..obs import get_tracer

__all__ = [
    "FDNetwork", "FDSolution", "PassivityReport", "TheveninSource",
    "abcd_identity", "abcd_to_s", "check_passivity", "compose",
    "extract_thevenin", "lossless_line", "passivity_margin", "rlgc_line",
    "series_impedance", "shunt_admittance", "solve_driver_port",
]


# ---------------------------------------------------------------------------
# ABCD block library
# ---------------------------------------------------------------------------
#
# A block is a complex ndarray of shape (nf, 2, 2): one chain matrix
# [[A, B], [C, D]] per frequency sample, in the V1 = A V2 + B I2,
# I1 = C V2 + D I2 convention (port 2 current flowing OUT of the block
# into the load).  Cascading is then a plain matrix product per bin.

def abcd_identity(nf: int) -> np.ndarray:
    """The do-nothing block: ``nf`` stacked 2x2 identity matrices."""
    out = np.zeros((int(nf), 2, 2), complex)
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def _as_per_bin(value, nf: int) -> np.ndarray:
    """Broadcast a scalar or (nf,) array to one complex value per bin."""
    arr = np.asarray(value, complex)
    if arr.ndim == 0:
        return np.full(nf, complex(arr))
    if arr.shape != (nf,):
        raise ExperimentError(
            f"per-bin value must be scalar or shape ({nf},); got "
            f"{arr.shape}")
    return arr


def series_impedance(z, nf: int | None = None) -> np.ndarray:
    """Series impedance block ``[[1, Z], [0, 1]]``.

    ``z`` is a scalar or a per-bin array; with a scalar, ``nf`` gives
    the number of frequency samples.
    """
    z = _as_per_bin(z, int(nf) if nf is not None else np.size(z))
    out = abcd_identity(z.size)
    out[:, 0, 1] = z
    return out


def shunt_admittance(y, nf: int | None = None) -> np.ndarray:
    """Shunt admittance block ``[[1, 0], [Y, 1]]``.

    ``y`` is a scalar or a per-bin array; with a scalar, ``nf`` gives
    the number of frequency samples.
    """
    y = _as_per_bin(y, int(nf) if nf is not None else np.size(y))
    out = abcd_identity(y.size)
    out[:, 1, 0] = y
    return out


def lossless_line(f: np.ndarray, z0: float, td: float) -> np.ndarray:
    """Ideal lossless line block of impedance ``z0`` and delay ``td``.

    ``[[cos(theta), j z0 sin(theta)], [j sin(theta)/z0, cos(theta)]]``
    with ``theta = 2 pi f td`` -- the exact frequency-domain image of
    :class:`~repro.circuit.IdealLine`.
    """
    if z0 <= 0.0 or td <= 0.0:
        raise ExperimentError("lossless_line needs z0 > 0 and td > 0")
    f = np.asarray(f, float)
    th = 2.0 * np.pi * f * td
    out = np.empty((f.size, 2, 2), complex)
    out[:, 0, 0] = out[:, 1, 1] = np.cos(th)
    out[:, 0, 1] = 1j * z0 * np.sin(th)
    out[:, 1, 0] = 1j * np.sin(th) / z0
    return out


def rlgc_line(f: np.ndarray, length: float, r: float = 0.0,
              l: float = 0.0, g: float = 0.0, c: float = 0.0) -> np.ndarray:
    """Uniform lossy line block from per-unit-length RLGC parameters.

    ``A = D = cosh(gamma length)``, ``B = Z' length sinhc(gamma length)``
    and ``C = Y' length sinhc(gamma length)`` with ``Z' = r + j w l``,
    ``Y' = g + j w c`` and ``gamma = sqrt(Z' Y')``.  The ``sinhc`` form
    (``sinh(x)/x``, 1 at 0) keeps the DC bin and electrically short
    lines exact without dividing by a vanishing characteristic
    admittance, and makes the result independent of the branch chosen
    for the square root (``cosh`` and ``sinhc`` are even functions).
    """
    if length <= 0.0:
        raise ExperimentError("rlgc_line needs length > 0")
    if l <= 0.0 and c <= 0.0 and r <= 0.0 and g <= 0.0:
        raise ExperimentError("rlgc_line needs at least one non-zero "
                              "per-unit-length parameter")
    f = np.asarray(f, float)
    w = 2.0 * np.pi * f
    zpul = r + 1j * w * l
    ypul = g + 1j * w * c
    gl = np.sqrt(zpul * ypul) * length
    small = np.abs(gl) < 1e-6
    gl_safe = np.where(small, 1.0, gl)
    sinhc = np.where(small, 1.0 + gl * gl / 6.0, np.sinh(gl_safe) / gl_safe)
    out = np.empty((f.size, 2, 2), complex)
    out[:, 0, 0] = out[:, 1, 1] = np.cosh(gl)
    out[:, 0, 1] = zpul * length * sinhc
    out[:, 1, 0] = ypul * length * sinhc
    return out


def compose(*blocks: np.ndarray) -> np.ndarray:
    """Cascade ABCD blocks, driver side first, as one matrix product.

    ``compose(b1, b2, b3)`` is the chain whose port 1 faces ``b1`` and
    whose port 2 faces ``b3``'s load side -- one vectorized 2x2 matmul
    per frequency bin and cascade stage.
    """
    if not blocks:
        raise ExperimentError("compose needs at least one ABCD block")
    out = np.asarray(blocks[0], complex)
    for b in blocks[1:]:
        b = np.asarray(b, complex)
        if b.shape != out.shape:
            raise ExperimentError(
                f"cannot compose ABCD blocks of shapes {out.shape} and "
                f"{b.shape}: frequency grids differ")
        out = out @ b
    return out


def abcd_to_s(abcd: np.ndarray, z0: float = 50.0) -> np.ndarray:
    """Scattering matrix of an ABCD chain in a real reference ``z0``.

    Standard two-port conversion; the result has the same
    ``(nf, 2, 2)`` shape.  Reciprocal blocks (``AD - BC = 1``) give
    ``S12 = S21``.
    """
    if z0 <= 0.0:
        raise ExperimentError("abcd_to_s needs a positive reference z0")
    abcd = np.asarray(abcd, complex)
    a = abcd[:, 0, 0]
    b = abcd[:, 0, 1] / z0
    c = abcd[:, 1, 0] * z0
    d = abcd[:, 1, 1]
    den = a + b + c + d
    s = np.empty_like(abcd)
    s[:, 0, 0] = (a + b - c - d) / den
    s[:, 0, 1] = 2.0 * (a * d - b * c) / den
    s[:, 1, 0] = 2.0 / den
    s[:, 1, 1] = (-a + b - c + d) / den
    return s


def passivity_margin(s: np.ndarray) -> np.ndarray:
    """Per-frequency passivity margin ``1 - sigma_max(S)``.

    A passive network never amplifies: the largest singular value of its
    scattering matrix stays <= 1 at every frequency, so a negative
    margin anywhere flags an active (or numerically broken) block.  The
    2x2 singular value is computed in closed form from the eigenvalues
    of ``S^H S`` -- no per-bin LAPACK calls.
    """
    s = np.asarray(s, complex)
    m = np.conj(np.swapaxes(s, -1, -2)) @ s
    ha = m[:, 0, 0].real
    hd = m[:, 1, 1].real
    hb = m[:, 0, 1]
    lam = 0.5 * (ha + hd) + np.sqrt((0.5 * (ha - hd)) ** 2
                                    + np.abs(hb) ** 2)
    return 1.0 - np.sqrt(np.maximum(lam, 0.0))


@dataclass(frozen=True)
class PassivityReport:
    """Result of an adaptive passivity sweep over a composed network.

    ``f``/``margin`` are the full sampled grid (sorted, coarse plus
    refined points); ``refined`` holds just the adaptively inserted
    frequencies, so callers (and tests) can see *where* the sampler
    concentrated.  ``passive`` is the verdict at ``margin_tol``.
    """

    f: np.ndarray
    margin: np.ndarray
    refined: np.ndarray
    passive: bool
    worst_f: float
    worst_margin: float
    margin_tol: float

    def __len__(self) -> int:
        """Number of sampled frequencies."""
        return self.f.size


def check_passivity(network, f_lo: float, f_hi: float,
                    n_coarse: int = 16, n_refine: int = 24,
                    z0: float = 50.0,
                    margin_tol: float = 1e-9) -> PassivityReport:
    """Adaptively sampled passivity check of a composed ABCD network.

    ``network`` is a callable mapping a frequency array (Hz) to the
    ``(nf, 2, 2)`` ABCD chain (e.g. ``lambda f: compose(...)``).  The
    margin :func:`passivity_margin` is evaluated on a log-spaced coarse
    grid over ``[f_lo, f_hi]``, then ``n_refine`` extra samples are
    inserted one pair at a time at the log-midpoints flanking the
    current worst margin -- the De Stefano-style concentration of
    samples where a passivity violation would hide.  The network is
    declared passive when the worst sampled margin stays above
    ``-margin_tol`` (lossless chains sit exactly at margin 0, so a
    strict 0 threshold would flag roundoff).
    """
    if not 0.0 < f_lo < f_hi:
        raise ExperimentError("check_passivity needs 0 < f_lo < f_hi")
    if n_coarse < 2:
        raise ExperimentError("check_passivity needs n_coarse >= 2")
    f = np.geomspace(f_lo, f_hi, int(n_coarse))
    margin = passivity_margin(abcd_to_s(network(f), z0=z0))
    refined: list[float] = []
    for _ in range(int(n_refine) // 2 + int(n_refine) % 2):
        if len(refined) >= n_refine:
            break
        k = int(np.argmin(margin))
        new = []
        if k > 0:
            new.append(float(np.sqrt(f[k - 1] * f[k])))
        if k < f.size - 1:
            new.append(float(np.sqrt(f[k] * f[k + 1])))
        new = [fn for fn in new
               if not np.any(np.isclose(f, fn, rtol=1e-12, atol=0.0))]
        if not new:
            break
        new = np.asarray(new[:n_refine - len(refined)], float)
        m_new = passivity_margin(abcd_to_s(network(new), z0=z0))
        refined.extend(new.tolist())
        order = np.argsort(np.concatenate([f, new]))
        f = np.concatenate([f, new])[order]
        margin = np.concatenate([margin, m_new])[order]
    k = int(np.argmin(margin))
    return PassivityReport(
        f=f, margin=margin, refined=np.asarray(sorted(refined), float),
        passive=bool(margin[k] >= -margin_tol),
        worst_f=float(f[k]), worst_margin=float(margin[k]),
        margin_tol=float(margin_tol))



# ---------------------------------------------------------------------------
# the driver-side periodic source: two-load Thevenin identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheveninSource:
    """Frequency-domain Thevenin equivalent of a driver's pattern drive.

    The harmonic balance runs over a *solve period* of ``n_period``
    samples: the ``n``-sample record (time grid ``t``) followed by a
    settling tail in which the driver returns to its initial logic state
    and the interconnect rings down, so the periodic solution restricted
    to the record is the from-rest response the transient engine
    computes.  ``f`` is the rfft grid of that period and ``wh``/``wl``
    the driver macromodel's high/low weighting timelines over it.
    ``vth``/``zth`` are the per-bin open-circuit source spectrum and
    source impedance identified from two resistive reference transients
    (:func:`extract_thevenin`), carried onto the period grid.  The
    equivalent seeds the harmonic-balance iteration -- the NARX model
    itself, not this linearization, sets the converged waveform.
    """

    f: np.ndarray
    vth: np.ndarray
    zth: np.ndarray
    n: int
    n_period: int
    t: np.ndarray
    wh: np.ndarray
    wl: np.ndarray


def _period_samples(n: int) -> int:
    """Solve-period length for an ``n``-sample record: at least twice the
    record (an equally long settling tail), rounded up to a 2-3-5-smooth
    FFT size."""
    target = 2 * n
    best = 5 * target
    p2 = 1
    while p2 < best:
        p3 = p2
        while p3 < best:
            p5 = p3
            while p5 < target:
                p5 *= 5
            best = min(best, p5)
            p3 *= 3
        p2 *= 2
    return best


# memoized per (driver model identity, pattern, bit_time, t_stop): the two
# reference transients dominate the FD solve cost, and a sweep reuses one
# drive across its whole load grid
_THEVENIN_MEMO: dict = {}
_THEVENIN_MEMO_MAX = 64


def extract_thevenin(model, pattern: str, bit_time: float,
                     t_stop: float) -> TheveninSource:
    """Identify the driver's periodic Thevenin source spectrum.

    Runs the macromodeled driver into two known resistors (50 and 200
    ohm) with the transient engine on the model's own sampling grid and
    solves the two-point linear system per rfft bin::

        Vth = Va (Ra + Zth) / Ra,   Zth = Ra Rb (Vb - Va) / (Va Rb - Vb Ra)

    Bins where the system is ill-conditioned (the two loads see the same
    voltage, e.g. deep nulls) fall back to the median real source
    impedance.  The source waveform is then extended over the settling
    tail at its initial level and ``Zth`` interpolated onto the period
    grid (see :class:`TheveninSource`).  Memoized per (model identity,
    pattern, bit_time, t_stop): one load grid shares one extraction,
    which is how the FD backend amortizes to ~10x under the transient
    engine's cost.
    """
    key = (id(model), pattern, float(bit_time), float(t_stop))
    memo = _THEVENIN_MEMO.get(key)
    if memo is not None and memo[0] is model:
        return memo[1]

    from ..models import PWRBFDriverElement
    from .elements import Resistor
    from .netlist import Circuit
    from .transient import TransientOptions, run_transient
    from .waveforms import BitPattern

    def reference(r_load: float):
        ckt = Circuit(f"thevenin-r{r_load:g}")
        ckt.add(PWRBFDriverElement.for_pattern(
            "drv", "out", model, pattern, bit_time, t_stop))
        ckt.add(Resistor("rref", "out", "0", r_load))
        return run_transient(ckt, TransientOptions(
            dt=model.ts, t_stop=t_stop, method="damped", strict=False))

    ra_ohm, rb_ohm = 50.0, 200.0
    res_a = reference(ra_ohm)
    res_b = reference(rb_ohm)
    n = res_a.t.size
    va = np.fft.rfft(res_a.v("out"))
    vb = np.fft.rfft(res_b.v("out"))
    den = va * rb_ohm - vb * ra_ohm
    bad = np.abs(den) < 1e-9 * np.max(np.abs(den))
    zth = ra_ohm * rb_ohm * (vb - va) / np.where(bad, 1.0, den)
    if np.any(~bad):
        zth[bad] = np.median(zth[~bad].real)
    vth = va * (ra_ohm + zth) / ra_ohm

    n_period = _period_samples(n)
    f_rec = np.fft.rfftfreq(n, model.ts)
    f = np.fft.rfftfreq(n_period, model.ts)
    vth_t = np.fft.irfft(vth, n)
    vth = np.fft.rfft(np.concatenate(
        [vth_t, np.full(n_period - n, vth_t[0])]))
    zth = np.interp(f, f_rec, zth.real) + 1j * np.interp(f, f_rec, zth.imag)
    edges = BitPattern(pattern, bit_time=bit_time, v_low=0.0,
                       v_high=model.vdd).edges()
    if pattern[-1] != pattern[0]:
        # back to the initial state right after the record
        edges.append((n * model.ts, "up" if pattern[0] == "1" else "down"))
    wh, wl = model.weights_timeline(edges, n_period,
                                    initial_state=pattern[0])
    src = TheveninSource(f=f, vth=vth, zth=zth, n=n, n_period=n_period,
                         t=res_a.t, wh=wh, wl=wl)
    if len(_THEVENIN_MEMO) >= _THEVENIN_MEMO_MAX:
        _THEVENIN_MEMO.pop(next(iter(_THEVENIN_MEMO)))
    _THEVENIN_MEMO[key] = (model, src)
    return src


# ---------------------------------------------------------------------------
# batched NARX evaluation with full gradients
# ---------------------------------------------------------------------------

class _SubLin:
    """Batched value + full-gradient evaluator for one Gaussian-RBF
    submodel (the high/low halves of the PW-RBF driver)."""

    def __init__(self, sub):
        self.centers = np.asarray(sub.centers, float)
        self.c2 = np.sum(self.centers ** 2, axis=1)
        self.weights = np.asarray(sub.weights, float)
        self.affine = np.asarray(sub.affine, float)
        self.bias = float(sub.bias)
        self.sigma2 = float(sub.sigma) ** 2
        sc = sub.scaler
        self.mean = np.asarray(sc.mean, float)
        self.scale = np.asarray(sc.scale, float)
        self.lo = np.asarray(sc.lo, float)
        self.hi = np.asarray(sc.hi, float)

    def eval_full(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and d(value)/d(regressor) for a (n, d) regressor batch.

        Gradients are zeroed where the scaler clips (the model is
        constant there), so the Newton linearization matches the actual
        evaluated function, saturation included.
        """
        clipped = (x < self.lo) | (x > self.hi)
        z = (np.clip(x, self.lo, self.hi) - self.mean) / self.scale
        # |z - c|^2 expanded, so the work is two (n, d) x (d, M) matmuls
        d2 = np.sum(z * z, axis=1)[:, None] - 2.0 * (z @ self.centers.T) \
            + self.c2
        act = self.weights * np.exp(-np.maximum(d2, 0.0)
                                    / (2.0 * self.sigma2))
        val = self.bias + act.sum(axis=1) + z @ self.affine
        grads = ((act @ self.centers - act.sum(axis=1)[:, None] * z)
                 / self.sigma2 + self.affine) / self.scale
        grads[clipped] = 0.0
        return val, grads


def _narx_periodic(sub_h: _SubLin, sub_l: _SubLin, order: int, v, im,
                   wh, wl):
    """Weighted driver current + full gradient matrix over one period.

    The regressors ``[v(k), v(k-1..r), i(k-1..r)]`` wrap around the
    period.  Returns ``(i, G)``: the model port current (into the
    device) and the (n, 2r+1) gradient w.r.t. the regressors, both
    already combined with the high/low weighting timelines.
    """
    x = np.empty((v.size, 2 * order + 1))
    x[:, 0] = v
    for j in range(1, order + 1):
        x[:, j] = np.roll(v, j)
        x[:, order + j] = np.roll(im, j)
    fh, gh = sub_h.eval_full(x)
    fl, gl = sub_l.eval_full(x)
    return wh * fh + wl * fl, wh[:, None] * gh + wl[:, None] * gl


def _gmres(matvec, psolve, b: np.ndarray, rtol: float,
           maxiter: int) -> np.ndarray:
    """Right-preconditioned GMRES without restarts.

    Solves ``A x = b`` for ``A = matvec`` with ``psolve`` approximating
    ``A^-1``; stops once the least-squares residual falls under ``rtol``
    times ``|b|`` or after ``maxiter`` Arnoldi steps.  At these sizes
    (a few hundred unknowns, ~10 steps) ``scipy.sparse.linalg.gmres``
    spends more in call overhead than in the products: it made the
    64-scenario FD grid about 1.5x slower.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    basis = np.empty((maxiter + 1, b.size))
    hess = np.zeros((maxiter + 1, maxiter))
    rhs = np.zeros(maxiter + 1)
    rhs[0] = beta
    basis[0] = b / beta
    k = 0
    y = np.zeros(0)
    while k < maxiter:
        w = matvec(psolve(basis[k]))
        # classical Gram-Schmidt, applied twice for orthogonality
        hcol = basis[:k + 1] @ w
        w = w - hcol @ basis[:k + 1]
        corr = basis[:k + 1] @ w
        w = w - corr @ basis[:k + 1]
        hess[:k + 1, k] = hcol + corr
        hess[k + 1, k] = np.linalg.norm(w)
        k += 1
        y, *_ = np.linalg.lstsq(hess[:k + 1, :k], rhs[:k + 1], rcond=None)
        resid = np.linalg.norm(hess[:k + 1, :k] @ y - rhs[:k + 1])
        if resid <= rtol * beta or hess[k, k - 1] <= 1e-14 * beta:
            break
        basis[k] = w / hess[k, k - 1]
    return psolve(y @ basis[:k])


# ---------------------------------------------------------------------------
# the driver-port harmonic-balance solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDNetwork:
    """Frequency-domain view of a scenario's linear interconnect.

    ``chain`` is the composed ABCD cascade from the driver pad to the
    observation port (``None`` means the observation port *is* the pad);
    ``y_term`` is the per-bin termination admittance loading that port.
    ``delay`` (seconds) is the chain's total propagation delay and
    ``n_blocks`` counts the cascaded blocks (both observability only).
    Produced per scenario by
    :meth:`repro.studies.kinds.ScenarioKind.fd_network`.
    """

    y_term: np.ndarray
    chain: np.ndarray | None = None
    delay: float = 0.0
    n_blocks: int = 0

    def transfer(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin ``(e, h)``: ``V_pad = e V_obs`` and ``I_pad = h V_obs``.

        For the chain terminated by ``y_term``, ``e = A + B y`` and
        ``h = C + D y``; without a chain the pad sees the termination
        directly (``e = 1``, ``h = y``).  ``Yin = h / e`` is the input
        admittance the solver balances the driver against.
        """
        y = np.asarray(self.y_term, complex)
        if self.chain is None:
            return np.ones(y.size, complex), y
        e = self.chain[:, 0, 0] + self.chain[:, 0, 1] * y
        h = self.chain[:, 1, 0] + self.chain[:, 1, 1] * y
        return e, h


@dataclass
class FDSolution:
    """One FD-solved scenario record, on the transient time grid.

    ``v_pad``/``v_obs`` are the driver-pad and observation-port voltage
    records, ``i_port`` the current flowing from the pad into the
    interconnect (the series-probe sign of the transient backend).
    ``residual`` is the final max-norm KCL residual (amperes, over the
    whole solve period) with ``converged`` its verdict against the
    requested tolerance; ``n_iter`` counts Newton iterations and
    ``n_bins`` the rfft bins solved.
    """

    t: np.ndarray
    v_pad: np.ndarray
    v_obs: np.ndarray
    i_port: np.ndarray
    n_iter: int
    residual: float
    converged: bool
    n_bins: int
    warnings: list = field(default_factory=list)


def solve_driver_port(model, pattern: str, bit_time: float, t_stop: float,
                      network: FDNetwork, max_outer: int = 8,
                      tol_rel: float = 1e-3) -> FDSolution:
    """Solve the nonlinear driver port against a linear FD network.

    Harmonic balance over the solve period of
    :func:`extract_thevenin` (the record plus a settling tail, so the
    periodic solution is the from-rest response on the record): KCL at
    the pad is ``Yin(f) V(f) + I_model(v) = 0`` with ``Yin`` from
    :meth:`FDNetwork.transfer` -- which must be sampled on the period
    grid ``TheveninSource.f`` -- and ``I_model`` the PW-RBF NARX driver
    current (positive into the device).  The NARX current-history
    regressors take the port current ``-Yin v`` of the same iterate, so
    the residual depends on ``v`` alone.

    Each Newton iteration solves the exact linearization (network
    convolution plus the per-sample NARX gradients) by GMRES,
    preconditioned with the scalar frequency response
    ``P = (1 - B0) Yin + A0`` built from the median NARX gradients over
    voltage and current lags, then backtracks the step until the
    residual norm falls.  The iteration stops when the residual
    max-norm falls under ``tol_rel`` times the port current scale, when
    a step no longer reduces it, or at ``max_outer``.  A non-converged
    solve is still returned with a warning string.
    """
    src = extract_thevenin(model, pattern, bit_time, t_stop)
    n, n_per = src.n, src.n_period
    order = model.order
    e, h = network.transfer()
    if e.shape != src.f.shape:
        raise ExperimentError(
            f"FDNetwork has {e.shape[0]} bins; the {n_per}-sample solve "
            f"period needs {src.f.size}")
    esafe = np.where(np.abs(e) < 1e-12, 1e-12, e)
    yin = h / esafe

    def net_current(x):
        return np.fft.irfft(yin * np.fft.rfft(x), n_per)

    with get_tracer().span("fd.solve", bins=int(src.f.size),
                           n_blocks=int(network.n_blocks)) as sp:
        sub_h = _SubLin(model.sub_high)
        sub_l = _SubLin(model.sub_low)
        zlag = np.exp(-2j * np.pi * src.f * model.ts)
        zpow = [zlag ** j for j in range(order + 1)]

        def evaluate(v):
            yv = net_current(v)
            i_mod, grad = _narx_periodic(sub_h, sub_l, order, v, -yv,
                                         src.wh, src.wl)
            return yv + i_mod, i_mod, grad

        def precond(grad):
            # scalar frequency-domain surrogate of the Jacobian
            # (1 - B0) Yin + A0: voltage-lag polynomial A0 and
            # current-history feedback B0 (the history is -Yin v, so it
            # loops back through the network), medians over the period,
            # floored away from resonance/negative-conductance blowups
            med = np.median(grad, axis=0)
            a0 = sum(med[j] * zpow[j] for j in range(order + 1))
            b0 = sum(med[order + j] * zpow[j] for j in range(1, order + 1))
            den = 1.0 - b0
            mag = np.abs(den)
            den = np.where(mag < 0.05,
                           den * (0.05 / np.maximum(mag, 1e-12)), den)
            aeff = a0 / den
            aeff = np.clip(aeff.real, 1e-3, None) + 1j * aeff.imag
            p = (yin + aeff) * den
            return lambda x: np.fft.irfft(np.fft.rfft(x) / p, n_per)

        def jacobian(grad):
            def matvec(x):
                yx = net_current(x)
                out = yx + grad[:, 0] * x
                for j in range(1, order + 1):
                    out += grad[:, j] * np.roll(x, j) \
                        - grad[:, order + j] * np.roll(yx, j)
                return out
            return matvec

        # Thevenin linear estimate seeds the iteration
        v = np.fft.irfft(e * src.vth / (e + src.zth * h), n_per)
        res, i_mod, grad = evaluate(v)
        n_iter = 0
        while True:
            rn = float(np.max(np.abs(res)))
            iscale = max(float(np.max(np.abs(i_mod))), 1e-6)
            if rn < tol_rel * iscale or n_iter >= max_outer:
                break
            n_iter += 1
            step = _gmres(jacobian(grad), precond(grad), -res,
                          rtol=1e-2, maxiter=40)
            norm0 = float(np.linalg.norm(res))
            lam = 1.0
            trial = evaluate(v + step)
            while np.linalg.norm(trial[0]) >= norm0 and lam > 1.0 / 16:
                lam *= 0.5
                trial = evaluate(v + lam * step)
            if np.linalg.norm(trial[0]) >= norm0:
                break           # stalled: no step length reduces the residual
            v = v + lam * step
            res, i_mod, grad = trial

        converged = rn < tol_rel * iscale
        v_spec = np.fft.rfft(v)
        v_obs = np.fft.irfft(v_spec / esafe, n_per)[:n] \
            if network.chain is not None else v[:n]
        i_port = np.fft.irfft(yin * v_spec, n_per)[:n]
        sp.set(outers=n_iter, residual=rn, converged=converged)

    warnings = []
    if not converged:
        warnings.append(
            f"fd solver stopped at residual {rn:.2e} A after {n_iter} "
            f"iterations (tol {tol_rel * iscale:.2e} A)")
    return FDSolution(t=src.t, v_pad=v[:n], v_obs=v_obs, i_port=i_port,
                      n_iter=n_iter, residual=rn, converged=converged,
                      n_bins=int(src.f.size), warnings=warnings)
