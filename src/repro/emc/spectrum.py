"""Emission spectra of simulated port waveforms.

The paper's end goal is *system EMC assessment*: the macromodels exist so
that conducted/radiated emission levels of a digital port can be predicted
cheaply over many operating scenarios.  This module turns transient records
into the frequency-domain quantities an EMC receiver reports:

* :func:`resample_uniform` -- put a (possibly non-uniform) transient grid
  onto the uniform grid the FFT needs;
* :func:`amplitude_spectrum` -- single-sided windowed-FFT amplitude
  spectrum, scaled so a pure tone of amplitude ``A`` reads ``A`` in its bin
  (any window, coherent-gain corrected);
* :func:`welch_psd` -- Welch-averaged power spectral density (one-sided,
  power-gain corrected), for broadband/noise-like content;
* :func:`to_db_micro` -- conversion to the EMC dB conventions
  (dBuV = 20 log10(V / 1 uV), dBuA likewise);
* :func:`peak_hold` -- the vectorized max-hold envelope across a whole
  sweep's worth of spectra in one pass, i.e. the "worst bin anywhere on the
  grid" curve a compliance report quotes.

Spectra are single-shot: they describe the simulated record (pattern burst
plus ringing), windowed like a spectrum-analyzer sweep would see it, not an
infinite periodic extension.  Levels therefore depend on the record length
-- compare spectra of equal-duration records, which is exactly what a
:class:`~repro.studies.runner.ScenarioRunner` grid produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..copy_on_read import CopyOnRead
from ..errors import ExperimentError

__all__ = ["Spectrum", "Spectrogram", "resample_uniform",
           "amplitude_spectrum", "welch_psd", "to_db_micro", "to_dbuv",
           "to_dbua", "peak_hold", "quantile_hold", "spectrogram",
           "WINDOWS"]

#: supported window generators (name -> callable(n) -> array)
WINDOWS = {
    "rect": np.ones,
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
}

#: linear floor (in the spectrum's own unit) applied before taking logs
_DB_FLOOR = 1e-15


def _window(name: str, n: int) -> np.ndarray:
    try:
        return WINDOWS[name](n)
    except KeyError:
        raise ExperimentError(
            f"unknown window {name!r}; pick from {sorted(WINDOWS)}") from None


def to_db_micro(x) -> np.ndarray:
    """Linear magnitude -> dB relative to 1e-6 (dBuV for volts, dBuA for
    amperes).  Zeros are floored, never -inf."""
    x = np.abs(np.asarray(x, dtype=float))
    return 20.0 * np.log10(np.maximum(x, _DB_FLOOR) / 1e-6)


#: EMC-conventional aliases; both are :func:`to_db_micro`
to_dbuv = to_db_micro
to_dbua = to_db_micro


@dataclass
class Spectrum(CopyOnRead):
    """One-sided spectrum of a real waveform.

    ``mag`` is linear: peak amplitude per bin (``kind="amplitude"``, unit
    ``"V"``, ``"A"`` or ``"V/m"``) or power density (``kind="psd"``, unit
    implicitly squared-per-Hz).  ``db()`` applies the EMC convention:
    dBuV / dBuA / dBuV/m for amplitude spectra, 10 log10 relative to
    (1 u)^2/Hz for PSDs.  ``detector`` names the CISPR 16 detector whose
    weighting the magnitudes carry: ``"peak"`` (the raw FFT amplitude)
    or ``"quasi-peak"`` / ``"average"`` after
    :func:`repro.emc.detectors.apply_detector`.
    """

    f: np.ndarray
    mag: np.ndarray
    unit: str = "V"
    kind: str = "amplitude"
    label: str = ""
    detector: str = "peak"
    meta: dict = field(default_factory=dict)

    #: a cache hit's clone copies its arrays on first read
    _COPY_ON_READ = {"f": np.copy, "mag": np.copy}

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.mag = np.asarray(self.mag, dtype=float)
        if self.f.shape != self.mag.shape or self.f.ndim != 1:
            raise ExperimentError("f and mag must be equal-length 1-D arrays")

    def __len__(self) -> int:
        return self.f.size

    @property
    def df(self) -> float:
        """Bin spacing (Hz)."""
        return float(self.f[1] - self.f[0]) if self.f.size > 1 else 0.0

    def db(self) -> np.ndarray:
        """Levels in the EMC dB convention, per bin.

        Amplitude spectra convert as ``20 log10(mag / 1e-6)`` -- dBuV
        for V, dBuA for A, dBuV/m for V/m; PSDs as ``10 log10(mag /
        1e-12)`` (dB relative to one micro-unit squared per Hz).  Zero
        magnitudes are floored, never ``-inf``.
        """
        if self.kind == "psd":
            m = np.maximum(np.abs(self.mag), _DB_FLOOR)
            return 10.0 * np.log10(m / 1e-12)
        return to_db_micro(self.mag)

    def copy(self, **overrides) -> "Spectrum":
        """Deep copy (fresh arrays, fresh meta dict)."""
        fields = dict(f=self.f.copy(), mag=self.mag.copy(),
                      meta=dict(self.meta))
        fields.update(overrides)
        return replace(self, **fields)


def resample_uniform(t, v, n: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Resample ``(t, v)`` onto a uniform grid spanning the same interval.

    Already-uniform grids (the fixed-step engine's output) pass through
    unchanged when ``n`` is not forcing a different length; non-uniform
    grids (imported scope data, adaptive solvers) are linearly interpolated
    onto ``n`` points (default: the input length).  Both paths return
    *fresh* arrays the caller owns: the pass-through copies, so mutating
    the resampled output can never corrupt the input waveform (the
    interpolation path allocates new arrays anyway).
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 2:
        raise ExperimentError("need equal-length 1-D t/v with >= 2 samples")
    steps = np.diff(t)
    if np.any(steps <= 0.0):
        raise ExperimentError("time grid must be strictly increasing")
    if n is None:
        n = t.size
    dt0 = steps[0]
    if n == t.size and np.allclose(steps, dt0, rtol=1e-6, atol=0.0):
        # copy-on-passthrough: asarray above aliases ndarray inputs, and
        # the two paths must agree on ownership of the returned arrays
        return t.copy(), v.copy()
    t_u = np.linspace(t[0], t[-1], int(n))
    return t_u, np.interp(t_u, t, v)


def amplitude_spectrum(t, v, window: str = "hann", n_fft: int | None = None,
                       unit: str = "V", label: str = "") -> Spectrum:
    """Single-sided amplitude spectrum of one transient record.

    The record is uniformly resampled if needed, windowed, and scaled by
    the window's coherent gain so a bin-centered tone of amplitude ``A``
    reads ``A`` (DC and Nyquist carry no single-sided doubling).

    Parameters
    ----------
    t : array_like
        Sample instants in seconds (strictly increasing).
    v : array_like
        Waveform samples, same length as ``t`` (V or A -- state it in
        ``unit``).
    window : str
        One of :data:`WINDOWS` (default ``"hann"``).
    n_fft : int, optional
        FFT length: zero-pads (finer bin spacing) or truncates the
        record; ``None`` uses the record length.
    unit : str
        Physical unit of ``v``: ``"V"`` or ``"A"``.
    label : str
        Cosmetic label carried on the result.

    Returns
    -------
    Spectrum
        Amplitude spectrum (``kind="amplitude"``, ``detector="peak"``)
        with frequencies in Hz and linear magnitudes in ``unit``.
    """
    t, v = resample_uniform(t, v)
    dt = (t[-1] - t[0]) / (t.size - 1)
    if n_fft is None:
        n_fft = t.size
    n_fft = int(n_fft)
    if n_fft < 2:
        raise ExperimentError("n_fft must be >= 2")
    n = min(t.size, n_fft)
    w = _window(window, n)
    spec = np.fft.rfft(v[:n] * w, n=n_fft)
    mag = np.abs(spec) * (2.0 / np.sum(w))
    mag[0] *= 0.5
    if n_fft % 2 == 0:
        mag[-1] *= 0.5
    return Spectrum(np.fft.rfftfreq(n_fft, d=dt), mag, unit=unit,
                    label=label,
                    meta={"window": window, "n_fft": n_fft, "dt": dt})


def welch_psd(t, v, window: str = "hann", nperseg: int | None = None,
              overlap: float = 0.5, unit: str = "V",
              label: str = "") -> Spectrum:
    """One-sided Welch power-spectral-density estimate (unit^2 / Hz).

    The record is split into ``nperseg``-sample segments advanced by
    ``nperseg * (1 - overlap)``, each windowed periodogram is power-gain
    corrected (``sum(w^2)``), and the segments are averaged.  With a rect
    window and one full-length segment this reduces to the plain
    periodogram, so ``sum(psd) * df == mean(v^2)`` (Parseval).

    Parameters
    ----------
    t, v : array_like
        Sample instants (s) and waveform samples (``unit``).
    window : str
        One of :data:`WINDOWS`.
    nperseg : int, optional
        Segment length in samples (default ``min(n, 256)``).
    overlap : float
        Fractional segment overlap in ``[0, 1)``.
    unit : str
        Physical unit of ``v`` (``"V"`` or ``"A"``); the PSD is
        implicitly ``unit^2 / Hz``.
    label : str
        Cosmetic label carried on the result.

    Returns
    -------
    Spectrum
        PSD spectrum (``kind="psd"``), frequencies in Hz.
    """
    t, v = resample_uniform(t, v)
    dt = (t[-1] - t[0]) / (t.size - 1)
    fs = 1.0 / dt
    n = t.size
    if nperseg is None:
        nperseg = min(n, 256)
    nperseg = int(nperseg)
    if not 2 <= nperseg <= n:
        raise ExperimentError("need 2 <= nperseg <= len(v)")
    if not 0.0 <= overlap < 1.0:
        raise ExperimentError("overlap must lie in [0, 1)")
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    w = _window(window, nperseg)
    u = fs * float(np.sum(w * w))
    starts = range(0, n - nperseg + 1, step)
    # vectorized: gather every segment into one (n_seg, nperseg) matrix
    idx = np.asarray(starts)[:, None] + np.arange(nperseg)[None, :]
    segs = v[idx] * w
    pxx = np.mean(np.abs(np.fft.rfft(segs, axis=1)) ** 2, axis=0) / u
    pxx[1:] *= 2.0
    if nperseg % 2 == 0:
        pxx[-1] *= 0.5
    return Spectrum(np.fft.rfftfreq(nperseg, d=dt), pxx, unit=unit,
                    kind="psd", label=label,
                    meta={"window": window, "nperseg": nperseg,
                          "n_segments": len(starts), "dt": dt})


def _common_grid(spectra, interpolate: bool, what: str):
    """Stack many spectra onto one frequency grid.

    Shared machinery of the sweep-level aggregations
    (:func:`peak_hold`, :func:`quantile_hold`): validates that
    unit/kind/detector match across the set, then returns ``(f, mags,
    same_grid)`` where ``mags`` is the ``(n_spectra, n_bins)`` magnitude
    matrix on the common grid ``f``.  Spectra sharing one grid stack
    directly; mixed grids are linearly interpolated onto the finest grid
    present (smallest median bin spacing), clipped at both ends to the
    band every spectrum actually covers -- ``interpolate=False`` raises
    instead, for callers that require exact bin alignment.
    """
    spectra = list(spectra)
    if not spectra:
        raise ExperimentError(f"{what} needs at least one spectrum")
    first = spectra[0]
    for s in spectra[1:]:
        if s.unit != first.unit or s.kind != first.kind:
            raise ExperimentError(f"{what} needs matching unit/kind")
        if s.detector != first.detector:
            raise ExperimentError(
                f"{what} needs matching detectors; got "
                f"{first.detector!r} and {s.detector!r} -- an envelope "
                "mixing detector weightings is not a measurement")
    # read-only: a cache hit's arrays are read in place, never copied
    fs = [s.peek("f") for s in spectra]
    f0 = fs[0]
    same_grid = all(g.shape == f0.shape
                    and (np.array_equal(g, f0)
                         or np.allclose(g, f0, rtol=1e-9, atol=0.0))
                    for g in fs[1:])
    if same_grid:
        f = f0.copy()
        mags = np.stack([s.peek("mag") for s in spectra])
    elif not interpolate:
        raise ExperimentError(
            f"{what}(interpolate=False) needs a common frequency grid; "
            "use matching n_fft/t_stop across the sweep")
    else:
        # finest = smallest typical bin spacing; the median is robust to
        # one irregular first bin (a grid whose fundamental differs from
        # its spacing would win or lose on f[1]-f[0] alone)
        def typical_df(g):
            d = np.median(np.diff(g)) if g.size > 1 else np.inf
            return d if d > 0 else np.inf
        finest = min(fs, key=typical_df)
        # clip to the band every spectrum covers on BOTH ends: np.interp
        # flat-extrapolates outside [g[0], g[-1]], which below a coarse
        # grid's first bin would hold its lowest-frequency level across
        # bins it never measured
        f_lo = max(float(g[0]) for g in fs)
        f_hi = min(float(g[-1]) for g in fs)
        keep = (finest >= f_lo * (1.0 - 1e-12)) \
            & (finest <= f_hi * (1.0 + 1e-12))
        f = finest[keep]
        if f.size < 2:
            raise ExperimentError("spectra share no frequency band")
        mags = np.stack([np.interp(f, g, s.peek("mag"))
                         for g, s in zip(fs, spectra)])
    return f, mags, same_grid


def peak_hold(spectra, interpolate: bool = True) -> Spectrum:
    """Max-hold envelope across many spectra.

    This is the sweep-level aggregation an EMC report quotes: the worst
    level any scenario produced in each bin.  Spectra sharing one
    frequency grid (same ``n_fft`` and record duration) reduce in a single
    vectorized ``max`` over the stacked magnitude matrix.  Mixed grids
    (e.g. different pattern lengths across the sweep) are linearly interpolated onto the
    finest grid present (smallest median bin spacing), clipped at both
    ends to the band every spectrum actually covers, before the same
    one-pass reduction -- ``interpolate=False`` raises instead, for
    callers that require exact bin alignment.
    """
    spectra = list(spectra)
    f, mags, same_grid = _common_grid(spectra, interpolate, "peak_hold")
    first = spectra[0]
    env = np.max(mags, axis=0)
    return Spectrum(f, env, unit=first.unit, kind=first.kind,
                    label=f"peak-hold({len(spectra)})",
                    detector=first.detector,
                    meta={"n_spectra": len(spectra),
                          "interpolated": not same_grid})


def _linear_quantiles(mags: np.ndarray, qs: tuple) -> np.ndarray:
    """``np.quantile(mags, qs, axis=0)`` bit for bit, from one sort.

    ``np.quantile`` partitions the population axis around the order
    statistics of every call; sorting it once serves all of ``qs``.  The
    index and interpolation arithmetic below is numpy's ``linear``
    method step by step (virtual index ``(n - 1) q``, the last order
    statistic at and above ``n - 1``, the two-sided lerp), which keeps
    the bands bitwise equal.  (Only the sign of a zero can differ, where
    ``-0.0`` and ``0.0`` tie and the partition orders them its own way;
    magnitudes hold no ``-0.0``.)  NaN sorts last, and numpy answers NaN
    for a whole column holding one, so such a population takes numpy's
    own path.
    """
    srt = np.sort(mags, axis=0)
    if np.isnan(srt[-1]).any():
        return np.quantile(mags, qs, axis=0)
    n = srt.shape[0]
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(virtual)
    top = virtual >= n - 1
    lo[top] = -1
    gamma = (virtual - lo)[:, None]
    lo = lo.astype(np.intp)
    a, b = srt[lo], srt[np.where(top, -1, lo + 1)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def quantile_hold(spectra, qs=(0.5, 0.95, 0.99),
                  interpolate: bool = True) -> dict:
    """Per-frequency quantile bands across many spectra.

    The statistical counterpart of :func:`peak_hold`: where the max-hold
    envelope answers "how bad can any bin get", the quantile bands
    answer "how bad is bin ``f`` for a fraction ``q`` of the population"
    -- the aggregation a Monte Carlo emission study
    (:class:`repro.studies.stochastic.StochasticStudy`) reports.  The
    spectra stack onto one common grid (same rules as
    :func:`peak_hold`, mixed grids interpolate onto the finest) and each
    requested quantile reduces the ``(n_spectra, n_bins)`` magnitude
    matrix along the population axis exactly as ``np.quantile`` does
    (linear interpolation between order statistics, bit for bit, so the
    result is deterministic for a given draw set regardless of how it
    was computed); one sort of the population axis serves every
    quantile.

    Returns ``{"p50": Spectrum, "p95": Spectrum, ...}`` keyed by
    ``f"p{100 q:g}"``; magnitudes are linear, in the input unit, and by
    construction pointwise monotone in ``q`` (``p50 <= p95 <= p99 <=``
    the :func:`peak_hold` envelope of the same set).
    """
    spectra = list(spectra)
    qs = tuple(float(q) for q in qs)
    if not qs or any(not 0.0 <= q <= 1.0 for q in qs):
        raise ExperimentError("quantiles must lie in [0, 1]")
    f, mags, same_grid = _common_grid(spectra, interpolate,
                                      "quantile_hold")
    first = spectra[0]
    levels = _linear_quantiles(mags, qs)
    out = {}
    for q, level in zip(qs, levels):
        name = f"p{100.0 * q:g}"
        out[name] = Spectrum(
            f.copy(), np.asarray(level, dtype=float),
            unit=first.unit, kind=first.kind,
            label=f"{name}({len(spectra)})", detector=first.detector,
            meta={"n_spectra": len(spectra), "q": q,
                  "interpolated": not same_grid})
    return out


@dataclass
class Spectrogram:
    """Time-resolved emission view of one long record.

    ``mag[i, j]`` is the linear single-sided amplitude of frequency bin
    ``f[j]`` measured over the time window centered at ``t[i]`` -- the
    short-time counterpart of :class:`Spectrum`, produced by
    :func:`spectrogram`.  ``db()`` applies the same EMC convention as
    :meth:`Spectrum.db` (dBuV / dBuA per bin); :meth:`peak_hold`
    collapses the time axis into the max-hold :class:`Spectrum` an EMC
    receiver in max-hold mode would have accumulated over the record.
    """

    t: np.ndarray
    f: np.ndarray
    mag: np.ndarray
    unit: str = "V"
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.mag = np.asarray(self.mag, dtype=float)
        if self.mag.shape != (self.t.size, self.f.size):
            raise ExperimentError(
                "mag must be an (n_windows, n_bins) matrix matching t/f")

    def db(self) -> np.ndarray:
        """The magnitude matrix in dB-micro units (floored, never
        ``-inf``)."""
        return to_db_micro(self.mag)

    def peak_hold(self) -> Spectrum:
        """Max-hold over the time windows, as a :class:`Spectrum`."""
        return Spectrum(self.f.copy(), np.max(self.mag, axis=0),
                        unit=self.unit,
                        label=f"peak-hold({self.t.size}w)",
                        meta=dict(self.meta, n_windows=int(self.t.size)))


def spectrogram(t, v, window: str = "hann", nperseg: int | None = None,
                overlap: float = 0.5, unit: str = "V",
                label: str = "") -> Spectrogram:
    """Short-time amplitude spectrogram of one transient record.

    The record is uniformly resampled, split into ``nperseg``-sample
    windows advanced by ``nperseg * (1 - overlap)``, and each window is
    scaled exactly like :func:`amplitude_spectrum` (coherent-gain
    corrected single-sided amplitude), so a tone of amplitude ``A``
    present during a window reads ``A`` in that window's row.  This is
    the time-resolved emission view a long random bit stream needs:
    which portions of the traffic light up which bands, with
    :meth:`Spectrogram.peak_hold` recovering the receiver's max-hold
    trace.

    ``nperseg`` defaults to an eighth of the record (at least 16
    samples); ``overlap`` is the fractional window overlap in ``[0,
    1)``.
    """
    t, v = resample_uniform(t, v)
    dt = (t[-1] - t[0]) / (t.size - 1)
    n = t.size
    if nperseg is None:
        nperseg = max(16, n // 8)
    nperseg = int(min(nperseg, n))
    if nperseg < 2:
        raise ExperimentError("need nperseg >= 2")
    if not 0.0 <= overlap < 1.0:
        raise ExperimentError("overlap must lie in [0, 1)")
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    w = _window(window, nperseg)
    starts = np.arange(0, n - nperseg + 1, step)
    idx = starts[:, None] + np.arange(nperseg)[None, :]
    spec = np.fft.rfft(v[idx] * w, axis=1)
    mags = np.abs(spec) * (2.0 / np.sum(w))
    mags[:, 0] *= 0.5
    if nperseg % 2 == 0:
        mags[:, -1] *= 0.5
    centers = t[0] + (starts + (nperseg - 1) / 2.0) * dt
    return Spectrogram(centers, np.fft.rfftfreq(nperseg, d=dt), mags,
                       unit=unit, label=label,
                       meta={"window": window, "nperseg": nperseg,
                             "overlap": float(overlap), "dt": dt,
                             "n_windows": int(starts.size)})
