"""EMC limit masks and compliance verdicts.

A :class:`LimitMask` is a piecewise limit line over log frequency -- the
shape every EMC standard uses -- checked against an amplitude
:class:`~repro.emc.spectrum.Spectrum` to produce a
:class:`ComplianceVerdict`: pass/fail, the worst margin in dB (positive =
headroom, negative = violation) and the frequency where it occurs.

Presets (see :data:`MASKS`):

* ``"cispr22-a"`` / ``"cispr22-b"`` -- the CISPR 22 / EN 55022 *conducted*
  quasi-peak limits at the mains port, Class A and Class B, 150 kHz-30 MHz,
  in dBuV.  Levels are the published QP columns (Class A: 79/73 dBuV;
  Class B: 66->56 dBuV falling log-linearly to 500 kHz, 56, then 60 dBuV).
  They are faithful to the standard and therefore only overlap the lowest
  bins of a nanosecond-scale record.
* ``"board-a"`` / ``"board-b"`` -- repo-defined CISPR-22-*shaped* masks for
  on-board port spectra (30 MHz-20 GHz, dBuV): the Class A/B step structure
  translated up to digital-port levels, calibrated so a matched, terminated
  driver passes while a hard-ringing unterminated corner fails.  These are
  engineering masks for relative scenario ranking, not regulatory limits.
* ``"board-i"`` -- the same idea for conducted port *current* spectra
  (dBuA), for scenarios probing the port current instead of the pad
  voltage.

Radiated (field-strength, dBuV/m) presets -- ``cispr22-a/b-radiated``,
``fcc-15b`` and ``cispr25`` -- are registered by
:mod:`repro.emc.radiated`.

User-defined masks: build a :class:`LimitMask` from explicit segments or
:meth:`LimitMask.from_points`, and optionally :func:`register_mask` it so
scenarios can name it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ExperimentError
from ..memo import bump_generation
from .spectrum import Spectrum

__all__ = ["LimitSegment", "LimitMask", "ComplianceVerdict", "MASKS",
           "get_mask", "register_mask", "worst_verdict"]

#: mask unit -> the Spectrum.unit it is allowed to score
_UNIT_TO_QUANTITY = {"dBuV": "V", "dBuA": "A", "dBuV/m": "V/m"}


@dataclass(frozen=True)
class LimitSegment:
    """One limit-line segment: log-f linear-dB between the two endpoints."""

    f_lo: float
    f_hi: float
    db_lo: float
    db_hi: float

    def __post_init__(self):
        if not (self.f_lo > 0.0 and self.f_hi > self.f_lo):
            raise ExperimentError("need 0 < f_lo < f_hi in a limit segment")

    def level(self, f: np.ndarray) -> np.ndarray:
        """Limit level at ``f`` (valid only inside [f_lo, f_hi])."""
        frac = (np.log10(f) - math.log10(self.f_lo)) \
            / (math.log10(self.f_hi) - math.log10(self.f_lo))
        return self.db_lo + (self.db_hi - self.db_lo) * frac


@dataclass(frozen=True)
class ComplianceVerdict:
    """Outcome of checking one spectrum against one mask.

    ``margin_db`` is ``min(limit - level)`` over the covered bins: positive
    means headroom everywhere, negative means at least one bin exceeds the
    limit (by that many dB at ``f_worst``).  ``detector`` records which
    CISPR 16 detector weighting the scored spectrum carried (``"peak"``,
    ``"quasi-peak"`` or ``"average"``) -- quasi-peak relief can turn a
    peak-detector FAIL into a PASS, so verdicts for different detectors
    are distinct results, never interchangeable.
    """

    mask: str
    passed: bool
    margin_db: float
    f_worst: float
    level_db: float
    limit_db: float
    n_over: int
    n_checked: int
    detector: str = "peak"

    def __str__(self):  # pragma: no cover - cosmetic
        word = "PASS" if self.passed else "FAIL"
        return (f"{word} vs {self.mask} [{self.detector}]: "
                f"margin {self.margin_db:+.1f} dB "
                f"at {self.f_worst / 1e6:.0f} MHz "
                f"({self.level_db:.1f} vs limit {self.limit_db:.1f}, "
                f"{self.n_over}/{self.n_checked} bins over)")

    def to_dict(self) -> dict:
        """JSON-able rendering (see :meth:`from_dict`)."""
        return {"mask": self.mask, "passed": bool(self.passed),
                "margin_db": float(self.margin_db),
                "f_worst": float(self.f_worst),
                "level_db": float(self.level_db),
                "limit_db": float(self.limit_db),
                "n_over": int(self.n_over),
                "n_checked": int(self.n_checked),
                "detector": self.detector}

    @classmethod
    def from_dict(cls, d: dict) -> "ComplianceVerdict":
        """Rebuild a verdict from :meth:`to_dict` output."""
        return cls(mask=str(d["mask"]), passed=bool(d["passed"]),
                   margin_db=float(d["margin_db"]),
                   f_worst=float(d["f_worst"]),
                   level_db=float(d["level_db"]),
                   limit_db=float(d["limit_db"]),
                   n_over=int(d["n_over"]), n_checked=int(d["n_checked"]),
                   detector=str(d.get("detector", "peak")))


def worst_verdict(verdicts) -> ComplianceVerdict | None:
    """The verdict with the least margin among ``verdicts`` (the first
    one on ties), or None when there is none: a scenario's combined
    verdict over its per-check verdicts."""
    return min(verdicts, key=lambda vd: vd.margin_db, default=None)


@dataclass(frozen=True)
class LimitMask:
    """Piecewise log-frequency limit line.

    ``segments`` must be sorted by frequency and non-overlapping (touching
    endpoints may carry different levels -- the standards' step
    discontinuities; the later segment wins at a shared frequency).
    Gaps between segments are allowed: bins falling in a gap are simply
    not checked (the CISPR 25 broadcast-band limits use this).
    ``unit`` is ``"dBuV"`` (checked against volt spectra), ``"dBuA"``
    (ampere spectra) or ``"dBuV/m"`` (radiated field-strength spectra,
    unit ``"V/m"``).
    """

    name: str
    segments: tuple
    unit: str = "dBuV"

    def __post_init__(self):
        segs = tuple(s if isinstance(s, LimitSegment) else LimitSegment(*s)
                     for s in self.segments)
        if not segs:
            raise ExperimentError("a LimitMask needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if b.f_lo < a.f_hi:
                raise ExperimentError(
                    f"mask {self.name!r}: overlapping segments at "
                    f"{b.f_lo:g} Hz")
        if self.unit not in _UNIT_TO_QUANTITY:
            raise ExperimentError(
                f"mask unit must be one of {sorted(_UNIT_TO_QUANTITY)}")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def from_points(cls, name: str, points, unit: str = "dBuV"
                    ) -> "LimitMask":
        """Mask from ``[(f_Hz, limit_dB), ...]`` vertices (contiguous
        log-interpolated segments between consecutive points)."""
        points = [(float(f), float(db)) for f, db in points]
        if len(points) < 2:
            raise ExperimentError("need at least two (f, dB) points")
        segs = tuple(LimitSegment(f0, f1, d0, d1)
                     for (f0, d0), (f1, d1) in zip(points, points[1:]))
        return cls(name, segs, unit=unit)

    @property
    def f_min(self) -> float:
        """Lowest limited frequency (Hz)."""
        return self.segments[0].f_lo

    @property
    def f_max(self) -> float:
        """Highest limited frequency (Hz)."""
        return self.segments[-1].f_hi

    def key(self) -> tuple:
        """Hashable content identity (folded into sweep cache keys)."""
        return (self.name, self.unit,
                tuple((s.f_lo, s.f_hi, s.db_lo, s.db_hi)
                      for s in self.segments))

    def shifted(self, delta_db: float) -> "LimitMask":
        """A copy with every level moved by ``delta_db`` (margin studies)."""
        segs = tuple(LimitSegment(s.f_lo, s.f_hi, s.db_lo + delta_db,
                                  s.db_hi + delta_db)
                     for s in self.segments)
        return replace(self, name=f"{self.name}{delta_db:+g}dB",
                       segments=segs)

    def level(self, f) -> np.ndarray:
        """Limit level at ``f`` in dB; NaN outside the mask's coverage."""
        f = np.asarray(f, dtype=float)
        out = np.full(f.shape, np.nan)
        for seg in self.segments:
            # relative epsilon on the edges: frequency grids computed in
            # floating point (rfftfreq, logspace) may land a hair outside
            sel = (f >= seg.f_lo * (1.0 - 1e-12)) \
                & (f <= seg.f_hi * (1.0 + 1e-12))
            if np.any(sel):
                out[sel] = seg.level(np.clip(f[sel], seg.f_lo, seg.f_hi))
        return out

    def check(self, spectrum: Spectrum) -> ComplianceVerdict:
        """Score an amplitude spectrum against this mask.

        Parameters
        ----------
        spectrum : Spectrum
            Amplitude spectrum in the quantity matching the mask's unit
            (``dBuV`` scores V, ``dBuA`` scores A, ``dBuV/m`` scores
            V/m).  Its ``detector`` field is recorded on the verdict.

        Returns
        -------
        ComplianceVerdict
            Pass/fail with the worst margin in dB and its frequency.
        """
        if spectrum.kind != "amplitude":
            raise ExperimentError(
                "limit masks check amplitude spectra; got a "
                f"{spectrum.kind!r} spectrum")
        expected = _UNIT_TO_QUANTITY[self.unit]
        if spectrum.unit != expected:
            raise ExperimentError(
                f"mask {self.name!r} ({self.unit}) cannot score a "
                f"{spectrum.unit!r} spectrum")
        limit = self.level(spectrum.f)
        covered = np.isfinite(limit)
        if not np.any(covered):
            raise ExperimentError(
                f"mask {self.name!r} ({self.f_min:g}-{self.f_max:g} Hz) "
                f"does not overlap the spectrum "
                f"({spectrum.f[0]:g}-{spectrum.f[-1]:g} Hz)")
        level = spectrum.db()[covered]
        lim = limit[covered]
        f_cov = spectrum.f[covered]
        margins = lim - level
        j = int(np.argmin(margins))
        margin = float(margins[j])
        return ComplianceVerdict(
            mask=self.name, passed=margin >= 0.0, margin_db=margin,
            f_worst=float(f_cov[j]), level_db=float(level[j]),
            limit_db=float(lim[j]), n_over=int(np.sum(margins < 0.0)),
            n_checked=int(margins.size),
            detector=getattr(spectrum, "detector", "peak"))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

#: CISPR 22 / EN 55022 conducted quasi-peak limits, mains port (dBuV)
_CISPR22_A = LimitMask("cispr22-a", (
    (150e3, 500e3, 79.0, 79.0),
    (500e3, 30e6, 73.0, 73.0),
))
_CISPR22_B = LimitMask("cispr22-b", (
    (150e3, 500e3, 66.0, 56.0),
    (500e3, 5e6, 56.0, 56.0),
    (5e6, 30e6, 60.0, 60.0),
))

#: repo-defined board-level masks (CISPR-22-shaped, digital-port levels):
#: calibrated against MD2 sweep spectra so matched/terminated ports pass
#: Class B while unterminated, hard-ringing corners fail it (and only the
#: worst corner fails the looser Class A)
_BOARD_A = LimitMask("board-a", (
    (30e6, 230e6, 130.0, 130.0),
    (230e6, 1e9, 130.0, 130.0),
    (1e9, 20e9, 118.0, 95.0),
))
_BOARD_B = LimitMask("board-b", (
    (30e6, 230e6, 127.0, 127.0),
    (230e6, 1e9, 124.0, 124.0),
    (1e9, 20e9, 112.0, 92.0),
))
#: conducted port-current companion of board-b (a 50 ohm port maps dBuV to
#: dBuA at -34 dB; same CISPR-22-like step shape)
_BOARD_I = LimitMask("board-i", (
    (30e6, 230e6, 93.0, 93.0),
    (230e6, 1e9, 90.0, 90.0),
    (1e9, 20e9, 78.0, 58.0),
), unit="dBuA")

MASKS: dict = {m.name: m for m in
               (_CISPR22_A, _CISPR22_B, _BOARD_A, _BOARD_B, _BOARD_I)}


def get_mask(mask) -> LimitMask:
    """Resolve a mask by name (or pass a :class:`LimitMask` through)."""
    if isinstance(mask, LimitMask):
        return mask
    try:
        return MASKS[mask]
    except KeyError:
        raise ExperimentError(
            f"unknown mask {mask!r}; presets: {sorted(MASKS)} "
            f"(register_mask() adds custom ones)") from None


def register_mask(mask: LimitMask, overwrite: bool = False) -> LimitMask:
    """Make a user-defined mask resolvable by name in scenario specs.

    Advances the registry generation, so memoized scenario keys
    (:meth:`repro.studies.Scenario.key`) render the new content."""
    if mask.name in MASKS and not overwrite:
        raise ExperimentError(f"mask {mask.name!r} already registered")
    MASKS[mask.name] = mask
    bump_generation()
    return mask
