"""Declarative study descriptions: scenarios, grids and the Study object.

A :class:`Study` is the one-object description of a board-level EMC
assessment: the grid axes (bit patterns x loads x drivers x process
corners), the timing, an optional emission-measurement request
(:class:`SpectralSpec` with masks / CISPR 16 detectors / antenna model)
and the runner options -- everything
:meth:`Study.run` needs to produce compliance verdicts.  Studies are
plain data: ``to_dict``/``from_dict`` round-trip losslessly, and
:meth:`Study.save`/:meth:`Study.load` serialize to TOML (or JSON) files,
so a study travels as a reviewable config file::

    study = Study.load("study.toml")
    result = study.run()
    print(result.compliance_table())

The same canonical serialized form is the cache-key input: every
:class:`Scenario` renders its physics (pattern, canonical load dict from
the kind registry, driver, corner, timing, resolved spectral request) as
a canonical JSON string -- :meth:`Scenario.key` -- which keys both the
in-memory result cache and (with the model fingerprints folded in) the
disk cache.  A study loaded from TOML therefore produces *identical*
digests to the equivalent programmatic :func:`scenario_grid` sweep.

Load kinds dispatch through :mod:`repro.studies.kinds`: the specs here
carry data only, and every kind-specific behavior (wiring, identity,
metrics, serialization) lives on the registered :class:`ScenarioKind`.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path

import numpy as np

from ..emc.detectors import DETECTORS
from ..emc.limits import LimitMask, get_mask
from ..emc.radiated import AntennaModel
from ..emc.spectrum import WINDOWS
from ..errors import ExperimentError
from ..experiments.cache import canonical_json as _canonical_json
from ..experiments.cache import scenario_key_digest
from ..memo import Memoized, generation
from .kinds import _register_builtin_kinds, get_kind

__all__ = ["SpectralSpec", "BaseLoadSpec", "LoadSpec", "CoupledLoadSpec",
           "Scenario", "scenario_grid", "CORNERS", "RunnerOptions",
           "Study", "load_from_dict"]

#: the paper's process corners, for ``scenario_grid(..., corners=CORNERS)``
CORNERS = ("slow", "typ", "fast")


def _listify(obj):
    """Nested tuples become lists (plain JSON-able canonical dicts)."""
    if isinstance(obj, (tuple, list)):
        return [_listify(o) for o in obj]
    return obj


# ---------------------------------------------------------------------------
# the emission-measurement request
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSpec:
    """Per-scenario emission-measurement request.

    Parameters
    ----------
    quantity : str
        ``"v_port"`` (pad/observation-node voltage, V) or ``"i_port"``
        (conducted port current in A, measured by a series
        :class:`~repro.circuit.CurrentProbe` between the driver pad and
        the load -- the current waveform also rides along as probe
        ``"i_port"``).
    window : str
        FFT window for :func:`~repro.emc.spectrum.amplitude_spectrum`.
    n_fft : int, optional
        FFT length (zero-pad/truncate); ``None`` uses the record length.
    mask : str or LimitMask, optional
        Conducted limit mask scored against every requested detector's
        spectrum; ``None`` computes spectra without conducted verdicts.
    detectors : str or sequence of str
        CISPR 16 detectors to emulate (``"peak"``, ``"quasi-peak"``,
        ``"average"``; see :mod:`repro.emc.detectors`).  The raw FFT
        spectrum is the peak detector; other detectors add weighted
        spectra under ``"<quantity>@<detector>"`` outcome keys and their
        own verdicts.
    prf : float, optional
        In-service repetition frequency of the simulated burst in Hz
        (frame/packet rate), used by the detector weighting.  ``None``
        assumes back-to-back repetition (line spacing), under which
        every detector reads the peak value.
    antenna : AntennaModel, optional
        Cable-antenna model turning the ``i_port`` common-mode current
        spectrum into a radiated E-field estimate (``"e_field"`` outcome
        spectra, V/m); requires ``quantity="i_port"``.
    radiated_mask : str or LimitMask, optional
        Field-strength mask (unit ``dBuV/m``) scored against the
        radiated estimate of every requested detector; requires
        ``antenna``.
    """

    quantity: str = "v_port"
    window: str = "hann"
    n_fft: int | None = None
    mask: object = None
    detectors: object = ("peak",)
    prf: float | None = None
    antenna: AntennaModel | None = None
    radiated_mask: object = None

    def __post_init__(self):
        if self.quantity not in ("v_port", "i_port"):
            raise ExperimentError(
                "SpectralSpec.quantity must be 'v_port' or 'i_port'")
        # fail fast at construction: a bad window/n_fft would otherwise
        # only surface as one error outcome per scenario after a full
        # sweep's worth of simulation
        if self.window not in WINDOWS:
            raise ExperimentError(
                f"unknown window {self.window!r}; pick from "
                f"{sorted(WINDOWS)}")
        if self.n_fft is not None and int(self.n_fft) < 2:
            raise ExperimentError("n_fft must be >= 2")
        dets = (self.detectors,) if isinstance(self.detectors, str) \
            else tuple(self.detectors)
        if not dets:
            raise ExperimentError("detectors must name at least one of "
                                  f"{DETECTORS}")
        seen = []
        for d in dets:
            if d not in DETECTORS:
                raise ExperimentError(
                    f"unknown detector {d!r}; pick from {DETECTORS}")
            if d not in seen:
                seen.append(d)
        object.__setattr__(self, "detectors", tuple(seen))
        if self.prf is not None and not float(self.prf) > 0.0:
            raise ExperimentError("prf must be positive (Hz)")
        if self.antenna is not None:
            if not isinstance(self.antenna, AntennaModel):
                raise ExperimentError("antenna must be an AntennaModel")
            if self.quantity != "i_port":
                raise ExperimentError(
                    "radiated estimation needs the common-mode current: "
                    "antenna requires quantity='i_port'")
        if self.radiated_mask is not None and self.antenna is None:
            raise ExperimentError(
                "radiated_mask requires an antenna model")
        # an unknown mask name would only fail once per scenario, after
        # the whole grid has been simulated
        for fname in ("mask", "radiated_mask"):
            mask = getattr(self, fname)
            if mask is None:
                continue
            if not isinstance(mask, (str, LimitMask)):
                raise ExperimentError(
                    f"spectral {fname} must be a mask name or a LimitMask, "
                    f"not {type(mask).__name__}")
            try:
                get_mask(mask)
            except ExperimentError as exc:
                raise ExperimentError(f"spectral {fname}: {exc}") from None

    def resolved_mask(self):
        """Conducted mask resolved to a LimitMask (or ``None``)."""
        return get_mask(self.mask) if self.mask is not None else None

    def resolved_radiated_mask(self):
        """Radiated mask resolved to a LimitMask (or ``None``)."""
        return get_mask(self.radiated_mask) \
            if self.radiated_mask is not None else None

    def spectrum_keys(self) -> list[str]:
        """Outcome ``spectra`` keys this request produces, in order.

        The raw (peak) spectrum is always stored under ``quantity``;
        non-peak detectors add ``"<quantity>@<detector>"``; an antenna
        adds ``"e_field"`` (peak) and/or ``"e_field@<detector>"``, one
        per requested detector.
        """
        keys = [self.quantity]
        keys += [f"{self.quantity}@{d}" for d in self.detectors
                 if d != "peak"]
        if self.antenna is not None:
            keys += ["e_field" if d == "peak" else f"e_field@{d}"
                     for d in self.detectors]
        return keys

    def canonical(self) -> dict:
        """Content identity as a JSON-able dict (cache-key fragment).

        Mask names are resolved to mask *content*, so a registered name
        and an identical inline mask share cache entries.
        """
        mask_key = get_mask(self.mask).key() if self.mask is not None \
            else None
        rad_key = get_mask(self.radiated_mask).key() \
            if self.radiated_mask is not None else None
        ant_key = self.antenna.key() if self.antenna is not None else None
        return {"quantity": self.quantity, "window": self.window,
                "n_fft": None if self.n_fft is None else int(self.n_fft),
                "mask": _listify(mask_key),
                "detectors": list(self.detectors),
                "prf": None if self.prf is None else float(self.prf),
                "antenna": _listify(ant_key),
                "radiated_mask": _listify(rad_key)}

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (the Study schema)."""
        out: dict = {"quantity": self.quantity, "window": self.window}
        if self.n_fft is not None:
            out["n_fft"] = int(self.n_fft)
        if self.mask is not None:
            out["mask"] = _mask_to_dict(self.mask)
        out["detectors"] = list(self.detectors)
        if self.prf is not None:
            out["prf"] = float(self.prf)
        if self.antenna is not None:
            out["antenna"] = _antenna_to_dict(self.antenna)
        if self.radiated_mask is not None:
            out["radiated_mask"] = _mask_to_dict(self.radiated_mask)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralSpec":
        """Rebuild a request from :meth:`to_dict` output."""
        kw = dict(d)
        if "n_fft" in kw:
            kw["n_fft"] = int(kw["n_fft"])
        if "prf" in kw:
            kw["prf"] = float(kw["prf"])
        for fname in ("mask", "radiated_mask"):
            if fname in kw:
                kw[fname] = _mask_from_dict(kw[fname], fname)
        if "detectors" in kw:
            kw["detectors"] = tuple(kw["detectors"])
        if "antenna" in kw:
            kw["antenna"] = _antenna_from_dict(kw["antenna"])
        unknown = set(kw) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown SpectralSpec fields {sorted(unknown)}")
        return cls(**kw)


def _mask_to_dict(mask):
    """Mask serialized form: a registered name stays a name (resolved at
    use), an inline :class:`LimitMask` embeds its content."""
    if isinstance(mask, str):
        return mask
    mask = get_mask(mask)
    return {"name": mask.name, "unit": mask.unit,
            "segments": [[s.f_lo, s.f_hi, s.db_lo, s.db_hi]
                         for s in mask.segments]}


def _mask_from_dict(d, fname: str = "mask"):
    """Inverse of :func:`_mask_to_dict`; a malformed inline mask raises
    :class:`ExperimentError` naming the spectral field ``fname``."""
    if isinstance(d, (str, LimitMask)):
        return d
    try:
        return LimitMask(str(d["name"]),
                         tuple(tuple(float(x) for x in seg)
                               for seg in d["segments"]),
                         unit=str(d.get("unit", "dBuV")))
    except ExperimentError as exc:
        raise ExperimentError(f"spectral {fname}: {exc}") from None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ExperimentError(
            f"spectral {fname}: give a mask name or an inline table with "
            f"'name' and 'segments' ({type(exc).__name__}: {exc})") from None


def _antenna_to_dict(antenna: AntennaModel) -> dict:
    """Antenna serialized form (all dataclass fields, defaults too)."""
    out = {"kind": antenna.kind, "length": float(antenna.length),
           "distance": float(antenna.distance),
           "cm_fraction": float(antenna.cm_fraction)}
    if antenna.points:
        out["points"] = [[float(f), float(k)] for f, k in antenna.points]
    if antenna.label:
        out["label"] = antenna.label
    return out


def _antenna_from_dict(d) -> AntennaModel:
    """Inverse of :func:`_antenna_to_dict`."""
    if isinstance(d, AntennaModel):
        return d
    kw = dict(d)
    if "points" in kw:
        kw["points"] = tuple(tuple(float(x) for x in p)
                             for p in kw["points"])
    for name in ("length", "distance", "cm_fraction"):
        if name in kw:
            kw[name] = float(kw[name])
    return AntennaModel(**kw)


# ---------------------------------------------------------------------------
# load specs (data only -- behavior lives on the registered kinds)
# ---------------------------------------------------------------------------

class BaseLoadSpec:
    """Shared kind-dispatch surface of the load-spec dataclasses.

    Third-party load specs inherit this (with a frozen dataclass body
    and a ``kind`` attribute naming their registered
    :class:`~repro.studies.kinds.ScenarioKind`) and get description,
    cache identity, wiring, probes and serialization for free -- see
    ``examples/power_rail_study.py``.
    """

    def describe(self) -> str:
        """Short human-readable load name (label, or a kind-synthesized
        ``r50`` / ``line75x1n-r1e5`` style tag)."""
        return get_kind(self.kind).describe(self)

    def canonical(self) -> dict:
        """Canonical JSON-able physics identity (cache-key fragment;
        excludes cosmetic labels and the spectral request)."""
        return get_kind(self.kind).physics(self)

    def probes(self) -> dict:
        """Extra named observation nodes (probe name -> circuit node)."""
        return get_kind(self.kind).probes(self)

    def build(self, ckt, port: str) -> str:
        """Attach the load; returns the far-end observation node."""
        return get_kind(self.kind).build_circuit(self, ckt, port)

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (the Study schema)."""
        return get_kind(self.kind).load_to_dict(self)


def _study_table(d) -> dict:
    """The field table of a serialized study: ``d`` itself, or the table
    nested under its ``"study"`` key.  Anything but a table raises
    :class:`ExperimentError`."""
    if isinstance(d, dict) and isinstance(d.get("study"), dict):
        d = d["study"]
    if not isinstance(d, dict):
        raise ExperimentError(
            f"a study must be a table of fields, not {type(d).__name__}")
    return d


def _coerce_field(name: str, convert, value):
    """``convert(value)`` for the top-level study field ``name``.

    A value of the wrong type or form (``bit_time = "fast"``, ``loads =
    5``) raises :class:`ExperimentError` naming the field, so the service
    answers 400 and the CLI exits 2 instead of surfacing a bare
    ``TypeError``/``ValueError``.
    """
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"study field {name!r}: {exc}") from exc


def load_from_dict(d: dict):
    """Rebuild any load spec from its ``to_dict`` form.

    Dispatches on ``d["kind"]`` through the registry, so third-party
    kinds deserialize exactly like built-in ones.
    """
    try:
        name = d["kind"]
    except KeyError:
        raise ExperimentError(
            "a serialized load needs a 'kind' field") from None
    return get_kind(name).load_from_dict(d)


@dataclass(frozen=True)
class LoadSpec(BaseLoadSpec):
    """Single-victim termination attached to the driver port.

    ``kind`` names a registered :class:`~repro.studies.kinds.ScenarioKind`
    -- built-ins: ``"r"`` (shunt resistor), ``"rc"`` (shunt R parallel
    C), ``"line"`` (ideal line of impedance ``z0``/delay ``td`` into a
    far-end resistor ``r`` with optional capacitor ``c``) or ``"rx"``
    (ideal line into the parametric macromodel of a catalog *receiver*
    input port -- the paper's receiver-side termination; ``r > 0`` adds
    a parallel termination resistor at the receiver pad, ``r = 0``
    leaves the pad unterminated, and ``td = 0`` attaches the receiver
    directly to the driver port).  ``spectral`` requests emission
    spectra for every scenario built on this load (a scenario-level spec
    wins over it).
    """

    kind: str = "r"
    r: float = 50.0
    c: float = 0.0
    z0: float = 50.0
    td: float = 1e-9
    receiver: str = "MD4"
    label: str = ""
    spectral: SpectralSpec | None = None


@dataclass(frozen=True)
class CoupledLoadSpec(BaseLoadSpec):
    """Aggressor/victim pair over a symmetric two-conductor coupled line.

    The driver port excites conductor 1 (the aggressor); conductor 2 (the
    victim) idles behind ``r_victim_near``/``r_victim_far`` terminations.
    ``l_self``/``l_mut`` and ``c_self``/``c_mut`` are the per-unit-length
    inductance and Maxwell capacitance entries (``c_mut`` is the coupling
    magnitude, stored with the Maxwell sign internally); ``length`` is in
    meters.  Outcomes carry the victim's near/far-end waveforms under the
    probe names ``"next"``/``"fext"`` and the corresponding crosstalk
    metrics from :func:`repro.emc.metrics.crosstalk_metrics`.
    ``spectral`` requests emission spectra, exactly as on
    :class:`LoadSpec`.
    """

    l_self: float = 300e-9
    l_mut: float = 60e-9
    c_self: float = 100e-12
    c_mut: float = 5e-12
    length: float = 0.1
    r_far: float = 50.0
    c_far: float = 0.0
    r_victim_near: float = 50.0
    r_victim_far: float = 50.0
    label: str = ""
    spectral: SpectralSpec | None = None

    kind = "coupled"

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit-length (L, C) matrices of the symmetric pair."""
        if self.l_mut >= self.l_self:
            raise ExperimentError("need l_mut < l_self")
        if not 0.0 <= self.c_mut < self.c_self:
            raise ExperimentError("need 0 <= c_mut < c_self")
        L = np.array([[self.l_self, self.l_mut],
                      [self.l_mut, self.l_self]])
        C = np.array([[self.c_self, -self.c_mut],
                      [-self.c_mut, self.c_self]])
        return L, C


# ---------------------------------------------------------------------------
# one grid point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario(Memoized):
    """One point of an EMC sweep grid."""

    pattern: str
    load: LoadSpec = field(default_factory=LoadSpec)
    driver: str = "MD2"
    corner: str = "typ"
    bit_time: float = 2e-9
    dt: float | None = None       # None -> the driver model's sampling time
    t_stop: float | None = None   # None -> pattern duration + 2 bit times
    name: str = ""
    spectral: SpectralSpec | None = None  # None -> the load's request

    def resolved_name(self) -> str:
        """Display name: ``name`` or ``driver-corner-pattern-load``."""
        return self.name or (f"{self.driver}-{self.corner}-{self.pattern}-"
                             f"{self.load.describe()}")

    def spectral_spec(self) -> SpectralSpec | None:
        """Effective spectral request (scenario-level wins over the load)."""
        if self.spectral is not None:
            return self.spectral
        return getattr(self.load, "spectral", None)

    def canonical(self) -> dict:
        """Canonical JSON-able identity of the simulated physics.

        Cosmetic fields (``name``, ``load.label``) are excluded:
        scenarios that simulate the same physics share one cache entry.
        The effective spectral request IS part of the identity --
        outcomes carry the spectra/verdicts it produced, so different
        spectral settings (window, n_fft, mask) must never share an
        entry.
        """
        spec = self.spectral_spec()
        return {
            "pattern": self.pattern,
            "load": self.load.canonical(),
            "driver": self.driver,
            "corner": self.corner,
            "bit_time": float(self.bit_time),
            "dt": None if self.dt is None else float(self.dt),
            "t_stop": None if self.t_stop is None else float(self.t_stop),
            "spectral": spec.canonical() if spec is not None else None,
        }

    def key(self) -> str:
        """Cache identity: the canonical JSON rendering of
        :meth:`canonical` (stable across processes and platforms; the
        disk cache digests exactly this string).

        Rendered once per scenario and registry generation: a
        ``register_mask``/``register_kind`` call renders it afresh.
        """
        return self._memo("key", lambda: _canonical_json(self.canonical()),
                          generation())


def scenario_grid(patterns, loads, drivers=("MD2",), corners=("typ",),
                  **common) -> list[Scenario]:
    """Cartesian product of patterns x loads x drivers x corners."""
    return [Scenario(pattern=p, load=ld, driver=drv, corner=c, **common)
            for drv, c, p, ld in product(drivers, corners, patterns, loads)]


# ---------------------------------------------------------------------------
# the Study object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunnerOptions:
    """Execution options of a study (the ScenarioRunner knobs).

    ``n_workers`` ``None`` uses the CPU count, ``0``/``1`` runs
    serially; ``disk_cache`` names a directory backing the persistent
    result cache, which needs the result cache on.  A value of the wrong
    type or range raises :class:`ExperimentError` naming the option, so
    a study document fails when it is read, not when it runs.

    These knobs never affect the produced waveforms or verdicts -- only
    how they are computed -- so they stay out of every cache key.
    """

    n_workers: int | None = None
    use_result_cache: bool = True
    disk_cache: str | None = None

    def __post_init__(self):
        n = self.n_workers
        if n is not None:
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
                    or n < 0:
                raise ExperimentError(
                    f"runner option 'n_workers' must be a worker count "
                    f">= 0 (or unset), not {n!r}")
            object.__setattr__(self, "n_workers", int(n))
        if not isinstance(self.use_result_cache, bool):
            raise ExperimentError(
                f"runner option 'use_result_cache' must be true or "
                f"false, not {self.use_result_cache!r}")
        if self.disk_cache is not None:
            if not isinstance(self.disk_cache, (str, os.PathLike)) \
                    or not os.fspath(self.disk_cache):
                raise ExperimentError(
                    f"runner option 'disk_cache' must be a directory "
                    f"path, not {self.disk_cache!r}")
            if not self.use_result_cache:
                raise ExperimentError(
                    "runner option 'disk_cache' requires "
                    "use_result_cache=True; pass one or the other, not "
                    "the conflicting combination")
            # ScenarioRunner accepts any PathLike; normalize here so the
            # options stay TOML/JSON-serializable whatever was passed
            object.__setattr__(self, "disk_cache",
                               os.fspath(self.disk_cache))

    def to_dict(self) -> dict:
        """Non-default options as a JSON/TOML-able dict."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunnerOptions":
        """Rebuild options from :meth:`to_dict` output."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ExperimentError(
                f"unknown runner options {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class Study(Memoized):
    """Declarative description of one board-level EMC assessment.

    The grid is the cartesian product ``drivers x corners x patterns x
    loads`` (the :func:`scenario_grid` order); ``spectral`` is the
    study-wide emission request (per-load requests still win, exactly as
    on :class:`Scenario`).  ``name`` is cosmetic.  Sequences normalize
    to tuples so studies hash and compare by value.
    """

    patterns: tuple = ()
    loads: tuple = (LoadSpec(),)
    drivers: tuple = ("MD2",)
    corners: tuple = ("typ",)
    name: str = ""
    bit_time: float = 2e-9
    dt: float | None = None
    t_stop: float | None = None
    spectral: SpectralSpec | None = None
    options: RunnerOptions = field(default_factory=RunnerOptions)

    def __post_init__(self):
        # a bare string is one value, not a sequence of characters:
        # Study(patterns="0110") must mean one four-bit pattern, never
        # four silent single-bit scenarios
        for fname in ("patterns", "drivers", "corners"):
            value = getattr(self, fname)
            if isinstance(value, str):
                value = (value,)
            object.__setattr__(self, fname, tuple(value))
        loads = self.loads
        if isinstance(loads, BaseLoadSpec):
            loads = (loads,)
        object.__setattr__(self, "loads", tuple(loads))
        self._check_patterns()
        if not self.loads:
            raise ExperimentError("a Study needs at least one load")
        if not self.drivers or not self.corners:
            raise ExperimentError(
                "a Study needs at least one driver and one corner")
        # resolve kinds now: an unknown kind should fail at description
        # time, not one error-outcome per scenario after dispatch
        for load in self.loads:
            get_kind(load.kind)

    def _check_patterns(self) -> None:
        """The pattern-axis rule: at least one non-empty 0/1 pattern."""
        if not self.patterns:
            raise ExperimentError("a Study needs at least one pattern")
        for p in self.patterns:
            if not p or set(p) - {"0", "1"}:
                raise ExperimentError(
                    f"pattern {p!r} must be a non-empty string of 0/1 bits")

    def scenarios(self) -> list[Scenario]:
        """The study's grid as a list of :class:`Scenario` (grid order).

        Rendered once per instance (:meth:`_render_grid`): shard
        planning, digest and every run reuse the same scenario objects,
        and with them their memoized keys.
        """
        return list(self._memo("grid", self._render_grid))

    def _render_grid(self) -> tuple:
        """The grid's scenarios, ``drivers x corners x patterns x loads``.

        The study-wide ``spectral`` is a *default*: loads carrying their
        own request keep it (their scenarios get no scenario-level spec,
        which would override the load's -- scenario-level wins on
        :class:`Scenario`).
        """
        return tuple(Scenario(pattern=p, load=ld, driver=drv, corner=c,
                              bit_time=self.bit_time, dt=self.dt,
                              t_stop=self.t_stop,
                              spectral=None
                              if getattr(ld, "spectral", None) is not None
                              else self.spectral)
                     for drv, c, p, ld in product(self.drivers, self.corners,
                                                  self.patterns, self.loads))

    def __len__(self) -> int:
        """Number of grid points."""
        return (len(self.patterns) * len(self.loads) * len(self.drivers)
                * len(self.corners))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering of the study."""
        out: dict = {}
        if self.name:
            out["name"] = self.name
        out["patterns"] = list(self.patterns)
        out["drivers"] = list(self.drivers)
        out["corners"] = list(self.corners)
        out["bit_time"] = float(self.bit_time)
        if self.dt is not None:
            out["dt"] = float(self.dt)
        if self.t_stop is not None:
            out["t_stop"] = float(self.t_stop)
        out["loads"] = [load.to_dict() for load in self.loads]
        if self.spectral is not None:
            out["spectral"] = self.spectral.to_dict()
        runner = self.options.to_dict()
        if runner:
            out["runner"] = runner
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Study":
        """Rebuild a study from :meth:`to_dict` output (also accepts the
        whole dict nested under a ``"study"`` table).

        A dict carrying a ``"stochastic"`` table rebuilds as a
        :class:`~repro.studies.stochastic.StochasticStudy` -- the
        service and shard workers deserialize through this one
        classmethod, so the dispatch keeps Monte Carlo studies
        round-tripping everywhere a plain study does.
        """
        d = _study_table(d)
        if "stochastic" in d and cls is Study:
            from .stochastic import StochasticStudy
            return StochasticStudy.from_dict(d)
        kw = dict(d)
        unknown = set(kw) - {f.name for f in fields(cls)} - {"runner"}
        if unknown:
            raise ExperimentError(f"unknown Study fields {sorted(unknown)}")
        if "loads" in kw:
            kw["loads"] = _coerce_field("loads", lambda lds: tuple(
                ld if isinstance(ld, BaseLoadSpec) else load_from_dict(ld)
                for ld in lds), kw["loads"])
            # non-physical values fail here, naming the field, instead of
            # silently running (a negative capacitor reads as "none") or
            # failing later, once per scenario
            for ld in kw["loads"]:
                get_kind(ld.kind).validate(ld)
        if "spectral" in kw and not isinstance(kw["spectral"],
                                               SpectralSpec):
            kw["spectral"] = _coerce_field("spectral", SpectralSpec.from_dict,
                                          kw["spectral"])
        # the serialized table is named "runner", but accept the
        # dataclass-field spelling "options" too -- either way a plain
        # dict must coerce here, not surface as an AttributeError inside
        # Study.run
        if "runner" in kw and "options" in kw:
            raise ExperimentError(
                "give runner options once: 'runner' or 'options', "
                "not both")
        options = kw.pop("runner", None)
        if options is None:
            options = kw.pop("options", None)
        if options is not None and not isinstance(options, RunnerOptions):
            options = _coerce_field("runner", RunnerOptions.from_dict,
                                   options)
        if options is not None:
            kw["options"] = options
        for fname in ("bit_time", "dt", "t_stop"):
            if kw.get(fname) is not None:
                kw[fname] = _coerce_field(fname, float, kw[fname])
        for fname in ("patterns", "drivers", "corners"):
            if fname in kw:
                kw[fname] = _coerce_field(fname, tuple, kw[fname])
        return cls(**kw)

    def canonical(self) -> str:
        """Canonical JSON rendering of the study's *physics*.

        Deterministic across processes/platforms; :meth:`digest` hashes
        it.  Rendered as the grid's :meth:`Scenario.canonical` list --
        the very fragments the cache keys hash -- so everything cosmetic
        or execution-only is excluded: the study ``name``, load labels
        and runner options never change the produced waveforms, and two
        studies that simulate identical grids share one digest
        (load-level spectral requests included).
        """
        return _canonical_json({"scenarios": [sc.canonical()
                                              for sc in self.scenarios()]})

    def digest(self) -> str:
        """Short content digest of :meth:`canonical` (study identity)."""
        return scenario_key_digest(self.canonical())

    # -- file I/O -----------------------------------------------------------
    def to_toml(self) -> str:
        """The study as a TOML document (the ``Study.save`` format)."""
        return _toml_dumps(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "Study":
        """Parse a TOML study document."""
        import tomllib
        try:
            return cls.from_dict(tomllib.loads(text))
        except tomllib.TOMLDecodeError as exc:
            raise ExperimentError(f"invalid study TOML: {exc}") from exc

    def save(self, path) -> Path:
        """Write the study to ``path`` (TOML by default, JSON for
        ``.json``); returns the path."""
        path = Path(path)
        # explicit utf-8: the TOML writer emits non-ASCII text literally,
        # and the digest round-trip must not depend on the locale
        if path.suffix.lower() == ".json":
            path.write_text(json.dumps(self.to_dict(), indent=1) + "\n",
                            encoding="utf-8")
        else:
            path.write_text(self.to_toml(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "Study":
        """Read a study file written by :meth:`save` (TOML or JSON)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ExperimentError(f"cannot read study file {path}: "
                                  f"{exc}") from exc
        if path.suffix.lower() == ".json":
            try:
                return cls.from_dict(json.loads(text))
            except ValueError as exc:  # JSONDecodeError included
                raise ExperimentError(
                    f"invalid study JSON in {path}: {exc}") from exc
        return cls.from_toml(text)

    # -- execution ----------------------------------------------------------
    def make_result(self, outcomes, elapsed_s: float = 0.0,
                    phases: dict | None = None):
        """Wrap simulated outcomes in this study's result type.

        The one aggregation hook: :meth:`run` and the service's merge
        both finish through it, so a subclass that aggregates
        differently (:class:`~repro.studies.stochastic.StochasticStudy`
        returns a
        :class:`~repro.studies.stochastic.StochasticResult`) changes
        every execution path at once.
        """
        from .outcomes import StudyResult
        return StudyResult(outcomes, study=self, elapsed_s=elapsed_s,
                           phases=phases)

    def run(self, models: dict | None = None, runner=None, **overrides):
        """Simulate the study; returns :meth:`make_result`'s result
        (a :class:`~repro.studies.outcomes.StudyResult` here).

        Parameters
        ----------
        models : dict, optional
            ``(driver, corner) -> PWRBFDriverModel`` overrides handed to
            the runner (drivers not in the map are estimated once per
            process through :mod:`repro.experiments.cache`).
        runner : ScenarioRunner, optional
            Reuse an existing runner (its in-memory result cache
            included) instead of building one from ``self.options``.
        **overrides
            :class:`RunnerOptions` fields overriding the study's own
            (e.g. ``n_workers=1`` for a serial debug run).
        """
        import time

        from .runner import study_runner
        t0 = time.perf_counter()
        runner = study_runner(self.options, models, runner, **overrides)
        return self.make_result(self._outcomes(runner),
                                elapsed_s=time.perf_counter() - t0)

    def _outcomes(self, runner) -> list:
        """Simulate the grid on ``runner``; the outcomes in grid order."""
        return runner.run(self.scenarios()).outcomes


# ---------------------------------------------------------------------------
# minimal TOML writer (stdlib tomllib is read-only)
# ---------------------------------------------------------------------------

def _toml_scalar(value) -> str:
    """One TOML scalar (strings escape via JSON, a valid TOML subset).

    ``ensure_ascii=False`` keeps non-ASCII text literal -- JSON's ASCII
    mode writes non-BMP characters as surrogate-pair ``\\uXXXX`` escapes,
    which TOML rejects.  DEL (the one control character JSON leaves
    unescaped) is escaped by hand.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False).replace(
            "\x7f", "\\u007F")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise ExperimentError(
        f"cannot render {type(value).__name__} as TOML")


def _toml_table(d: dict, prefix: str, lines: list) -> None:
    """Emit one table: scalars first, then sub-tables, then arrays of
    tables (the order TOML requires)."""
    subtables, arrays = [], []
    for key, value in d.items():
        if isinstance(value, dict):
            subtables.append((key, value))
        elif isinstance(value, (list, tuple)) and value \
                and all(isinstance(v, dict) for v in value):
            arrays.append((key, value))
        elif value is None:
            continue  # TOML has no null; absent means default
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in subtables:
        name = f"{prefix}{key}"
        lines.append("")
        lines.append(f"[{name}]")
        _toml_table(value, f"{name}.", lines)
    for key, items in arrays:
        name = f"{prefix}{key}"
        for item in items:
            lines.append("")
            lines.append(f"[[{name}]]")
            _toml_table(item, f"{name}.", lines)


def _toml_dumps(d: dict) -> str:
    """Render a (nested) dict of scalars/lists/dicts as a TOML document."""
    lines: list = []
    _toml_table(d, "", lines)
    return "\n".join(lines).lstrip("\n") + "\n"


_register_builtin_kinds()
