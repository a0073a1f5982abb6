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
metrics, bounds) lives on the registered :class:`ScenarioKind`.  Every
table is read, rendered and checked by the one study schema
(:mod:`repro.studies.schema`), which names a bad field by its path.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from ..devices.catalog import DRIVERS
from ..emc.detectors import DETECTORS
from ..emc.limits import _UNIT_TO_QUANTITY, LimitMask, get_mask
from ..emc.radiated import AntennaModel
from ..emc.spectrum import WINDOWS
from ..errors import ExperimentError
from ..experiments.cache import canonical_json as _canonical_json
from ..experiments.cache import scenario_key_digest
from ..memo import Memoized, generation
from .kinds import _register_builtin_kinds, get_kind
from .schema import (Conv, FieldError, Int, Is, List, Num, PathStr, Record,
                     Str, Table, bad, declare, fld, from_dict, plan, to_dict)

__all__ = ["SpectralSpec", "BaseLoadSpec", "LoadSpec", "CoupledLoadSpec",
           "Scenario", "scenario_grid", "CORNERS", "MAX_SCENARIOS",
           "RunnerOptions", "Study", "load_from_dict"]

#: the paper's process corners, for ``scenario_grid(..., corners=CORNERS)``
CORNERS = ("slow", "typ", "fast")

#: admission ceiling of a study's size -- grid points, or a stochastic
#: study's draws: every one renders a scenario and keeps an outcome, so
#: a larger study is refused before any is rendered; 10**5 draws pin a
#: pass probability to +/-0.3% (95%)
MAX_SCENARIOS = 100_000


# ---------------------------------------------------------------------------
# the study form of limit masks and antenna models (defined in repro.emc)
# ---------------------------------------------------------------------------

class _Rows(List):
    """Rows of ``columns`` numbers whose leading ``n_f`` frequency
    columns are positive and increase (limit segments, antenna points)."""

    def __init__(self, columns: tuple, n_f: int):
        super().__init__(List(Num()), noun="row")
        self.columns, self.n_f = columns, n_f

    def _parse(self, value):
        rows, prev = super()._parse(value), 0.0
        for i, row in enumerate(rows):
            if len(row) != len(self.columns):
                raise FieldError(f"must be [{', '.join(self.columns)}]",
                                 (i,))
            for j, f in enumerate(row[:self.n_f]):
                strict = i == 0 or j > 0  # a row may start where one ends
                if not (f > prev if strict else f >= prev):
                    raise FieldError(f"must be {'>' if strict else '>='} "
                                     f"{prev:g} (frequencies are positive "
                                     f"and increase), got {f!r}", (i, j))
                prev = f
        return rows

    def _render(self, value):
        return [[float(x) for x in (dataclasses.astuple(row)
                                    if dataclasses.is_dataclass(row)
                                    else row)] for row in value]


declare(LimitMask, name=Str(), unit=Str(choices=_UNIT_TO_QUANTITY),
        segments=_Rows(("f_lo", "f_hi", "db_lo", "db_hi"), 2))
declare(AntennaModel, kind=Str(choices=("cable", "table")),
        length=Num(gt=0.0), distance=Num(gt=0.0),
        points=_Rows(("f", "k_db"), 1), cm_fraction=Num(gt=0.0, le=1.0),
        label=Str())


class _Mask(Conv):
    """A limit mask: a registered name (resolved at use), a
    :class:`LimitMask`, or an inline table of one."""

    def __init__(self, label: str):
        super().__init__(optional=True)
        self.label = label

    def _parse(self, value):
        try:
            if isinstance(value, str):
                get_mask(value)
                return value
            return Table(LimitMask).parse(value)
        except FieldError as exc:
            raise FieldError(f"{exc.problem} (a {self.label})", exc.path,
                             exc.refs) from None
        except ExperimentError as exc:
            raise FieldError(f"names no registered {self.label}: "
                             f"{exc}") from None

    def _render(self, value):
        return value if isinstance(value, str) else to_dict(value)


# ---------------------------------------------------------------------------
# the emission-measurement request
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSpec(Record, Memoized):
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

    _table = "spectral"

    quantity: str = fld(Str(choices=("v_port", "i_port")), "v_port",
                        always=True)
    window: str = fld(Str(choices=WINDOWS), "hann", always=True)
    n_fft: int | None = fld(Int(ge=2, optional=True), None)
    mask: object = fld(_Mask("spectral mask"), None)
    detectors: object = fld(List(Str(choices=DETECTORS), wrap=(str,),
                                 noun="detector", unique=True), ("peak",),
                            always=True)
    prf: float | None = fld(Num(gt=0.0, optional=True), None)
    antenna: AntennaModel | None = fld(Table(AntennaModel, optional=True),
                                       None)
    radiated_mask: object = fld(_Mask("spectral radiated_mask"), None)

    def __post_init__(self):
        super().__post_init__()
        if self.antenna is not None and self.quantity != "i_port":
            raise bad("antenna", "needs the common-mode current: set "
                                 "{quantity} = 'i_port'", ("quantity",))
        if self.radiated_mask is not None and self.antenna is None:
            raise bad("radiated_mask", "requires an {antenna} model",
                      ("antenna",))

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
        and an identical inline mask share cache entries (tuples render
        as JSON lists in the key).  Rendered once
        per instance and registry generation (every scenario of a grid
        shares its study's request); treat the dict as read-only.
        """
        return self._memo("canonical", self._canonical, generation())

    def _canonical(self) -> dict:
        mask_key = get_mask(self.mask).key() if self.mask is not None \
            else None
        rad_key = get_mask(self.radiated_mask).key() \
            if self.radiated_mask is not None else None
        ant_key = self.antenna.key() if self.antenna is not None else None
        return {"quantity": self.quantity, "window": self.window,
                "n_fft": self.n_fft, "mask": mask_key,
                "detectors": list(self.detectors), "prf": self.prf,
                "antenna": ant_key, "radiated_mask": rad_key}


# ---------------------------------------------------------------------------
# load specs (data only -- behavior lives on the registered kinds)
# ---------------------------------------------------------------------------

class BaseLoadSpec(Record):
    """Shared kind-dispatch surface of the load-spec dataclasses.

    Third-party load specs inherit this (with a frozen dataclass body
    and a ``kind`` attribute naming their registered
    :class:`~repro.studies.kinds.ScenarioKind`) and get description,
    cache identity, wiring, probes and serialization for free -- see
    ``examples/power_rail_study.py``.  Construction checks each plain
    field by the type of its default (:mod:`~repro.studies.schema`).
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
        """Attach the load (after its kind's bounds check); returns the
        far-end observation node."""
        kind = get_kind(self.kind)
        kind.check(self)
        return kind.build_circuit(self, ckt, port)

    def to_dict(self) -> dict:
        """Lossless JSON/TOML-able rendering (the Study schema): the
        kind, its physics fields and any other field off its default."""
        kind = get_kind(self.kind)
        return {"kind": kind.name, **to_dict(self, kind.physics_fields)}


declare(BaseLoadSpec, spectral=Table(SpectralSpec, optional=True))


def load_from_dict(d):
    """Rebuild any load spec from its ``to_dict`` form through the kind
    registry (third-party kinds read like built-in ones; a spec passes
    through), checked against its kind's bounds."""
    if not isinstance(d, (dict, BaseLoadSpec)):
        raise FieldError(f"must be a load table, not {type(d).__name__}")
    name = d.get("kind") if isinstance(d, dict) else d.kind
    try:
        kind = get_kind(Str().parse(name))
    except ExperimentError as exc:
        raise FieldError(f"names no load kind: {exc}").under("kind") \
            from None
    if isinstance(d, dict):
        fields = plan(kind.load_cls)
        for key in sorted(d.keys() - fields.keys() - {"kind"}, key=str):
            raise FieldError(f"{key!r} is an unknown load field of "
                             f"{{kind}} = {name!r}", (key,), ("kind",))
        d = from_dict(kind.load_cls, {k: v for k, v in d.items()
                                      if k in fields})
    kind.check(d)
    return d


_LOAD = Conv()
_LOAD._parse, _LOAD._render = load_from_dict, BaseLoadSpec.to_dict


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
        """Per-unit-length (L, C) matrices of the symmetric pair (positive
        definite once the ``coupled`` kind's check passed)."""
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
class RunnerOptions(Record):
    """Execution options of a study (the ScenarioRunner knobs).

    ``n_workers`` ``None`` uses the CPU count, ``0``/``1`` runs
    serially; ``disk_cache`` names a directory backing the persistent
    result cache (any ``os.PathLike`` normalizes to its string), which
    needs the result cache on.

    These knobs never affect the produced waveforms or verdicts -- only
    how they are computed -- so they stay out of every cache key.
    """

    _table = "runner"

    n_workers: int | None = fld(Int(ge=0, optional=True), None)
    use_result_cache: bool = fld(Is(bool, "true or false"), True)
    disk_cache: str | None = fld(PathStr(optional=True), None)

    def __post_init__(self):
        super().__post_init__()
        if self.disk_cache is not None and not self.use_result_cache:
            raise bad("disk_cache", "requires {use_result_cache} = true; "
                      "pass one or the other, not the conflicting "
                      "combination", ("use_result_cache",))


class _Bits(Conv):
    """A bit pattern: a non-empty string of 0/1."""

    what = "a non-empty string of 0/1 bits"

    def _parse(self, value):
        if not isinstance(value, str) or not value \
                or set(value) - {"0", "1"}:
            raise self._type_error(value)
        return value


@dataclass(frozen=True)
class Study(Record, Memoized):
    """Declarative description of one board-level EMC assessment.

    The grid is the cartesian product ``drivers x corners x patterns x
    loads`` (the :func:`scenario_grid` order); ``spectral`` is the
    study-wide emission request (per-load requests still win, exactly as
    on :class:`Scenario`).  ``name`` is cosmetic.  Sequences normalize
    to tuples so studies hash and compare by value, and a bare string
    (or load) is a one-element axis.  Every field is checked when the
    study is built (loads against their kind's bounds).
    """

    patterns: tuple = fld(List(_Bits(), wrap=(str,)), ())
    loads: tuple = fld(List(_LOAD, wrap=(BaseLoadSpec, dict),
                            noun="load"), (LoadSpec(),), always=True)
    drivers: tuple = fld(List(Str(choices=DRIVERS), wrap=(str,),
                              noun="driver"), ("MD2",), always=True)
    corners: tuple = fld(List(Str(choices=CORNERS), wrap=(str,),
                              noun="corner"), ("typ",), always=True)
    name: str = fld(Str(), "")
    bit_time: float = fld(Num(gt=0.0), 2e-9, always=True)
    dt: float | None = fld(Num(gt=0.0, optional=True), None)
    t_stop: float | None = fld(Num(gt=0.0, optional=True), None)
    spectral: SpectralSpec | None = fld(Table(SpectralSpec, optional=True),
                                        None)
    options: RunnerOptions = fld(Table(RunnerOptions),
                                 factory=RunnerOptions, key="runner")

    def __post_init__(self):
        super().__post_init__()
        self._check_patterns()
        if len(self) > MAX_SCENARIOS:
            raise ExperimentError(
                f"a study of {len(self)} scenarios exceeds the admission "
                f"ceiling of {MAX_SCENARIOS}")

    def _check_patterns(self) -> None:
        """The pattern-axis rule (checked after every field): at least
        one pattern."""
        if not self.patterns:
            raise FieldError("a Study needs at least one pattern",
                             ("patterns",))

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
    @classmethod
    def from_dict(cls, d) -> "Study":
        """Rebuild a study from :meth:`to_dict` output (or the dict
        nested under a ``"study"`` table); one with a ``"stochastic"``
        table rebuilds a :class:`~repro.studies.stochastic.StochasticStudy`.
        A bad field raises a :class:`~repro.studies.schema.FieldError`."""
        if isinstance(d, dict) and isinstance(d.get("study"), dict):
            d = d["study"]
        if cls is Study and isinstance(d, dict) and "stochastic" in d:
            from .stochastic import StochasticStudy
            cls = StochasticStudy
        return from_dict(cls, d)

    def canonical(self) -> str:
        """Canonical JSON rendering of the study's *physics*.

        Deterministic across processes/platforms; :meth:`digest` hashes
        it.  Rendered as the grid's :meth:`Scenario.canonical` list --
        the very fragments the cache keys hash -- so everything cosmetic
        or execution-only is excluded: the study ``name``, load labels
        and runner options never change the produced waveforms, and two
        studies that simulate identical grids share one digest
        (load-level spectral requests included).  It is
        ``canonical_json({"scenarios": [sc.canonical(), ...]})``, joined
        from the scenarios' memoized :meth:`Scenario.key` strings, which
        are exactly those renderings.
        """
        return '{"scenarios":[' + ",".join(
            sc.key() for sc in self.scenarios()) + "]}"

    def digest(self) -> str:
        """Short content digest of :meth:`canonical` (study identity),
        computed once per instance and registry generation."""
        return self._memo("digest",
                          lambda: scenario_key_digest(self.canonical()),
                          generation())

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
