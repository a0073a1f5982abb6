"""Scenario-kind protocol and registry: the sweep's extension point.

Every termination the sweep knows how to simulate -- a shunt resistor, a
line into a receiver macromodel, an aggressor/victim coupled pair -- is a
*scenario kind*.  A kind owns everything that used to be a kind-string
``if``-chain branch in the old ``repro.experiments.sweep`` monolith:

* how the load is wired into the bench (:meth:`ScenarioKind.build_circuit`),
* its canonical physics identity (:meth:`ScenarioKind.physics`, the cache
  key fragment),
* the extra observation nodes it exposes (:meth:`ScenarioKind.probes`),
* the kind-specific metrics riding its outcomes
  (:meth:`ScenarioKind.extra_metrics`),
* any auxiliary macromodels it needs (:meth:`ScenarioKind.aux_models`,
  estimated parent-side and folded into disk-cache fingerprints), and
* the serialized form of its load specs
  (:meth:`ScenarioKind.load_to_dict` / :meth:`ScenarioKind.load_from_dict`,
  the :class:`~repro.studies.spec.Study` TOML/JSON schema).

The registry maps kind names to :class:`ScenarioKind` instances.  The five
built-in kinds (``"r"``, ``"rc"``, ``"line"``, ``"rx"``, ``"coupled"``)
register themselves on import; third-party code adds new kinds with
:func:`register_kind` -- see ``examples/power_rail_study.py`` for a
complete out-of-tree kind.  Workers on fork-start platforms inherit the
registry; spawn-start platforms must register custom kinds in an importable
module (the same caveat as custom limit masks).
"""

from __future__ import annotations

import dataclasses

from ..circuit import Capacitor, CoupledIdealLine, IdealLine, Resistor
from ..emc.metrics import crosstalk_metrics, logic_eye_metrics
from ..errors import ExperimentError
from ..memo import bump_generation

__all__ = ["ScenarioKind", "register_kind", "get_kind", "kind_names",
           "KINDS"]

#: the kind registry: name -> :class:`ScenarioKind` instance
KINDS: dict = {}


def register_kind(kind: "ScenarioKind",
                  overwrite: bool = False) -> "ScenarioKind":
    """Register a scenario kind under ``kind.name``.

    Parameters
    ----------
    kind : ScenarioKind
        The kind instance to register; its ``name`` and ``load_cls``
        must be set.
    overwrite : bool
        Allow replacing an existing registration (default: a duplicate
        name raises, so two packages cannot silently shadow each other).
        Any registration advances the registry generation, so memoized
        scenario keys render the new kind's identity.

    Returns
    -------
    ScenarioKind
        ``kind`` itself, so the call can be used as a decorator-style
        one-liner on an instance.
    """
    if not kind.name:
        raise ExperimentError("a ScenarioKind needs a non-empty name")
    if kind.load_cls is None:
        raise ExperimentError(
            f"kind {kind.name!r} must set load_cls (the spec dataclass "
            "its loads are described by)")
    if kind.name in KINDS and not overwrite:
        raise ExperimentError(
            f"scenario kind {kind.name!r} is already registered; pass "
            "overwrite=True to replace it")
    KINDS[kind.name] = kind
    bump_generation()
    return kind


def get_kind(name: str) -> "ScenarioKind":
    """The registered kind for ``name``; unknown names raise."""
    try:
        return KINDS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown load kind {name!r}; registered kinds: "
            f"{sorted(KINDS)}") from None


def kind_names() -> tuple:
    """Sorted names of every registered kind."""
    return tuple(sorted(KINDS))


def _check_fields(kind: str, load, positive=(), nonnegative=()) -> None:
    """Reject non-physical load values, naming the offending field.

    ``positive`` fields must be ``> 0``, ``nonnegative`` ones ``>= 0``
    (NaN fails both).
    """
    for fname in (*positive, *nonnegative):
        value = getattr(load, fname)
        strict = fname in positive
        if not (value > 0.0 if strict else value >= 0.0):
            raise ExperimentError(
                f"{kind} load field {fname!r} must be "
                f"{'> 0' if strict else '>= 0'}, got {value!r}")


def _num(value):
    """Numeric field values canonicalize as floats (TOML may parse ``50``
    as an int; the cache digest must not care)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value)


class ScenarioKind:
    """One scenario kind: wiring, identity, metrics and serialization.

    Subclasses set ``name`` (the registry key / ``LoadSpec.kind`` string),
    ``load_cls`` (the frozen dataclass describing loads of this kind) and
    ``physics_fields`` (the load fields that define the electrical
    identity -- everything except cosmetic labels and the spectral
    observation request), then implement :meth:`build_circuit` and
    whatever hooks the kind needs beyond the defaults.
    """

    #: registry key; also the ``kind`` string on load specs
    name: str = ""
    #: the load-spec dataclass this kind simulates
    load_cls: type | None = None
    #: load fields folded into the canonical physics identity
    physics_fields: tuple = ()

    # -- wiring -------------------------------------------------------------
    def validate(self, load) -> None:
        """Reject physically inconsistent loads (default: accept)."""

    def build_circuit(self, load, ckt, port: str) -> str:
        """Attach the load to ``port``; return the observation node."""
        raise NotImplementedError(
            f"kind {self.name!r} does not implement build_circuit")

    def probes(self, load) -> dict:
        """Extra named observation nodes (probe name -> circuit node)."""
        return {}

    # -- identity -----------------------------------------------------------
    def physics(self, load) -> dict:
        """Canonical JSON-able physics identity of a load of this kind.

        Excludes cosmetic fields (labels) and the spectral request; the
        rendering of this dict is the load's fragment of the scenario
        cache key, so it must be deterministic and content-complete.
        """
        out = {"kind": self.name}
        for fname in self.physics_fields:
            out[fname] = _num(getattr(load, fname))
        return out

    def describe(self, load) -> str:
        """Short human-readable load tag (labels win over synthesis)."""
        label = getattr(load, "label", "")
        if label:
            return label
        parts = "".join(f"-{fname}{getattr(load, fname)!r:.10}"
                        for fname in self.physics_fields[:3])
        return f"{self.name}{parts}"

    # -- outcome decoration -------------------------------------------------
    def extra_metrics(self, load, sc, t, v, vdd, probes: dict) -> dict:
        """Kind-specific metrics merged into the outcome summary."""
        return {}

    # -- grid batching ------------------------------------------------------
    def batch_structure(self, load) -> tuple | None:
        """The nonlinear content of a load (``None`` = never batch).

        The grid-batched transient backend
        (:func:`repro.circuit.run_transient_batch`) advances benches
        sharing one nonlinear skeleton in lockstep, one time step at a
        time, whatever their linear networks
        (:func:`~repro.circuit.batch_signature`).  A kind that wants its
        scenarios batched returns a hashable tuple naming every load
        choice that changes the nonlinear elements :meth:`build_circuit`
        adds or the nodes they sit on: a linear load of any kind returns
        ``()``, so its scenarios share one group with every other linear
        load of the same driver.  Loads with equal tuples must build
        circuits with equal skeletons; the engine checks it, and a group
        declared wrongly runs member by member, never on mixed banks.
        Parameter *values* (resistances, impedances, delays) and the
        linear wiring stay out of the tuple.

        The default ``None`` opts the kind out of batching entirely; the
        runner then simulates its scenarios one by one, which is always
        correct.  Every built-in kind opts in; an ``"rx"`` bench carries
        its receiver macromodel as a second nonlinear port, which the
        batched backend banks like the driver.
        """
        return None

    # -- auxiliary models ---------------------------------------------------
    def aux_models(self, load) -> dict:
        """Auxiliary macromodels the bench needs (label -> model).

        The runner estimates these parent-side before dispatch (so
        forked workers inherit warm caches) and folds a content
        fingerprint of each into the disk-cache key -- a re-estimated or
        swapped model must never be served another model's waveforms.
        """
        return {}

    def prepare(self, load) -> None:
        """Parent-side warm-up before dispatch (default: resolve
        :meth:`aux_models`, paying estimation cost exactly once)."""
        self.aux_models(load)

    # -- serialization ------------------------------------------------------
    def load_to_dict(self, load) -> dict:
        """Lossless JSON/TOML-able rendering of a load of this kind.

        Physics fields always serialize; other dataclass fields only
        when they differ from their default (irrelevant-to-this-kind
        defaults would just be noise in a study file).
        """
        out = {"kind": self.name}
        for f in dataclasses.fields(load):
            if f.name == "kind":
                continue
            value = getattr(load, f.name)
            if f.name == "spectral":
                if value is not None:
                    out["spectral"] = value.to_dict()
                continue
            if f.name == "label":
                if value:
                    out["label"] = value
                continue
            if f.name in self.physics_fields or value != f.default:
                out[f.name] = _num(value)
        return out

    def load_from_dict(self, d: dict):
        """Rebuild a load spec from :meth:`load_to_dict` output."""
        from .spec import SpectralSpec
        kwargs = {}
        fields = {f.name: f for f in dataclasses.fields(self.load_cls)}
        for key, value in d.items():
            if key == "kind":
                continue
            if key not in fields:
                raise ExperimentError(
                    f"kind {self.name!r}: unknown load field {key!r}")
            if key == "spectral":
                if value is not None and not isinstance(value,
                                                        SpectralSpec):
                    value = SpectralSpec.from_dict(value)
            elif isinstance(fields[key].default, float):
                value = float(value)
            kwargs[key] = value
        if "kind" in fields:
            kwargs["kind"] = self.name
        return self.load_cls(**kwargs)


# ---------------------------------------------------------------------------
# built-in kinds (the former LoadSpec/CoupledLoadSpec if-chains)
# ---------------------------------------------------------------------------

class _ResistorKind(ScenarioKind):
    """``"r"``: a pure shunt resistor at the driver pad."""

    name = "r"
    physics_fields = ("r", "c")

    def validate(self, load) -> None:
        """A positive resistor; a pure-R load with a stray capacitance is
        a labeling hazard."""
        _check_fields(self.name, load, positive=("r",))
        if load.c != 0.0:
            raise ExperimentError(
                "kind='r' is a pure resistor; use kind='rc' for R||C")

    def describe(self, load) -> str:
        """``r50`` style tag."""
        return load.label or f"r{load.r:g}"

    def build_circuit(self, load, ckt, port: str) -> str:
        """Shunt R at the pad; the pad is the observation node."""
        self.validate(load)
        ckt.add(Resistor("rload", port, "0", load.r))
        return port

    def batch_structure(self, load) -> tuple:
        """A linear load: no nonlinear content."""
        return ()


class _RCKind(ScenarioKind):
    """``"rc"``: shunt R parallel C at the driver pad."""

    name = "rc"
    physics_fields = ("r", "c")

    def validate(self, load) -> None:
        """R||C only makes sense with a positive resistor and a real
        capacitor."""
        _check_fields(self.name, load, positive=("r", "c"))

    def describe(self, load) -> str:
        """``r150c5p`` style tag."""
        return load.label or f"r{load.r:g}c{load.c * 1e12:g}p"

    def build_circuit(self, load, ckt, port: str) -> str:
        """Shunt R and C at the pad; the pad is the observation node."""
        self.validate(load)
        ckt.add(Resistor("rload", port, "0", load.r))
        ckt.add(Capacitor("cload", port, "0", load.c))
        return port

    def batch_structure(self, load) -> tuple:
        """A linear load: no nonlinear content."""
        return ()


class _LineKind(ScenarioKind):
    """``"line"``: ideal line into a far-end R (and optional C)."""

    name = "line"
    physics_fields = ("r", "c", "z0", "td")

    def validate(self, load) -> None:
        """A real line (positive ``z0`` and ``td``) into a positive far-end
        resistor; the optional capacitor may be absent, not negative."""
        _check_fields(self.name, load, positive=("r", "z0", "td"),
                      nonnegative=("c",))

    def describe(self, load) -> str:
        """``line75x1n-r1e5`` style tag (optional far-end cap suffix)."""
        if load.label:
            return load.label
        cap = f"c{load.c * 1e12:g}p" if load.c > 0.0 else ""
        return f"line{load.z0:g}x{load.td * 1e9:g}n-r{load.r:g}{cap}"

    def build_circuit(self, load, ckt, port: str) -> str:
        """Line from the pad; the far end is the observation node."""
        self.validate(load)
        ckt.add(IdealLine("tload", port, "far", load.z0, load.td))
        ckt.add(Resistor("rload", "far", "0", load.r))
        if load.c > 0.0:
            ckt.add(Capacitor("cload", "far", "0", load.c))
        return "far"

    def batch_structure(self, load) -> tuple:
        """A linear load: no nonlinear content."""
        return ()


class _ReceiverKind(ScenarioKind):
    """``"rx"``: line into a macromodeled receiver input port.

    The paper's receiver-side termination (Example 4): an ideal line of
    ``z0``/``td`` into the parametric macromodel of a catalog receiver,
    with an optional parallel termination resistor ``r`` at the receiver
    pad (``r = 0`` leaves the pad unterminated; ``td = 0`` attaches the
    receiver directly to the driver port).  Outcomes additionally carry
    the receiver logic-eye check
    (:func:`repro.emc.metrics.logic_eye_metrics`).
    """

    name = "rx"
    physics_fields = ("r", "c", "z0", "td", "receiver")

    def validate(self, load) -> None:
        """``r = 0`` means unterminated and ``td = 0`` no line; negative
        values, and a non-positive line impedance, are nonsense."""
        _check_fields(self.name, load, positive=("z0",),
                      nonnegative=("r", "td", "c"))

    def describe(self, load) -> str:
        """``line50x1n-MD4r50`` style tag."""
        if load.label:
            return load.label
        line = f"line{load.z0:g}x{load.td * 1e9:g}n-" if load.td > 0.0 \
            else ""
        term = f"r{load.r:g}" if load.r > 0.0 else ""
        return f"{line}{load.receiver}{term}"

    def build_circuit(self, load, ckt, port: str) -> str:
        """Line into the receiver macromodel; observe the receiver pad."""
        from ..experiments import cache
        from ..models import ParametricReceiverElement
        self.validate(load)
        pad = port
        if load.td > 0.0:
            ckt.add(IdealLine("tload", port, "pad", load.z0, load.td))
            pad = "pad"
        ckt.add(ParametricReceiverElement(
            "rx", pad, cache.receiver_model(load.receiver)))
        if load.r > 0.0:
            ckt.add(Resistor("rterm", pad, "0", load.r))
        else:
            # the one-port macromodels never name ground explicitly; a
            # 1 Gohm reference keeps the unterminated netlist valid
            # (negligible vs the receiver's ~250 kohm internal leak)
            ckt.add(Resistor("rterm", pad, "0", 1e9))
        if load.c > 0.0:
            ckt.add(Capacitor("cload", pad, "0", load.c))
        return pad

    def batch_structure(self, load) -> tuple:
        """The receiver port: a line (``td > 0``) moves it off the
        driver's node, and the receiver names the macromodel it
        embeds."""
        return (load.td > 0.0, load.receiver)

    def extra_metrics(self, load, sc, t, v, vdd, probes: dict) -> dict:
        """Receiver logic-eye check at the observed pad."""
        return logic_eye_metrics(t, v, sc.pattern, sc.bit_time, vdd,
                                 delay=load.td)

    def aux_models(self, load) -> dict:
        """The receiver macromodel terminating the line."""
        from ..experiments import cache
        return {f"receiver:{load.receiver}":
                cache.receiver_model(load.receiver)}


class _CoupledKind(ScenarioKind):
    """``"coupled"``: aggressor/victim pair over a coupled ideal line."""

    name = "coupled"
    physics_fields = ("l_self", "l_mut", "c_self", "c_mut", "length",
                      "r_far", "c_far", "r_victim_near", "r_victim_far")

    def describe(self, load) -> str:
        """``xtalk-l10cm-lm60n-cm5p-r50`` style geometry tag."""
        if load.label:
            return load.label
        return (f"xtalk-l{load.length * 100:g}cm"
                f"-lm{load.l_mut * 1e9:g}n-cm{load.c_mut * 1e12:g}p"
                f"-r{load.r_far:g}")

    def probes(self, load) -> dict:
        """Victim observation nodes: near-end (NEXT) and far-end (FEXT)."""
        return {"next": "v_ne", "fext": "v_fe"}

    def build_circuit(self, load, ckt, port: str) -> str:
        """Coupled pair; the aggressor far end is the observation node."""
        L, C = load.matrices()
        ckt.add(CoupledIdealLine("tcpl", [port, "v_ne"], ["a_fe", "v_fe"],
                                 L, C, load.length))
        ckt.add(Resistor("rfar", "a_fe", "0", load.r_far))
        if load.c_far > 0.0:
            ckt.add(Capacitor("cfar", "a_fe", "0", load.c_far))
        ckt.add(Resistor("rvn", "v_ne", "0", load.r_victim_near))
        ckt.add(Resistor("rvf", "v_fe", "0", load.r_victim_far))
        return "a_fe"

    def batch_structure(self, load) -> tuple:
        """A linear load: no nonlinear content."""
        return ()

    def extra_metrics(self, load, sc, t, v, vdd, probes: dict) -> dict:
        """NEXT/FEXT crosstalk summary from the victim waveforms."""
        if "next" in probes and "fext" in probes:
            return crosstalk_metrics(probes["next"], probes["fext"], vdd)
        return {}


def _register_builtin_kinds() -> None:
    """Install the five built-in kinds (idempotent; import-time)."""
    from .spec import CoupledLoadSpec, LoadSpec
    for cls, load_cls in ((_ResistorKind, LoadSpec), (_RCKind, LoadSpec),
                          (_LineKind, LoadSpec), (_ReceiverKind, LoadSpec),
                          (_CoupledKind, CoupledLoadSpec)):
        if cls.name not in KINDS:
            kind = cls()
            kind.load_cls = load_cls
            register_kind(kind)
