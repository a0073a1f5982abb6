"""Process-wide model cache and the disk-persistent sweep result cache.

Model estimation costs seconds; every figure and benchmark that needs the
MD1 PW-RBF model (say) should estimate it exactly once per process.

:class:`SweepDiskCache` persists per-scenario sweep results
(:class:`~repro.studies.runner.ScenarioRunner` outcomes) to a directory
so repeated sweeps across *processes* answer from disk.  Layout::

    <root>/<digest>.f64        # one file per entry:
        b"RSC1"                # 4-byte magic
        u32 little-endian      # header length in bytes
        JSON header            # meta + ordered [[name, length], ...]
        zero padding           # to an 8-byte boundary
        float64 little-endian  # t, v_port, probe_*, spec_* back to back

A read is one ``read_bytes`` plus ``np.frombuffer`` views into it (no
archive parsing); an entry whose block size disagrees with its header
is corrupt.  Entries are keyed on the sha256 digest of a canonical JSON
rendering of ``(CACHE_VERSION, Scenario.key())``, which is stable
across processes and platforms.  The version field guards the *payload
schema*: whenever the stored payload gains fields (v2 added
per-scenario emission spectra and mask verdicts), the version is bumped
so entries written by an older code version are misses, never
half-understood hits.  Entries are written to a temp file and
atomically renamed, so concurrent sweeps sharing one cache directory
can never observe a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..devices import get_driver, get_receiver
from ..emc.spectrum import Spectrum
from ..errors import CircuitError, ExperimentError
from ..ibis import IbisModel, extract_ibis
from ..models import (estimate_cv_receiver, estimate_driver_model,
                      estimate_receiver_model)
from ..obs import get_metrics
from .setups import MODEL_SETTINGS, TS

__all__ = ["driver_model", "receiver_model", "cv_receiver_model",
           "ibis_model", "clear", "SweepDiskCache", "canonical_json",
           "scenario_key_digest", "model_fingerprint", "CACHE_VERSION"]

#: payload-schema version of :class:`SweepDiskCache` entries (folded into
#: every entry digest; bump whenever the stored payload shape OR the key
#: rendering changes -- v2 added spectra + verdicts, v3 added
#: detector-weighted spectra (``detector`` tag per spectrum) and the
#: per-check ``verdicts_by`` map, v4 switched ``Scenario.key()`` to the
#: canonical JSON rendering of the declarative study form
#: (:mod:`repro.studies`), so tuple-keyed v3 entries are never revisited,
#: v5 dropped the combined ``verdict``, which readers derive from
#: ``verdicts_by``)
CACHE_VERSION = 5

_cache: dict = {}


def clear() -> None:
    """Drop every cached model (mostly for tests)."""
    _cache.clear()


def driver_model(name: str, corner: str = "typ"):
    """Estimated PW-RBF model of a catalog driver (cached).

    An unknown driver or corner raises :class:`ExperimentError` before
    any estimation starts.
    """
    key = ("driver", name, corner)
    if key not in _cache:
        try:
            spec = get_driver(name)
            spec.corner(corner)  # an unknown corner raises here
        except CircuitError as exc:
            raise ExperimentError(
                f"no driver model {name!r} at corner {corner!r}: {exc}") \
                from None
        _cache[key] = estimate_driver_model(
            spec, ts=TS, corner=corner, **MODEL_SETTINGS[name])
    return _cache[key]


def receiver_model(name: str = "MD4"):
    """Estimated parametric receiver model (cached)."""
    key = ("receiver", name)
    if key not in _cache:
        _cache[key] = estimate_receiver_model(get_receiver(name), ts=TS,
                                              **MODEL_SETTINGS[name])
    return _cache[key]


def cv_receiver_model(name: str = "MD4"):
    """Extracted C-V strawman receiver model (cached)."""
    key = ("cv", name)
    if key not in _cache:
        _cache[key] = estimate_cv_receiver(get_receiver(name), ts=TS)
    return _cache[key]


def ibis_model(name: str = "MD1") -> IbisModel:
    """Extracted slow/typ/fast IBIS model of a catalog driver (cached)."""
    key = ("ibis", name)
    if key not in _cache:
        _cache[key] = extract_ibis(get_driver(name))
    return _cache[key]


# ---------------------------------------------------------------------------
# disk-persistent sweep result cache
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """THE canonical JSON rendering every cache digest hashes.

    Tuples render as lists (the encoder's own rule), dict keys sort, no
    whitespace, floats via ``repr`` (the shortest round-trip form) --
    deterministic across processes and platforms.
    :func:`scenario_key_digest`,
    :meth:`~repro.studies.spec.Scenario.key` and
    :meth:`~repro.studies.spec.Study.canonical` all render through this
    one function, so the key form cannot silently fork between modules.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonable_meta(meta: dict) -> dict:
    """Spectrum meta dicts hold plain scalars; coerce numpy ones to JSON."""
    out = {}
    for k, v in (meta or {}).items():
        if isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, (np.floating,)):
            v = float(v)
        out[str(k)] = v
    return out


def scenario_key_digest(key) -> str:
    """Stable hex digest of a scenario key (any JSON-able value).

    The key is rendered with :func:`canonical_json` and hashed with
    sha256.
    """
    canon = canonical_json(key)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def model_fingerprint(model) -> str:
    """Short content digest of a serializable macromodel.

    Disk-persistent sweep entries fold this into their key so results
    computed with one model are never served for a different one (a
    re-estimated or hand-tweaked model, or a change of the estimation
    defaults between versions).  The ``meta`` block is excluded: it holds
    provenance/diagnostics (wall-clock estimation time, settings echoes)
    that vary between identical re-estimations and never affect the
    simulated waveforms.
    """
    d = dict(model.to_dict())
    d.pop("meta", None)
    canon = json.dumps(d, separators=(",", ":"), sort_keys=True,
                       default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


#: leading bytes of every :class:`SweepDiskCache` entry file
_MAGIC = b"RSC1"
#: little-endian float64, the dtype of an entry's data block
_F64 = np.dtype("<f8")


class SweepDiskCache:
    """Directory-backed store of per-scenario sweep payloads.

    ``payload`` dicts hold ``t``/``v_port`` (1-D float arrays), ``probes``
    (name -> 1-D float array), ``metrics`` (JSON-able dict), ``warnings``
    (list of strings) and optionally ``spectra`` (name ->
    :class:`~repro.emc.spectrum.Spectrum`, detector tag included) plus
    ``verdicts_by`` (JSON-able
    :class:`~repro.emc.limits.ComplianceVerdict` dicts keyed per detector
    / radiated check).  The combined verdict is not stored: it is the
    entry with the least margin (:func:`~repro.emc.limits.worst_verdict`),
    so readers derive it.  Keys are hashable JSON-able values (the
    runner's ``(Scenario.key(), model fingerprints)`` pairs).  The
    entry digest folds in ``version`` (default :data:`CACHE_VERSION`), so
    a payload-schema change never reinterprets old entries.  Safe for
    concurrent writers: entries are written atomically (temp file +
    ``os.replace``) and lookups only touch the per-entry files, never the
    shared index.  The arrays :meth:`get` returns are read-only views
    into the entry's bytes.  Every :meth:`get` counts once in the
    ``disk_cache_total{result="hit"|"miss"|"corrupt"}`` counter.
    """

    #: entry file suffix; ``len()`` and ``clear()`` see only these files
    suffix = ".f64"

    def __init__(self, root: str | os.PathLike, version: int = CACHE_VERSION):
        self.root = Path(root)
        self.version = int(version)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = os.fspath(self.root)
        self._entries: dict = {}

    def _digest(self, key) -> str:
        return scenario_key_digest((self.version, key))

    def _path(self, digest: str) -> str:
        return os.path.join(self._dir, digest + self.suffix)

    def _entry(self, key) -> str:
        """The entry file of ``key``, hashed once per key: a probe
        (``key in cache``) and the read after it share one digest."""
        path = self._entries.get(key)
        if path is None:
            path = self._entries[key] = self._path(self._digest(key))
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{self.suffix}"))

    def __contains__(self, key) -> bool:
        return os.path.exists(self._entry(key))

    def get(self, key) -> dict | None:
        """Stored payload for a scenario key, or ``None`` on a miss."""
        path = self._entry(key)
        try:
            with open(path, "rb") as fh:
                payload = _decode(fh.read())
        except FileNotFoundError:
            get_metrics().inc("disk_cache_total", result="miss")
            return None
        except (OSError, KeyError, TypeError, ValueError):
            # a corrupt entry is a miss, not a sweep failure; drop it so a
            # fresh result can replace it
            get_metrics().inc("disk_cache_total", result="corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        get_metrics().inc("disk_cache_total", result="hit")
        return payload

    def put(self, key, payload: dict) -> str:
        """Persist one payload atomically; returns the entry digest."""
        digest = self._digest(key)
        arrays = {"t": payload["t"], "v_port": payload["v_port"]}
        probes = payload.get("probes") or {}
        for pname, wave in probes.items():
            arrays[f"probe_{pname}"] = wave
        spectra = payload.get("spectra") or {}
        spectra_meta = {}
        for sname, spec in spectra.items():
            arrays[f"spec_{sname}_f"] = spec.f
            arrays[f"spec_{sname}_mag"] = spec.mag
            spectra_meta[sname] = {"unit": spec.unit, "kind": spec.kind,
                                   "label": spec.label,
                                   "detector": spec.detector,
                                   "meta": _jsonable_meta(spec.meta)}
        blocks = [np.ravel(np.asarray(a, dtype=_F64))
                  for a in arrays.values()]
        header = json.dumps({
            "metrics": payload.get("metrics") or {},
            "warnings": list(payload.get("warnings") or []),
            "probe_names": sorted(probes),
            "spectra": spectra_meta,
            "verdicts_by": payload.get("verdicts_by") or {},
            "version": self.version,
            "arrays": [[name, b.size] for name, b in zip(arrays, blocks)],
        }).encode("utf-8")
        head = _MAGIC + len(header).to_bytes(4, "little") + header
        head += bytes(-len(head) % 8)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(head + b"".join(b.tobytes() for b in blocks))
            os.replace(tmp, self._path(digest))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return digest

    def clear(self) -> None:
        """Drop every stored entry."""
        for path in self.root.glob(f"*{self.suffix}"):
            try:
                path.unlink()
            except OSError:
                pass


def _decode(raw: bytes) -> dict:
    """Payload of one entry file; ``ValueError`` (or a ``KeyError`` /
    ``TypeError`` from a malformed header) if it is not a whole entry."""
    if len(raw) < 8 or raw[:4] != _MAGIC:
        raise ValueError("not a sweep cache entry")
    end = 8 + int.from_bytes(raw[4:8], "little")
    if end > len(raw):
        raise ValueError("header runs past the end of the entry")
    meta = json.loads(raw[8:end])
    sizes = [int(n) for _, n in meta["arrays"]]
    start = end + (-end % 8)
    if min(sizes, default=0) < 0 or len(raw) - start != 8 * sum(sizes):
        raise ValueError("data block does not match the header")
    block = np.frombuffer(raw, dtype=_F64, offset=start)
    data, pos = {}, 0
    for (name, _), n in zip(meta["arrays"], sizes):
        data[name] = block[pos:pos + n]
        pos += n
    spectra = {}
    for name, info in (meta.get("spectra") or {}).items():
        spectra[name] = Spectrum(
            data[f"spec_{name}_f"], data[f"spec_{name}_mag"],
            unit=info.get("unit", "V"),
            kind=info.get("kind", "amplitude"),
            label=info.get("label", ""),
            detector=info.get("detector", "peak"),
            meta=info.get("meta") or {})
    return {
        "t": data["t"],
        "v_port": data["v_port"],
        "probes": {name: data[f"probe_{name}"]
                   for name in meta["probe_names"]},
        "metrics": meta["metrics"],
        "warnings": list(meta["warnings"]),
        "spectra": spectra,
        "verdicts_by": meta.get("verdicts_by") or {},
    }
