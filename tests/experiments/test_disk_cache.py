"""The sweep disk cache's entry format: round trips, corruption, privacy.

* ``put`` then ``get`` returns every array bit for bit (NaN payloads,
  signed zeros, infinities, empty arrays) and every JSON field as
  written; the combined verdict is not stored, a warm hit derives it
  from its per-check verdicts.
* A truncated or otherwise corrupt entry is a miss that unlinks the
  file -- never an exception.
* Disk hits hand out read-only views into the entry's bytes; the runner
  copies them, so a caller mutating a hit cannot change a later one.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.emc.spectrum import Spectrum
from repro.experiments.cache import SweepDiskCache
from repro.studies import LoadSpec, ScenarioRunner, SpectralSpec, Study

KEY = ("0110", ("r", 50.0), "MD2", "typ", 2.5e-11, None, None)


def _same_array(a, b) -> bool:
    """Bit equality (a NaN equals a NaN of the same payload)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _assert_round_trip(payload, back) -> None:
    assert _same_array(back["t"], payload["t"])
    assert _same_array(back["v_port"], payload["v_port"])
    assert back["probes"].keys() == payload["probes"].keys()
    for name, wave in payload["probes"].items():
        assert _same_array(back["probes"][name], wave)
    assert back["spectra"].keys() == payload["spectra"].keys()
    for name, spec in payload["spectra"].items():
        got = back["spectra"][name]
        assert _same_array(got.f, spec.f)
        assert _same_array(got.mag, spec.mag)
        assert (got.unit, got.kind, got.label, got.detector) \
            == (spec.unit, spec.kind, spec.label, spec.detector)
        assert got.meta == spec.meta
    assert back["metrics"] == payload["metrics"]
    assert back["warnings"] == payload["warnings"]
    assert back["verdicts_by"] == payload["verdicts_by"]
    assert "verdict" not in back


# -- strategies -------------------------------------------------------------

_specials = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0,
                             5e-324, -1.7976931348623157e308])
_elements = st.one_of(_specials, st.floats(width=64))
_waves = hnp.arrays(np.float64, st.integers(0, 12), elements=_elements)
_names = st.text(min_size=1, max_size=6)
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.text(max_size=8))
_json = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
_meta_value = st.one_of(
    st.integers(-1000, 1000).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-1000, 1000), st.text(max_size=6), st.booleans())


@st.composite
def _spectra(draw):
    n = draw(st.integers(0, 9))
    pair = hnp.arrays(np.float64, n, elements=_elements)
    return Spectrum(draw(pair), draw(pair),
                    unit=draw(st.sampled_from(["V", "A", "V/m"])),
                    kind=draw(st.sampled_from(["amplitude", "psd"])),
                    label=draw(st.text(max_size=8)),
                    detector=draw(st.sampled_from(
                        ["peak", "quasi-peak", "average"])),
                    meta=draw(st.dictionaries(st.text(max_size=6),
                                              _meta_value, max_size=3)))


_payloads = st.fixed_dictionaries({
    "t": _waves,
    "v_port": _waves,
    "probes": st.dictionaries(_names, _waves, max_size=3),
    "spectra": st.dictionaries(_names, _spectra(), max_size=3),
    "metrics": st.dictionaries(st.text(max_size=8),
                               st.floats(allow_nan=False), max_size=4),
    "warnings": st.lists(st.text(max_size=12), max_size=3),
    "verdicts_by": st.dictionaries(st.text(max_size=6),
                                   st.dictionaries(st.text(max_size=6),
                                                   _json, max_size=3),
                                   max_size=2),
})


def _one_entry(tmp_path):
    cache = SweepDiskCache(tmp_path / "c")
    payload = {
        "t": np.array([0.0, -0.0, 1e-9, np.inf]),
        "v_port": np.array([np.nan, -np.inf, 3.3, 5e-324]),
        "probes": {"fext": np.array([0.25, -0.5]), "e": np.empty(0)},
        "spectra": {"port": Spectrum(np.array([0.0, 1e6]),
                                     np.array([1e-3, np.nan]),
                                     detector="quasi-peak",
                                     meta={"n_fft": np.int64(2)})},
        "metrics": {"v_max": 3.3}, "warnings": ["über-shoot ⚠"],
        "verdicts_by": {"peak": {"passed": True}},
    }
    return cache, payload


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads)
    def test_put_then_get_is_bit_equal(self, tmp_path_factory, payload):
        cache = SweepDiskCache(tmp_path_factory.mktemp("c"))
        cache.put(KEY, payload)
        _assert_round_trip(payload, cache.get(KEY))

    def test_specials_and_the_file_layout(self, tmp_path):
        cache, payload = _one_entry(tmp_path)
        digest = cache.put(KEY, payload)
        _assert_round_trip(payload, cache.get(KEY))
        raw = Path(cache._path(digest)).read_bytes()
        assert raw[:4] == b"RSC1"
        end = 8 + int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8:end])
        assert header["arrays"][:2] == [["t", 4], ["v_port", 4]]
        n = sum(size for _, size in header["arrays"])
        # the data block starts 8-byte aligned and ends the file
        assert len(raw) == end + (-end % 8) + 8 * n
        assert list(cache.root.iterdir()) == [Path(cache._path(digest))]

    def test_old_npz_entries_are_never_read(self, tmp_path):
        cache, payload = _one_entry(tmp_path)
        digest = cache.put(KEY, payload)
        Path(cache._path(digest)).rename(cache.root / f"{digest}.npz")
        assert cache.get(KEY) is None
        assert len(cache) == 0
        cache.clear()
        assert (cache.root / f"{digest}.npz").exists()


class TestCorruption:
    def _assert_dropped(self, cache, digest, raw: bytes):
        path = Path(cache._path(digest))
        path.write_bytes(raw)
        assert cache.get(KEY) is None
        assert not path.exists()

    def test_every_truncation_is_a_miss(self, tmp_path):
        cache, payload = _one_entry(tmp_path)
        digest = cache.put(KEY, payload)
        whole = Path(cache._path(digest)).read_bytes()
        for n in range(len(whole)):
            self._assert_dropped(cache, digest, whole[:n])
        Path(cache._path(digest)).write_bytes(whole)
        assert cache.get(KEY) is not None

    @pytest.mark.parametrize("damage", [
        "bad magic", "header past EOF", "non-JSON header",
        "non-object header", "block too long", "block too short",
        "negative length"])
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        cache, payload = _one_entry(tmp_path)
        digest = cache.put(KEY, payload)
        raw = Path(cache._path(digest)).read_bytes()
        end = 8 + int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8:end])

        def with_header(obj) -> bytes:
            text = json.dumps(obj).encode()
            head = raw[:4] + len(text).to_bytes(4, "little") + text
            head += bytes(-len(head) % 8)
            return head + raw[end + (-end % 8):]

        if damage == "bad magic":
            bad = b"PK\x03\x04" + raw[4:]
        elif damage == "header past EOF":
            bad = raw[:4] + (len(raw)).to_bytes(4, "little") + raw[8:]
        elif damage == "non-JSON header":
            bad = raw[:8] + b"\xff" * (end - 8) + raw[end:]
        elif damage == "non-object header":
            bad = with_header([1, 2, 3])
        elif damage == "block too long":
            bad = raw + bytes(8)
        elif damage == "block too short":
            header["arrays"][0][1] += 1
            bad = with_header(header)
        else:
            header["arrays"][0][1] = -4
            header["arrays"][1][1] += 8
            bad = with_header(header)
        self._assert_dropped(cache, digest, bad)


class TestEntryIdentity:
    def test_entry_digest_is_pinned(self, tmp_path):
        """The file an entry lives in: ``CACHE_VERSION``, the scenario
        key and the model fingerprint, hashed.  Changing the rendering
        orphans every cache on disk; a probe and the read after it land
        on the same file."""
        from repro.studies import LoadSpec, Scenario
        sc = Scenario(pattern="0110", load=LoadSpec(kind="r", r=50.0))
        key = (sc.key(), "0123456789abcdef")
        cache = SweepDiskCache(tmp_path)
        assert cache.version == 5
        assert cache._digest(key) == "d13434c7efcff4c98fc1151cf41b6e7b"
        assert key not in cache
        digest = cache.put(key, _one_entry(tmp_path / "p")[1])
        assert key in cache
        assert Path(cache._path(digest)).exists()


class TestCounter:
    def test_each_get_counts_once_by_result(self, tmp_path, fresh_metrics):
        cache, payload = _one_entry(tmp_path)
        assert cache.get(KEY) is None
        digest = cache.put(KEY, payload)
        assert cache.get(KEY) is not None and cache.get(KEY) is not None
        Path(cache._path(digest)).write_bytes(b"RSC1")
        assert cache.get(KEY) is None
        assert KEY not in cache  # membership tests are not lookups
        assert {r: fresh_metrics.value("disk_cache_total", result=r)
                for r in ("hit", "miss", "corrupt")} \
            == {"hit": 2, "miss": 1, "corrupt": 1}


class TestPrivateHits:
    def test_mutating_a_hit_leaves_the_next_lookup_unchanged(
            self, md2_model, tmp_path):
        models = {("MD2", "typ"): md2_model}
        study = Study(patterns=("0110",),
                      loads=(LoadSpec(kind="r", r=50.0),),
                      spectral=SpectralSpec(mask="board-b"))
        (sc,) = study.scenarios()
        ScenarioRunner(models=models, n_workers=1,
                       disk_cache=tmp_path).run([sc])
        runner = ScenarioRunner(models=models, n_workers=1,
                                disk_cache=tmp_path)
        first = runner.run([sc])[0]
        assert first.cache_hit and first.spectra
        ref = pickle.loads(pickle.dumps(first))   # a private copy
        # a fresh runner's disk hit is writable in place ...
        first.t[:] = -1.0
        first.v_port += 7.0
        for spec in first.spectra.values():
            spec.mag[:] = 0.0
        # ... and neither the memory nor the disk copy saw the edits
        for lookup in (runner, ScenarioRunner(models=models, n_workers=1,
                                              disk_cache=tmp_path)):
            again = lookup.run([sc])[0]
            assert again.cache_hit
            assert _same_array(again.t, ref.t)
            assert _same_array(again.v_port, ref.v_port)
            for name, spec in ref.spectra.items():
                assert _same_array(again.spectra[name].mag, spec.mag)


class TestVerdicts:
    def test_warm_hit_derives_its_verdict(self, md2_model, tmp_path):
        """An entry stores the per-check verdicts only; a warm hit's
        combined verdict is its least-margin entry, and the warm study
        reads exactly as the cold one."""
        models = {("MD2", "typ"): md2_model}
        study = Study(patterns=("0110", "0011"),
                      loads=(LoadSpec(kind="r", r=50.0),
                             LoadSpec(kind="rc", r=75.0, c=5e-12)),
                      spectral=SpectralSpec(
                          mask="board-b", detectors=("quasi-peak", "peak"),
                          prf=1e3))
        cold = study.run(runner=ScenarioRunner(
            models=models, n_workers=1, disk_cache=tmp_path))
        warm = study.run(runner=ScenarioRunner(
            models=models, n_workers=1, disk_cache=tmp_path))
        assert warm.n_cache_hits == len(study)
        for c, w in zip(cold, warm):
            assert set(w.verdicts_by) == {"peak", "quasi-peak"}
            # quasi-peak relief at a 1 kHz repetition rate: the two
            # checks' margins differ, and the first check stored is not
            # the binding one
            margins = [v.margin_db for v in w.verdicts_by.values()]
            assert margins[0] > margins[1]
            worst = min(w.verdicts_by.values(), key=lambda v: v.margin_db)
            assert w.verdict is worst
            assert w.verdict == c.verdict
        assert warm.csv_text() == cold.csv_text()
        for path in tmp_path.glob(f"*{SweepDiskCache.suffix}"):
            raw = path.read_bytes()
            header = json.loads(raw[8:8 + int.from_bytes(raw[4:8],
                                                         "little")])
            assert "verdict" not in header
            assert set(header["verdicts_by"]) == {"peak", "quasi-peak"}
