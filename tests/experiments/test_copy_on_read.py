"""Cache hits copy their arrays on first read, not up front.

* A clone holds no array of its own until one is read; the first read
  gives a private, writable copy, and later reads give that same copy.
* Writes to one hit never reach the entry, another hit or a later one,
  whether the hit's arrays were read before or after the others'.
* The entry is the cold outcome itself, and the cold pass returns a
  clone of it: writes to the cold outcome never reach a later hit.
* An unread clone pickles, compares and ``replace``s like an eager copy;
  a name that is no field still raises ``AttributeError``.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.emc.spectrum import Spectrum
from repro.studies import LoadSpec, ScenarioRunner, SpectralSpec, Study


def _spectrum(read_only: bool = True) -> Spectrum:
    s = Spectrum(np.linspace(0.0, 1e9, 5), np.arange(5.0), meta={"a": 1})
    for arr in (s.f, s.mag):
        arr.setflags(write=not read_only)
    return s


class TestSpectrumClone:
    def test_arrays_copied_on_first_read_only(self):
        s = _spectrum()
        c = s.clone_on_read(meta=dict(s.meta))
        assert "f" not in vars(c) and "mag" not in vars(c)
        mag = c.mag
        assert "mag" in vars(c) and "f" not in vars(c)
        assert c.mag is mag                     # one copy, kept
        assert mag.flags.writeable and not np.shares_memory(mag, s.mag)
        mag[:] = -1.0
        c.meta["a"] = 2
        np.testing.assert_array_equal(s.mag, np.arange(5.0))
        assert s.meta == {"a": 1}

    def test_unread_clone_behaves_like_a_copy(self):
        s = _spectrum()
        for make in (lambda: pickle.loads(pickle.dumps(s.clone_on_read())),
                     lambda: dataclasses.replace(s.clone_on_read())):
            c = make()
            np.testing.assert_array_equal(c.f, s.f)
            np.testing.assert_array_equal(c.mag, s.mag)
            assert c.mag.flags.writeable
        assert s.clone_on_read().db().tolist() == s.db().tolist()

    def test_missing_attribute_still_raises(self):
        c = _spectrum().clone_on_read()
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            c.nope
        assert not hasattr(_spectrum(), "nope")


def _snapshot(out):
    """A private deep copy of an outcome (a pickle round trip)."""
    return pickle.loads(pickle.dumps(out))


def _runner(md2_model):
    study = Study(patterns=("0110",), loads=(LoadSpec(kind="r", r=50.0),),
                  spectral=SpectralSpec(mask="board-b",
                                        detectors=("peak", "quasi-peak"),
                                        prf=1e6))
    runner = ScenarioRunner(models={("MD2", "typ"): md2_model},
                            n_workers=1)
    (sc,) = study.scenarios()
    return runner, sc


@pytest.fixture()
def warm_runner(md2_model):
    runner, sc = _runner(md2_model)
    cold = runner.run([sc])[0]
    return runner, sc, _snapshot(cold)


class TestRunnerHits:
    def test_hit_holds_no_array_until_read(self, warm_runner):
        runner, sc, ref = warm_runner
        hit = runner.run([sc])[0]
        assert hit.cache_hit
        assert not {"t", "v_port", "probes", "spectra"} & set(vars(hit))
        spec = hit.spectra["v_port"]
        assert "mag" not in vars(spec)
        np.testing.assert_array_equal(spec.mag, ref.spectra["v_port"].mag)
        assert hit.verdict == ref.verdict and hit.passed == ref.passed

    def test_writes_stay_in_their_hit(self, warm_runner):
        runner, sc, ref = warm_runner
        early, late = runner.run([sc])[0], runner.run([sc])[0]
        # one hit written before the other is read, and the other way
        early.t[:] = -1.0
        early.v_port += 7.0
        for spec in early.spectra.values():
            spec.mag[:] = 0.0
            spec.f[:] = 0.0
            spec.meta["edited"] = True
        early.metrics["overshoot"] = 99.0
        for hit in (late, runner.run([sc])[0]):
            np.testing.assert_array_equal(hit.t, ref.t)
            np.testing.assert_array_equal(hit.v_port, ref.v_port)
            for name, spec in ref.spectra.items():
                np.testing.assert_array_equal(hit.spectra[name].f, spec.f)
                np.testing.assert_array_equal(hit.spectra[name].mag,
                                              spec.mag)
                assert hit.spectra[name].meta == spec.meta
            assert hit.metrics == ref.metrics
            hit.v_port[:] = 3.0
        np.testing.assert_array_equal(runner.run([sc])[0].v_port,
                                      ref.v_port)


class TestColdOutcome:
    def test_writes_to_the_cold_outcome_stay_in_it(self, md2_model):
        runner, sc = _runner(md2_model)
        cold = runner.run([sc])[0]
        assert not cold.cache_hit
        # a clone of the entry, holding no array until one is read
        assert not {"t", "v_port", "probes", "spectra"} & set(vars(cold))
        ref = _snapshot(cold)
        cold.t[:] = -1.0
        cold.v_port += 7.0
        for spec in cold.spectra.values():
            spec.mag[:] = 0.0
            spec.f[:] = 0.0
            spec.meta["edited"] = True
        cold.metrics["overshoot"] = 99.0
        cold.verdicts_by.clear()
        hit = runner.run([sc])[0]
        assert hit.cache_hit
        np.testing.assert_array_equal(hit.t, ref.t)
        np.testing.assert_array_equal(hit.v_port, ref.v_port)
        for name, spec in ref.spectra.items():
            np.testing.assert_array_equal(hit.spectra[name].f, spec.f)
            np.testing.assert_array_equal(hit.spectra[name].mag, spec.mag)
            assert hit.spectra[name].meta == spec.meta
        assert hit.metrics == ref.metrics
        assert hit.verdicts_by == ref.verdicts_by and hit.passed == ref.passed
