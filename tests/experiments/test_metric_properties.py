"""Property-based invariants of the EMC metrics and the sweep cache keys.

Hypothesis drives randomized waveforms and scenario parameters through the
metric helpers and the disk-cache key machinery:

* amplitude metrics are sign/shape-sane for *any* waveform,
* NEXT/FEXT crosstalk metrics are invariant under a time shift of the
  victim waveforms,
* ``Scenario.key()`` ignores cosmetic labels, and its digest is stable
  across processes (the property the disk cache stands on),
* disk-cache payloads survive a put/get round trip bit-exactly.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.emc.metrics import crosstalk_metrics
from repro.errors import ExperimentError
from repro.experiments import SweepDiskCache
from repro.experiments.cache import scenario_key_digest
from repro.studies import CoupledLoadSpec, LoadSpec, Scenario
from repro.studies.simulate import _emc_metrics

FINITE = dict(allow_nan=False, allow_infinity=False)

waveforms = hnp.arrays(np.float64, st.integers(4, 200),
                       elements=st.floats(-10.0, 10.0, **FINITE))


# ---------------------------------------------------------------------------
# _emc_metrics amplitude invariants
# ---------------------------------------------------------------------------

@given(v=waveforms,
       vdd=st.floats(0.5, 5.0, **FINITE),
       pattern=st.text(alphabet="01", min_size=1, max_size=6),
       bit_time=st.floats(0.5e-9, 4e-9, **FINITE))
def test_emc_metrics_invariants(v, vdd, pattern, bit_time):
    t = 25e-12 * np.arange(v.size)
    sc = Scenario(pattern=pattern, bit_time=bit_time)
    m = _emc_metrics(t, v, vdd, sc)
    assert m["overshoot"] >= 0.0
    assert m["undershoot"] >= 0.0
    assert m["swing"] >= 0.0
    assert m["v_max"] >= m["v_min"]
    assert m["v_max"] == pytest.approx(np.max(v))
    assert m["overshoot"] == pytest.approx(max(m["v_max"] - vdd, 0.0))
    assert m["n_crossings"] >= 0
    assert m["ringing_rms"] >= 0.0
    assert m["settle_error"] >= 0.0


@given(v=waveforms, vdd=st.floats(0.5, 5.0, **FINITE),
       shift=st.integers(-50, 50))
def test_emc_metrics_amplitudes_shift_invariant(v, vdd, shift):
    """Peak amplitude metrics ignore *when* the waveform happens."""
    t = 25e-12 * np.arange(v.size)
    sc = Scenario(pattern="01")
    a = _emc_metrics(t, v, vdd, sc)
    b = _emc_metrics(t, np.roll(v, shift), vdd, sc)
    for key in ("v_max", "v_min", "overshoot", "undershoot", "swing"):
        assert a[key] == pytest.approx(b[key])


# ---------------------------------------------------------------------------
# crosstalk metrics
# ---------------------------------------------------------------------------

@given(near=waveforms, far=waveforms,
       vdd=st.floats(0.5, 5.0, **FINITE), shift=st.integers(-100, 100))
def test_crosstalk_metrics_time_shift_invariant(near, far, vdd, shift):
    a = crosstalk_metrics(near, far, vdd)
    b = crosstalk_metrics(np.roll(near, shift), np.roll(far, shift), vdd)
    assert a == b


@given(near=waveforms, far=waveforms, vdd=st.floats(0.5, 5.0, **FINITE))
def test_crosstalk_metrics_invariants(near, far, vdd):
    m = crosstalk_metrics(near, far, vdd)
    assert m["next_peak"] >= 0.0 and m["fext_peak"] >= 0.0
    assert m["next_ratio"] == pytest.approx(m["next_peak"] / vdd)
    assert m["fext_ratio"] == pytest.approx(m["fext_peak"] / vdd)
    # polarity of the coupled noise is irrelevant
    assert crosstalk_metrics(-near, -far, vdd) == m


def test_crosstalk_metrics_validation():
    with pytest.raises(ExperimentError):
        crosstalk_metrics(np.zeros((2, 2)), np.zeros(4), 1.0)
    with pytest.raises(ExperimentError):
        crosstalk_metrics(np.zeros(4), np.zeros(4), 0.0)


# ---------------------------------------------------------------------------
# scenario keys and the disk-cache digest
# ---------------------------------------------------------------------------

load_specs = st.one_of(
    st.builds(LoadSpec, kind=st.just("r"), r=st.floats(1.0, 1e4, **FINITE)),
    st.builds(LoadSpec, kind=st.just("line"),
              z0=st.floats(10.0, 150.0, **FINITE),
              td=st.floats(0.1e-9, 3e-9, **FINITE),
              r=st.floats(1.0, 1e5, **FINITE)),
    st.builds(CoupledLoadSpec,
              l_mut=st.floats(1e-9, 200e-9, **FINITE),
              c_mut=st.floats(0.0, 50e-12, **FINITE)),
)

scenarios = st.builds(
    Scenario,
    pattern=st.text(alphabet="01", min_size=1, max_size=8),
    load=load_specs,
    driver=st.sampled_from(["MD1", "MD2", "MD3"]),
    corner=st.sampled_from(["slow", "typ", "fast"]),
    bit_time=st.floats(0.5e-9, 4e-9, **FINITE))


@given(sc=scenarios, label=st.text(max_size=8), name=st.text(max_size=8))
def test_scenario_key_ignores_cosmetics(sc, label, name):
    relabeled = Scenario(
        pattern=sc.pattern,
        load=type(sc.load)(**{**sc.load.__dict__, "label": label}),
        driver=sc.driver, corner=sc.corner, bit_time=sc.bit_time,
        name=name)
    assert relabeled.key() == sc.key()
    assert scenario_key_digest(relabeled.key()) == \
        scenario_key_digest(sc.key())


@given(a=scenarios, b=scenarios)
def test_distinct_physics_distinct_digests(a, b):
    if a.key() == b.key():
        assert scenario_key_digest(a.key()) == scenario_key_digest(b.key())
    else:
        assert scenario_key_digest(a.key()) != scenario_key_digest(b.key())


def test_scenario_key_digest_stable_across_processes():
    """The disk cache's key property: a fresh interpreter computes the
    exact same digest for the same scenarios."""
    grid = [
        Scenario(pattern="0110", load=LoadSpec(kind="line", z0=75.0,
                                               td=1e-9, r=1e4)),
        Scenario(pattern="01", load=CoupledLoadSpec(), corner="fast"),
        Scenario(pattern="010", load=LoadSpec(kind="rx", td=0.7e-9,
                                              r=0.0), driver="MD3"),
    ]
    local = [scenario_key_digest(sc.key()) for sc in grid]
    script = (
        "import json, sys\n"
        "from repro.studies import CoupledLoadSpec, LoadSpec, Scenario\n"
        "from repro.experiments.cache import scenario_key_digest\n"
        "grid = [\n"
        "  Scenario(pattern='0110', load=LoadSpec(kind='line', z0=75.0,"
        " td=1e-9, r=1e4)),\n"
        "  Scenario(pattern='01', load=CoupledLoadSpec(), corner='fast'),\n"
        "  Scenario(pattern='010', load=LoadSpec(kind='rx', td=0.7e-9,"
        " r=0.0), driver='MD3'),\n"
        "]\n"
        "print(json.dumps([scenario_key_digest(sc.key()) for sc in grid]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    remote = json.loads(proc.stdout.strip().splitlines()[-1])
    assert remote == local


@settings(max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=waveforms, v=waveforms,
       metrics=st.dictionaries(
              st.sampled_from(["v_max", "overshoot", "fext_peak"]),
              st.floats(-1e6, 1e6, **FINITE), max_size=3),
       warnings=st.lists(st.text(max_size=20), max_size=3))
def test_disk_cache_payload_round_trip(tmp_path, t, v, metrics, warnings):
    cache = SweepDiskCache(tmp_path)
    key = ("pat", ("r", 50.0), "MD2", "typ", float(t.size))
    payload = {"t": t, "v_port": v,
               "probes": {"next": v * 0.5, "fext": v * 0.25},
               "metrics": metrics, "warnings": warnings}
    cache.put(key, payload)
    back = cache.get(key)
    np.testing.assert_array_equal(back["t"], t)
    np.testing.assert_array_equal(back["v_port"], v)
    np.testing.assert_array_equal(back["probes"]["next"], v * 0.5)
    np.testing.assert_array_equal(back["probes"]["fext"], v * 0.25)
    assert back["metrics"] == pytest.approx(metrics)
    assert back["warnings"] == warnings
