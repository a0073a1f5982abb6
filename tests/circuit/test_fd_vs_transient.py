"""Cross-backend equivalence: the FD ABCD backend vs the transient engine.

The hypothesis property is the tentpole acceptance: for randomized
eligible studies (``r`` / ``rc`` / ``line`` loads, random patterns), the
frequency-domain backend's port spectrum tracks the transient engine's
at every mask-relevant bin -- within 40 dB of the spectral peak, inside
the 10 MHz - 2 GHz EMC band -- to the backend's documented 6 dB
envelope (``docs/fd_backend.md``; in practice the median disagreement is
about a tenth of a dB: the FD solve period appends a settling tail, so
its periodic solution is the from-rest response the transient engine
computes).  Compliance verdicts against masks sitting well clear of
that envelope must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emc import LimitMask
from repro.studies import LoadSpec, Scenario, SpectralSpec
from repro.studies.simulate import fd_applicable, simulate_scenario

FINITE = dict(allow_nan=False, allow_infinity=False)

#: documented cross-backend tolerance at mask-relevant bins (dB)
TOL_DB = 6.0

fd_loads = st.one_of(
    st.builds(LoadSpec, kind=st.just("r"),
              r=st.floats(20.0, 2000.0, **FINITE)),
    st.builds(LoadSpec, kind=st.just("rc"),
              r=st.floats(20.0, 2000.0, **FINITE),
              c=st.floats(0.2e-12, 10e-12, **FINITE)),
    st.builds(LoadSpec, kind=st.just("line"),
              z0=st.floats(30.0, 120.0, **FINITE),
              td=st.floats(0.1e-9, 0.6e-9, **FINITE),
              r=st.floats(20.0, 500.0, **FINITE),
              c=st.floats(0.0, 5e-12, **FINITE)),
)

scenarios = st.builds(
    Scenario,
    pattern=st.sampled_from(["01", "0110", "010011"]),
    load=fd_loads,
    bit_time=st.just(2e-9),
    spectral=st.just(SpectralSpec(quantity="v_port", window="hann")))


def _mask_relevant(f, db_ref):
    """Bins a limit mask would actually score: in-band, near the peak."""
    band = (f >= 10e6) & (f <= 2e9)
    return band & (db_ref > db_ref[band].max() - 40.0)


def _run_both(sc, model):
    assert fd_applicable(sc, model)
    out_fd = simulate_scenario(sc, model, backend="fd")
    out_tr = simulate_scenario(sc, model)
    assert out_fd.ok, out_fd.error
    assert out_tr.ok, out_tr.error
    return out_fd, out_tr


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=scenarios)
def test_fd_spectrum_tracks_transient(sc, md2_model):
    out_fd, out_tr = _run_both(sc, md2_model)
    s_fd = out_fd.spectra["v_port"]
    s_tr = out_tr.spectra["v_port"]
    np.testing.assert_array_equal(s_fd.f, s_tr.f)
    db_fd, db_tr = s_fd.db(), s_tr.db()
    rel = _mask_relevant(s_tr.f, db_tr)
    assert rel.sum() >= 5
    assert float(np.abs(db_fd[rel] - db_tr[rel]).max()) < TOL_DB


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=scenarios)
def test_fd_verdicts_agree_with_transient(sc, md2_model):
    """Masks sitting >= 2x the tolerance away from the spectrum produce
    the same PASS/FAIL verdict on both backends."""
    # score the transient spectrum first, then re-run both backends
    # against masks offset well clear of the cross-backend envelope
    probe = simulate_scenario(sc, md2_model)
    assert probe.ok, probe.error
    db_tr = probe.spectra["v_port"].db()
    f = probe.spectra["v_port"].f
    peak = float(db_tr[_mask_relevant(f, db_tr)].max())
    for offset, expect_pass in ((+2 * TOL_DB, True), (-2 * TOL_DB, False)):
        mask = LimitMask("equiv-probe",
                         ((10e6, 2e9, peak + offset, peak + offset),))
        scm = Scenario(
            pattern=sc.pattern, load=sc.load, bit_time=sc.bit_time,
            spectral=SpectralSpec(quantity="v_port", window="hann",
                                  mask=mask))
        out_fd, out_tr = _run_both(scm, md2_model)
        assert out_tr.verdict is not None and out_fd.verdict is not None
        assert out_tr.verdict.passed == expect_pass
        assert out_fd.verdict.passed == out_tr.verdict.passed


@pytest.mark.parametrize("pattern, load", [
    # a heavily mismatched line whose far-end R||C rings for several
    # round trips (the lagged-history iteration diverged from its seed)
    ("0110", LoadSpec(kind="line", z0=93.0, td=0.6e-9, r=22.0, c=5e-12)),
    # a record that ends off its initial state (the wrap of a plain
    # record-length period puts a spurious edge into the first bit)
    ("01", LoadSpec(kind="line", z0=120.0, td=0.56e-9, r=20.0, c=5e-12)),
])
def test_fd_converges_on_reflective_lines(pattern, load, md2_model):
    sc = Scenario(pattern=pattern, load=load, bit_time=2e-9,
                  spectral=SpectralSpec(quantity="v_port", window="hann"))
    out_fd, out_tr = _run_both(sc, md2_model)
    assert not out_fd.warnings
    db_fd = out_fd.spectra["v_port"].db()
    db_tr = out_tr.spectra["v_port"].db()
    rel = _mask_relevant(out_tr.spectra["v_port"].f, db_tr)
    assert float(np.abs(db_fd[rel] - db_tr[rel]).max()) < TOL_DB


def test_fd_waveform_is_periodic_steady_state(md2_model):
    """The FD waveform matches the transient record once the driver has
    left its initial state."""
    sc = Scenario(pattern="0110", bit_time=2e-9,
                  load=LoadSpec(kind="line", z0=65.0, td=0.4e-9, r=150.0))
    out_fd, out_tr = _run_both(sc, md2_model)
    np.testing.assert_array_equal(out_fd.t, out_tr.t)
    settle = out_fd.t >= 2e-9
    err = np.abs(out_fd.v_port[settle] - out_tr.v_port[settle])
    swing = out_tr.v_port.max() - out_tr.v_port.min()
    assert float(err.max()) < 0.15 * swing
    assert float(np.sqrt(np.mean(err ** 2))) < 0.05 * swing


def test_ineligible_scenario_falls_back_to_transient(md2_model):
    """An explicit fd request on an ineligible scenario (probe-carrying
    rx kind) must not error: simulate_scenario falls back."""
    sc = Scenario(pattern="01", bit_time=2e-9,
                  load=LoadSpec(kind="rx", td=0.3e-9, r=0.0))
    assert not fd_applicable(sc, None)
    out = simulate_scenario(sc, md2_model, backend="fd")
    assert out.ok, out.error


def test_unknown_backend_is_an_error_outcome(md2_model):
    sc = Scenario(pattern="01", bit_time=2e-9, load=LoadSpec(kind="r"))
    out = simulate_scenario(sc, md2_model, backend="laplace")
    assert not out.ok
    assert "backend" in (out.error or "")


def test_off_grid_dt_is_not_fd_applicable(md2_model):
    sc = Scenario(pattern="01", bit_time=2e-9, load=LoadSpec(kind="r"),
                  dt=md2_model.ts * 1.5)
    assert not fd_applicable(sc, md2_model)
    on_grid = Scenario(pattern="01", bit_time=2e-9, load=LoadSpec(kind="r"),
                       dt=md2_model.ts)
    assert fd_applicable(on_grid, md2_model)
