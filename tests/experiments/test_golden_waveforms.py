"""Golden-waveform regression suite.

Fresh runs of the paper's fig2/fig5 validation setups are compared sample
by sample against small committed ``.npz`` references.  The engine is
deterministic (fixed-step theta integration, seeded estimation), so the
per-case tolerances in :data:`repro.experiments.golden.TOLERANCES` only
absorb BLAS reduction-order noise; any visible waveform change must be an
intentional, reviewed regeneration via ``benchmarks/regen_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import golden

GOLDEN_DIR = Path(__file__).parent / "golden"


def _load(case: str) -> dict:
    path = GOLDEN_DIR / f"{case}.npz"
    assert path.exists(), (
        f"missing golden file {path}; run "
        "PYTHONPATH=src python benchmarks/regen_golden.py")
    with np.load(path) as data:
        return {name: data[name].copy() for name in data.files}


def _compare(case: str, fresh: dict) -> None:
    stored = _load(case)
    atol = golden.TOLERANCES[case]
    assert set(fresh) == set(stored), (
        f"{case}: waveform set changed; regenerate the golden file")
    grid = "t" if "t" in fresh else "f"  # time- or frequency-domain case
    np.testing.assert_array_equal(
        fresh[grid], stored[grid],
        err_msg=f"{case}: the {grid} grid itself moved")
    for name in sorted(fresh):
        if name == grid:
            continue
        assert fresh[name].shape == stored[name].shape
        delta = float(np.max(np.abs(fresh[name] - stored[name])))
        assert delta <= atol, (
            f"{case}/{name}: max |delta| {delta:.3e} exceeds the golden "
            f"tolerance {atol:.0e}; if this change is intended, regenerate "
            "with benchmarks/regen_golden.py and review the diff")


def test_golden_files_are_committed():
    assert {p.stem for p in GOLDEN_DIR.glob("*.npz")} >= set(golden.CASES)


def test_fig1_matches_golden():
    # MD1 estimation and IBIS extraction ride the process-wide model
    # cache (seconds, once per session)
    _compare("fig1", golden.fig1_waveforms())


def test_fig1_reference_is_physical():
    """The committed fig1 file itself stays sane: a full low-to-high
    swing arrives at the near end, the PW-RBF macromodel overlays the
    reference far more tightly than any IBIS corner, and the IBIS fan
    actually fans (slow and fast corners differ visibly)."""
    fig1 = _load("fig1")
    ref = fig1["ref_ne"]
    swing = float(ref.max() - ref.min())
    assert swing > 1.0                      # the transition happened
    assert ref[-1] > ref[0]                 # ... and it was low-to-high
    err_mm = float(np.max(np.abs(fig1["pwrbf_ne"] - ref)))
    err_ibis = min(
        float(np.max(np.abs(fig1[f"ibis_{c}_ne"] - ref)))
        for c in ("slow", "typ", "fast"))
    assert err_mm < 0.25 * swing
    assert err_mm < err_ibis                # the paper's headline claim
    fan = float(np.max(np.abs(fig1["ibis_fast_ne"]
                              - fig1["ibis_slow_ne"])))
    assert fan > 0.1                        # the corner fan is visible


def test_fig2_panel1_matches_golden(md2_model):
    _compare("fig2_panel1", golden.fig2_panel1(driver_model=md2_model))


def test_fig5_receiver_matches_golden(md4_model, md4_cv):
    _compare("fig5_receiver",
             golden.fig5_receiver(receiver_model=md4_model, cv_model=md4_cv))


def test_fig2_spectrum_matches_golden(md2_model):
    _compare("fig2_spectrum", golden.fig2_spectrum(driver_model=md2_model))


def test_fig4_matches_golden():
    # MD3 estimation rides the process-wide model cache (seconds, once)
    _compare("fig4", golden.fig4_case())


def test_fig4_reference_is_physical():
    """The committed fig4 file itself stays sane: the active land swings,
    the quiet land shows real (but much smaller) far-end crosstalk, and
    the macromodel tracks both."""
    fig4 = _load("fig4")
    swing = fig4["ref_v21"].max() - fig4["ref_v21"].min()
    assert swing > 1.0                               # the pattern arrives
    xtalk = float(np.abs(fig4["ref_v22"]).max())
    assert 0.01 < xtalk < 0.5 * swing                # visible, not dominant
    for land in ("v21", "v22"):
        err = float(np.max(np.abs(fig4[f"pwrbf_{land}"]
                                  - fig4[f"ref_{land}"])))
        assert err < 0.25 * swing


def test_golden_spectrum_is_physical():
    """The committed spectrum reference stays sane on its own."""
    spec = _load("fig2_spectrum")
    assert spec["f"][0] == 0.0 and spec["f"][-1] > 1e9
    # the 1 ns pulse concentrates its energy below ~1 GHz
    low = spec["f"] < 1e9
    assert np.sum(spec["ref_mag"][low] ** 2) > \
        10.0 * np.sum(spec["ref_mag"][~low] ** 2)
    # the macromodel's emission spectrum tracks the reference in the
    # dominant band (within 3 dB wherever the reference exceeds 10 mV)
    strong = (spec["ref_mag"] > 1e-2) & low
    assert strong.sum() >= 5
    ratio = spec["pwrbf_mag"][strong] / spec["ref_mag"][strong]
    assert np.all((ratio > 10 ** (-3 / 20)) & (ratio < 10 ** (3 / 20)))


def test_golden_references_are_physical():
    """The committed files themselves stay sane (no silent regeneration
    with a broken engine)."""
    fig2 = _load("fig2_panel1")
    assert fig2["ref_fe"].max() > 1.0          # the pulse arrives
    # the macromodel tracks the reference (paper: nrmse of a few %)
    swing = fig2["ref_fe"].max() - fig2["ref_fe"].min()
    rms = float(np.sqrt(np.mean((fig2["pwrbf_fe"] - fig2["ref_fe"]) ** 2)))
    assert rms / swing < 0.10
    fig5 = _load("fig5_receiver")
    peak = np.abs(fig5["i_ref"]).max()
    assert peak > 1e-4                          # a visible current edge
    # parametric model beats the C-V strawman around the edge (the paper's
    # 'gain of accuracy')
    err_par = np.max(np.abs(fig5["i_par"] - fig5["i_ref"]))
    err_cv = np.max(np.abs(fig5["i_cv"] - fig5["i_ref"]))
    assert err_par < err_cv
