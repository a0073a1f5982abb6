"""Golden-waveform cases for the regression suite.

One function per committed reference: each returns a dict of named 1-D
arrays (a shared ``"t"`` grid plus waveforms) that is compared sample by
sample against ``tests/experiments/golden/<case>.npz``.  The builders are
shared by the test suite (``tests/experiments/test_golden_waveforms.py``)
and the regeneration script (``benchmarks/regen_golden.py``) so the two can
never drift apart.

The cases pin the paper's validation workhorses:

* ``fig1`` -- Example 1: MD1 drives the Fig. 1 ideal line (capacitive
  far end) through a low-to-high transition; near-end voltages of the
  transistor-level reference, the PW-RBF macromodel and the three IBIS
  corners -- the paper's headline "macromodel overlays the reference,
  the IBIS fan brackets it" picture;
* ``fig2_panel1`` -- MD2 sends a 1 ns pulse into the first Fig. 2 ideal
  line (z0 = 50 ohm, td = 0.5 ns, 1 pF far-end load): transistor-level
  reference and PW-RBF macromodel far-end voltages;
* ``fig5_receiver`` -- MD4 driven through 50 ohm by a trapezoid:
  transistor-level, parametric (ARX + RBF) and C-V model input currents;
* ``fig2_spectrum`` -- the emission view of ``fig2_panel1``: windowed-FFT
  amplitude spectra (reference and PW-RBF) of the same far-end waveforms,
  pinning the :mod:`repro.emc.spectrum` estimator end to end;
* ``fig4`` -- MD3 drives the Fig. 3 coupled lossy MCM
  interconnect (shortened "0110" pattern of the ``fig4.run(fast=True)``
  variant): far-end active-land (v21) and quiet-land crosstalk (v22)
  voltages, transistor-level reference and PW-RBF macromodel -- the
  crosstalk-sensitive multi-conductor path.

Tolerances are absolute, in the waveform's own unit, and deliberately much
tighter than any physical effect of interest: the engine is deterministic
(fixed-step theta integration, seeded estimation), so the slack only has to
absorb BLAS reduction-order noise across machines.
"""

from __future__ import annotations

import numpy as np

from ..devices import MD4, build_receiver
from ..emc.spectrum import amplitude_spectrum
from ..models import CVReceiverElement, ParametricReceiverElement
from . import cache
from .fig2 import _panel as _fig2_panel
from .fig5 import _simulate as _fig5_simulate
from .setups import FIG2, FIG5

__all__ = ["CASES", "TOLERANCES", "generate"]

#: per-case absolute comparison tolerance (volts for fig2, amperes for
#: fig5; fig2_spectrum is linear volts per bin -- the FFT is a bounded
#: linear map of the waveform, so the waveform tolerance carries over)
TOLERANCES = {
    "fig1": 2e-3,
    "fig2_panel1": 2e-3,
    "fig5_receiver": 2e-5,
    "fig2_spectrum": 2e-3,
    "fig4": 2e-3,
}


def fig1_waveforms(driver_model=None,
                   ibis_model=None) -> dict[str, np.ndarray]:
    """Fig. 1 near-end voltages: reference, PW-RBF and IBIS corners."""
    from ..ibis import IbisDriverElement
    from ..models import PWRBFDriverElement
    from .fig1 import _simulate
    from .setups import FIG1
    model = driver_model if driver_model is not None \
        else cache.driver_model("MD1")
    ibis = ibis_model if ibis_model is not None \
        else cache.ibis_model("MD1")
    setup = FIG1

    def ref_driver(ckt):
        from ..devices import MD1, build_driver
        drv = build_driver(ckt, MD1, "dut", "out",
                           initial_state=setup.pattern[0])
        drv.drive_pattern(setup.pattern, setup.bit_time)

    ref = _simulate(ref_driver, setup, ic="dcop")
    mm = _simulate(
        lambda ckt: ckt.add(PWRBFDriverElement.for_pattern(
            "dut", "out", model, setup.pattern, setup.bit_time,
            setup.t_stop)),
        setup, ic="dcop")
    out = {"t": ref.t, "ref_ne": ref.v("out").copy(),
           "pwrbf_ne": mm.v("out").copy()}
    for corner in ("slow", "typ", "fast"):
        res = _simulate(
            lambda ckt, c=corner: ckt.add(IbisDriverElement.for_pattern(
                "dut", "out", ibis.corner(c), setup.pattern,
                setup.bit_time)),
            setup, ic="dcop")
        out[f"ibis_{corner}_ne"] = res.v("out").copy()
    return out


def fig2_panel1(driver_model=None) -> dict[str, np.ndarray]:
    """Far-end voltages of the first Fig. 2 line (reference + PW-RBF)."""
    model = driver_model if driver_model is not None \
        else cache.driver_model("MD2")
    z0, td = FIG2.lines[0]
    ref, mm = _fig2_panel(z0, td, FIG2, model)
    return {"t": ref.t, "ref_fe": ref.v("fe").copy(),
            "pwrbf_fe": mm.v("fe").copy()}


def fig5_receiver(receiver_model=None, cv_model=None) -> dict[str, np.ndarray]:
    """MD4 input currents (reference + parametric + C-V strawman)."""
    par = receiver_model if receiver_model is not None \
        else cache.receiver_model("MD4")
    cv = cv_model if cv_model is not None else cache.cv_receiver_model("MD4")
    t, i_ref = _fig5_simulate(
        lambda c: build_receiver(c, MD4, "dut", "pad"), FIG5)
    _, i_par = _fig5_simulate(
        lambda c: c.add(ParametricReceiverElement("dut", "pad", par)), FIG5)
    _, i_cv = _fig5_simulate(
        lambda c: c.add(CVReceiverElement("dut", "pad", cv)), FIG5)
    return {"t": t, "i_ref": i_ref, "i_par": i_par, "i_cv": i_cv}


def fig2_spectrum(driver_model=None) -> dict[str, np.ndarray]:
    """Windowed-FFT amplitude spectra of the ``fig2_panel1`` waveforms."""
    waves = fig2_panel1(driver_model)
    s_ref = amplitude_spectrum(waves["t"], waves["ref_fe"], window="hann")
    s_mm = amplitude_spectrum(waves["t"], waves["pwrbf_fe"], window="hann")
    return {"f": s_ref.f, "ref_mag": s_ref.mag, "pwrbf_mag": s_mm.mag}


def fig4_case(driver_model=None) -> dict[str, np.ndarray]:
    """Far-end active/quiet-land voltages of the Fig. 3 MCM structure.

    Uses the shortened ``fast`` setup of :func:`repro.experiments.fig4.run`
    (pattern "0110", 8 ns) so the reference simulation stays cheap enough
    for the tier-1 suite while still exercising the lossy coupled line
    and the far-end crosstalk path.
    """
    from dataclasses import replace as _replace

    from .fig4 import simulate_testbed
    from .setups import FIG4
    model = driver_model if driver_model is not None \
        else cache.driver_model("MD3")
    setup = _replace(FIG4, pattern_active="0110", pattern_quiet="0000",
                     t_stop=8e-9)
    ref, _ = simulate_testbed("reference", setup)
    mm, _ = simulate_testbed("macromodel", setup, model)
    return {"t": ref.t, "ref_v21": ref.v("fe1").copy(),
            "ref_v22": ref.v("fe2").copy(),
            "pwrbf_v21": mm.v("fe1").copy(),
            "pwrbf_v22": mm.v("fe2").copy()}


CASES = {
    "fig1": fig1_waveforms,
    "fig2_panel1": fig2_panel1,
    "fig5_receiver": fig5_receiver,
    "fig2_spectrum": fig2_spectrum,
    "fig4": fig4_case,
}


def generate(case: str, **models) -> dict[str, np.ndarray]:
    """Build one golden case by name (models override the cached ones)."""
    return CASES[case](**models)
