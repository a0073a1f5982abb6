"""Central definition of every experiment's parameters.

Digits in the available scan of the paper are partly corrupted; all values
marked (*) are documented substitutions chosen to be physically typical of
the paper's era.  Keeping them in one module makes
re-keying from a clean PDF a one-file change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import LineSpec
from ..ident.experiments import DEFAULT_TS

__all__ = ["TS", "FIG1", "FIG2", "FIG3_LINE", "FIG4", "FIG5", "FIG6",
           "MODEL_SETTINGS"]

#: estimation / simulation sampling time (paper Section 5: 25..50 ps)
TS = DEFAULT_TS  # 25 ps


@dataclass(frozen=True)
class Fig1Setup:
    """MD1 drives an ideal line, cap-loaded far end; near-end voltage."""

    z0: float = 100.0          # ohm (*)
    td: float = 0.5e-9         # s (*)
    c_load: float = 10e-12     # F (*)
    pattern: str = "01"        # Low-to-High transition (paper)
    bit_time: float = 2e-9     # edge at 2 ns
    t_stop: float = 14e-9      # the paper plots ~2..12 ns


@dataclass(frozen=True)
class Fig2Setup:
    """MD2 sends a 1 ns pulse into three ideal lines (far-end voltage)."""

    lines: tuple = ((50.0, 0.5e-9), (75.0, 0.5e-9), (100.0, 0.8e-9))  # (*)
    c_load: float = 1e-12      # F (*)
    pattern: str = "010"       # 1 ns pulse (paper)
    bit_time: float = 1e-9
    t_stop: float = 8e-9       # the paper plots 0..8 ns


def fig3_line_spec() -> LineSpec:
    """Three-conductor (2 lands + reference) lossy on-MCM interconnect.

    Length 0.1 m is stated in the paper; the RLGC values are (*)
    substitutions typical of thin-film MCM lands.
    """
    return LineSpec(
        L=np.array([[300e-9, 60e-9], [60e-9, 300e-9]]),       # H/m (*)
        C=np.array([[100e-12, -5e-12], [-5e-12, 100e-12]]),   # F/m (paper-ish)
        length=0.1,                                           # m (paper)
        rdc=60.0,                                             # ohm/m (*)
        k_skin=1.6e-3,                                        # ohm/(m sqrt(Hz)) (*)
        tan_delta=0.02,                                       # (*)
        f_knee=1e9,
    )


FIG3_N_SECTIONS = 6


@dataclass(frozen=True)
class Fig4Setup:
    """Two MD3 drivers on the Fig. 3 structure; far-end + crosstalk."""

    pattern_active: str = "011011101010000"   # paper
    pattern_quiet: str = "000000000000000"    # paper
    bit_time: float = 2e-9                    # (*) 15 bits over 30 ns
    c_load: float = 1e-12                     # F (paper: 1 pF)
    t_stop: float = 30e-9                     # paper plots 0..30 ns


@dataclass(frozen=True)
class Fig5Setup:
    """MD4 receiver driven by a series-R trapezoidal source; i_in(t)."""

    r_series: float = 50.0      # ohm (*)
    amplitude: float = 2.0      # V (*)
    transition: float = 100e-12  # s (paper)
    width: float = 2e-9         # s (*)
    delay: float = 0.5e-9
    t_stop: float = 5e-9


@dataclass(frozen=True)
class Fig6Setup:
    """10 cm lossy line into MD4, trapezoid pulses exploring the clamps."""

    amplitudes: tuple = (2.0, 3.0, 4.0)  # V (*): linear -> clamping panels
    r_series: float = 50.0               # ohm (paper: series resistor)
    transition: float = 100e-12          # s (paper)
    width: float = 3e-9                  # s (*)
    delay: float = 0.5e-9
    t_stop: float = 8e-9                 # paper plots 1..8 ns
    n_sections: int = 8


def fig6_line_spec() -> LineSpec:
    """10 cm lossy 50-ohm single-ended line (*)."""
    return LineSpec(
        L=np.array([[250e-9]]),     # H/m (*) -> Z0 = 50 ohm
        C=np.array([[100e-12]]),    # F/m (*)
        length=0.1,                 # m (paper: 10 cm)
        rdc=20.0,                   # ohm/m (*)
        k_skin=0.8e-3,              # (*)
        tan_delta=0.02,             # (*)
        f_knee=1e9,
    )


FIG1 = Fig1Setup()
FIG2 = Fig2Setup()
FIG3_LINE = fig3_line_spec()
FIG4 = Fig4Setup()
FIG5 = Fig5Setup()
FIG6 = Fig6Setup()

#: per-device estimation settings; basis counts follow the paper
#: (MD1: 10/15, MD2: 9/9, MD3: 9/6; receiver orders per Example 4),
#: dynamic orders r=2 (*) where the scan is unreadable.
MODEL_SETTINGS = {
    "MD1": {"order": 2, "n_bases_high": 10, "n_bases_low": 15},
    "MD2": {"order": 2, "n_bases_high": 9, "n_bases_low": 9},
    "MD3": {"order": 2, "n_bases_high": 9, "n_bases_low": 6},
    "MD4": {"arx_order": 2, "up_order": 1, "down_order": 2, "n_bases": 8},
}
