"""Catalog of the paper's modeled devices MD1..MD4.

The paper's exact transistor netlists (74LVC244 vendor model, IBM drivers and
receiver) are proprietary; these are physically representative stand-ins with
the supply voltages and drive classes the paper describes.  The macromodeling
method only ever observes port waveforms, so any realistic strongly-nonlinear
dynamic buffer exercises the identical code path.

* **MD1** -- 74LVC244-class commercial low-voltage CMOS driver, 3.3 V,
  ~25 ohm output impedance, slow/typ/fast corners available (Example 1).
* **MD2** -- IBM mainframe CMOS driver, 2.5 V, strong drive (Example 2).
* **MD3** -- IBM CMOS driver, 1.8 V, moderate drive (Example 3).
* **MD4** -- IBM receiver input port, 2.5 V (Example 4).
"""

from __future__ import annotations

from ..circuit import DiodeParams, MOSParams
from ..errors import CircuitError
from .driver import DriverSpec
from .receiver import ReceiverSpec

__all__ = ["MD1", "MD2", "MD3", "MD4", "get_driver", "get_receiver",
           "DRIVERS", "RECEIVERS"]

# 0.35 um-era process cards; kp already folds in mobility * Cox.
_NMOS_35 = MOSParams(kp=170e-6, vto=0.55, lam=0.04, w=60e-6, l=0.35e-6)
_PMOS_35 = MOSParams(kp=60e-6, vto=0.6, lam=0.05, w=150e-6, l=0.35e-6)

# 0.25 um-era cards for the IBM parts.
_NMOS_25 = MOSParams(kp=220e-6, vto=0.45, lam=0.05, w=70e-6, l=0.25e-6)
_PMOS_25 = MOSParams(kp=80e-6, vto=0.5, lam=0.06, w=170e-6, l=0.25e-6)

_NMOS_18 = MOSParams(kp=260e-6, vto=0.4, lam=0.06, w=45e-6, l=0.2e-6)
_PMOS_18 = MOSParams(kp=95e-6, vto=0.45, lam=0.07, w=110e-6, l=0.2e-6)

MD1 = DriverSpec(
    name="MD1",
    vdd=3.3,
    nmos=_NMOS_35,
    pmos=_PMOS_35,
    pre_scale=(0.10, 0.32),
    cg_stage=450e-15,
    c_pad=1.5e-12,
    r_out=2.5,
    input_transition=200e-12,
)

MD2 = DriverSpec(
    name="MD2",
    vdd=2.5,
    nmos=_NMOS_25,
    pmos=_PMOS_25,
    pre_scale=(0.12, 0.35),
    cg_stage=380e-15,
    c_pad=1.1e-12,
    r_out=1.8,
    input_transition=120e-12,
)

MD3 = DriverSpec(
    name="MD3",
    vdd=1.8,
    nmos=_NMOS_18,
    pmos=_PMOS_18,
    pre_scale=(0.15, 0.4),
    cg_stage=300e-15,
    c_pad=0.9e-12,
    r_out=1.5,
    input_transition=120e-12,
)

MD4 = ReceiverSpec(
    name="MD4",
    vdd=2.5,
    c_pad=0.8e-12,
    c_gate=2.6e-12,
    r_in=25.0,
    r_leak=250e3,
    d_up=DiodeParams(isat=5e-13, n=1.08, cj0=1.0e-12, vj=0.75),
    d_down=DiodeParams(isat=5e-13, n=1.08, cj0=1.0e-12, vj=0.75),
)

DRIVERS = {"MD1": MD1, "MD2": MD2, "MD3": MD3}
RECEIVERS = {"MD4": MD4}


def get_driver(name: str) -> DriverSpec:
    """Look up a catalog driver by name (MD1, MD2, MD3)."""
    try:
        return DRIVERS[name]
    except KeyError:
        raise CircuitError(
            f"unknown driver {name!r}; available: {sorted(DRIVERS)}") from None


def get_receiver(name: str) -> ReceiverSpec:
    """Look up a catalog receiver by name (MD4)."""
    try:
        return RECEIVERS[name]
    except KeyError:
        raise CircuitError(
            f"unknown receiver {name!r}; available: {sorted(RECEIVERS)}") from None
