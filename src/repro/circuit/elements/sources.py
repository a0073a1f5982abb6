"""Independent sources driven by :mod:`repro.circuit.waveforms` objects."""

from __future__ import annotations

import numpy as np

from ..netlist import Element
from ..waveforms import Constant, Waveform

__all__ = ["VoltageSource", "CurrentSource", "CurrentProbe"]


def _as_waveform(value) -> Waveform:
    if isinstance(value, Waveform):
        return value
    return Constant(float(value))


class VoltageSource(Element):
    """Ideal independent voltage source ``v(a) - v(b) = w(t)``.

    The branch current flows from terminal ``a`` through the source to ``b``
    (SPICE convention: positive current means the source is absorbing).
    """

    n_branch = 1

    def __init__(self, name: str, a: str, b: str, waveform):
        super().__init__(name, [a, b])
        self.waveform = _as_waveform(waveform)

    def stamp_const(self, st):
        a, b = self.nodes
        br = self.branches[0]
        st.kcl_branch(a, br, 1.0)
        st.kcl_branch(b, br, -1.0)
        st.branch_voltage(br, a, b, 1.0)

    def stamp_rhs_table(self, st, t_grid):
        st.add_b(self.branches[0], self.waveform.sample(t_grid))

    def breakpoints(self, t_stop):
        return self.waveform.breakpoints(t_stop)

    def current(self, x: np.ndarray) -> float:
        return float(x[self.branches[0]])

    def value(self, t: float) -> float:
        return float(self.waveform(t))


class CurrentProbe(VoltageSource):
    """Ideal ammeter: a 0 V source whose MNA branch reads the current.

    Insert in series with the branch of interest (``a`` -> ``b``); positive
    branch current flows from ``a`` through the probe into ``b``.  It adds
    one MNA unknown and no impedance, so the circuit solution is unchanged;
    :meth:`~repro.circuit.transient.TransientResult.probe` (``"i(name)"``)
    or :meth:`TransientResult.i` return the recorded waveform, ready for
    conducted-emission spectra.
    """

    def __init__(self, name: str, a: str, b: str):
        super().__init__(name, a, b, 0.0)


class CurrentSource(Element):
    """Ideal independent current source.

    Positive ``w(t)`` drives current from terminal ``a`` through the source
    into terminal ``b`` (out of node ``a``, into node ``b``), matching the
    SPICE ``Ixxx n+ n-`` convention.
    """

    def __init__(self, name: str, a: str, b: str, waveform):
        super().__init__(name, [a, b])
        self.waveform = _as_waveform(waveform)

    def stamp_rhs_table(self, st, t_grid):
        vals = self.waveform.sample(t_grid)
        a, b = self.nodes
        st.inject(a, -vals)
        st.inject(b, vals)

    def breakpoints(self, t_stop):
        return self.waveform.breakpoints(t_stop)

    def current(self, x: np.ndarray) -> float:
        return float(self.waveform(0.0))

    def value(self, t: float) -> float:
        return float(self.waveform(t))
