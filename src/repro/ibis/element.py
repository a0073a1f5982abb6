"""IBIS buffer as a circuit element (the Fig. 1 baseline).

Standard two-table-and-ramp transient model (IBIS 2.1 without V-T tables):

    i_pad(v, t) = K_pu(t) * I_pu(v) + K_pd(t) * I_pd(v)
                  + I_pc(v) + I_gc(v) + C_comp * dv/dt

with linear switching coefficients: at an up edge ``K_pu`` ramps 0 -> 1 and
``K_pd`` 1 -> 0 over the duration implied by the [Ramp] rate (and vice
versa).  This is exactly the simplification whose limited accuracy the paper
demonstrates against the PW-RBF model.
"""

from __future__ import annotations

from ..circuit.elements.bank import ShuntPort
from ..circuit.waveforms import BitPattern
from ..errors import IbisError
from .tables import IbisCorner

__all__ = ["IbisDriverElement"]


class IbisDriverElement(ShuntPort):
    """One-port IBIS output buffer with a scheduled bit pattern.

    The static characteristic is the switched table sum above, the shunt
    capacitance ``C_comp``; the element's :class:`ShuntBank
    <repro.circuit.elements.bank.ShuntBank>` evaluates it.
    """

    def __init__(self, name: str, port: str, corner: IbisCorner,
                 edges, initial_state: str = "0"):
        super().__init__(name, port, corner, corner.c_comp)
        if initial_state not in ("0", "1"):
            raise IbisError("initial_state must be '0' or '1'")
        self.initial_state = initial_state
        self.edges = sorted((float(t), d) for t, d in edges)
        self._t_rise = corner.ramp.rise_time(corner.vdd)
        self._t_fall = corner.ramp.fall_time(corner.vdd)

    @classmethod
    def for_pattern(cls, name: str, port: str, corner: IbisCorner,
                    pattern: str, bit_time: float,
                    delay: float = 0.0) -> "IbisDriverElement":
        wave = BitPattern(pattern, bit_time=bit_time, v_high=corner.vdd,
                          delay=delay)
        return cls(name, port, corner, wave.edges(),
                   initial_state=pattern[0])

    # -- switching coefficients ------------------------------------------------
    def coefficients(self, t: float) -> tuple[float, float]:
        """(K_pu, K_pd) at time ``t`` from the edge schedule."""
        k_pu = 1.0 if self.initial_state == "1" else 0.0
        for t_edge, direction in self.edges:
            if t < t_edge:
                break
            if direction == "up":
                tau = max(self._t_rise, 1e-15)
                k_pu = min((t - t_edge) / tau, 1.0)
            else:
                tau = max(self._t_fall, 1e-15)
                k_pu = 1.0 - min((t - t_edge) / tau, 1.0)
        return k_pu, 1.0 - k_pu

    def static(self, v: float, t: float) -> tuple[float, float]:
        """Pad current and its slope with the stages switched for ``t``."""
        c = self.model
        k_pu, k_pd = self.coefficients(t)
        i = c.static_current(v, k_pu, k_pd)
        g = (k_pu * c.pullup.conductance(v)
             + k_pd * c.pulldown.conductance(v)
             + c.power_clamp.conductance(v)
             + c.gnd_clamp.conductance(v))
        return i, g
