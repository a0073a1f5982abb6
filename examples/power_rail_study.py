"""A third-party scenario kind: power-rail decoupling, registered from
*outside* the core package.

`repro.studies` dispatches every load through the `ScenarioKind`
registry, so new termination topologies plug in without touching core
code.  This example adds a `"rail"` kind -- the driver switching into a
power-distribution network (package parasitics + decoupling capacitor
with its ESR + a resistive sink) -- with:

* its own frozen load dataclass (`RailLoadSpec`),
* custom wiring (`build_circuit`) exposing the rail node,
* a `"rail"` probe riding every outcome, from serial and pooled runs
  alike,
* kind-specific metrics (`rail_ripple`, `rail_droop`) merged into the
  standard summary,
* full Study/TOML citizenship: `load_from_dict` reconstructs the spec
  through the registry, cache keys come from the kind's `physics()`.

Run:  python examples/power_rail_study.py
"""

from dataclasses import dataclass

import numpy as np

from repro.circuit import Capacitor, Inductor, Resistor
from repro.devices import MD2
from repro.models import estimate_driver_model
from repro.studies import (BaseLoadSpec, ScenarioKind, Study,
                           load_from_dict, register_kind)

# ---------------------------------------------------------------------------
# 1) the load spec: plain frozen data, like LoadSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RailLoadSpec(BaseLoadSpec):
    """Driver into a decoupled power rail: L_pkg/R_pkg series parasitics
    into a rail node holding C_bulk (with ESR) and a resistive sink.

    Inheriting :class:`BaseLoadSpec` provides description, cache
    identity, wiring, probes and serialization by delegating to the
    registered kind below -- the spec itself stays pure data.
    """

    l_pkg: float = 5e-9        # package/bond inductance (H)
    r_pkg: float = 0.1         # package series resistance (ohm)
    c_bulk: float = 10e-9      # bulk decoupling capacitance (F)
    esr: float = 0.05          # capacitor equivalent series R (ohm)
    r_sink: float = 25.0       # resistive current sink at the rail (ohm)
    label: str = ""
    spectral: object = None    # same opt-in emission request as LoadSpec

    kind = "rail"


# ---------------------------------------------------------------------------
# 2) the kind: wiring, probes, metrics -- everything the core asks for
# ---------------------------------------------------------------------------


class PowerRailKind(ScenarioKind):
    """Power-rail decoupling study: how hard does the switching driver
    shake its local rail?"""

    name = "rail"
    load_cls = RailLoadSpec
    physics_fields = ("l_pkg", "r_pkg", "c_bulk", "esr", "r_sink")

    def describe(self, load):
        """``rail-l5n-c10n`` style tag."""
        return load.label or (f"rail-l{load.l_pkg * 1e9:g}n"
                              f"-c{load.c_bulk * 1e9:g}n")

    def probes(self, load):
        """The rail node waveform rides every outcome."""
        return {"rail": "rail"}

    def build_circuit(self, load, ckt, port):
        """Port -> L_pkg/R_pkg -> rail with C_bulk(+ESR) and the sink."""
        ckt.add(Inductor("lpkg", port, "pkg", load.l_pkg))
        ckt.add(Resistor("rpkg", "pkg", "rail", load.r_pkg))
        ckt.add(Resistor("resr", "rail", "cap", load.esr))
        ckt.add(Capacitor("cbulk", "cap", "0", load.c_bulk))
        ckt.add(Resistor("rsink", "rail", "0", load.r_sink))
        return "rail"

    def extra_metrics(self, load, sc, t, v, vdd, probes):
        """Rail quality: ripple (pk-pk over the last bit) and droop."""
        rail = probes.get("rail")
        if rail is None:
            return {}
        tail = t >= (t[-1] - sc.bit_time)
        return {
            "rail_ripple": float(rail[tail].max() - rail[tail].min()),
            "rail_droop": float(max(vdd - rail.min(), 0.0)),
        }


register_kind(PowerRailKind())


# ---------------------------------------------------------------------------
# 3) use it exactly like a built-in kind
# ---------------------------------------------------------------------------


def main():
    print("estimating the MD2 macromodel (once)...")
    model = estimate_driver_model(MD2, order=2, n_bases_high=9,
                                  n_bases_low=9)

    study = Study(
        name="power-rail-demo",
        patterns=("0101", "0110", "01110001"),
        loads=(
            RailLoadSpec(label="weak-decap", c_bulk=1e-9),
            RailLoadSpec(label="nominal"),
            RailLoadSpec(label="strong-decap", c_bulk=100e-9, esr=0.02),
        ),
        bit_time=2e-9,
    )
    print(f"{len(study)} scenarios over the custom 'rail' kind "
          f"[study digest {study.digest()}]")

    # the custom kind round-trips through the declarative form like any
    # built-in one: the registry owns (de)serialization
    as_dict = study.loads[1].to_dict()
    assert load_from_dict(as_dict) == study.loads[1]
    reloaded = Study.from_toml(study.to_toml())
    assert reloaded == study and reloaded.digest() == study.digest()
    print("TOML round trip through the registry: ok")

    result = study.run(models={("MD2", "typ"): model})
    print()
    print(f"{'scenario':<34} {'ripple':>8} {'droop':>8}")
    print("-" * 52)
    for out in result:
        m = out.metrics
        print(f"{out.scenario.resolved_name():<34} "
              f"{m['rail_ripple']:>8.3f} {m['rail_droop']:>8.3f}")

    worst = result.worst("rail_ripple")
    pattern = worst.scenario.pattern
    same = [o for o in result if o.scenario.pattern == pattern]
    best = min(same, key=lambda o: o.metrics["rail_ripple"])
    print(f"\nworst rail ripple: {worst.scenario.resolved_name()} "
          f"({worst.metrics['rail_ripple'] * 1e3:.0f} mV pk-pk)")
    ratio = worst.metrics["rail_ripple"] / max(best.metrics["rail_ripple"],
                                               1e-12)
    print(f"on pattern {pattern!r}, sizing the decap "
          f"({best.scenario.load.describe()}) buys {ratio:.0f}x less "
          f"ripple")
    assert np.isfinite(ratio) and ratio > 1.0


if __name__ == "__main__":
    main()
