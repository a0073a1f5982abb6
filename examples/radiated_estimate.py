"""Radiated-emission estimate of a corner grid vs FCC Part 15 B.

The full radiated half of the EMC workflow (docs/emc_workflow.md):
every scenario probes the conducted port current through a series
CurrentProbe, the common-mode share of that current drives a 1 m
attached cable modeled with the closed-form short-cable/resonant-bound
antenna, and the predicted E-field at the FCC 3 m range distance is
scored against the fcc-15b mask -- with peak and CISPR 16 quasi-peak
detectors side by side (the burst is assumed to repeat at 1 kHz).

Run:  python examples/radiated_estimate.py
"""

import time

from repro.emc import get_mask
from repro.experiments import AntennaModel
from repro.experiments.asciiplot import ascii_spectrum
from repro.studies import (CORNERS, LoadSpec, ScenarioRunner, SpectralSpec,
                           scenario_grid)

CACHE_DIR = ".sweep_cache"
MASK = "fcc-15b"

#: 1 m attached cable observed at the FCC 3 m range; 0.02 % of the
#: probed port current converts to common mode (a well-balanced board --
#: cm_fraction=1.0 would be the absolute worst case, failing everywhere)
ANTENNA = AntennaModel(length=1.0, distance=3.0, cm_fraction=2e-4)


def main():
    spec = SpectralSpec(quantity="i_port",
                        detectors=("peak", "quasi-peak"), prf=1e3,
                        antenna=ANTENNA, radiated_mask=MASK)
    grid = scenario_grid(
        patterns=["0110", "010101"],
        loads=[
            LoadSpec(kind="r", r=50.0, label="matched 50 ohm"),
            LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4,
                     label="75 ohm line, open end"),
        ],
        corners=CORNERS,
        spectral=spec)
    print(f"{len(grid)} scenarios (2 patterns x 2 loads x "
          f"{len(CORNERS)} corners)")
    print(f"cable antenna: {ANTENNA.describe()}, "
          f"cm_fraction={ANTENNA.cm_fraction:g}; "
          f"radiated mask {MASK!r} at 3 m\n")

    runner = ScenarioRunner(disk_cache=CACHE_DIR)
    t0 = time.perf_counter()
    result = runner.run(grid)
    print(f"swept in {time.perf_counter() - t0:.2f} s "
          f"({result.n_cache_hits} from cache)\n")

    print(result.compliance_table())

    scored = [o for o in result if o.ok and "rad:peak" in o.verdicts_by]
    n_pass = sum(1 for o in scored if o.verdicts_by["rad:peak"].passed)
    n_qp = sum(1 for o in scored
               if o.verdicts_by["rad:quasi-peak"].passed)
    print(f"\nradiated vs {MASK!r}: {n_pass}/{len(scored)} pass on the "
          f"peak detector, {n_qp}/{len(scored)} on quasi-peak")

    worst = min(scored,
                key=lambda o: o.verdicts_by["rad:quasi-peak"].margin_db)
    v = worst.verdicts_by["rad:quasi-peak"]
    print(f"worst corner: {worst.scenario.resolved_name()} "
          f"(QP margin {v.margin_db:+.1f} dB at {v.f_worst / 1e6:.0f} MHz)")

    print("\ngrid-wide quasi-peak E-field envelope at 3 m vs FCC 15 B:")
    env = result.peak_hold("e_field", "quasi-peak")
    print(ascii_spectrum(env, mask=get_mask(MASK), width=72, height=16))


if __name__ == "__main__":
    main()
