"""Coupled-line crosstalk + process-corner sweep through ScenarioRunner.

The system-level EMC question the paper builds toward: across bit patterns,
process corners, and terminations, how much noise does a switching driver
couple into a quiet neighbor, and what does the receiving input port see?
This example fans that grid through one `ScenarioRunner` call:

* `CoupledLoadSpec` scenarios drive the aggressor land of a 10 cm coupled
  pair and report NEXT/FEXT metrics of the quiet victim,
* `LoadSpec(kind="rx")` scenarios terminate the line in the MD4 receiver
  macromodel (terminated and unterminated pads),
* `corners=CORNERS` fans slow/typ/fast drivers through the product -- each
  corner estimates its own PW-RBF model (cached per process),
* the disk cache makes re-runs of this script nearly free.

Run:  python examples/crosstalk_corner_sweep.py
"""

import time

from repro.experiments.asciiplot import ascii_plot
from repro.studies import (CORNERS, CoupledLoadSpec, LoadSpec,
                           ScenarioRunner, scenario_grid)

CACHE_DIR = ".sweep_cache"


def main():
    grid = scenario_grid(
        patterns=["01", "0110"],
        loads=[
            CoupledLoadSpec(label="10cm coupled pair"),
            CoupledLoadSpec(l_mut=15e-9, c_mut=1.25e-12,
                            label="weakly coupled pair"),
            LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0,
                     label="line into terminated MD4"),
            LoadSpec(kind="rx", z0=50.0, td=1e-9, r=0.0,
                     label="line into open MD4 pad"),
        ],
        corners=CORNERS, bit_time=2e-9)
    print(f"{len(grid)} scenarios "
          f"(2 patterns x 4 loads x {len(CORNERS)} corners)")
    print("sweeping (slow/typ/fast MD2 models estimate on first use; "
          f"disk cache: {CACHE_DIR}/)...")

    runner = ScenarioRunner(disk_cache=CACHE_DIR)
    t0 = time.perf_counter()
    result = runner.run(grid)
    print(f"done in {time.perf_counter() - t0:.2f} s "
          f"({runner.n_workers} workers, "
          f"{result.n_cache_hits} from cache)\n")

    print(result.table())

    worst = result.worst("fext_peak")
    print(f"\nworst far-end crosstalk: {worst.scenario.resolved_name()} "
          f"({worst.metrics['fext_peak'] * 1e3:.0f} mV = "
          f"{worst.metrics['fext_ratio'] * 100:.1f}% of vdd, "
          f"corner={worst.scenario.corner})")
    print(ascii_plot({
        "aggressor far end": (worst.t, worst.v_port),
        "victim far end (FEXT)": (worst.t, worst.probes["fext"]),
    }, width=72, height=12))

    rx_worst = result.worst("overshoot")
    print(f"\nworst receiver-side overshoot: "
          f"{rx_worst.scenario.resolved_name()} "
          f"(+{rx_worst.metrics['overshoot']:.2f} V)")


if __name__ == "__main__":
    main()
