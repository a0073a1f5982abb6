"""EMC emission-compliance study over a corner x pattern x load grid.

This is the workflow the paper builds toward -- *system EMC assessment*
with I/O-port macromodels: sweep the operating space of a digital port,
turn every simulated waveform into an emission spectrum, score each
spectrum against a regulatory-style limit mask, and report which corners
of the design space comply.

* every scenario carries ``SpectralSpec(mask="board-b",
  detectors=("peak", "quasi-peak", "average"), prf=1e3)``: the
  pad-voltage spectrum (windowed FFT, dBuV) is checked against the
  CISPR-22-shaped board-level Class B mask once per CISPR 16 detector
  -- the burst is assumed to repeat at 1 kHz in service, so quasi-peak
  and average read below peak (see docs/emc_workflow.md),
* ``corners=CORNERS`` fans slow/typ/fast drivers through the product
  (each corner estimates its own PW-RBF model, cached per process),
* receiver (``kind="rx"``) scenarios additionally run the logic-threshold
  eye check, so their verdict is "complies with the mask AND the receiver
  reads every bit",
* the grid-wide ``peak_hold()`` envelope is plotted against the limit
  line, and the disk cache makes re-runs nearly free.

Run:  python examples/emission_compliance_sweep.py
"""

import time

from repro.emc import get_mask
from repro.experiments.asciiplot import ascii_spectrum
from repro.studies import (CORNERS, LoadSpec, ScenarioRunner, SpectralSpec,
                           scenario_grid)

CACHE_DIR = ".sweep_cache"
MASK = "board-b"


def main():
    grid = scenario_grid(
        patterns=["0110", "010101"],
        loads=[
            LoadSpec(kind="r", r=50.0, label="matched 50 ohm"),
            LoadSpec(kind="rc", r=150.0, c=5e-12, label="150 ohm || 5 pF"),
            LoadSpec(kind="line", z0=75.0, td=1e-9, r=1e4,
                     label="75 ohm line, open end"),
            LoadSpec(kind="rx", z0=50.0, td=1e-9, r=50.0,
                     label="line into terminated MD4"),
        ],
        corners=CORNERS,
        spectral=SpectralSpec(mask=MASK,
                              detectors=("peak", "quasi-peak", "average"),
                              prf=1e3))
    print(f"{len(grid)} scenarios "
          f"(2 patterns x 4 loads x {len(CORNERS)} corners), "
          f"scored against mask {MASK!r} with peak/QP/average detectors")
    print("sweeping (slow/typ/fast MD2 models estimate on first use; "
          f"disk cache: {CACHE_DIR}/)...")

    runner = ScenarioRunner(disk_cache=CACHE_DIR)
    t0 = time.perf_counter()
    result = runner.run(grid)
    print(f"done in {time.perf_counter() - t0:.2f} s "
          f"({runner.n_workers} workers, "
          f"{result.n_cache_hits} from cache)\n")

    print(result.compliance_table())
    scored = result.verdicts()
    n_pass = sum(1 for o in scored if o.passed)
    n_fail = sum(1 for o in scored if o.passed is False)
    print(f"\n{n_pass}/{len(scored)} scenarios comply, {n_fail} violate "
          f"the {MASK!r} mask (combined: every detector AND the rx eye)")

    # detector-by-detector: quasi-peak relief rescues marginal corners
    for det in ("peak", "quasi-peak", "average"):
        n = sum(1 for o in scored if o.verdicts_by[det].passed)
        worst_det = min(o.verdicts_by[det].margin_db for o in scored)
        print(f"  {det:>10}: {n:2d}/{len(scored)} pass, "
              f"worst margin {worst_det:+.1f} dB")

    worst = result.worst_margin()
    v = worst.verdict
    print(f"compliance bottleneck: {worst.scenario.resolved_name()} "
          f"(margin {v.margin_db:+.1f} dB at {v.f_worst / 1e6:.0f} MHz, "
          f"corner={worst.scenario.corner})")

    print("\ngrid-wide peak-hold emission envelope vs the limit line:")
    env = result.peak_hold()
    print(ascii_spectrum(env, mask=get_mask(MASK), width=72, height=16))

    # what the fix would need: margin to the Class A (looser) preset
    relaxed = get_mask("board-a").check(worst.spectra["v_port"])
    print(f"\nsame worst corner vs 'board-a' (Class A): "
          f"margin {relaxed.margin_db:+.1f} dB "
          f"-> {'PASS' if relaxed.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
