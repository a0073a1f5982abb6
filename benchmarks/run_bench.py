#!/usr/bin/env python
"""Run a benchmark group and append its medians to a trajectory file.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py --label after-fast-path
    PYTHONPATH=src python benchmarks/run_bench.py --group engine -k "ladder"
    PYTHONPATH=src python benchmarks/run_bench.py --check \\
        -k "test_linear_ladder_transient or test_branin_line_transient"

Runs ``benchmarks/bench_<group>.py`` under pytest-benchmark, extracts the
median seconds per test, and appends a labelled run to ``BENCH_<group>.json``
at the repository root.  The trajectory file is machine-readable so perf
regressions across PRs are a diff, not a re-measurement:

    {"group": "engine",
     "runs": [{"label": "seed", "timestamp": ..., "results":
               [{"test": "test_linear_ladder_transient", "median_s": ...}]}]}

``--check`` turns the script into a CI gate: instead of appending, the
fresh medians of the gated tests (``--gate``, default the two tier-1 perf
workhorses) are compared against the most recent recorded value in the
trajectory; the run fails when any gated median regresses by more than
``--max-regression`` (default 25%).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: medians gated by ``--check`` unless ``--gate`` overrides them
DEFAULT_GATES = ("test_linear_ladder_transient",
                 "test_branin_line_transient",
                 "test_spectrum_peak_hold_64",
                 "test_qp_weighting_batch_64",
                 "test_batched_grid_64",
                 "test_stochastic_128draws")


def run_group(group: str, k_expr: str | None = None) -> list[dict]:
    """Run one benchmark module and return [{test, median_s}, ...]."""
    bench_file = ROOT / "benchmarks" / f"bench_{group}.py"
    if not bench_file.exists():
        raise SystemExit(f"no benchmark module {bench_file}")
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest", str(bench_file), "-q",
               "--benchmark-only", f"--benchmark-json={json_path}"]
        if k_expr:
            cmd += ["-k", k_expr]
        proc = subprocess.run(cmd, cwd=ROOT)
        if proc.returncode not in (0, 5):  # 5 = no tests collected
            raise SystemExit(f"benchmark run failed (rc={proc.returncode})")
        if not json_path.exists():
            return []
        data = json.loads(json_path.read_text())
    results = []
    dropped: dict[str, int] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("group") != group:
            g = bench.get("group") or "<none>"
            dropped[g] = dropped.get(g, 0) + 1
            continue
        entry = {
            "test": bench["name"],
            "median_s": bench["stats"]["median"],
        }
        extra = bench.get("extra_info") or {}
        if extra:
            # e.g. the batched-grid amortization numbers (per-scenario
            # cost, speedup vs serial) ride along in the trajectory
            entry["extra_info"] = {k: extra[k] for k in sorted(extra)}
        results.append(entry)
    if dropped:
        # the module name and the benchmark group label need not coincide;
        # make the filtering visible so no group silently vanishes from
        # the trajectory
        drops = ", ".join(f"{g} ({n})" for g, n in sorted(dropped.items()))
        print(f"note: excluded benchmarks from other groups: {drops}")
    return results


def append_run(out: Path, group: str, label: str,
               results: list[dict]) -> dict:
    if out.exists():
        doc = json.loads(out.read_text())
    else:
        doc = {"group": group, "runs": []}
    run = {"label": label,
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "results": sorted(results, key=lambda r: r["test"])}
    doc["runs"].append(run)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return run


def last_recorded(doc: dict, test: str) -> float | None:
    """The most recent recorded median of ``test`` in a trajectory doc."""
    for run in reversed(doc.get("runs", [])):
        for r in run.get("results", []):
            if r.get("test") == test:
                return float(r["median_s"])
    return None


def check_regressions(out: Path, results: list[dict], gates,
                      max_regression: float) -> int:
    """Compare fresh medians against the trajectory; 0 = within budget.

    A gated test missing from the fresh results is an error (the gate must
    not silently pass because a rename dropped it); a gated test with no
    recorded history is reported and skipped (nothing to compare yet).
    """
    if not out.exists():
        print(f"{out.name} does not exist; nothing to gate against")
        return 1
    doc = json.loads(out.read_text())
    fresh = {r["test"]: r["median_s"] for r in results}
    failures = []
    width = max(len(t) for t in gates)
    print(f"\nperf gate vs {out.name} "
          f"(max regression {max_regression:.0%}):")
    for test in gates:
        if test not in fresh:
            print(f"  {test:<{width}}  MISSING from the fresh run")
            failures.append(test)
            continue
        base = last_recorded(doc, test)
        if base is None:
            print(f"  {test:<{width}}  no recorded history; skipped")
            continue
        ratio = fresh[test] / base
        verdict = "OK" if ratio <= 1.0 + max_regression else "REGRESSED"
        print(f"  {test:<{width}}  {base * 1e3:9.3f} ms -> "
              f"{fresh[test] * 1e3:9.3f} ms  ({ratio:6.2f}x)  {verdict}")
        if verdict == "REGRESSED":
            failures.append(test)
    if failures:
        print(f"\nperf gate FAILED for: {', '.join(failures)}")
        return 2
    print("\nperf gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", default="engine",
                        help="benchmark group / bench_<group>.py module")
    parser.add_argument("--label", default="run",
                        help="label recorded with this run (e.g. 'seed')")
    parser.add_argument("-k", dest="k_expr", default=None,
                        help="pytest -k expression forwarded to the run")
    parser.add_argument("--out", type=Path, default=None,
                        help="trajectory file (default BENCH_<group>.json)")
    parser.add_argument("--check", action="store_true",
                        help="CI gate mode: compare gated medians against "
                             "the last recorded trajectory entry instead "
                             "of appending a run")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional slowdown in --check mode "
                             "(0.25 = 25%%)")
    parser.add_argument("--gate", action="append", default=None,
                        metavar="TEST",
                        help="test name gated by --check (repeatable; "
                             f"default: {', '.join(DEFAULT_GATES)})")
    args = parser.parse_args(argv)

    out = args.out or ROOT / f"BENCH_{args.group}.json"
    results = run_group(args.group, args.k_expr)
    if not results:
        print(f"no benchmarks matched group {args.group!r}")
        return 1
    if args.check:
        gates = tuple(args.gate) if args.gate else DEFAULT_GATES
        return check_regressions(out, results, gates, args.max_regression)
    run = append_run(out, args.group, args.label, results)
    width = max(len(r["test"]) for r in run["results"])
    print(f"\n{out.name} <- run {args.label!r}:")
    for r in run["results"]:
        line = f"  {r['test']:<{width}}  {r['median_s'] * 1e3:9.3f} ms"
        extra = r.get("extra_info") or {}
        # amortized-cost benchmarks report per-scenario or per-draw cost
        amortized = extra.get("per_scenario_s", extra.get("per_draw_s"))
        if "speedup_vs_serial" in extra and amortized is not None:
            line += (f"  ({extra['speedup_vs_serial']:.1f}x vs serial, "
                     f"{amortized * 1e3:.2f} ms/unit)")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
