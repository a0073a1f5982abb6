"""Benchmark of the EMC-study stack: three workloads, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload mc_unique --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``perfbench/workloads.py`` and ``perfbench/layers.json``):
``mc_unique``, ``pool_mixed`` and ``service_cache``.  One
client drives the public API in a closed loop, with at most two worker
processes.

The run estimates the workload's models (set-up), simulates a canary
study whose results are pinned, then measures cold/warm rounds for
``--seconds`` seconds.  End-to-end times are medians scaled to a
reference host by a probe of the host's speed around each measurement
(see :func:`_probe` and :func:`_end_to_end`); every process the run
starts is stopped and reaped before it exits.  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a fixed number of traced rounds (see ``perfbench/layers.py``).
A failed output check prints ``"correct": false`` and exits with 1; a
checkout without the program's sources exits with 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: traced and untraced rounds of a ``--trace 1`` run, per workload
TRACE_ROUNDS = {"mc_unique": 2, "pool_mixed": 3, "service_cache": 2}

END_TO_END = {"setup_s": "s", "scenarios_per_s": "1/s",
              "cold_fetch_s": "s", "warm_fetch_s": "s",
              "peak_rss_mb": "MB"}

#: :func:`_probe`'s time on the reference host (a calm 2-vCPU x86-64
#: VM); end-to-end times are scaled to a host this fast
PROBE_REF_S = 0.020


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _kernel(reps: int = 5) -> float:
    """Fastest of ``reps`` timings of a fixed kernel shaped like the
    transient engine's inner loop: small dense solves, vector ufuncs and
    interpreter arithmetic."""
    import numpy as np
    a = np.eye(8) * 8.0 + np.arange(64.0).reshape(8, 8) / 64.0
    b = np.arange(8.0)
    best = float("inf")
    for _ in range(reps):
        x = np.zeros(64)
        t0 = time.perf_counter()
        for i in range(2000):
            y = np.linalg.solve(a, b)
            x = np.tanh(0.5 * x + y[i % 8])
            s = 0.0
            for k in range(50):
                s += k * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def _probe() -> float:
    """The host's speed now: :func:`_kernel`'s mean time over the CPUs
    the run may use, each timed pinned to it.  On a shared host the
    CPUs slow down independently, and the run's processes use them all.
    The kernel never changes, so the probe measures the host, not the
    program."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def _slowdown(before: float, after: float) -> float:
    """How many times slower than the reference host the host ran
    between two probes."""
    return 0.5 * (before + after) / PROBE_REF_S


def _rounds_for(wl, seconds: float, probes: list) -> list:
    """Closed loop: rounds back to back for about ``seconds``, probing
    the host after each (round ``i`` runs between ``probes[i]`` and
    ``probes[i + 1]``); the last round is the one that ends nearest the
    deadline, so a run of long rounds does not overshoot it by almost a
    whole round."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(wl.round())
        probes.append(_probe())
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def _end_to_end(rounds, probes: list, setup_s: float) -> dict:
    """Median figures of the rounds, each scaled to a host at reference
    speed.

    A shared host has slow phases that slow the program and the probe
    alike; dividing each round's times by the :func:`_slowdown` the
    probes around it saw takes them out.  The median over the rounds
    (over every warm sample, for ``warm_fetch_s``) then damps what is
    left, bursts shorter than a round.
    """
    slowdowns = [_slowdown(a, b) for a, b in zip(probes, probes[1:])]
    cold = statistics.median(r.cold_s / k for r, k in zip(rounds, slowdowns))
    return {
        "setup_s": setup_s,
        "scenarios_per_s": rounds[0].size / cold,
        "cold_fetch_s": cold,
        "warm_fetch_s": statistics.median(
            w / k for r, k in zip(rounds, slowdowns) for w in r.warm_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _traced(wl, workdir: Path, model_times: dict):
    """Untraced rounds, then as many traced rounds; per-round layer
    metrics plus the tracing overhead."""
    from repro.obs import configure_tracing, read_spans, set_tracer

    import layers
    n = TRACE_ROUNDS[wl.name]
    untraced = []
    for _ in range(n):
        gc.collect()
        untraced.append(wl.round())
    path = str(workdir / "spans.jsonl")
    tracer = configure_tracing(path=path)
    layers.install()
    wl.start_trace(path)
    traced = []
    try:
        for _ in range(n):
            gc.collect()
            traced.append(wl.round())
    finally:
        set_tracer(None)
        tracer.close()
    metrics = layers.layer_metrics(read_spans(path), n)
    metrics.update(wl.own_metrics(n))
    for name in ("MD2-typ", "MD2-slow", "MD2-fast", "MD4-rx"):
        times = model_times.get(name)
        metrics[f"model.{name}.estimate_s"] = min(times) if times else 0.0
    wall = sum(r.wall_s for r in traced)
    metrics["trace.round_s"] = wall / n
    metrics["trace.overhead_frac"] = \
        wall / sum(r.wall_s for r in untraced) - 1.0
    return untraced + traced, {k: (metrics[k], unit)
                               for k, unit in layers.METRICS.items()}


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import workloads  # the program's imports are part of set-up
    t_import = time.perf_counter() - t0

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    rounds: list = []
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # set-up times scaled like the rounds' (see _end_to_end), each
        # model's by the probes just before and after it
        setups, model_times, probes = [], {}, [_probe()]
        for _ in range(wl.setup_reps):
            first = len(probes) - 1
            times = wl.estimate_models(
                between=lambda: probes.append(_probe()))
            setups.append(t_import / _slowdown(probes[0], probes[0]) + sum(
                s / _slowdown(probes[first + j], probes[first + j + 1])
                for j, s in enumerate(times.values())))
            for name, s in times.items():
                model_times.setdefault(name, []).append(s)
        wl.canary()
        if args.trace:
            rounds, metrics = _traced(wl, workdir, model_times)
        else:
            round_probes = [_probe()]
            rounds = _rounds_for(wl, args.seconds, round_probes)
            probes += round_probes
            metrics = {k: (v, END_TO_END[k])
                       for k, v in _end_to_end(
                           rounds, round_probes,
                           statistics.median(setups)).items()}
    except workloads.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, sum(r.n for r in rounds)),
                          "failed": sum(r.failed for r in rounds),
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(r.n for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(rounds)} "
          f"failed_frac={failed / attempted:.6g} "
          f"slowdown={statistics.median(probes) / PROBE_REF_S:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit}
                                  for k, (v, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


def _child_pids() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # the field after the ")" closing the command name is the
            # state, the next one the parent pid
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def _stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Besides pool and shard workers, a parallel ``ScenarioRunner`` run
    starts the ``multiprocessing`` resource tracker for its shared-memory
    arena; left alone it outlives this process.  Workers go first, since
    they hold the tracker's pipe open.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join()
    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        if pid == getattr(tracker, "_pid", None):
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
