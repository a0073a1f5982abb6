"""Per-layer metrics of a traced run, from spans in one JSONL file.

Two sources feed the file:

* the spans the program already exports (``runner.run``,
  ``runner.prepare``, ``runner.arena``, ``runner.group``, ``scenario``,
  ``transient.run``, ``transient.batch``, ``job.shard.attempt``, ...),
  written by a :class:`repro.obs.Tracer` that worker processes inherit
  through the program's own trace-context propagation;
* spans this module adds from outside, by wrapping the public callables
  the program calls through (:func:`install`): the DC operating point,
  spectra, detectors, mask checks, scenario rendering and the disk
  cache.  The program's pools fork, so the wrappers are live in worker
  processes too and write through the worker's tracer.

:func:`layer_metrics` folds the spans into the per-layer metrics; a
layer's self time is its spans' duration minus the part of each span
that its child spans cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro.circuit import transient as _transient
from repro.emc.limits import LimitMask
from repro.experiments.cache import SweepDiskCache
from repro.obs import get_tracer
from repro.studies import StochasticStudy, Study
from repro.studies import simulate as _simulate

#: (owner, attribute, span name) of every wrapped callable
_TARGETS = (
    (_transient, "solve_dcop", "perfbench.dcop"),
    (_simulate, "amplitude_spectrum", "perfbench.spectrum"),
    (_simulate, "apply_detector", "perfbench.detector"),
    (LimitMask, "check", "perfbench.mask"),
    (Study, "scenarios", "perfbench.render"),
    (StochasticStudy, "scenarios", "perfbench.render"),
    (SweepDiskCache, "get", "perfbench.disk.get"),
    (SweepDiskCache, "put", "perfbench.disk.put"),
)


def _wrap(fn, span_name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with get_tracer().span(span_name) as sp:
            out = fn(*args, **kwargs)
            if span_name == "perfbench.disk.get":
                sp.set(hit=out is not None)
            return out
    return traced


def install() -> None:
    """Wrap every target callable in a span (idempotent per process)."""
    for owner, attr, span_name in _TARGETS:
        fn = getattr(owner, attr)
        if getattr(fn, "__wrapped__", None) is None:
            setattr(owner, attr, _wrap(fn, span_name))


#: worker processes of the one pooled workload (``pool_mixed``)
POOL_WORKERS = 2

#: every per-layer metric this module reports, with its unit
METRICS = {
    "dcop.calls": "count", "dcop.s": "s",
    "batch.calls": "count", "batch.members": "count",
    "batch.fallback_members": "count", "batch.s": "s",
    "transient.calls": "count", "transient.s": "s",
    "newton.iters": "count", "solver.steps": "count",
    "runner.groups": "count", "runner.batched_frac": "ratio",
    "runner.prepare_s": "s", "runner.arena_s": "s",
    "runner.pool_busy_frac": "ratio",
    "spec.render_s": "s",
    "spectrum.calls": "count", "spectrum.s": "s", "detector.s": "s",
    "mask.s": "s", "quantile.s": "s",
    "disk.put_calls": "count", "disk.put_s": "s",
    "disk.get_calls": "count", "disk.get_s": "s",
    "disk.hit_frac": "ratio", "disk.bytes": "B",
    "job.plan_s": "s", "job.shards_s": "s", "job.merge_s": "s",
    "job.shard_attempts": "count",
    "http.requests": "count", "http.fetch_s": "s",
    "model.MD2-typ.estimate_s": "s", "model.MD2-slow.estimate_s": "s",
    "model.MD2-fast.estimate_s": "s", "model.MD4-rx.estimate_s": "s",
    "trace.round_s": "s", "trace.overhead_frac": "ratio",
}


def _self_times(spans: list) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp.get("parent_id"):
            children[sp["parent_id"]].append(sp)
    out = {}
    for sp in spans:
        lo, hi = sp["t_start"], sp["t_start"] + sp["duration_s"]
        covered, end = 0.0, lo
        for a, b in sorted((max(c["t_start"], lo),
                            min(c["t_start"] + c["duration_s"], hi))
                           for c in children.get(sp["span_id"], ())):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[sp["span_id"]] = max(sp["duration_s"] - covered, 0.0)
    return out


def layer_metrics(spans: list, n_rounds: int) -> dict:
    """Fold exported span dicts into the span-derived layer metrics:
    counts and seconds per round (``n_rounds`` rounds exported
    ``spans``), ratios over all of them."""
    self_s = _self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp["name"]].append(sp)

    def total(name):
        return sum(sp["duration_s"] for sp in by_name[name])

    def self_total(name):
        return sum(self_s[sp["span_id"]] for sp in by_name[name])

    batches = by_name["transient.batch"]
    runs = by_name["transient.run"]
    batched = [sp for sp in batches if not sp["attrs"].get("fallback")]
    members = sum(sp["attrs"].get("members", 0) for sp in batches)
    fallback = sum(sp["attrs"].get("members", 0) for sp in batches
                   if sp["attrs"].get("fallback"))
    simulated = len(by_name["scenario"])
    gets = by_name["perfbench.disk.get"]
    pool_runs = {sp["span_id"]: sp for sp in by_name["runner.run"]
                 if sp["attrs"].get("parallel")}
    pool_busy = sum(sp["duration_s"] for sp in by_name["runner.group"]
                    if sp.get("parent_id") in pool_runs)
    pool_wall = POOL_WORKERS * sum(sp["duration_s"]
                                   for sp in pool_runs.values())
    per_round = {
        "dcop.calls": len(by_name["perfbench.dcop"]),
        "dcop.s": total("perfbench.dcop"),
        "batch.calls": len(batches),
        "batch.members": members,
        "batch.fallback_members": fallback,
        "batch.s": self_total("transient.batch"),
        "transient.calls": len(runs),
        "transient.s": self_total("transient.run"),
        "newton.iters": sum(sp["attrs"].get("newton_iters", 0)
                            for sp in runs + batches),
        "solver.steps": sum(sp["attrs"].get("n_steps", 0) for sp in runs)
        + sum(sp["attrs"].get("n_steps", 0) * sp["attrs"].get("members", 0)
              for sp in batched),
        "runner.groups": len(by_name["runner.group"]),
        "runner.prepare_s": total("runner.prepare"),
        "runner.arena_s": total("runner.arena"),
        "spec.render_s": total("perfbench.render"),
        "spectrum.calls": len(by_name["perfbench.spectrum"]),
        "spectrum.s": total("perfbench.spectrum"),
        "detector.s": total("perfbench.detector"),
        "mask.s": total("perfbench.mask"),
        "disk.put_calls": len(by_name["perfbench.disk.put"]),
        "disk.put_s": total("perfbench.disk.put"),
        "disk.get_calls": len(gets),
        "disk.get_s": total("perfbench.disk.get"),
        "job.shard_attempts": len(by_name["job.shard.attempt"]),
    }
    out = {k: v / n_rounds for k, v in per_round.items()}
    out["runner.batched_frac"] = (members - fallback) / simulated \
        if simulated else 0.0
    out["runner.pool_busy_frac"] = pool_busy / pool_wall if pool_wall \
        else 0.0
    out["disk.hit_frac"] = sum(1 for sp in gets if sp["attrs"].get("hit")) \
        / len(gets) if gets else 0.0
    return out

