"""In-process metrics: counters, gauges and histograms with aggregation.

A :class:`MetricsRegistry` is a lock-protected map from
``(name, labels)`` to scalar state.  The stack increments it from the
solver (``solver_steps``, ``newton_iters``, ``dcop_newton_iters``,
``batch_fallbacks_total{reason}``), the runner
(``cache_hits``/``cache_misses``, ``scenarios_total{status,kind}``,
``worker_restarts``), the sweep disk cache
(``disk_cache_total{result}``) and the service (``shard_retries``, the
``job_seconds`` latency histogram).  Registries are cheap plain-Python
state, so worker processes accumulate into their own (reset at
initializer time — fork inherits the parent's counts) and ship a
:meth:`~MetricsRegistry.flush` snapshot back over the existing result
pipe; the parent :meth:`~MetricsRegistry.merge`\\ s those deltas into
the process-wide registry that ``GET /metrics`` renders in Prometheus
text exposition format.

When metrics are off (``set_metrics(NULL_METRICS)``) the code paths
hold :data:`NULL_METRICS`, whose methods are constant-time no-ops —
same trick as the null tracer.
"""

from __future__ import annotations

import threading

__all__ = [
    "NULL_METRICS",
    "MetricsRegistry",
    "NullMetrics",
    "get_metrics",
    "set_metrics",
]

#: default histogram bucket upper bounds (seconds-flavoured, Prometheus
#: style; the rendered text adds the implicit +Inf bucket)
DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                   60.0, 120.0, 300.0)


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms.

    Series are keyed by metric name plus sorted label pairs; labels are
    passed as keyword arguments (``inc("scenarios_total", status="ok",
    kind="line")``).  All mutation happens under one lock — the touch
    rate is per scenario/shard/job, never per solver step, so
    contention is irrelevant.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, dict] = {}

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` (default 1) to a monotonically increasing counter."""
        k = _key(name, labels)
        with self._lock:
            self._counters[k] = self._counters.get(k, 0.0) + value

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge to the given instantaneous value."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float,
                buckets: tuple = DEFAULT_BUCKETS, **labels) -> None:
        """Record one observation into a histogram series.

        ``buckets`` (upper bounds, ascending) binds on the series'
        first observation; later calls reuse the existing bounds.
        """
        k = _key(name, labels)
        value = float(value)
        with self._lock:
            h = self._hists.get(k)
            if h is None:
                h = {"bounds": tuple(float(b) for b in buckets),
                     "counts": [0] * (len(buckets) + 1),
                     "sum": 0.0, "count": 0}
                self._hists[k] = h
            idx = len(h["bounds"])
            for i, bound in enumerate(h["bounds"]):
                if value <= bound:
                    idx = i
                    break
            h["counts"][idx] += 1
            h["sum"] += value
            h["count"] += 1

    def value(self, name: str, **labels) -> float:
        """Current value of a counter or gauge series (0.0 if unseen)."""
        k = _key(name, labels)
        with self._lock:
            if k in self._counters:
                return self._counters[k]
            return self._gauges.get(k, 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items()
                       if n == name)

    def snapshot(self) -> dict:
        """Deep-copied picklable state: send over pipes, merge elsewhere."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: {"bounds": h["bounds"],
                                   "counts": list(h["counts"]),
                                   "sum": h["sum"], "count": h["count"]}
                               for k, h in self._hists.items()},
            }

    def flush(self) -> dict:
        """Snapshot then reset: the delta a worker ships to its parent."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snap: dict | None) -> None:
        """Fold a :meth:`snapshot`/:meth:`flush` delta into this registry.

        Counters and histogram contents add; gauges take the incoming
        value (last writer wins).  ``None`` is tolerated so callers can
        merge optional summaries unconditionally.
        """
        if not snap:
            return
        with self._lock:
            for k, v in snap.get("counters", {}).items():
                self._counters[k] = self._counters.get(k, 0.0) + v
            self._gauges.update(snap.get("gauges", {}))
            for k, h in snap.get("histograms", {}).items():
                mine = self._hists.get(k)
                if mine is None or tuple(mine["bounds"]) != tuple(h["bounds"]):
                    mine = {"bounds": tuple(h["bounds"]),
                            "counts": [0] * (len(h["bounds"]) + 1),
                            "sum": 0.0, "count": 0}
                    self._hists[k] = mine
                mine["counts"] = [a + b for a, b in
                                  zip(mine["counts"], h["counts"])]
                mine["sum"] += h["sum"]
                mine["count"] += h["count"]

    def reset(self) -> None:
        """Drop all series (worker initializers shed fork-inherited state)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    def render_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        snap = self.snapshot()
        out: list[str] = []
        typed: set[str] = set()

        def _line(name, labels, value, suffix="", extra=()):
            pairs = tuple(labels) + tuple(extra)
            lab = ("{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"
                   if pairs else "")
            val = repr(float(value)) if value != int(value) else int(value)
            out.append(f"{name}{suffix}{lab} {val}")

        def _head(name, kind):
            if name not in typed:
                typed.add(name)
                out.append(f"# TYPE {name} {kind}")

        for (name, labels), v in sorted(snap["counters"].items()):
            _head(name, "counter")
            _line(name, labels, v)
        for (name, labels), v in sorted(snap["gauges"].items()):
            _head(name, "gauge")
            _line(name, labels, v)
        for (name, labels), h in sorted(snap["histograms"].items()):
            _head(name, "histogram")
            cum = 0
            for bound, n in zip(h["bounds"], h["counts"]):
                cum += n
                _line(name, labels, cum, "_bucket", (("le", repr(bound)),))
            _line(name, labels, h["count"], "_bucket", (("le", "+Inf"),))
            _line(name, labels, h["sum"], "_sum")
            _line(name, labels, h["count"], "_count")
        return "\n".join(out) + "\n"


class NullMetrics:
    """Disabled registry: every method is a constant-time no-op."""

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Discard a counter increment."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """Discard a gauge update."""

    def observe(self, name: str, value: float, buckets: tuple = (),
                **labels) -> None:
        """Discard a histogram observation."""

    def value(self, name: str, **labels) -> float:
        """Always 0.0."""
        return 0.0

    def total(self, name: str) -> float:
        """Always 0.0."""
        return 0.0

    def snapshot(self) -> dict:
        """Always empty."""
        return {}

    def flush(self) -> dict:
        """Always empty."""
        return {}

    def merge(self, snap: dict | None) -> None:
        """Discard an incoming delta."""

    def reset(self) -> None:
        """Nothing to drop."""

    def render_prometheus(self) -> str:
        """Empty exposition."""
        return "\n"


NULL_METRICS = NullMetrics()

_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (always live; rendering is opt-in)."""
    return _registry


def set_metrics(registry: MetricsRegistry | NullMetrics) -> None:
    """Replace the process-wide registry (tests, isolation)."""
    global _registry
    _registry = registry
