"""A lightweight metrics registry: named counters, gauges, and histograms.

The observability substrate for the whole library.  Metrics are plain
Python objects whose hot-path operations are single attribute bumps —
cheap enough to leave enabled unconditionally (no locks: CPython's GIL
makes ``+=`` on an instance attribute safe for our purposes, and the
query paths are single-threaded anyway).

One registry matters: the module-level :func:`global_registry`.  The
storage layer, the matchers and the engine bump counters like
``bufferpool.hits`` there, every query folds its
:class:`~repro.ctree.stats.QueryStats` record into it on completion
(``ctree.query.pseudo_tests``, ...), and ``repro metrics`` dumps a
snapshot (or a before/after diff) as JSON.  A private
:class:`MetricsRegistry` is for tests and for folding worker deltas.

Snapshots are plain JSON-able dicts, so diffing two snapshots gives the
exact cost of the work between them (how an engine worker ships home what
one task counted).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Union

Number = Union[int, float]

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "global_registry",
]


class Counter:
    """A monotonically-growing (by convention) numeric counter.

    ``value`` is public and may be bumped directly (``c.value += 1``) or
    via :meth:`inc`; both compile to a single attribute store.  Values
    may be ints or floats (timings accumulate into counters too).
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (e.g. cached pages, tree height)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


#: Default histogram bucket bounds: powers of 4 spanning microseconds to
#: minutes when observing seconds, and 1 .. ~10^6 when observing sizes.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(4.0 ** e for e in range(-10, 11))


class Histogram:
    """A fixed-bucket histogram of observed values (latencies, sizes).

    Tracks count/sum/min/max plus per-bucket counts against sorted upper
    bounds; bucket ``i`` counts observations ``<= bounds[i]``, with one
    implicit overflow bucket.  Observation is a bisect plus two adds.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = tuple(bounds or DEFAULT_BUCKETS)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def snapshot(self) -> dict:
        buckets = {}
        for bound, n in zip(self.bounds, self.bucket_counts):
            if n:
                buckets[f"le_{bound:g}"] = n
        if self.bucket_counts[-1]:
            buckets["inf"] = self.bucket_counts[-1]
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": buckets,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another histogram's snapshot (or snapshot diff) into this
        one.

        Count, sum, and bucket counts add exactly.  ``min``/``max`` widen
        to cover the snapshot's bounds (for a *diff*, which reports the
        after-side extrema, the merged extrema are therefore conservative
        — they may be wider than the true union, never narrower).  Bucket
        labels are resolved against this histogram's own bounds, so
        snapshots taken with the default buckets round-trip exactly.
        """
        count = snap.get("count", 0)
        if not count:
            return
        self.count += count
        self.total += snap.get("sum", 0.0)
        lo, hi = snap.get("min"), snap.get("max")
        if lo is not None and lo < self.min:
            self.min = lo
        if hi is not None and hi > self.max:
            self.max = hi
        for label, n in snap.get("buckets", {}).items():
            if label == "inf":
                self.bucket_counts[-1] += n
                continue
            try:
                bound = float(label[3:])  # strip the "le_" prefix
            except ValueError:
                self.bucket_counts[-1] += n
                continue
            index = 0
            while index < len(self.bounds) and self.bounds[index] < bound:
                index += 1
            if index < len(self.bounds):
                self.bucket_counts[index] += n
            else:
                self.bucket_counts[-1] += n

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>")


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    ``counter``/``gauge``/``histogram`` return the existing metric of that
    name (raising ``TypeError`` on a kind mismatch) or create it.  Hot
    paths should resolve their metrics once and keep the reference — the
    bump itself is then a plain attribute store.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """A JSON-able {name: metric snapshot} of the current state."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def diff(self, before: dict[str, dict]) -> dict[str, dict]:
        """The change since ``before`` (an earlier :meth:`snapshot`).

        Counters and histograms subtract; gauges report their current
        value (a gauge delta is rarely meaningful).  Metrics absent from
        ``before`` diff against zero.
        """
        return diff_snapshots(before, self.snapshot())

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a snapshot (or a :meth:`diff` delta) from *another*
        registry into this one.

        Counters add, histograms merge count/sum/buckets
        (:meth:`Histogram.merge_snapshot`), and gauges take the
        snapshot's value (a gauge is a point-in-time reading — last
        writer wins).  This is the cross-process aggregation primitive:
        a worker process snapshots its registry around a task, ships the
        delta home, and the parent merges it so parallel runs report the
        same totals as serial ones.
        """
        for name, snap in snapshot.items():
            kind = snap.get("type")
            if kind == "counter":
                self.counter(name).inc(snap.get("value", 0))
            elif kind == "gauge":
                self.gauge(name).set(snap.get("value", 0))
            elif kind == "histogram":
                self.histogram(name).merge_snapshot(snap)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._metrics)} metrics>"


def diff_snapshots(
    before: dict[str, dict], after: dict[str, dict]
) -> dict[str, dict]:
    """Elementwise ``after - before`` of two registry snapshots."""
    out: dict[str, dict] = {}
    for name, snap in after.items():
        prev = before.get(name)
        kind = snap.get("type")
        if prev is None or prev.get("type") != kind:
            out[name] = dict(snap)
            continue
        if kind == "counter":
            out[name] = {"type": "counter",
                         "value": snap["value"] - prev["value"]}
        elif kind == "gauge":
            out[name] = dict(snap)
        else:  # histogram
            buckets = dict(snap.get("buckets", {}))
            for key, n in prev.get("buckets", {}).items():
                buckets[key] = buckets.get(key, 0) - n
            buckets = {k: v for k, v in buckets.items() if v}
            count = snap["count"] - prev["count"]
            total = snap["sum"] - prev["sum"]
            out[name] = {
                "type": "histogram",
                "count": count,
                "sum": total,
                "min": snap.get("min"),
                "max": snap.get("max"),
                "mean": total / count if count else 0.0,
                "buckets": buckets,
            }
    return out


#: The process-wide registry every instrumented subsystem reports into.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The shared process-wide registry (``repro metrics`` dumps this)."""
    return _GLOBAL
