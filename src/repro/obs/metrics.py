"""Metric primitives: counters, gauges, histograms, and their registry.

Dependency-free and deliberately cheap on the hot path: recording into a
metric is a plain attribute update on a pre-resolved object, so
instrumented subsystems look a metric up once (at construction) and then
pay an integer add per event.  Nothing is exported anywhere until a sink
is attached and :meth:`MetricsRegistry.flush` is called, so an
uninstrumented run pays only the attribute updates.

Metrics are identified by a dotted name plus a frozen label set, the
Prometheus data model reduced to what the simulation needs::

    registry = MetricsRegistry()
    allocs = registry.counter("trunk.alloc.total", trunk=3)
    allocs.inc()
    depth = registry.gauge("bsp.queue.depth")
    depth.set(42)
    lat = registry.histogram("cluster.request.seconds")
    lat.observe(3.2e-4)
"""

from __future__ import annotations

import bisect
import time
from typing import Iterator


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, garbage bytes)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


# Geometric buckets covering 100 ns .. ~100 s: wide enough for both the
# simulated clock (sub-millisecond rounds) and real wall-clock spans.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-7, 3))


class _HistogramTimer:
    """Context manager recording a wall-clock duration into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Distribution summary: bucketed counts plus sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (),
                 buckets: tuple = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def time(self) -> _HistogramTimer:
        """``with h.time():`` — observe the block's wall-clock seconds."""
        return _HistogramTimer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile estimate, interpolated linearly inside its bucket.

        A bucket's edges are narrowed to the observed ``[min, max]``, so
        every estimate lies in that range and ``min <= p50 <= p99 <=
        max`` holds whatever the bucket layout (a single sample, one
        crowded bucket, the overflow bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if n and seen + n >= target:
                low = max(self.bounds[i - 1], self.min) if i else self.min
                high = (min(self.bounds[i], self.max)
                        if i < len(self.bounds) else self.max)
                # min(): the float sum can overshoot ``high`` by an ulp.
                return min(low + (high - low) * (target - seen) / n, high)
            seen += n
        return self.max

    def summary(self) -> dict:
        """``{count, mean, p50, p99, max}`` — the one-line view the SLO
        reports and ``:metrics`` print instead of raw bucket dumps."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "max": self.max if self.max is not None else 0.0,
        }

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> dict:
        return {
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": {
                str(bound): n
                for bound, n in zip(self.bounds, self.bucket_counts)
            },
            "overflow": self.bucket_counts[-1],
        }


class MetricsRegistry:
    """Process-wide (or injected per-test) home for every metric.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    with the same name and labels returns the same object, so components
    constructed repeatedly (trunks across many test clouds) accumulate
    into the same series rather than colliding.

    ``reset`` zeroes every metric *in place*; cached references held by
    instrumented components stay valid.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, object] = {}
        self._sinks: list = []

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, _label_key(labels), **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def collect(self) -> Iterator:
        """Every registered metric, in registration order."""
        return iter(self._metrics.values())

    def series_names(self) -> list[str]:
        return sorted({m.name for m in self._metrics.values()})

    def snapshot(self) -> dict:
        """Nested plain-data view: name -> kind + list of labelled series."""
        out: dict[str, dict] = {}
        for metric in self._metrics.values():
            entry = out.setdefault(
                metric.name, {"kind": metric.kind, "series": []}
            )
            entry["series"].append(metric.snapshot())
        return out

    def reset(self) -> None:
        """Zero all metrics in place (cached references stay live)."""
        for metric in self._metrics.values():
            metric.reset()

    # -- sinks ---------------------------------------------------------------

    def attach_sink(self, sink) -> None:
        self._sinks.append(sink)

    def detach_sink(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    def flush(self) -> int:
        """Export one snapshot to every attached sink; returns sink count."""
        if not self._sinks:
            return 0
        snap = self.snapshot()
        for sink in self._sinks:
            sink.export(snap)
        return len(self._sinks)


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (injectable alternative: pass a
    ``MetricsRegistry`` to the instrumented component's constructor)."""
    return _default_registry
