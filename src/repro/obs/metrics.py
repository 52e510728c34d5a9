"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` absorbs every number the pipeline produces —
service request counters, per-stage latency distributions, cache
hit/miss/eviction telemetry — behind one thread-safe interface, and
renders them as a single structured snapshot (see
:mod:`repro.obs.export` for the file/Prometheus front ends).

Histograms use fixed buckets (Prometheus-style upper bounds) so that
recording a sample is O(log buckets) and memory is constant regardless
of traffic; p50/p95/p99 are estimated by linear interpolation within the
bucket containing the target rank, clamped to the observed min/max.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Sequence

#: Default latency buckets (seconds): ~1 µs to 60 s, quasi-logarithmic.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The percentiles every histogram summary reports.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    Bucket ``i`` counts samples in ``(bounds[i-1], bounds[i]]`` (the
    first bucket is ``(-inf, bounds[0]]``); one overflow bucket catches
    samples above the last bound.  Percentiles interpolate linearly
    within the owning bucket, which keeps the estimate within one bucket
    width of the true value — plenty for latency telemetry.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum",
                 "_exemplars", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._exemplars: dict[int, tuple[float, str]] | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one sample; ``exemplar`` is an opaque id (e.g. a flight
        query id) retained per bucket for the max-value sample, so a slow
        percentile bucket resolves back to a replayable record."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            if exemplar is not None:
                if self._exemplars is None:
                    self._exemplars = {}
                held = self._exemplars.get(index)
                if held is None or value >= held[0]:
                    self._exemplars[index] = (value, exemplar)

    def exemplars(self) -> dict[str, dict]:
        """Per-bucket max-latency exemplars, keyed by upper bound.

        Keys are the bucket's upper bound rendered as a string (``+Inf``
        for the overflow bucket); each value carries the retained sample
        and the id attached when it was observed.
        """
        with self._lock:
            held = dict(self._exemplars) if self._exemplars else {}
        result: dict[str, dict] = {}
        for index, (value, exemplar) in sorted(held.items()):
            bound = (
                repr(self.bounds[index])
                if index < len(self.bounds) else "+Inf"
            )
            result[bound] = {"value": value, "exemplar": exemplar}
        return result

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """The estimated ``p``-th percentile (``0 <= p <= 100``)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            return self._percentile_locked(p)

    def _percentile_locked(self, p: float) -> float:
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.minimum
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds) else self.maximum
                )
                lower = max(lower, self.minimum)
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.maximum  # pragma: no cover - unreachable

    def summary(self) -> dict:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "total": 0.0, "mean": 0.0,
                        "min": 0.0, "max": 0.0,
                        **{f"p{int(p)}": 0.0 for p in SUMMARY_PERCENTILES}}
            base = {
                "count": self.count,
                "total": self.total,
                "mean": self.total / self.count,
                "min": self.minimum,
                "max": self.maximum,
            }
            for p in SUMMARY_PERCENTILES:
                base[f"p{int(p)}"] = self._percentile_locked(p)
            return base


class MetricsRegistry:
    """Named counters, gauges, histograms and attached caches.

    All mutation is lock-protected and cheap (a dict update); histogram
    observation additionally pays one binary search.  Caches register by
    reference (see :meth:`register_cache`) and are snapshotted live, so
    the registry never holds stale hit rates.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self._lock = threading.Lock()
        self._buckets = tuple(buckets)
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._caches: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, exemplar: str | None = None
    ) -> None:
        """Record one histogram sample under ``name``."""
        self.histogram(name).observe(value, exemplar=exemplar)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = Histogram(self._buckets)
                self._histograms[name] = found
            return found

    def find_histogram(self, name: str) -> Histogram | None:
        """The histogram named ``name`` if any samples were ever routed
        to it — unlike :meth:`histogram` this never creates one."""
        with self._lock:
            return self._histograms.get(name)

    def register_cache(self, name: str, cache: Any) -> None:
        """Attach a cache exposing ``snapshot()`` (e.g.
        :class:`~repro.core.cache.LRUCache`); its live statistics join
        every registry snapshot under ``caches.<name>``."""
        with self._lock:
            self._caches[name] = cache

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict:
        """The full structured view: counters, gauges, histogram
        summaries (with p50/p95/p99) and live cache statistics."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            caches = dict(self._caches)
        summaries = {}
        for name, histogram in sorted(histograms.items()):
            summary = histogram.summary()
            exemplars = histogram.exemplars()
            if exemplars:
                summary["exemplars"] = exemplars
            summaries[name] = summary
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": summaries,
            "caches": {
                name: cache.snapshot() for name, cache in sorted(caches.items())
            },
        }


#: The process-default registry ambient instrumentation falls back to.
#: Counters recorded here are cheap and inspectable but are never
#: exported unless a caller asks (see ``repro.obs.observed``).
DEFAULT_REGISTRY = MetricsRegistry()
