"""Windowed time-series aggregation over the metrics plane.

:class:`~repro.serve.observability.metrics.MetricsRegistry` answers "what is
the value *now*"; this module answers "what has it been doing *lately*" —
the question SLO burn rates, windowed autoscaling signals and dashboards all
ask.  One :class:`WindowedSeriesStore` keeps, per metric, a fixed-interval
ring of buckets (constant memory, oldest evicted), with three aggregation
kinds matching the three instrument shapes:

* **counter** — per-bucket *increase*, the sum of the increments that
  landed in it, so :meth:`WindowedSeriesStore.rate` is a true
  events-per-second over any window;
* **gauge** — last value per bucket (:meth:`WindowedSeriesStore.last`);
* **observation** (histogram samples) — one
  :class:`~repro.serve.observability.metrics.LatencyHistogram` per bucket;
  a windowed :meth:`WindowedSeriesStore.quantile` (p50/p95/p99) or
  :meth:`WindowedSeriesStore.fraction_above` (the SLO "how many were slower
  than the target" question) merges the window's histograms exactly and
  reads the result, without retaining raw samples.

The store plugs into a registry as an *observer*
(:meth:`WindowedSeriesStore.attach` →
:meth:`~repro.serve.observability.metrics.MetricsRegistry.add_observer`):
every existing ``Counter.inc`` / ``Gauge.set`` / ``Histogram.observe``
forwards its update, so components instrumented against the registry get
history for free — no call sites change.  The clock is injectable, so tests
drive bucket rollover deterministically instead of sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional

from .metrics import LatencyHistogram

COUNTER = "counter"
GAUGE = "gauge"
OBSERVATION = "observation"


class _Bucket:
    """One fixed-interval aggregation bucket of a single series."""

    __slots__ = ("increase", "value", "histogram")

    def __init__(self) -> None:
        self.increase = 0.0  # counter: cumulative delta landed in this bucket
        self.value: Optional[float] = None  # gauge: last value seen
        self.histogram: Optional[LatencyHistogram] = None  # set by the first observation


class _Series:
    """The per-metric bucket ring."""

    __slots__ = ("name", "kind", "buckets")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.buckets: Dict[int, _Bucket] = {}


class WindowedSeriesStore:
    """Fixed-interval windowed history for every metric that reports to it.

    ``interval`` seconds per bucket, ``buckets`` of retention (constant
    memory per series).  Thread-safe; the clock is injectable so tests roll
    buckets without sleeping.  Attach to a registry with :meth:`attach`, or
    feed it directly via :meth:`record_counter_delta` / :meth:`record_gauge` /
    :meth:`record_observation`.
    """

    def __init__(
        self,
        interval: float = 1.0,
        buckets: int = 120,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0 seconds")
        if buckets < 2:
            raise ValueError("buckets must be >= 2")
        self.interval = float(interval)
        self.capacity = int(buckets)
        self._clock = clock
        self._series: Dict[str, _Series] = {}
        self._lock = threading.Lock()
        self._dropped_updates = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _bucket(self, series: _Series) -> _Bucket:
        index = int(self._clock() // self.interval)
        bucket = series.buckets.get(index)
        if bucket is None:
            bucket = series.buckets[index] = _Bucket()
            floor = index - self.capacity + 1
            if len(series.buckets) > self.capacity:
                for stale in [i for i in series.buckets if i < floor]:
                    del series.buckets[stale]
        return bucket

    def _get(self, name: str, kind: str) -> _Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(name, kind)
        elif series.kind != kind:
            # A name reused across kinds keeps its first kind; the stray
            # update is counted rather than corrupting the series.
            self._dropped_updates += 1
            raise KeyError(name)
        return series

    def record_counter_delta(self, name: str, amount: float) -> None:
        """Record one counter *increment* (the registry observer feed).

        Increments are commutative, so notifications arriving out of order
        — they run outside instrument locks — still sum correctly.
        """
        with self._lock:
            try:
                series = self._get(name, COUNTER)
            except KeyError:
                return
            self._bucket(series).increase += max(float(amount), 0.0)

    def record_gauge(self, name: str, value: float) -> None:
        with self._lock:
            try:
                series = self._get(name, GAUGE)
            except KeyError:
                return
            self._bucket(series).value = float(value)

    def record_observation(self, name: str, value: float) -> None:
        with self._lock:
            try:
                series = self._get(name, OBSERVATION)
            except KeyError:
                return
            bucket = self._bucket(series)
            if bucket.histogram is None:
                bucket.histogram = LatencyHistogram()
            bucket.histogram.record(value)

    # ------------------------------------------------------------------
    # MetricsRegistry observer protocol (see MetricsRegistry.add_observer)
    # ------------------------------------------------------------------
    on_counter = record_counter_delta
    on_gauge = record_gauge
    on_observation = record_observation

    def attach(self, registry) -> "WindowedSeriesStore":
        """Subscribe to every instrument update the registry sees."""
        registry.add_observer(self)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _window_buckets(self, series: _Series, window: Optional[float]) -> List[_Bucket]:
        span = self.capacity if window is None else max(int(math.ceil(window / self.interval)), 1)
        span = min(span, self.capacity)
        now_index = int(self._clock() // self.interval)
        floor = now_index - span + 1
        return [bucket for index, bucket in series.buckets.items() if floor <= index <= now_index]

    def _span_seconds(self, window: Optional[float]) -> float:
        span = self.capacity * self.interval if window is None else float(window)
        return min(max(span, self.interval), self.capacity * self.interval)

    def increase(self, name: str, window: Optional[float] = None) -> float:
        """Total counter increase inside the window (0.0 for unknown series)."""
        with self._lock:
            series = self._series.get(name)
            if series is None or series.kind != COUNTER:
                return 0.0
            return float(sum(bucket.increase for bucket in self._window_buckets(series, window)))

    def rate(self, name: str, window: Optional[float] = None) -> float:
        """Counter events per second over the window."""
        span = self._span_seconds(window)
        return self.increase(name, window) / span

    def last(self, name: str) -> Optional[float]:
        """The gauge's most recent retained value (None when never set)."""
        with self._lock:
            series = self._series.get(name)
            if series is None or series.kind != GAUGE or not series.buckets:
                return None
            newest = series.buckets[max(series.buckets)]
            return newest.value

    def histogram(self, name: str, window: Optional[float] = None) -> LatencyHistogram:
        """The window's observations merged into one (new) histogram; empty
        for an unknown series or an empty window."""
        merged = LatencyHistogram()
        with self._lock:
            series = self._series.get(name)
            if series is not None and series.kind == OBSERVATION:
                for bucket in self._window_buckets(series, window):
                    merged.merge(bucket.histogram)
        return merged

    def observation_count(self, name: str, window: Optional[float] = None) -> int:
        return self.histogram(name, window).count

    def quantile(self, name: str, q: float, window: Optional[float] = None) -> Optional[float]:
        """Windowed quantile, exact to bucket resolution; None when the
        window holds no samples."""
        histogram = self.histogram(name, window)
        return histogram.quantile(q) if histogram.count else None

    def fraction_above(
        self, name: str, threshold: float, window: Optional[float] = None
    ) -> Optional[float]:
        """Fraction of windowed observations above ``threshold`` (the SLO
        "bad event" ratio for latency objectives); None without samples."""
        histogram = self.histogram(name, window)
        return histogram.fraction_above(threshold) if histogram.count else None

    def merge(self, other: "WindowedSeriesStore") -> "WindowedSeriesStore":
        """Add ``other``'s retained observations into this store bucket by
        bucket (returns self), so windowed reads answer for the union of both
        windows.  Both stores share one ``interval``; merge into a store no
        other thread merges from, as
        :meth:`~repro.serve.stats.ModelStats.merged` does."""
        with other._lock, self._lock:
            for name, theirs in other._series.items():
                if theirs.kind != OBSERVATION:
                    continue
                try:
                    series = self._get(name, OBSERVATION)
                except KeyError:
                    continue
                for index, bucket in theirs.buckets.items():
                    mine = series.buckets.setdefault(index, _Bucket())
                    mine.histogram = (mine.histogram or LatencyHistogram()).merge(bucket.histogram)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def series_names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def snapshot(self) -> Dict[str, object]:
        """The full retained history, JSON-shaped (what OBSERVE could ship)."""
        with self._lock:
            series_sections: Dict[str, object] = {}
            for name, series in sorted(self._series.items()):
                points = []
                for index in sorted(series.buckets):
                    bucket = series.buckets[index]
                    point: Dict[str, object] = {"start": round(index * self.interval, 6)}
                    if series.kind == COUNTER:
                        point["increase"] = round(bucket.increase, 6)
                    elif series.kind == GAUGE:
                        point["value"] = bucket.value
                    else:
                        point["count"] = bucket.histogram.count
                        point["sum"] = round(bucket.histogram.sum, 6)
                    points.append(point)
                series_sections[name] = {"kind": series.kind, "points": points}
            return {
                "interval": self.interval,
                "retention_seconds": round(self.capacity * self.interval, 6),
                "dropped_updates": self._dropped_updates,
                "series": series_sections,
            }

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "interval": self.interval,
                "buckets": self.capacity,
                "series": len(self._series),
                "dropped_updates": self._dropped_updates,
            }


__all__ = ["COUNTER", "GAUGE", "OBSERVATION", "WindowedSeriesStore"]
