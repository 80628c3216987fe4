"""The unified metrics plane: typed instruments plus named snapshot providers.

Before this module, every component grew its own ad-hoc ``stats()`` dict and
callers stitched them together by hand.  :class:`MetricsRegistry` unifies the
two shapes that actually exist in the stack:

* **instruments** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  created on first use by name (``metrics.counter("gateway.requests")``),
  for new code that wants point instruments;
* **providers** — named zero-arg callables returning a dict, for the
  existing ``stats()``/``snapshot()`` surfaces (server, router, registry,
  batcher, admission, limiter, cache, privacy budget, breaker-via-health,
  autoscaler).  Registering a provider costs nothing until someone collects.

``collect(names)`` returns exactly the named providers' dicts — which is how
:meth:`ClusterRouter.stats` keeps its historical shape while genuinely being
a view over the registry — and :meth:`snapshot` returns everything: all
providers plus the instrument values, the payload the OBSERVE frame ships.

**Observers** (:meth:`MetricsRegistry.add_observer`) see every instrument
update as it happens — ``on_counter(name, increment)`` /
``on_gauge(name, value)`` / ``on_observation(name, value)`` — which is how
:class:`~repro.serve.observability.timeseries.WindowedSeriesStore` grows a
history for every existing instrument without any call site changing.
Observer callbacks run outside instrument locks and their exceptions are
swallowed: history must never stall or fail the serving path.

:class:`LatencyHistogram` is the stack's one latency distribution: the
registry :class:`Histogram`, ``ModelStats`` and the windowed store all hold
it, and every p50/p95 they report is read from it.

Metric naming scheme (``docs/observability.md``): provider names are the
component (``router``, ``admission``, ``gateway``, ``middleware.<Name>``);
instrument names are dotted ``component.measure`` strings.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

Provider = Callable[[], Dict[str, object]]

#: Log-bucket resolution: bucket edges sit ``2 ** (1 / SUB_BUCKETS)`` apart,
#: so a reported quantile is at most ~2.2% above the exact one.
SUB_BUCKETS = 32
_ZERO = -(1 << 31)  # the one bucket for values <= 0 (upper edge 0.0)


def _edge(index: int) -> float:
    """Upper edge of bucket ``index``: it holds ``(_edge(index - 1), _edge(index)]``."""
    return 0.0 if index == _ZERO else 2.0 ** (index / SUB_BUCKETS)


def _index(value: float) -> int:
    if value <= 0.0:
        return _ZERO
    index = math.ceil(math.log2(value) * SUB_BUCKETS)
    # log2 may round across an edge; settle on the bucket _edge() defines.
    if _edge(index - 1) >= value:
        return index - 1
    if _edge(index) < value:
        return index + 1
    return index


class LatencyHistogram:
    """The one latency distribution: sparse fixed log buckets, exactly mergeable.

    Every positive value lands in the bucket whose upper edge is the next
    power of ``2 ** (1 / SUB_BUCKETS)`` at or above it; values <= 0 share
    one zero bucket.  ``count``/``sum``/``min``/``max`` are exact,
    :meth:`record` is O(1), and :meth:`merge` adds counts, so a merged
    histogram answers exactly what one fed the union would.  Not
    thread-safe: owners hold their own lock.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        index = _index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Add ``other``'s observations into this histogram (returns self)."""
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding rank ``ceil(q * count)``, clamped
        to ``[min, max]``; 0.0 when empty."""
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min
        rank = math.ceil(q * self.count)
        for edge, running in self.cumulative():
            if running >= rank:
                break
        return min(max(edge, self.min), self.max)

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations above ``threshold``, to bucket resolution:
        values sharing ``threshold``'s bucket count as at or below it."""
        if not self.count or threshold >= self.max:
            return 0.0
        if threshold < self.min:
            return 1.0
        floor = _index(threshold)
        above = sum(count for index, count in self.counts.items() if index > floor)
        return above / self.count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_edge, count at or below it)`` for every occupied bucket."""
        running = 0
        pairs = []
        for index in sorted(self.counts):
            running += self.counts[index]
            pairs.append((_edge(index), running))
        return pairs


def _notify(watchers, method: str, name: str, value: float) -> None:
    """Fan one instrument update out to registry observers (never raises)."""
    for watcher in watchers:
        callback = getattr(watcher, method, None)
        if callback is None:
            continue
        try:
            callback(name, value)
        except Exception:  # noqa: BLE001 - history must not fail the hot path
            pass


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "_value", "_lock", "_watchers")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()
        self._watchers: Tuple[object, ...] = ()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount
        if self._watchers:
            # Observers get the *increment*, not the cumulative value:
            # increments are commutative, so notifications racing out of
            # order (they run outside the lock) still sum correctly, where
            # out-of-order cumulative values would fake a counter reset.
            _notify(self._watchers, "on_counter", self.name, amount)

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, replica count, sample rate)."""

    __slots__ = ("name", "_value", "_lock", "_watchers")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        self._watchers: Tuple[object, ...] = ()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
        if self._watchers:
            _notify(self._watchers, "on_gauge", self.name, value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A cumulative :class:`LatencyHistogram` with count/mean/percentile summaries.

    :meth:`snapshot` reads buckets, count and sum under **one** lock
    acquisition so a concurrent :meth:`observe` can never produce a snapshot
    whose sum/count disagree with its buckets.
    """

    __slots__ = ("name", "_histogram", "_lock", "_watchers")

    def __init__(self, name: str) -> None:
        self.name = name
        self._histogram = LatencyHistogram()
        self._lock = threading.Lock()
        self._watchers: Tuple[object, ...] = ()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._histogram.record(value)
        if self._watchers:
            _notify(self._watchers, "on_observation", self.name, value)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            histogram = self._histogram
            count = histogram.count
            if not count:
                return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0}
            return {
                "count": count,
                "mean": round(histogram.sum / count, 6),
                "p50": round(histogram.quantile(0.5), 6),
                "p95": round(histogram.quantile(0.95), 6),
            }

    def snapshot(self) -> Dict[str, object]:
        """Coherent count/sum/buckets read under a single lock acquisition.

        ``buckets`` maps each occupied bucket's upper edge (plus ``"+Inf"``)
        to the *cumulative* count at or below it — the Prometheus exposition
        shape — and the invariant ``buckets["+Inf"] == count`` holds for
        every snapshot regardless of concurrent observes.
        """
        with self._lock:
            count, total = self._histogram.count, self._histogram.sum
            cumulative = {repr(edge): running for edge, running in self._histogram.cumulative()}
        cumulative["+Inf"] = count
        return {"count": count, "sum": round(total, 6), "buckets": cumulative}


class MetricsRegistry:
    """One snapshot surface over every component's counters and stats dicts."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._providers: Dict[str, Provider] = {}
        self._observers: Tuple[object, ...] = ()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instruments (created on first use, shared thereafter)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
                instrument._watchers = self._observers
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
                instrument._watchers = self._observers
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
                instrument._watchers = self._observers
            return instrument

    # ------------------------------------------------------------------
    # Observers (live update fan-out: the time-series hook)
    # ------------------------------------------------------------------
    def add_observer(self, observer: object) -> object:
        """Subscribe to every instrument update, existing and future.

        ``observer`` implements any of ``on_counter(name, increment)``,
        ``on_gauge(name, value)``, ``on_observation(name, value)``; missing
        methods are skipped, raised exceptions swallowed.  Returns the
        observer (decorator-friendly).
        """
        with self._lock:
            self._observers = self._observers + (observer,)
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
            for instrument in instruments:
                instrument._watchers = self._observers
        return observer

    def remove_observer(self, observer: object) -> None:
        with self._lock:
            self._observers = tuple(o for o in self._observers if o is not observer)
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
            for instrument in instruments:
                instrument._watchers = self._observers

    # ------------------------------------------------------------------
    # Providers (the existing stats() surfaces, bound by name)
    # ------------------------------------------------------------------
    def register_provider(
        self, name: str, provider: Provider, replace: bool = False
    ) -> Provider:
        if not callable(provider):
            raise TypeError(f"provider '{name}' must be callable")
        with self._lock:
            if name in self._providers and not replace:
                raise ValueError(
                    f"metrics provider '{name}' is already registered (pass replace=True)"
                )
            self._providers[name] = provider
        return provider

    def unregister_provider(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def provider_names(self) -> List[str]:
        with self._lock:
            return sorted(self._providers)

    def bind(self, name: str, source: object, replace: bool = False) -> None:
        """Register ``source``'s stats surface under ``name``.

        Accepts a zero-arg callable, or any object exposing ``stats()`` or
        ``snapshot()`` — which covers every component in the serving stack.
        """
        if callable(source):
            self.register_provider(name, source, replace=replace)
            return
        for attr in ("stats", "snapshot"):
            method = getattr(source, attr, None)
            if callable(method):
                self.register_provider(name, method, replace=replace)
                return
        raise TypeError(
            f"cannot bind {type(source).__name__} as provider '{name}': "
            "expected a callable or an object with stats()/snapshot()"
        )

    def bind_chain(self, chain, prefix: str = "middleware.", replace: bool = False) -> List[str]:
        """Bind every middleware in ``chain`` that exposes a stats surface.

        Returns the provider names registered (``middleware.<ClassName>``),
        so the rate limiter's buckets, the cache's hit ratio and the privacy
        ledger all surface through one :meth:`snapshot` call.
        """
        bound: List[str] = []
        for middleware in chain:
            for attr in ("stats", "snapshot"):
                method = getattr(middleware, attr, None)
                if callable(method):
                    name = f"{prefix}{middleware.name}"
                    self.register_provider(name, method, replace=replace)
                    bound.append(name)
                    break
        return bound

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, names) -> Dict[str, object]:
        """Exactly the named providers' current dicts (KeyError on unknown).

        This is the "stats() as a view" primitive: a caller with a pinned
        output shape names its sections and gets precisely those, in order.
        """
        with self._lock:
            providers = {name: self._providers[name] for name in names}
        return {name: provider() for name, provider in providers.items()}

    def instruments(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: counter.value for name, counter in sorted(counters.items())},
            "gauges": {name: gauge.value for name, gauge in sorted(gauges.items())},
            "histograms": {
                name: histogram.summary() for name, histogram in sorted(histograms.items())
            },
        }

    def snapshot(self, names: Optional[List[str]] = None) -> Dict[str, object]:
        """Every provider (or just ``names``) plus the instrument values.

        A provider that raises contributes an ``{"error": ...}`` section
        instead of killing the whole snapshot — monitoring reads must survive
        a component mid-teardown.
        """
        with self._lock:
            providers = {
                name: provider
                for name, provider in sorted(self._providers.items())
                if names is None or name in names
            }
        sections: Dict[str, object] = {}
        for name, provider in providers.items():
            try:
                sections[name] = provider()
            except Exception as error:  # noqa: BLE001 - snapshot must not fail
                sections[name] = {"error": f"{type(error).__name__}: {error}"}
        sections["instruments"] = self.instruments()
        return sections


__all__ = ["Counter", "Gauge", "Histogram", "LatencyHistogram", "MetricsRegistry"]
