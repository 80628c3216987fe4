"""WindowedSeriesStore: bucket rollover, counter rates, windowed quantiles."""

from __future__ import annotations

import threading

import pytest

from repro.serve import MetricsRegistry, WindowedSeriesStore


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock(start=1000.0)


@pytest.fixture
def store(clock: FakeClock) -> WindowedSeriesStore:
    return WindowedSeriesStore(interval=1.0, buckets=10, clock=clock)


class TestCounterSeries:
    def test_increase_sums_the_windowed_increments(
        self, store: WindowedSeriesStore, clock: FakeClock
    ):
        store.on_counter("requests", 10)
        clock.advance(1.0)
        store.on_counter("requests", 15)
        clock.advance(1.0)
        store.on_counter("requests", 5)
        assert store.increase("requests") == pytest.approx(30.0)
        assert store.increase("requests", window=2.0) == pytest.approx(20.0)

    def test_rate_divides_by_the_window_span(self, store, clock):
        for _ in range(4):
            clock.advance(1.0)
            store.on_counter("requests", 5)
        assert store.rate("requests", window=4.0) == pytest.approx(5.0)

    def test_old_buckets_age_out_of_the_window(self, store, clock):
        store.on_counter("requests", 50)
        clock.advance(20.0)  # past the 10-bucket retention
        store.on_counter("requests", 1)
        assert store.increase("requests") == pytest.approx(1.0)

    def test_unknown_series_is_zero(self, store):
        assert store.increase("nope") == 0.0
        assert store.rate("nope") == 0.0


class TestGaugeAndObservationSeries:
    def test_gauge_keeps_the_last_value(self, store, clock):
        assert store.last("depth") is None
        store.record_gauge("depth", 4.0)
        store.record_gauge("depth", 9.0)
        clock.advance(1.0)
        store.record_gauge("depth", 2.0)
        assert store.last("depth") == 2.0

    def test_windowed_quantile_over_one_bucket(self, store):
        for value in range(1, 101):
            store.record_observation("latency", float(value))
        p95 = store.quantile("latency", 0.95)
        assert p95 == pytest.approx(95.0, abs=3.0)

    def test_windowed_quantile_spans_buckets_by_count_weight(self, store, clock):
        for _ in range(90):
            store.record_observation("latency", 10.0)
        clock.advance(1.0)
        for _ in range(10):
            store.record_observation("latency", 1000.0)
        # 90% of the window's mass sits at 10ms: the median must be there,
        # and the tail must see the slow bucket.
        assert store.quantile("latency", 0.5) == pytest.approx(10.0, rel=0.1)
        assert store.quantile("latency", 0.99) == pytest.approx(1000.0, rel=0.1)

    def test_fraction_above_is_the_bad_event_ratio(self, store, clock):
        for _ in range(75):
            store.record_observation("latency", 10.0)
        clock.advance(1.0)
        for _ in range(25):
            store.record_observation("latency", 500.0)
        fraction = store.fraction_above("latency", 100.0)
        assert fraction == pytest.approx(0.25, abs=0.03)
        assert store.fraction_above("latency", 100.0, window=1.0) == pytest.approx(1.0)

    def test_quantile_without_samples_is_none(self, store, clock):
        assert store.quantile("latency", 0.95) is None
        store.record_observation("latency", 5.0)
        clock.advance(50.0)  # everything aged out
        assert store.quantile("latency", 0.95) is None
        assert store.fraction_above("latency", 1.0) is None

    def test_histogram_is_a_fresh_copy_of_the_window(self, store, clock):
        assert store.histogram("latency").count == 0  # unknown series
        store.on_counter("requests", 3)
        assert store.histogram("requests").count == 0  # not an observation series
        store.record_observation("latency", 5.0)
        clock.advance(1.0)
        store.record_observation("latency", 7.0)
        assert store.histogram("latency", window=1.0).count == 1
        copy = store.histogram("latency")
        assert copy.count == 2
        copy.record(9.0)  # the caller's histogram, not the store's bucket
        assert store.observation_count("latency") == 2

    def test_merge_unions_observation_windows_bucket_by_bucket(self, clock):
        left, right, union = (
            WindowedSeriesStore(interval=1.0, buckets=10, clock=clock) for _ in range(3)
        )
        for second, (mine, theirs) in enumerate([([1.0, 2.0], [50.0]), ([3.0], [80.0, 90.0])]):
            clock.advance(float(second))
            for value in mine:
                left.record_observation("latency", value)
            for value in theirs:
                right.record_observation("latency", value)
            for value in mine + theirs:
                union.record_observation("latency", value)
        right.on_counter("requests", 4)  # counters stay with their store
        assert left.merge(right) is left
        for window in (None, 1.0):
            for q in (0.5, 0.95):
                assert left.quantile("latency", q, window) == union.quantile("latency", q, window)
            assert left.observation_count("latency", window) == union.observation_count(
                "latency", window
            )
        assert left.increase("requests") == 0.0
        assert right.observation_count("latency") == 3  # the source is untouched

    def test_kind_collisions_are_counted_not_corrupting(self, store):
        store.on_counter("metric", 5)
        store.record_observation("metric", 1.0)  # wrong kind: dropped
        store.record_gauge("metric", 2.0)  # wrong kind: dropped
        assert store.increase("metric") == pytest.approx(5.0)
        assert store.stats()["dropped_updates"] == 2


class TestRegistryIntegration:
    def test_attach_gives_every_instrument_history_for_free(self, clock):
        registry = MetricsRegistry()
        store = WindowedSeriesStore(interval=1.0, buckets=16, clock=clock).attach(registry)
        counter = registry.counter("gateway.requests")
        histogram = registry.histogram("gateway.latency_ms")
        counter.inc()
        counter.inc(4)
        for value in (5.0, 7.0, 9.0):
            histogram.observe(value)
        registry.gauge("router.replicas").set(3)
        assert store.increase("gateway.requests") == pytest.approx(5.0)
        assert store.observation_count("gateway.latency_ms") == 3
        assert store.last("router.replicas") == 3.0

    def test_instruments_created_before_attach_are_wired_retroactively(self, clock):
        registry = MetricsRegistry()
        counter = registry.counter("pre.existing")
        store = WindowedSeriesStore(interval=1.0, buckets=16, clock=clock).attach(registry)
        counter.inc(7)
        assert store.increase("pre.existing") == pytest.approx(7.0)

    def test_detached_observer_stops_receiving(self, clock):
        registry = MetricsRegistry()
        store = WindowedSeriesStore(interval=1.0, buckets=16, clock=clock).attach(registry)
        registry.counter("c").inc()
        registry.remove_observer(store)
        registry.counter("c").inc(100)
        assert store.increase("c") == pytest.approx(1.0)

    def test_a_failing_observer_never_breaks_instruments(self):
        registry = MetricsRegistry()

        class Broken:
            def on_counter(self, name, value):
                raise RuntimeError("observer bug")

        registry.add_observer(Broken())
        registry.counter("c").inc()  # must not raise
        assert registry.counter("c").value == 1

    def test_concurrent_recording_is_consistent(self, clock):
        registry = MetricsRegistry()
        store = WindowedSeriesStore(interval=60.0, buckets=4, clock=clock).attach(registry)
        counter = registry.counter("hits")
        threads = [
            threading.Thread(target=lambda: [counter.inc() for _ in range(500)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000
        # Increments may arrive out of order, but the windowed total is the
        # true count (no increment is lost or double-counted).
        assert store.increase("hits") == pytest.approx(4000.0)


class TestSnapshotShape:
    def test_snapshot_is_json_shaped_history(self, store, clock):
        store.on_counter("c", 5)
        store.record_gauge("g", 1.5)
        store.record_observation("o", 3.0)
        clock.advance(1.0)
        store.on_counter("c", 4)
        snapshot = store.snapshot()
        assert set(snapshot["series"]) == {"c", "g", "o"}
        assert snapshot["series"]["c"]["kind"] == "counter"
        assert [point["increase"] for point in snapshot["series"]["c"]["points"]] == [5.0, 4.0]
        assert snapshot["series"]["o"]["points"][0]["count"] == 1

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            WindowedSeriesStore(interval=0.0, clock=clock)
        with pytest.raises(ValueError):
            WindowedSeriesStore(buckets=1, clock=clock)
