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
    def test_increase_is_the_windowed_delta_of_a_cumulative_value(
        self, store: WindowedSeriesStore, clock: FakeClock
    ):
        store.record_counter("requests", 10)
        clock.advance(1.0)
        store.record_counter("requests", 25)
        clock.advance(1.0)
        store.record_counter("requests", 30)
        assert store.increase("requests") == pytest.approx(30.0)
        assert store.increase("requests", window=2.0) == pytest.approx(20.0)

    def test_rate_divides_by_the_window_span(self, store, clock):
        store.record_counter("requests", 0)
        for _ in range(4):
            clock.advance(1.0)
            store.record_counter("requests", store.increase("requests") + 5)
        assert store.rate("requests", window=4.0) == pytest.approx(5.0)

    def test_counter_reset_is_not_a_negative_increase(self, store, clock):
        store.record_counter("requests", 100)
        clock.advance(1.0)
        store.record_counter("requests", 3)  # process restarted
        # The post-reset cumulative value is the new delta, never negative.
        assert store.increase("requests", window=1.0) == pytest.approx(3.0)

    def test_old_buckets_age_out_of_the_window(self, store, clock):
        store.record_counter("requests", 50)
        clock.advance(20.0)  # past the 10-bucket retention
        store.record_counter("requests", 51)
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

    def test_quantile_source_closure_feeds_autoscaling(self, store):
        source = store.quantile_source("latency", 0.95, window=5.0)
        assert source() is None
        for value in range(100):
            store.record_observation("latency", float(value))
        assert source() == pytest.approx(95.0, abs=4.0)

    def test_kind_collisions_are_counted_not_corrupting(self, store):
        store.record_counter("metric", 5)
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
        # Cumulative deltas may interleave, but the windowed total converges
        # to the true count (no delta is lost or double-counted).
        assert store.increase("hits") == pytest.approx(4000.0)


class TestSnapshotShape:
    def test_snapshot_is_json_shaped_history(self, store, clock):
        store.record_counter("c", 5)
        store.record_gauge("g", 1.5)
        store.record_observation("o", 3.0)
        clock.advance(1.0)
        store.record_counter("c", 9)
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
