"""MetricsRegistry: instruments, providers, collect-as-view, snapshots."""

from __future__ import annotations

import pytest

from repro.serve import (
    Batcher,
    MetricsRegistry,
    MiddlewareChain,
    ModelStats,
    RateLimiter,
    ResponseCache,
)


class TestInstruments:
    def test_counters_are_created_once_and_shared(self):
        metrics = MetricsRegistry()
        metrics.counter("gateway.requests").inc()
        metrics.counter("gateway.requests").inc(2)
        assert metrics.counter("gateway.requests").value == 3

    def test_gauge_holds_the_last_value(self):
        metrics = MetricsRegistry()
        metrics.gauge("router.replicas").set(3)
        metrics.gauge("router.replicas").set(2)
        assert metrics.gauge("router.replicas").value == 2.0

    def test_histogram_summarises_every_observation(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("latency")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        # Rank ceil(q * n) read at its bucket's upper edge; 2.0 and 4.0
        # are edges, so these are exact.
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0

    def test_histogram_summary_is_cumulative(self):
        histogram = MetricsRegistry().histogram("latency")
        for _ in range(1000):
            histogram.observe(100.0)
        for _ in range(3000):
            histogram.observe(1.0)
        # No sample window: the early slow quarter still owns the tail.
        assert histogram.summary()["p95"] == 100.0
        assert histogram.summary()["mean"] == pytest.approx(25.75)

    def test_empty_histogram_summary_is_zeroed(self):
        assert MetricsRegistry().histogram("x").summary() == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
        }

    def test_instruments_section_is_sorted_and_complete(self):
        metrics = MetricsRegistry()
        metrics.counter("b.count").inc()
        metrics.counter("a.count").inc()
        metrics.gauge("depth").set(7)
        section = metrics.instruments()
        assert list(section["counters"]) == ["a.count", "b.count"]
        assert section["gauges"] == {"depth": 7.0}


class TestProviders:
    def test_collect_returns_exactly_the_named_sections(self):
        metrics = MetricsRegistry()
        metrics.register_provider("a", lambda: {"x": 1})
        metrics.register_provider("b", lambda: {"y": 2})
        assert metrics.collect(["b", "a"]) == {"b": {"y": 2}, "a": {"x": 1}}
        with pytest.raises(KeyError):
            metrics.collect(["a", "ghost"])

    def test_duplicate_provider_needs_replace(self):
        metrics = MetricsRegistry()
        metrics.register_provider("a", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            metrics.register_provider("a", lambda: {})
        metrics.register_provider("a", lambda: {"v": 2}, replace=True)
        assert metrics.collect(["a"]) == {"a": {"v": 2}}

    def test_bind_accepts_stats_and_snapshot_surfaces(self):
        metrics = MetricsRegistry()
        metrics.bind("batcher", Batcher(max_batch_size=4))  # stats()
        metrics.bind("model", ModelStats(max_batch_size=4))  # snapshot()
        sections = metrics.collect(["batcher", "model"])
        assert sections["batcher"]["max_batch_size"] == 4
        assert sections["model"]["requests"] == 0

    def test_bind_rejects_sourceless_objects(self):
        with pytest.raises(TypeError, match="stats\\(\\)/snapshot\\(\\)"):
            MetricsRegistry().bind("x", object())

    def test_bind_chain_surfaces_every_middleware_with_stats(self):
        metrics = MetricsRegistry()
        chain = MiddlewareChain(
            [RateLimiter(rate=100, capacity=100), ResponseCache(capacity=4)]
        )
        bound = metrics.bind_chain(chain)
        assert bound == ["middleware.RateLimiter", "middleware.ResponseCache"]
        snapshot = metrics.snapshot()
        assert "hits" in snapshot["middleware.ResponseCache"]

    def test_snapshot_survives_a_raising_provider(self):
        metrics = MetricsRegistry()
        metrics.register_provider("good", lambda: {"ok": True})

        def bad():
            raise RuntimeError("component mid-teardown")

        metrics.register_provider("bad", bad)
        snapshot = metrics.snapshot()
        assert snapshot["good"] == {"ok": True}
        assert snapshot["bad"] == {"error": "RuntimeError: component mid-teardown"}
        assert "instruments" in snapshot
