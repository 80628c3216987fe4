"""Histogram snapshot coherence under concurrency (regression).

The old shape read count, sum and bucket counts under separate lock
acquisitions, so a snapshot taken during a concurrent ``observe`` could
report ``sum``/``count`` that disagreed with its buckets.  ``snapshot()``
now reads everything under one acquisition; these tests hammer it, and
``ModelStats.snapshot()``'s stages-versus-counters read the same way.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.serve import MetricsRegistry, ModelStats
from repro.serve.observability.metrics import Histogram


class TestSnapshotShape:
    def test_buckets_are_cumulative_and_close_at_count(self):
        histogram = Histogram("latency")
        for value in (0.003, 0.02, 0.2, 2.0, 20.0, 2000.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        counts = list(snapshot["buckets"].values())
        assert counts == sorted(counts)  # cumulative, monotone
        assert counts == [1, 2, 3, 4, 5, 6, 6]  # one occupied edge per value
        assert snapshot["buckets"]["+Inf"] == snapshot["count"] == 6
        assert snapshot["sum"] == pytest.approx(2022.223)

    def test_edges_are_sorted_log_bucket_upper_bounds(self):
        histogram = Histogram("latency")
        for value in (0.003, 0.02, 0.2, 2.0, 20.0, 2000.0):
            histogram.observe(value)
        edges = [float(edge) for edge in histogram.snapshot()["buckets"] if edge != "+Inf"]
        assert edges == sorted(edges)
        for value, edge in zip((0.003, 0.02, 0.2, 2.0, 20.0, 2000.0), edges):
            assert value <= edge < value * 2 ** (1 / 32)

    def test_boundary_value_counts_at_or_below_its_bound(self):
        histogram = Histogram("latency")
        for value in (0.25, 1.0, 2.0):  # exactly edges: le="<edge>" must include them
            histogram.observe(value)
        assert histogram.snapshot()["buckets"] == {
            repr(0.25): 1,
            repr(1.0): 2,
            repr(2.0): 3,
            "+Inf": 3,
        }
        for k in range(-64, 64):  # log2 rounds across some edges, e.g. k = -29
            edge = 2.0 ** (k / 32)
            histogram = Histogram("latency")
            histogram.observe(edge)
            assert histogram.snapshot()["buckets"] == {repr(edge): 1, "+Inf": 1}

    def test_non_positive_values_share_the_zero_bucket(self):
        histogram = Histogram("latency")
        for value in (0.0, -1.0, 5.0):
            histogram.observe(value)
        buckets = histogram.snapshot()["buckets"]
        assert buckets[repr(0.0)] == 2
        assert buckets["+Inf"] == 3

    def test_summary_shape_is_unchanged(self):
        histogram = Histogram("latency")
        assert set(histogram.summary()) == {"count", "mean", "p50", "p95"}


class TestCoherenceUnderConcurrency:
    def test_snapshot_never_disagrees_with_itself(self):
        """Threaded regression: every snapshot's +Inf bucket equals its count
        and its sum matches count × the constant sample value exactly."""
        histogram = MetricsRegistry().histogram("latency")
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                histogram.observe(3.0)

        def reader():
            while not stop.is_set():
                snapshot = histogram.snapshot()
                if snapshot["buckets"]["+Inf"] != snapshot["count"]:
                    errors.append(("inf-vs-count", snapshot))
                    return
                if snapshot["sum"] != pytest.approx(snapshot["count"] * 3.0):
                    errors.append(("sum-vs-count", snapshot))
                    return
                counts = list(snapshot["buckets"].values())
                if counts != sorted(counts):
                    errors.append(("non-monotone", snapshot))
                    return

        threads = [threading.Thread(target=writer) for _ in range(4)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(1.0, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join()
        stop_timer.cancel()
        assert not errors, errors[:1]

    def test_model_stats_snapshot_reads_stages_and_counters_together(self):
        """Each writer round adds one request to the counters and then one
        to ``stages``, so a coherent snapshot's ``request.total`` count trails
        ``requests`` by at most the writers in flight; reading ``stages`` and
        the counters under separate acquisitions lets the gap grow."""
        stats = ModelStats(max_batch_size=1)
        writers, rounds = 2, 4000
        done = threading.Event()
        gaps = []

        def writer():
            for _ in range(rounds):
                stats.record_batch(1, 1, [0.001])
                stats.record_request({"total": 0.001})

        def reader():
            while not done.is_set():
                snapshot = stats.snapshot()
                counted = snapshot["stages"].get("request.total", {}).get("count", 0)
                gaps.append(snapshot["requests"] - counted)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        threads = [threading.Thread(target=writer) for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave writers and readers finely
        try:
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert gaps
        assert all(0 <= gap <= writers for gap in gaps), max(gaps)
        final = stats.snapshot()
        assert final["requests"] == final["stages"]["request.total"]["count"] == writers * rounds
