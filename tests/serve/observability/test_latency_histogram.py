"""Property tests (hypothesis): the one mergeable latency histogram.

``LatencyHistogram`` keeps sparse log buckets whose edges sit
``2 ** (1 / 32)`` apart.  ``quantile(q)`` reads the bucket holding rank
``ceil(q * n)`` at its upper edge, clamped to ``[min, max]``, so it is never
below the exact inverted-CDF quantile and never more than one edge ratio
above it.  Merging adds counts, so every view built by merging — the
cross-replica ``ModelStats.merged`` and the windowed store — answers exactly
what one histogram fed the union would.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import LatencyHistogram, ModelStats, WindowedSeriesStore
from repro.serve.stats import LATENCY_WINDOW

RATIO = 2 ** (1 / 32)

values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
streams = st.lists(values, min_size=1, max_size=300)
quantiles = st.floats(min_value=0.0, max_value=1.0)
GRID = [step / 20 for step in range(21)]


def fed(stream) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in stream:
        histogram.record(value)
    return histogram


@given(stream=streams, q=quantiles)
@settings(max_examples=300, deadline=None)
def test_quantile_is_within_one_edge_ratio_of_the_exact_quantile(stream, q):
    answer = fed(stream).quantile(q)
    exact = float(np.quantile(np.asarray(stream), q, method="inverted_cdf"))
    assert exact <= answer <= exact * RATIO * (1 + 1e-12), (answer, exact)


@given(left=streams, right=streams)
@settings(max_examples=200, deadline=None)
def test_merge_equals_recording_the_union(left, right):
    merged = fed(left).merge(fed(right))
    union = fed(left + right)
    assert merged.counts == union.counts
    assert (merged.count, merged.min, merged.max) == (union.count, union.min, union.max)
    assert merged.sum == pytest.approx(union.sum)
    for q in GRID:
        assert merged.quantile(q) == union.quantile(q)


@given(stream=streams)
@settings(max_examples=200, deadline=None)
def test_quantiles_are_monotone_and_end_at_the_extremes(stream):
    histogram = fed(stream)
    answers = [histogram.quantile(q) for q in GRID]
    assert answers == sorted(answers)
    assert histogram.quantile(0.0) == min(stream)
    assert histogram.quantile(1.0) == max(stream)
    assert histogram.count == len(stream)


@given(stream=streams, threshold=values)
@settings(max_examples=200, deadline=None)
def test_fraction_above_is_exact_outside_the_thresholds_bucket(stream, threshold):
    """Only values sharing the threshold's bucket may be misclassified."""
    fraction = fed(stream).fraction_above(threshold)
    exact_above = sum(1 for value in stream if value > threshold)
    ambiguous = sum(1 for value in stream if threshold < value <= threshold * RATIO)
    assert (exact_above - ambiguous) / len(stream) <= fraction + 1e-12
    assert fraction <= exact_above / len(stream) + 1e-12


def test_empty_histogram_reads_zero():
    histogram = LatencyHistogram()
    assert histogram.count == 0
    assert histogram.quantile(0.95) == 0.0
    assert histogram.fraction_above(1.0) == 0.0


seconds = st.floats(min_value=1e-5, max_value=2.0, allow_nan=False, allow_infinity=False)


@given(parts=st.lists(st.lists(seconds, min_size=1, max_size=60), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_merged_model_stats_equal_one_stats_fed_the_union(parts):
    replicas = []
    for batch in parts:
        stats = ModelStats(max_batch_size=8)
        stats.record_batch(len(batch), len(batch), batch)
        replicas.append(stats)
    union = ModelStats(max_batch_size=8)
    union.record_batch(sum(map(len, parts)), sum(map(len, parts)), [v for b in parts for v in b])
    merged = ModelStats.merged(replicas).snapshot()
    single = union.snapshot()
    assert merged["p50_latency_ms"] == single["p50_latency_ms"]
    assert merged["p95_latency_ms"] == single["p95_latency_ms"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@given(
    warmup=st.integers(min_value=0, max_value=500),
    burst=st.integers(min_value=1, max_value=500),
    age=st.floats(min_value=0.0, max_value=LATENCY_WINDOW - 1.0),
)
@settings(max_examples=50, deadline=None)
def test_a_slow_burst_ages_out_after_the_window(warmup, burst, age):
    clock = FakeClock()
    stats = ModelStats(max_batch_size=8, clock=clock)
    stats.record_batch(warmup, warmup, [0.001] * warmup)
    clock.now += age
    stats.record_batch(burst, burst, [1.0] * burst)
    clock.now += LATENCY_WINDOW
    assert stats.snapshot()["p95_latency_ms"] == 0.0  # the window emptied
    stats.record_batch(1, 1, [0.001])
    assert stats.snapshot()["p95_latency_ms"] == 1.0


def test_merged_keeps_each_parts_whole_window():
    clock = FakeClock()
    early, late, union = (ModelStats(max_batch_size=8, clock=clock) for _ in range(3))
    for second in range(LATENCY_WINDOW):
        samples = [0.001 * (1 + (second * 7 + index) % 97) for index in range(20)]
        part = early if second < LATENCY_WINDOW // 2 else late
        part.record_batch(len(samples), len(samples), samples)
        union.record_batch(len(samples), len(samples), samples)
        clock.now += 1.0
    clock.now -= 1.0  # the last second's bucket is still current
    merged = ModelStats.merged([early, late]).snapshot()
    single = union.snapshot()
    assert merged["p50_latency_ms"] == single["p50_latency_ms"] > 0
    assert merged["p95_latency_ms"] == single["p95_latency_ms"]
    alone = ModelStats.merged([early]).snapshot()
    assert alone["p95_latency_ms"] == early.snapshot()["p95_latency_ms"]


def test_a_recent_slow_burst_moves_p95():
    clock = FakeClock()
    stats = ModelStats(max_batch_size=8, clock=clock)
    stats.record_batch(4096, 4096, [0.001] * 4096)
    clock.now += LATENCY_WINDOW - 1.0
    stats.record_batch(1000, 1000, [1.0] * 1000)
    assert stats.snapshot()["p95_latency_ms"] == 1000.0


@given(
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), values), min_size=1, max_size=200
    ),
    threshold=values,
)
@settings(max_examples=150, deadline=None)
def test_windowed_store_reads_equal_one_histogram_fed_the_same_observations(steps, threshold):
    clock = FakeClock()
    # Retention covers every bucket the walk can reach, so nothing ages out.
    store = WindowedSeriesStore(interval=1.0, buckets=2 * len(steps) + 2, clock=clock)
    for advance, value in steps:
        clock.now += advance
        store.record_observation("latency", value)
    reference = fed([value for _, value in steps])
    for q in GRID:
        assert store.quantile("latency", q) == reference.quantile(q)
    assert store.fraction_above("latency", threshold) == reference.fraction_above(threshold)
    assert store.observation_count("latency") == reference.count
