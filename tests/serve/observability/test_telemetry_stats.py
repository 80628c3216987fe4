"""Telemetry's stage breakdown and the ModelStats stage cap.

Telemetry flushes each request's stage timings into ``ModelStats.stages()``;
the stage-key LRU cap bounds the memory a hostile/buggy caller can consume
via unbounded stage names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ModelStats, Telemetry
from repro.serve.middleware.base import RequestContext


class TestTelemetryStages:
    def test_error_and_cache_hit_outcomes_still_counted(self, monkeypatch):
        monkeypatch.setattr("repro.serve.middleware.telemetry.time.perf_counter", lambda: 1.0)
        telemetry = Telemetry()
        stats = ModelStats(max_batch_size=4)

        context = RequestContext(
            model_id="lenet",
            sample=np.zeros(1, dtype=np.float32),
            stats=stats,
            created_at=0.0,
        )
        context.error = RuntimeError("boom")
        telemetry.on_response(context)

        hit = RequestContext(
            model_id="lenet",
            sample=np.zeros(1, dtype=np.float32),
            stats=stats,
            created_at=0.0,
        )
        hit.metadata["cache"] = "hit"
        telemetry.on_response(hit)

        stages = stats.stages()
        assert stages["request.total"]["count"] == 2
        assert stages["request.error"]["count"] == 1
        assert stages["request.cache_hit"]["count"] == 1

    def test_local_fallback_stats_still_work(self):
        telemetry = Telemetry()
        context = RequestContext(model_id="m", sample=np.zeros(1, dtype=np.float32))
        telemetry.on_response(context)  # no server-attached stats
        assert telemetry.snapshot()["m"]["stages"]["request.total"]["count"] == 1


class TestStageKeyCap:
    def test_eviction_is_lru_and_counted(self):
        stats = ModelStats(max_batch_size=1, max_stages=3)
        for name in ["a", "b", "c"]:
            stats.record_stage(name, 0.1)
        stats.record_stage("a", 0.1)  # touch "a": "b" becomes the coldest
        stats.record_stage("d", 0.1)  # evicts "b"
        assert set(stats.stages()) == {"a", "c", "d"}
        assert stats.evicted_stages == 1
        assert stats.snapshot()["evicted_stages"] == 1

    def test_cap_bounds_unbounded_stage_cardinality(self):
        stats = ModelStats(max_batch_size=1, max_stages=8)
        for index in range(1000):
            stats.record_stage(f"request-{index}", 0.001)
        assert len(stats.stages()) == 8
        assert stats.evicted_stages == 992

    def test_default_cap_never_fires_for_real_stage_names(self):
        stats = ModelStats(max_batch_size=1)
        for index in range(200):  # more hooks than any real chain has
            stats.record_stage(f"Middleware{index}.on_request", 0.001)
        assert stats.evicted_stages == 0

    def test_merged_sums_evictions_and_maxes_caps(self):
        left = ModelStats(max_batch_size=2, max_stages=2)
        right = ModelStats(max_batch_size=4, max_stages=16)
        for name in ["a", "b", "c"]:  # one eviction on the small cap
            left.record_stage(name, 0.1)
        right.record_stage("a", 0.2)
        merged = ModelStats.merged([left, right])
        assert merged.max_stages == 16
        assert merged.evicted_stages == 1
        assert merged.stages()["a"]["count"] == 1  # left's "a" was evicted

    def test_max_stages_is_validated(self):
        with pytest.raises(ValueError, match="max_stages"):
            ModelStats(max_batch_size=1, max_stages=0)
