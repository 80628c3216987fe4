"""The chain's stage breakdown and the ModelStats stage cap.

``MiddlewareChain.exit`` records each request's stage timings into the
``ModelStats`` its host attached, through one ``record_request`` call; the
stage-key LRU cap bounds the memory a hostile/buggy caller can consume via
unbounded stage names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import MiddlewareChain, ModelStats, ResponseCache, ServeMiddleware
from repro.serve.middleware.base import RequestContext
from repro.serve.stats import MAX_STAGES


class Reject(ServeMiddleware):
    def on_request(self, context):
        raise RuntimeError("boom")


def run(chain, stats):
    context = RequestContext(
        model_id="lenet", sample=np.ones(2, dtype=np.float32), stats=stats
    )

    def run_model(pending):
        for pending_context in pending:
            pending_context.response = np.zeros(1, dtype=np.float32)

    return chain.execute(context, run_model)


class TestChainRecordsStages:
    def test_error_and_cache_hit_outcomes_counted(self):
        stats = ModelStats(max_batch_size=4)
        cache = ResponseCache(capacity=4)
        contexts = [
            run(MiddlewareChain([cache, Reject()]), stats),
            run(MiddlewareChain([cache]), stats),  # miss: fills the cache
            run(MiddlewareChain([cache]), stats),  # hit
        ]
        assert isinstance(contexts[0].error, RuntimeError)
        assert contexts[2].metadata["cache"] == "hit"

        stages = stats.stages()
        assert stages["request.total"]["count"] == 3
        assert stages["request.error"]["count"] == 1
        assert stages["request.cache_hit"]["count"] == 1
        assert stages["model"]["count"] == 1
        assert stages["ResponseCache.on_request"]["count"] == 3
        assert "total" not in stages
        # request.total is the chain's own clock read, not a second one
        assert stages["request.total"]["total_ms"] == pytest.approx(
            sum(context.timings["total"] for context in contexts) * 1e3, abs=1e-3
        )


class TestClusterView:
    """A request through a cluster is counted once: outcomes from the
    router's record, execution facts from the replicas."""

    def test_outcomes_come_from_the_record_and_execution_from_replicas(self):
        record = ModelStats(max_batch_size=4)
        record.record_request({"total": 0.010, "Telemetry.on_request": 0.001})
        record.record_request({"total": 0.020}, "error")
        record.record_error()
        replicas = [ModelStats(max_batch_size=4) for _ in range(2)]
        replicas[0].record_batch(1, 2, [0.005])
        replicas[0].record_request({"total": 0.006, "model": 0.005})
        replicas[1].record_request({"total": 0.001}, "error")  # a replica-side rejection
        replicas[1].record_error()

        view = ModelStats.cluster_view(record, replicas).snapshot()
        assert view["requests"] == 1
        assert view["batches"] == 1
        assert view["padding_overhead_x"] == 2.0
        assert view["p50_latency_ms"] > 0
        assert view["errors"] == 1  # the router's count, not 1 + 1
        stages = view["stages"]
        assert stages["request.total"]["count"] == 2
        assert stages["request.total"]["total_ms"] == pytest.approx(30.0)
        assert stages["request.error"]["count"] == 1
        assert stages["model"]["count"] == 1
        assert stages["Telemetry.on_request"]["count"] == 1
        # the replicas keep their own counts
        assert replicas[1].snapshot()["errors"] == 1
        assert replicas[0].stages()["request.total"]["count"] == 1

    def test_without_a_record_only_execution_facts_remain(self):
        replica = ModelStats(max_batch_size=4)
        replica.record_batch(2, 2, [0.004, 0.004])
        replica.record_request({"total": 0.005, "model": 0.004}, "error")
        replica.record_error()
        view = ModelStats.cluster_view(None, [replica]).snapshot()
        assert view["requests"] == 2
        assert view["errors"] == 0
        assert set(view["stages"]) == {"model"}


class TestStageKeyCap:
    def test_eviction_is_lru_and_counted(self):
        stats = ModelStats(max_batch_size=1)
        for index in range(MAX_STAGES):
            stats.record_request({f"s{index}": 0.1})
        stats.record_request({"s0": 0.1})  # touch "s0": "s1" becomes the coldest
        stats.record_request({"new": 0.1})  # evicts "s1"
        stages = stats.stages()
        assert len(stages) == MAX_STAGES
        assert {"s0", "new"} <= set(stages)
        assert "s1" not in stages
        assert stats.evicted_stages == 1
        assert stats.snapshot()["evicted_stages"] == 1

    def test_cap_bounds_unbounded_stage_cardinality(self):
        stats = ModelStats(max_batch_size=1)
        for index in range(MAX_STAGES + 100):
            stats.record_request({"total": 0.001, f"request-{index}": 0.001})
        assert len(stats.stages()) == MAX_STAGES
        assert stats.evicted_stages == 101
        assert stats.stages()["request.total"]["count"] == MAX_STAGES + 100

    def test_default_cap_never_fires_for_real_stage_names(self):
        stats = ModelStats(max_batch_size=1)
        hooks = {f"Middleware{index}.on_request": 0.001 for index in range(200)}
        stats.record_request({"total": 0.2, **hooks}, "error")  # more than any chain
        assert stats.evicted_stages == 0

    def test_merged_sums_evictions(self):
        left = ModelStats(max_batch_size=2)
        right = ModelStats(max_batch_size=4)
        for index in range(MAX_STAGES + 1):  # one eviction: "s0"
            left.record_request({f"s{index}": 0.1})
        right.record_request({"s0": 0.2})
        merged = ModelStats.merged([left, right])
        assert merged.evicted_stages == 1
        assert merged.stages()["s0"]["count"] == 1  # left's "s0" was evicted
