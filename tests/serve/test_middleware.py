"""MiddlewareChain semantics and the five built-in interceptors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.augmentation_plan import ImageAugmentationPlan, TextAugmentationPlan
from repro.serve import (
    Batcher,
    InferenceServer,
    MiddlewareChain,
    MiddlewareError,
    ModelStats,
    ObfuscationGuard,
    ObfuscationViolation,
    RateLimitExceeded,
    RateLimiter,
    RequestContext,
    ResponseCache,
    ServeMiddleware,
    Telemetry,
    ValidationError,
    Validator,
)


class Tracer(ServeMiddleware):
    """Appends hook invocations to ``metadata['trace']`` (and a shared log)."""

    def __init__(self, tag, fail_on=None, answer=None, recover=False):
        self.tag = tag
        self.fail_on = fail_on
        self.answer = answer
        self.recover = recover

    @property
    def name(self):
        return f"Tracer[{self.tag}]"

    def _mark(self, context, hook):
        context.metadata.setdefault("trace", []).append(f"{self.tag}.{hook}")
        if self.fail_on == hook:
            raise MiddlewareError(f"{self.tag} failed in {hook}")

    def on_request(self, context):
        self._mark(context, "request")
        if self.answer is not None:
            context.response = np.asarray(self.answer)

    def on_batch(self, batch):
        for context in batch.contexts:
            context.metadata.setdefault("trace", []).append(f"{self.tag}.batch")

    def on_response(self, context):
        self._mark(context, "response")

    def on_error(self, context):
        context.metadata.setdefault("trace", []).append(f"{self.tag}.error")
        if self.recover:
            context.error = None
            context.response = np.asarray(-1.0)


def run_one(chain, context, result=42.0):
    def run_model(pending):
        for ctx in pending:
            ctx.metadata.setdefault("trace", []).append("model")
            ctx.response = np.asarray(result)

    chain.execute(context, run_model)
    return context


def make_context(model_id="m", sample=None, **kwargs):
    sample = np.zeros(3, dtype=np.float32) if sample is None else sample
    return RequestContext(model_id=model_id, sample=sample, **kwargs)


class TestChainSemantics:
    def test_registration_order_is_descent_order_and_unwind_reverses(self):
        chain = MiddlewareChain([Tracer("a"), Tracer("b")])
        context = run_one(chain, make_context())
        assert context.metadata["trace"] == [
            "a.request",
            "b.request",
            "a.batch",
            "b.batch",
            "model",
            "b.response",
            "a.response",
        ]
        assert np.asarray(context.response) == 42.0

    def test_short_circuit_skips_inner_middlewares_and_model(self):
        chain = MiddlewareChain([Tracer("a"), Tracer("b", answer=7.0), Tracer("c")])
        context = run_one(chain, make_context())
        assert context.metadata["trace"] == [
            "a.request",
            "b.request",
            "b.response",
            "a.response",
        ]
        assert context.metadata["short_circuited_by"] == "Tracer[b]"
        assert np.asarray(context.response) == 7.0
        assert context.error is None

    def test_on_request_error_skips_model_but_unwinds_outer_middlewares(self):
        chain = MiddlewareChain([Tracer("a"), Tracer("b", fail_on="request"), Tracer("c")])
        context = run_one(chain, make_context())
        # b raised, so c and the model never ran; a (outer) still observed
        # the failure via on_error + on_response.
        assert context.metadata["trace"] == [
            "a.request",
            "b.request",
            "a.error",
            "a.response",
        ]
        assert isinstance(context.error, MiddlewareError)
        assert context.response is None

    def test_on_error_may_recover(self):
        chain = MiddlewareChain(
            [Tracer("a"), Tracer("b", recover=True), Tracer("c", fail_on="request")]
        )
        context = run_one(chain, make_context())
        assert context.error is None
        assert np.asarray(context.response) == -1.0
        # a sat outside the recovery, so it saw a success on the unwind.
        assert context.metadata["trace"][-2:] == ["b.response", "a.response"]

    def test_model_failure_reaches_every_entered_middleware(self):
        chain = MiddlewareChain([Tracer("a")])

        def run_model(pending):
            raise RuntimeError("kaboom")

        context = make_context()
        chain.execute(context, run_model)
        assert context.metadata["trace"] == ["a.request", "a.batch", "a.error", "a.response"]
        assert isinstance(context.error, RuntimeError)

    def test_on_batch_sees_only_pending_contexts(self):
        chain = MiddlewareChain([Tracer("cachey", answer=1.0), Tracer("inner")])
        answered = make_context()
        # ``cachey`` answers everything, so no context stays pending and no
        # batch/model stage runs at all.
        chain.execute_batch([answered], lambda pending: None)
        assert "cachey.batch" not in answered.metadata["trace"]
        assert "model" not in answered.metadata["trace"]

    def test_execute_batch_rejects_mixed_models(self):
        chain = MiddlewareChain()
        with pytest.raises(ValueError, match="same-model"):
            chain.execute_batch([make_context("m1"), make_context("m2")], lambda pending: None)

    def test_unanswered_pending_context_becomes_error(self):
        chain = MiddlewareChain()
        context = make_context()
        chain.execute(context, lambda pending: None)  # handler forgets to answer
        assert isinstance(context.error, MiddlewareError)

    def test_hooks_are_timed_into_context(self):
        chain = MiddlewareChain([Tracer("a")])
        context = run_one(chain, make_context())
        for key in ("Tracer[a].on_request", "Tracer[a].on_response", "model", "total"):
            assert context.timings[key] >= 0.0
        assert context.timings["total"] > 0.0

    def test_batch_stage_timings_are_per_request_shares(self):
        import time as time_module

        chain = MiddlewareChain([Tracer("a")])
        contexts = [make_context() for _ in range(4)]

        def slow_model(pending):
            time_module.sleep(0.04)
            for ctx in pending:
                ctx.response = np.asarray(1.0)

        chain.execute_batch(contexts, slow_model)
        # the 40ms batch is shared: summing the per-context "model" stage
        # must reproduce the batch elapsed, not 4x it
        total_model = sum(ctx.timings["model"] for ctx in contexts)
        assert 0.03 < total_model < 0.12

    def test_add_rejects_non_middleware(self):
        with pytest.raises(TypeError):
            MiddlewareChain().add(object())

    def test_chain_introspection(self):
        first, second = Tracer("a"), Tracer("b")
        chain = MiddlewareChain([first]).add(second)
        assert len(chain) == 2
        assert bool(chain)
        assert not MiddlewareChain()
        assert chain.middlewares == (first, second)
        assert list(chain) == [first, second]

    def test_empty_batch_is_a_no_op(self):
        assert MiddlewareChain([Tracer("a")]).execute_batch([], lambda pending: None) == []

    def test_on_batch_error_fails_the_whole_batch(self):
        class BatchBomb(ServeMiddleware):
            def on_batch(self, batch):
                raise MiddlewareError("batch rejected")

        chain = MiddlewareChain([Tracer("a"), BatchBomb()])
        contexts = [make_context(), make_context()]
        chain.execute_batch(contexts, lambda pending: None)
        for context in contexts:
            assert isinstance(context.error, MiddlewareError)
            assert "model" not in context.metadata["trace"]
            # the unwind still ran for every entered middleware
            assert context.metadata["trace"][-2:] == ["a.error", "a.response"]

    def test_on_error_raising_replaces_the_error(self):
        class BadHandler(ServeMiddleware):
            def on_error(self, context):
                raise KeyError("handler bug")

        chain = MiddlewareChain([BadHandler(), Tracer("boom", fail_on="request")])
        context = run_one(chain, make_context())
        assert isinstance(context.error, KeyError)

    def test_on_response_raising_sets_the_error(self):
        chain = MiddlewareChain([Tracer("a", fail_on="response")])
        context = run_one(chain, make_context())
        assert isinstance(context.error, MiddlewareError)
        assert "failed in response" in str(context.error)

    def test_empty_chain_runs_model_directly(self):
        context = run_one(MiddlewareChain(), make_context())
        assert np.asarray(context.response) == 42.0
        assert context.error is None


class TestResponseCache:
    def test_identical_samples_hit(self):
        cache = ResponseCache(capacity=8)
        sample = np.arange(4, dtype=np.float32)
        first = run_one(MiddlewareChain([cache]), make_context(sample=sample), result=1.5)
        assert first.metadata["cache"] == "miss"
        second = run_one(MiddlewareChain([cache]), make_context(sample=sample.copy()))
        assert second.metadata["cache"] == "hit"
        assert np.asarray(second.response) == 1.5
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_key_includes_model_dtype_and_shape(self):
        cache = ResponseCache(capacity=8)
        chain = MiddlewareChain([cache])
        base = np.zeros(4, dtype=np.float32)
        run_one(chain, make_context("m1", base))
        for context in (
            make_context("m2", base),  # other model
            make_context("m1", base.astype(np.float64)),  # other dtype
            make_context("m1", base.reshape(2, 2)),  # other shape
        ):
            run_one(chain, context)
            assert context.metadata["cache"] == "miss"

    def test_lru_eviction(self):
        cache = ResponseCache(capacity=2)
        chain = MiddlewareChain([cache])
        samples = [np.full(2, float(i), dtype=np.float32) for i in range(3)]
        for sample in samples:
            run_one(chain, make_context(sample=sample))
        assert cache.evictions == 1
        # sample 0 was evicted; 1 and 2 still hit.
        assert run_one(chain, make_context(sample=samples[0])).metadata["cache"] == "miss"
        assert run_one(chain, make_context(sample=samples[2])).metadata["cache"] == "hit"

    def test_errors_are_not_cached(self):
        cache = ResponseCache(capacity=8)
        chain = MiddlewareChain([cache])
        sample = np.ones(2, dtype=np.float32)

        def explode(pending):
            raise RuntimeError("no result")

        context = make_context(sample=sample)
        chain.execute(context, explode)
        assert isinstance(context.error, RuntimeError)
        assert len(cache) == 0
        assert run_one(chain, make_context(sample=sample)).metadata["cache"] == "miss"

    def test_clear(self):
        cache = ResponseCache(capacity=8)
        chain = MiddlewareChain([cache])
        run_one(chain, make_context())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(capacity=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRateLimiter:
    def test_bucket_drains_and_refills(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=2, clock=clock)
        chain = MiddlewareChain([limiter])
        run_one(chain, make_context())
        run_one(chain, make_context())
        rejected = run_one(chain, make_context())
        assert isinstance(rejected.error, RateLimitExceeded)
        assert rejected.error.retry_after == pytest.approx(1.0)
        assert rejected.metadata["rate_limited"] is True
        clock.now = 1.0  # one token refilled
        assert run_one(chain, make_context()).error is None
        assert limiter.stats() == {"admitted": 3, "rejected": 1, "buckets": 1, "pruned": 0}

    def test_buckets_are_per_tenant_and_model(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=1, clock=clock)
        chain = MiddlewareChain([limiter])
        assert run_one(chain, make_context("m", tenant="alice")).error is None
        assert isinstance(
            run_one(chain, make_context("m", tenant="alice")).error, RateLimitExceeded
        )
        # bob and another model each have their own bucket
        assert run_one(chain, make_context("m", tenant="bob")).error is None
        assert run_one(chain, make_context("m2", tenant="alice")).error is None

    def test_typed_error_carries_context(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, capacity=1, clock=clock)
        chain = MiddlewareChain([limiter])
        run_one(chain, make_context("lenet", tenant="t1"))
        rejected = run_one(chain, make_context("lenet", tenant="t1"))
        error = rejected.error
        assert isinstance(error, RateLimitExceeded)
        assert error.tenant == "t1" and error.model_id == "lenet"
        assert error.retry_after == pytest.approx(0.5)

    def test_tokens_probe(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=4, clock=clock)
        context = make_context()
        assert limiter.tokens(context) == 4.0
        limiter.on_request(context)
        assert limiter.tokens(context) == 3.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, capacity=0.5)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, prune_interval=0.0)

    def test_idle_buckets_are_pruned(self):
        # Without pruning, _buckets grows one entry per distinct key forever;
        # a bucket idle long enough to refill to capacity is identical to an
        # absent key and is dropped on the next sweep.
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=2, clock=clock)  # prune_interval = 2s
        chain = MiddlewareChain([limiter])
        for tenant in ("t0", "t1", "t2", "t3"):
            run_one(chain, make_context("m", tenant=tenant))
        assert limiter.stats()["buckets"] == 4
        clock.now = 10.0  # all four refilled to capacity long ago
        run_one(chain, make_context("m", tenant="fresh"))
        stats = limiter.stats()
        assert stats["pruned"] == 4
        assert stats["buckets"] == 1  # only the request that triggered the sweep

    def test_drained_buckets_survive_the_sweep(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=4, clock=clock)  # prune_interval = 4s
        chain = MiddlewareChain([limiter])
        for _ in range(4):
            run_one(chain, make_context("m", tenant="busy"))  # bucket now empty
        clock.now = 2.0  # partially refilled (2 of 4): still informative
        run_one(chain, make_context("m", tenant="other"))
        stats = limiter.stats()
        assert stats["pruned"] == 0
        assert stats["buckets"] == 2
        # The surviving bucket still enforces its partial balance.
        assert limiter.tokens(make_context("m", tenant="busy")) == pytest.approx(2.0)

    def test_prune_is_rate_limited_by_interval(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=2, clock=clock, prune_interval=100.0)
        chain = MiddlewareChain([limiter])
        run_one(chain, make_context("m", tenant="t0"))
        clock.now = 50.0  # t0 is back at capacity, but the sweep isn't due
        run_one(chain, make_context("m", tenant="t1"))
        assert limiter.stats() == {"admitted": 2, "rejected": 0, "buckets": 2, "pruned": 0}
        clock.now = 150.0
        run_one(chain, make_context("m", tenant="t2"))
        assert limiter.stats()["pruned"] == 2


class TestValidator:
    def test_shape_and_dtype_contract(self, registry):
        registry.entry("lenet").metadata.update(
            {"input_shape": [1, 28, 28], "input_dtype": "float32"}
        )
        validator = Validator(registry)
        chain = MiddlewareChain([validator])
        good = make_context("lenet", np.zeros((1, 28, 28), dtype=np.float32))
        assert run_one(chain, good).error is None

        bad_shape = make_context("lenet", np.zeros((28, 28), dtype=np.float32))
        assert isinstance(run_one(chain, bad_shape).error, ValidationError)

        bad_dtype = make_context("lenet", np.zeros((1, 28, 28), dtype=np.int64))
        assert isinstance(run_one(chain, bad_dtype).error, ValidationError)

        # float64 passes a float32 contract: the check is by kind.
        wide = make_context("lenet", np.zeros((1, 28, 28), dtype=np.float64))
        assert run_one(chain, wide).error is None

    def test_unknown_model_raises_key_error(self, registry):
        chain = MiddlewareChain([Validator(registry)])
        context = run_one(chain, make_context("missing"))
        assert isinstance(context.error, KeyError)

    def test_uncontracted_model_passes_unless_required(self, registry):
        chain = MiddlewareChain([Validator(registry)])
        context = make_context("lenet", np.zeros((99,), dtype=np.float32))
        assert run_one(chain, context).error is None

        strict = MiddlewareChain([Validator(registry, require_contract=True)])
        rejected = run_one(strict, make_context("lenet"))
        assert isinstance(rejected.error, ValidationError)


class TestTelemetry:
    def test_exports_stages_into_attached_model_stats(self):
        telemetry = Telemetry()
        stats = ModelStats(max_batch_size=4)
        chain = MiddlewareChain([telemetry, Tracer("inner")])
        context = make_context()
        context.stats = stats
        run_one(chain, context)
        stages = stats.stages()
        assert stages["request.total"]["count"] == 1
        assert stages["model"]["count"] == 1
        assert stages["Tracer[inner].on_request"]["count"] == 1
        assert stages["request.total"]["total_ms"] >= 0.0

    @pytest.mark.parametrize("position", ["first", "last", "absent"])
    def test_counts_errors_and_cache_hits(self, position):
        """The chain counts every outcome, wherever (or whether) Telemetry sits."""

        def chain_of(*middlewares):
            if position == "first":
                return MiddlewareChain([Telemetry(), *middlewares])
            if position == "last":
                return MiddlewareChain([*middlewares, Telemetry()])
            return MiddlewareChain(middlewares)

        stats = ModelStats(max_batch_size=1)
        sample = np.ones(2, dtype=np.float32)

        def run(chain):
            context = make_context(sample=sample)
            context.stats = stats
            return run_one(chain, context)

        cache = ResponseCache(capacity=4)
        rejected = run(chain_of(cache, Tracer("boom", fail_on="request")))
        assert isinstance(rejected.error, MiddlewareError)
        # fill the cache (remove boom), then observe a hit
        ok_chain = chain_of(cache)
        run(ok_chain)
        assert run(ok_chain).metadata["cache"] == "hit"
        stages = stats.stages()
        assert stages["request.total"]["count"] == 3
        assert stages["request.error"]["count"] == 1
        assert stages["request.cache_hit"]["count"] == 1

    def test_snapshot_stages_flow_through_server_stats(self, registry, images):
        server = InferenceServer(
            registry,
            Batcher(max_batch_size=8),
            middleware=[Telemetry()],
        )
        server.predict_batch("lenet", list(images[:4]))
        stages = server.stats("lenet")["stages"]
        assert stages["request.total"]["count"] == 4
        assert stages["model"]["count"] == 4


def image_plan():
    # 1x2x2 original embedded in 1x3x3 augmented (positions strictly increasing)
    positions = np.array([[0, 2, 4, 6]])
    return ImageAugmentationPlan((1, 2, 2), (1, 3, 3), positions, 1.25)


def text_plan():
    return TextAugmentationPlan(3, 5, np.array([[0, 2, 4]]), 0.67)


class TestObfuscationGuard:
    def test_augmented_sample_passes(self):
        guard = ObfuscationGuard(image_plan())
        context = make_context(sample=np.zeros((1, 3, 3), dtype=np.float32))
        assert run_one(MiddlewareChain([guard]), context).error is None

    def test_raw_sample_is_rejected_with_trust_boundary_message(self):
        guard = ObfuscationGuard(image_plan())
        context = make_context(sample=np.zeros((1, 2, 2), dtype=np.float32))
        error = run_one(MiddlewareChain([guard]), context).error
        assert isinstance(error, ObfuscationViolation)
        assert "trust boundary" in str(error)

    def test_other_shapes_are_rejected(self):
        guard = ObfuscationGuard(image_plan())
        context = make_context(sample=np.zeros((1, 4, 4), dtype=np.float32))
        assert isinstance(run_one(MiddlewareChain([guard]), context).error, ObfuscationViolation)

    def test_text_plan_widths(self):
        guard = ObfuscationGuard(text_plan())
        assert guard.expected_shape == (5,)
        good = make_context(sample=np.zeros(5, dtype=np.int64))
        assert run_one(MiddlewareChain([guard]), good).error is None
        raw = make_context(sample=np.zeros(3, dtype=np.int64))
        assert isinstance(run_one(MiddlewareChain([guard]), raw).error, ObfuscationViolation)

    def test_accepts_secrets_object(self):
        class SecretsLike:
            dataset_plan = image_plan()

        guard = ObfuscationGuard(SecretsLike())
        assert guard.expected_shape == (1, 3, 3)

    def test_rejects_unknown_plan_type(self):
        with pytest.raises(TypeError):
            ObfuscationGuard(object())


class TestServerIntegration:
    def test_cache_hit_skips_model_execution(self, registry, images):
        cache = ResponseCache(capacity=16)
        server = InferenceServer(registry, Batcher(max_batch_size=8), middleware=[cache])
        first = server.predict("lenet", images[0])
        second = server.predict("lenet", images[0])
        assert np.array_equal(first, second)
        stats = server.stats("lenet")
        # only the miss reached the model: one executed batch of one request
        assert stats["requests"] == 1
        assert stats["batches"] == 1
        assert cache.stats() == {
            "size": 1,
            "capacity": 16,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_rate_limited_sync_raises_and_counts_error(self, registry, images):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=1, clock=clock)
        server = InferenceServer(registry, Batcher(max_batch_size=8), middleware=[limiter])
        server.predict("lenet", images[0])
        with pytest.raises(RateLimitExceeded):
            server.predict("lenet", images[1])
        assert server.stats("lenet")["errors"] == 1

    def test_rate_limited_future_carries_typed_error(self, registry, images):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=1, clock=clock)
        server = InferenceServer(
            registry,
            Batcher(max_batch_size=8, max_wait=0.005),
            middleware=[limiter],
        )
        with server:
            futures = server.submit_many("lenet", list(images[:2]))
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except RateLimitExceeded as error:
                    outcomes.append(error)
        rejected = [o for o in outcomes if isinstance(o, RateLimitExceeded)]
        served = [o for o in outcomes if isinstance(o, np.ndarray)]
        assert len(rejected) == 1 and len(served) == 1

    def test_partial_batch_rejection_still_serves_the_rest(self, registry, images):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=4, clock=clock)
        server = InferenceServer(
            registry,
            Batcher(max_batch_size=8, max_wait=0.01, padding="full"),
            num_workers=1,
            middleware=[limiter],
        )
        reference = [server.predict("lenet", sample) for sample in images[:4]]
        clock.now = 100.0  # refill after the sync warmup
        with server:
            futures = server.submit_many("lenet", list(images[:6]))
            results = []
            for future in futures:
                try:
                    results.append(future.result(timeout=30))
                except RateLimitExceeded:
                    results.append(None)
        served = [r for r in results if r is not None]
        assert len(served) == 4  # capacity admitted exactly 4 of the 6
        for index, result in enumerate(results[:4]):
            if result is not None:
                assert np.array_equal(result, reference[index])


class TestChainOrderingThroughServer:
    def test_order_is_observable_in_context_metadata(self, registry, images):
        traces = []

        class Probe(Tracer):
            def on_response(self, context):
                super().on_response(context)
                if self.tag == "outer":
                    traces.append(list(context.metadata["trace"]))

        server = InferenceServer(
            registry,
            Batcher(max_batch_size=8),
            middleware=[Probe("outer"), Probe("inner")],
        )
        server.predict("lenet", images[0])
        assert traces == [
            [
                "outer.request",
                "inner.request",
                "outer.batch",
                "inner.batch",
                "inner.response",
                "outer.response",
            ]
        ]


class TestStatsPartition:
    def test_unwind_error_counts_as_error_not_served_request(self, registry, images):
        class BadResponder(ServeMiddleware):
            def on_response(self, context):
                raise RuntimeError("post-execution bug")

        server = InferenceServer(
            registry, Batcher(max_batch_size=8), middleware=[BadResponder()]
        )
        with pytest.raises(RuntimeError, match="post-execution"):
            server.predict("lenet", images[0])
        stats = server.stats("lenet")
        # the request executed, but it must land in exactly one bucket
        assert stats["errors"] == 1
        assert stats["requests"] == 0


class TestCacheImmutability:
    def test_served_results_are_frozen_uniformly(self, registry, images):
        cache = ResponseCache(capacity=8)
        server = InferenceServer(registry, Batcher(max_batch_size=8), middleware=[cache])
        miss = server.predict("lenet", images[0])
        hit = server.predict("lenet", images[0])
        # miss and hit behave identically: mutation raises instead of
        # silently poisoning what every later request sees
        for result in (miss, hit):
            with pytest.raises(ValueError):
                result -= result.max()
        again = server.predict("lenet", images[0])
        assert np.array_equal(hit, again)
