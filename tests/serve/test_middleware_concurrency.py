"""Concurrency hammer and sync/concurrent parity for the middleware chain."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cloud import pack_model
from repro.models import model_factory
from repro.serve import (
    Batcher,
    InferenceServer,
    ModelRegistry,
    RateLimitExceeded,
    RateLimiter,
    ResponseCache,
    Telemetry,
)

from .conftest import make_lenet


def fresh_registry() -> ModelRegistry:
    registry = ModelRegistry(capacity=2)
    registry.register(
        "lenet",
        pack_model(make_lenet(3), task="classification"),
        model_factory("lenet", in_channels=1, seed=3),
    )
    return registry


def chained_server(
    limiter_rate: float = 1e9, num_workers: int = 4
) -> tuple[InferenceServer, ResponseCache, Telemetry, RateLimiter]:
    """Full-padding server behind Telemetry -> ResponseCache -> RateLimiter.

    The chain records every request into the server's stats, including cache
    hits (a hit short-circuits the descent before reaching inner hooks).
    """
    telemetry = Telemetry()
    cache = ResponseCache(capacity=4096)
    limiter = RateLimiter(rate=limiter_rate, capacity=limiter_rate)
    server = InferenceServer(
        fresh_registry(),
        Batcher(max_batch_size=8, max_wait=0.005, padding="full"),
        num_workers=num_workers,
        middleware=[telemetry, cache, limiter],
    )
    return server, cache, telemetry, limiter


class TestConcurrencyHammer:
    def test_eight_threads_byte_identical_with_exact_stats(self, images):
        """8 client threads through cache+telemetry+limiter == sequential, bitwise.

        With ``padding="full"`` every executed batch shares one shape, so
        results cannot depend on how the scheduler coalesced requests — and
        every stats counter must balance: nothing lost, nothing duplicated.
        """
        reference_server = InferenceServer(
            fresh_registry(), Batcher(max_batch_size=8, padding="full")
        )
        sequential = [reference_server.predict("lenet", sample) for sample in images]

        server, cache, telemetry, limiter = chained_server()
        threads_count, rounds = 8, 3
        total = threads_count * rounds
        results: dict[int, list[np.ndarray]] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def client(thread_index: int) -> None:
            try:
                for round_index in range(rounds):
                    sample_index = (thread_index * rounds + round_index) % len(images)
                    future = server.submit("lenet", images[sample_index])
                    output = future.result(timeout=30)
                    with lock:
                        results.setdefault(sample_index, []).append(output)
            except Exception as error:  # noqa: BLE001 - surfaced to the main thread
                with lock:
                    errors.append(error)

        with server:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        # byte-identical vs the sequential reference, for every occurrence
        assert sum(len(outputs) for outputs in results.values()) == total
        for sample_index, outputs in results.items():
            for output in outputs:
                assert np.array_equal(output, sequential[sample_index]), (
                    f"threaded result for sample {sample_index} differs from sequential"
                )

        # stats balance exactly: no lost or duplicated counts anywhere
        cache_stats = cache.stats()
        assert cache_stats["hits"] + cache_stats["misses"] == total
        assert limiter.stats()["admitted"] == cache_stats["misses"]
        assert limiter.stats()["rejected"] == 0
        server_stats = server.stats("lenet")
        assert server_stats["requests"] == cache_stats["misses"]  # executed = misses
        assert server_stats["errors"] == 0
        assert server_stats["stages"]["request.total"]["count"] == total
        assert server_stats["stages"]["request.cache_hit"]["count"] == cache_stats["hits"]


REQUEST_STREAM = [0, 1, 0, 2, 1, 3, 4]  # uniques: 0..4; duplicates: 0, 1


def expected_outcomes(capacity: int = 4) -> list[str]:
    """LRU-cache + token-bucket model of the stream above."""
    seen: set[int] = set()
    tokens = float(capacity)
    outcomes = []
    for index in REQUEST_STREAM:
        if index in seen:
            outcomes.append("hit")  # cache answers before the limiter runs
        elif tokens >= 1.0:
            tokens -= 1.0
            seen.add(index)
            outcomes.append("served")
        else:
            outcomes.append("rejected")
    return outcomes


class TestSyncConcurrentParity:
    """The same serialized request stream must behave identically in both modes."""

    @staticmethod
    def run_stream(server, images, mode: str):
        outcomes: list[object] = []
        for index in REQUEST_STREAM:
            sample = images[index]
            try:
                if mode == "sync":
                    outcomes.append(server.predict("lenet", sample))
                else:
                    # serialized: wait for each future so the request order —
                    # and therefore cache/limiter state — matches sync mode
                    outcomes.append(server.submit("lenet", sample).result(timeout=30))
            except RateLimitExceeded as error:
                outcomes.append(error)
        return outcomes

    def test_identical_observable_semantics(self, images):
        frozen_clock = lambda: 0.0  # noqa: E731 - no refill during the stream
        servers = {}
        components = {}
        for mode in ("sync", "concurrent"):
            telemetry = Telemetry()
            cache = ResponseCache(capacity=64)
            limiter = RateLimiter(rate=1.0, capacity=4, clock=frozen_clock)
            servers[mode] = InferenceServer(
                fresh_registry(),
                Batcher(max_batch_size=8, max_wait=0.005, padding="full"),
                middleware=[telemetry, cache, limiter],
            )
            components[mode] = (cache, limiter)

        sync_outcomes = self.run_stream(servers["sync"], images, "sync")
        with servers["concurrent"]:
            concurrent_outcomes = self.run_stream(servers["concurrent"], images, "concurrent")

        model = expected_outcomes(capacity=4)
        assert "rejected" in model and "hit" in model  # the stream exercises all paths
        for expected, sync_out, conc_out in zip(model, sync_outcomes, concurrent_outcomes):
            if expected == "rejected":
                assert isinstance(sync_out, RateLimitExceeded)
                assert isinstance(conc_out, RateLimitExceeded)
            else:
                assert isinstance(sync_out, np.ndarray)
                assert np.array_equal(sync_out, conc_out), "modes disagree bitwise"

        sync_cache, sync_limiter = components["sync"]
        conc_cache, conc_limiter = components["concurrent"]
        assert sync_cache.stats() == conc_cache.stats()
        assert sync_limiter.stats() == conc_limiter.stats()
        sync_stats = servers["sync"].stats("lenet")
        conc_stats = servers["concurrent"].stats("lenet")
        for key in ("requests", "batches", "errors", "mean_batch_size"):
            assert sync_stats[key] == conc_stats[key], key
        assert (
            sync_stats["stages"]["request.total"]["count"]
            == conc_stats["stages"]["request.total"]["count"]
            == len(REQUEST_STREAM)
        )

    def test_sync_mode_raises_what_futures_carry(self, images):
        server, _, _, limiter = chained_server(limiter_rate=1.0)
        limiter.capacity = 1.0
        limiter._clock = lambda: 0.0
        server.predict("lenet", images[0])
        with pytest.raises(RateLimitExceeded):
            server.predict("lenet", images[1])
