"""InferenceServer: sync/concurrent parity, stats, error paths, concurrency determinism."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.cloud import pack_model
from repro.models import model_factory
from repro.serve import (
    Batcher,
    InferenceServer,
    ModelRegistry,
    ServerOverloaded,
    ServerStopped,
)

from .conftest import make_lenet


def bit_reproducible_server(max_batch_size: int = 8, num_workers: int = 4) -> InferenceServer:
    """A LeNet server whose batcher pads every batch to one fixed shape."""
    registry = ModelRegistry(capacity=2)
    registry.register(
        "lenet",
        pack_model(make_lenet(3), task="classification"),
        model_factory("lenet", in_channels=1, seed=3),
    )
    batcher = Batcher(max_batch_size=max_batch_size, max_wait=0.005, padding="full")
    return InferenceServer(registry, batcher, num_workers=num_workers)


class TestSyncApi:
    def test_predict_matches_direct_forward(self, server, images):
        model = make_lenet(3).eval()
        with nn.no_grad():
            want = model(nn.Tensor(images[:1])).data[0]
        got = server.predict("lenet", images[0])
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_predict_batch_matches_per_sample_predict(self, server, images):
        batched = server.predict_batch("lenet", list(images[:6]))
        singles = [server.predict("lenet", sample) for sample in images[:6]]
        assert len(batched) == 6
        for got, want in zip(batched, singles):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_unknown_model_raises(self, server, images):
        with pytest.raises(KeyError):
            server.predict("missing", images[0])

    def test_stats_accounting(self, server, images):
        server.predict_batch("lenet", list(images[:6]))
        server.predict("lenet", images[0])
        stats = server.stats("lenet")
        assert stats["requests"] == 7
        assert stats["batches"] == 2
        assert stats["mean_batch_size"] == 3.5
        assert 0 < stats["batch_fill_ratio"] <= 1
        assert stats["p95_latency_ms"] >= stats["p50_latency_ms"] > 0
        assert server.stats()["models"]["lenet"] == stats

    def test_stats_snapshot_carries_lifecycle_and_queue_depth(self, server, images):
        """One stats() call gives placement policies queue depth + lifecycle.

        The least-loaded policy must not stitch together racy property reads;
        the combined snapshot is the satellite contract this test pins.
        """
        snapshot = server.stats()
        assert snapshot["queue_depth"] == 0
        assert snapshot["running"] is False
        assert snapshot["stopped"] is False
        with server:
            assert server.stats()["running"] is True
        snapshot = server.stats()
        assert snapshot["running"] is False
        assert snapshot["stopped"] is True


class TestConcurrentMode:
    def test_submit_requires_started_server(self, server, images):
        with pytest.raises(RuntimeError):
            server.submit("lenet", images[0])

    def test_start_stop_idempotent(self, server):
        server.start()
        server.start()
        server.stop()
        server.stop()
        assert not server.running

    def test_futures_resolve_to_batch_outputs(self, server, images):
        with server:
            futures = server.submit_many("lenet", list(images))
            results = [future.result(timeout=30) for future in futures]
        singles = [server.predict("lenet", sample) for sample in images]
        for got, want in zip(results, singles):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_unknown_model_fails_the_future(self, server, images):
        with server:
            future = server.submit("missing", images[0])
            with pytest.raises(KeyError):
                future.result(timeout=30)
        assert server.stats("missing")["errors"] == 1

    def test_stop_drains_pending_requests(self, registry, images):
        # One sleepy worker plus a burst of requests leaves work queued at
        # stop(); stop must serve the stragglers rather than drop them.
        server = InferenceServer(
            registry, Batcher(max_batch_size=2, max_wait=0.0), num_workers=1
        )
        server.start()
        futures = server.submit_many("lenet", list(images))
        server.stop()
        for future in futures:
            assert future.result(timeout=30).shape == (10,)

    def test_hammering_threads_get_byte_identical_results(self, images):
        """N client threads through dynamic batching == sequential calls, bitwise.

        With ``padding="full"`` every executed batch has the same shape, so
        per-row kernel behaviour cannot depend on how the scheduler coalesced
        requests — results must match the sequential reference exactly.
        """
        server = bit_reproducible_server(max_batch_size=8, num_workers=4)
        sequential = [server.predict("lenet", sample) for sample in images]

        results: dict[int, np.ndarray] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def client(thread_index: int) -> None:
            try:
                for round_index in range(3):
                    sample_index = (thread_index * 3 + round_index) % len(images)
                    future = server.submit("lenet", images[sample_index])
                    output = future.result(timeout=30)
                    with lock:
                        previous = results.get(sample_index)
                        if previous is not None:
                            assert np.array_equal(previous, output)
                        results[sample_index] = output
            except Exception as error:  # noqa: BLE001 - surfaced to the main thread
                with lock:
                    errors.append(error)

        with server:
            threads = [threading.Thread(target=client, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        assert results  # at least one sample exercised
        for sample_index, output in results.items():
            assert np.array_equal(output, sequential[sample_index]), (
                f"threaded result for sample {sample_index} differs from sequential"
            )

    def test_stop_is_idempotent_and_safe_before_start(self, server):
        server.stop()  # never started: no-op
        server.stop()
        assert not server.running
        server.start()
        server.stop()
        server.stop()  # double stop after a real run
        assert not server.running

    def test_submit_after_stop_raises_typed_error(self, server, images):
        server.start()
        server.stop()
        # ServerStopped subclasses RuntimeError, so pre-existing callers
        # catching the broad class keep working while routers match the type.
        with pytest.raises(ServerStopped, match="stopped"):
            server.submit("lenet", images[0])

    def test_submit_before_first_start_names_the_remedy(self, server, images):
        with pytest.raises(RuntimeError, match="start\\(\\)"):
            server.submit("lenet", images[0])

    def test_server_restarts_after_stop(self, server, images):
        server.start()
        first = server.submit("lenet", images[0]).result(timeout=30)
        server.stop()
        server.start()
        second = server.submit("lenet", images[0]).result(timeout=30)
        server.stop()
        np.testing.assert_allclose(first, second, rtol=1e-5, atol=1e-6)

    def test_full_queue_raises_instead_of_deadlocking(self, registry, images):
        server = InferenceServer(
            registry, Batcher(max_batch_size=2, max_wait=0.0), queue_size=2
        )
        # Simulate workers that never drain: mark running without threads.
        server._running = True
        try:
            server.submit("lenet", images[0])
            server.submit("lenet", images[1])
            with pytest.raises(ServerOverloaded, match="queue is full"):
                server.submit("lenet", images[2])
        finally:
            server._running = False

    def test_overflowing_submit_many_enqueues_no_row(self, registry, images):
        server = InferenceServer(registry, num_workers=1, queue_size=2)
        with server:
            with pytest.raises(ServerOverloaded, match="queue is full"):
                server.submit_many("lenet", list(images[:10]))
        stats = server.stats("lenet")
        assert stats["requests"] + stats["errors"] == 0

    def test_queue_bound_counts_rows(self, registry, images):
        server = InferenceServer(registry, Batcher(max_batch_size=2, max_wait=0.0), queue_size=3)
        server._running = True  # workers that never drain, as above
        try:
            server.submit_many("lenet", list(images[:2]))
            assert server.queue_depth == 2
            with pytest.raises(ServerOverloaded):
                server.submit_many("lenet", list(images[:2]))
            server.submit("lenet", images[0])
            assert server.queue_depth == 3
        finally:
            server._running = False

    def test_lone_request_never_waits_out_max_wait(self, registry, images):
        server = InferenceServer(registry, Batcher(max_batch_size=8, max_wait=0.2), num_workers=1)
        with server:
            server.predict("lenet", images[0])  # build the model outside the clock
            for index in range(3):
                began = time.perf_counter()
                server.submit("lenet", images[index]).result(timeout=30)
                # Generous bound: no arrival evidence means no wait at all.
                assert time.perf_counter() - began < 0.1
                time.sleep(0.25)  # spaced arrivals predict nothing within max_wait

    def test_back_to_back_lone_caller_never_waits_out_max_wait(self, registry, images):
        """A caller that sends each request as soon as the last one returns
        finds the server idle every time: no request waits for a successor
        that cannot arrive before it is answered."""
        server = InferenceServer(registry, Batcher(max_batch_size=8, max_wait=0.2), num_workers=1)
        with server:
            server.predict("lenet", images[0])  # build the model outside the clock
            for round_index in range(2):  # the first round settles the gap average
                began = time.perf_counter()
                for index in range(20):
                    server.submit("lenet", images[index % len(images)]).result(timeout=30)
                # Waiting out max_wait each time would take 20 x 0.2 = 4 s.
                assert time.perf_counter() - began < 1.0, f"round {round_index}"

    def test_mixed_submit_and_submit_many_hammer_keeps_the_row_ledger(self, images):
        """More threads than cores mix ``submit`` and ``submit_many`` against
        several workers under a short switch interval: every row resolves to
        its sequential result and the row count of the queue returns to 0."""
        server = bit_reproducible_server(max_batch_size=8, num_workers=3)
        sequential = [server.predict("lenet", sample) for sample in images]
        outcomes: list = []
        lock = threading.Lock()

        def client(thread_index: int) -> None:
            for round_index in range(4):
                picks = [(thread_index + round_index + k) % len(images) for k in range(3)]
                if (thread_index + round_index) % 2:
                    futures = server.submit_many("lenet", [images[i] for i in picks])
                else:
                    futures = [server.submit("lenet", images[i]) for i in picks]
                for pick, future in zip(picks, futures):
                    output = future.result(timeout=30)
                    with lock:
                        outcomes.append((pick, output))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=client, args=(index,)) for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert server.queue_depth == 0
        finally:
            sys.setswitchinterval(previous)
        assert len(outcomes) == 8 * 4 * 3
        assert server.stats("lenet")["requests"] == len(outcomes) + len(images)
        for pick, output in outcomes:
            assert np.array_equal(output, sequential[pick])

    def test_threaded_batches_actually_coalesce(self, images):
        server = bit_reproducible_server(max_batch_size=8, num_workers=1)
        with server:
            futures = server.submit_many("lenet", list(images))
            for future in futures:
                future.result(timeout=30)
        stats = server.stats("lenet")
        assert stats["requests"] == len(images)
        assert stats["batches"] < len(images), "scheduler never batched anything"
