"""RemoteClient / AsyncRemoteClient: the drop-in remote serving surface."""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.serve import (
    ConnectionClosed,
    GatewayServer,
    InferenceServer,
    ProtocolError,
    RateLimitExceeded,
    RemoteClient,
)
from repro.serve.gateway import AsyncRemoteClient

from .conftest import EchoBackend


class TestSyncFacade:
    def test_predict_matches_backend(self, gateway):
        sample = np.arange(6, dtype=np.float32).reshape(2, 3)
        with RemoteClient(*gateway.address) as client:
            out = client.predict("m", sample)
        np.testing.assert_array_equal(out, sample * 2.0)

    def test_predict_batch_preserves_order(self, gateway):
        samples = [np.full((2,), float(i), dtype=np.float32) for i in range(20)]
        with RemoteClient(*gateway.address, pool_size=3) as client:
            outs = client.predict_batch("m", samples)
        assert len(outs) == 20
        for index, out in enumerate(outs):
            np.testing.assert_array_equal(out, samples[index] * 2.0)

    def test_submit_returns_concurrent_future(self, gateway):
        with RemoteClient(*gateway.address) as client:
            future = client.submit("m", np.ones(2, dtype=np.float32))
            result = future.result(timeout=10)
        np.testing.assert_array_equal(result, np.full(2, 2.0, dtype=np.float32))

    def test_pool_round_robins_connections(self, echo_backend, gateway):
        with RemoteClient(*gateway.address, pool_size=2) as client:
            client.predict_batch("m", [np.ones(2, dtype=np.float32)] * 4)
        assert gateway.stats()["connections"] == 2

    def test_closed_client_raises(self, gateway):
        client = RemoteClient(*gateway.address)
        client.close()
        client.close()  # idempotent
        with pytest.raises(ConnectionClosed):
            client.predict("m", np.ones(2, dtype=np.float32))

    def test_pool_size_validation(self, gateway):
        with pytest.raises(ValueError):
            RemoteClient(*gateway.address, pool_size=0)

    def test_unencodable_sample_is_a_precise_client_side_error(self, gateway):
        """An encode-time failure surfaces as ProtocolError (not a bogus
        ConnectionClosed) and leaves the connection usable."""
        with RemoteClient(*gateway.address) as client:
            with pytest.raises(ProtocolError, match="refusing to serialize"):
                client.predict("m", np.array([object()], dtype=object))
            out = client.predict("m", np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(out, np.full(2, 2.0, dtype=np.float32))

    def test_concurrent_hammer_is_correct(self, gateway):
        """8 threads sharing one client: every reply matches its request."""
        with RemoteClient(*gateway.address, pool_size=2) as client:
            failures = []

            def hammer(thread_index: int) -> None:
                for i in range(16):
                    value = float(thread_index * 100 + i)
                    out = client.predict("m", np.full(3, value, dtype=np.float32))
                    if not np.array_equal(out, np.full(3, value * 2.0, dtype=np.float32)):
                        failures.append((thread_index, i))

            threads = [threading.Thread(target=hammer, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures


class TestBatchFailureIsolation:
    def test_one_failure_does_not_cancel_siblings_or_leak_window_slots(self):
        """A failing request in a batch must not cancel in-flight siblings —
        cancelled callers would free client window slots the server still
        counts, tripping spurious Backpressure on a tight window."""

        class FlakyBackend(EchoBackend):
            def predict(self, model_id, sample, tenant="default", deadline=None):
                if float(np.asarray(sample).flat[0]) == 3.0:
                    raise ValueError("boom on three")
                return np.asarray(sample) * 2.0

        with GatewayServer(FlakyBackend(), max_inflight=2) as gateway:
            with RemoteClient(*gateway.address, window=2) as client:
                samples = [np.full(2, float(i), dtype=np.float32) for i in range(8)]
                with pytest.raises(ValueError, match="boom on three"):
                    client.predict_batch("m", samples)
                # The connection stays healthy and correctly window-synced.
                out = client.predict("m", np.full(2, 5.0, dtype=np.float32))
            np.testing.assert_array_equal(out, np.full(2, 10.0, dtype=np.float32))
            stats = gateway.stats()
        assert stats["backpressure"] == 0
        assert stats["requests"] == 9  # all eight batch requests + the probe


class TestBatchFrame:
    """``predict_batch``/``submit_many`` cross the wire as one BATCH frame."""

    class BatchBackend(EchoBackend):
        """A running concurrent backend that records each ``submit_many``
        call and fails the rows whose first value is negative."""

        running = True

        def __init__(self) -> None:
            super().__init__()
            self.batches = []

        def submit_many(self, model_id, samples, tenant="default"):
            self.batches.append((model_id, tenant, len(samples)))
            futures = [Future() for _ in samples]
            for future, sample in zip(futures, samples):
                if float(np.asarray(sample).flat[0]) < 0:
                    future.set_exception(RateLimitExceeded(tenant, model_id, retry_after=0.5))
                else:
                    future.set_result(np.asarray(sample) * 2.0)
            return futures

    def test_one_backend_hop_and_per_row_typed_errors(self):
        backend = self.BatchBackend()
        samples = [np.full(2, float(i), dtype=np.float32) for i in range(16)]
        samples[5] = -samples[5] - 1.0
        with GatewayServer(backend, max_inflight=1) as gateway:
            with RemoteClient(*gateway.address, tenant="acme", window=1) as client:
                futures = client.submit_many("m", samples)
                outcomes = [future.exception(timeout=10) or future.result() for future in futures]
                with pytest.raises(RateLimitExceeded) as raised:
                    client.predict_batch("m", samples)
                assert client.predict_batch("m", samples[:4]) is not None
                ledger = client.ledger()
            stats = gateway.stats()
        assert backend.batches == [("m", "acme", 16), ("m", "acme", 16), ("m", "acme", 4)]
        assert backend.calls == []  # no per-row predict fallback
        assert raised.value.retry_after == 0.5
        for index, outcome in enumerate(outcomes):
            if index == 5:
                assert isinstance(outcome, RateLimitExceeded)
            else:
                np.testing.assert_array_equal(outcome, samples[index] * 2.0)
        assert ledger == {
            "submitted": 36,
            "succeeded": 34,
            "failed": 2,
            "resubmitted": 0,
            "reconnects": 0,
            "pending": 0,
        }
        assert stats["requests"] == 36 and stats["errors"] == 2
        assert stats["backpressure"] == 0

    def test_empty_batch_sends_nothing(self, gateway):
        with RemoteClient(*gateway.address) as client:
            assert client.predict_batch("m", []) == []
            assert client.submit_many("m", []) == []
        assert gateway.stats()["requests"] == 0


class TestPipelining:
    def test_responses_arrive_out_of_order(self):
        """A slow first request must not convoy the fast one behind it.

        The slow request is gated on an event the test only sets *after* the
        fast one has returned, so the overtake is deterministic.
        """
        release_slow = threading.Event()

        class StaggeredBackend(EchoBackend):
            def predict(self, model_id, sample, tenant="default", deadline=None):
                if float(np.asarray(sample).flat[0]) == 0.0:
                    assert release_slow.wait(timeout=30)  # parked until released
                return np.asarray(sample) * 2.0

        backend = StaggeredBackend()
        completion_order = []
        with GatewayServer(backend, max_inflight=8) as gateway:
            with RemoteClient(*gateway.address) as client:
                slow = client.submit("m", np.zeros(2, dtype=np.float32))
                fast = client.submit("m", np.ones(2, dtype=np.float32))
                slow.add_done_callback(lambda f: completion_order.append("slow"))
                fast.add_done_callback(lambda f: completion_order.append("fast"))
                np.testing.assert_array_equal(
                    fast.result(timeout=10), np.full(2, 2.0, dtype=np.float32)
                )
                assert not slow.done()  # fast overtook slow on the same socket
                release_slow.set()
                np.testing.assert_array_equal(
                    slow.result(timeout=10), np.zeros(2, dtype=np.float32)
                )
        assert completion_order == ["fast", "slow"]


class TestAsyncClient:
    def test_async_predict_batch_pipelines_within_the_window(self, gateway):
        async def run():
            client = await AsyncRemoteClient(*gateway.address, window=4).connect()
            try:
                assert client.window == 4
                samples = [np.full(2, float(i), dtype=np.float32) for i in range(12)]
                outs = await client.predict_batch("m", samples)
                return samples, outs
            finally:
                await client.close()

        samples, outs = asyncio.run(run())
        for sample, out in zip(samples, outs):
            np.testing.assert_array_equal(out, sample * 2.0)

    def test_handshake_grants_server_window_by_default(self, gateway):
        async def run():
            client = await AsyncRemoteClient(*gateway.address).connect()
            try:
                return client.window, client.server_id
            finally:
                await client.close()

        window, server_id = asyncio.run(run())
        assert window == gateway.max_inflight
        assert server_id == "test-gateway"


class TestUnderProxySurface:
    """The remote client satisfies the duck type the in-process stack expects."""

    def test_has_the_inference_server_surface(self):
        for name in ("predict", "predict_batch", "submit", "submit_many", "register"):
            assert callable(getattr(RemoteClient, name))
        for name in ("predict", "predict_batch", "register"):
            assert callable(getattr(AsyncRemoteClient, name))

    def test_real_inference_server_backend(self, registry):
        """Against a real InferenceServer backend (sync predict path)."""
        backend = InferenceServer(registry)
        sample = np.random.default_rng(3).standard_normal((1, 28, 28)).astype(np.float32)
        expected = backend.predict("lenet", sample)
        with GatewayServer(backend) as gateway:
            with RemoteClient(*gateway.address) as client:
                out = client.predict("lenet", sample)
        np.testing.assert_array_equal(out, expected)
