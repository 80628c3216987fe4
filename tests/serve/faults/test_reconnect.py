"""Reconnect-with-resume: the client survives unannounced connection loss.

The pins from the issue:

* kill the connection mid-run → the client re-HELLOs with the same tenant,
  resubmits every request that never got a response frame, and every future
  resolves as a result or a typed error — the ledger balances;
* a graceful GOODBYE is *not* resumed (the server answered everything it
  accepted; what is left raced past the drain edge);
* when the reconnect budget is exhausted nothing hangs — pending futures fail
  with a typed ``ConnectionClosed``;
* ``ExtractionProxy`` extraction over a faulty loopback matches the
  in-process path bit for bit (augmentation happens client-side *before*
  submission, so a resubmitted request reuses the same augmented bytes).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cloud import CloudSession
from repro.core import Amalgam, AmalgamConfig
from repro.data import make_mnist
from repro.models import LeNet
from repro.serve import (
    AdmissionScheduler,
    Batcher,
    ClusterRouter,
    ConnectionClosed,
    ExtractionProxy,
    FaultInjector,
    FaultPlan,
    GatewayServer,
    RemoteClient,
    ReplicaWorker,
    RetryPolicy,
    ServerStopped,
)

from ..gateway.conftest import EchoBackend


def fast_retry(max_attempts: int = 6) -> RetryPolicy:
    async def instant(_delay: float) -> None:
        return None

    return RetryPolicy(
        max_attempts=max_attempts, base_delay=0.001, max_delay=0.01, async_sleep=instant
    )


@pytest.fixture
def samples():
    return [
        np.random.default_rng(i).standard_normal((4,)).astype(np.float32) for i in range(12)
    ]


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestResumeAfterDisconnect:
    def test_mid_run_disconnect_is_transparent(self, samples):
        backend = EchoBackend()
        faults = FaultInjector(FaultPlan().drop_connection(after_frames=5, times=1))
        with GatewayServer(backend, faults=faults) as gateway:
            with RemoteClient(
                *gateway.address, resume=True, retry=fast_retry()
            ) as client:
                outputs = [client.predict("m", sample) for sample in samples]
                ledger = client.ledger()
        for sample, output in zip(samples, outputs):
            np.testing.assert_array_equal(output, sample * 2.0)
        assert ledger["submitted"] == len(samples)
        assert ledger["succeeded"] == len(samples)
        assert ledger["failed"] == 0
        assert ledger["pending"] == 0
        assert ledger["reconnects"] == 1
        assert ledger["resubmitted"] >= 1
        assert faults.fired_counts() == {"gateway.send:disconnect": 1}

    def test_concurrent_inflight_requests_all_resolve(self, samples):
        backend = EchoBackend(delay=0.005)  # keep several requests in flight
        faults = FaultInjector(FaultPlan().drop_connection(after_frames=4, times=1))
        with GatewayServer(backend, faults=faults) as gateway:
            with RemoteClient(
                *gateway.address, resume=True, retry=fast_retry(), window=8
            ) as client:
                # One REQUEST frame per sample, so several are in flight
                # when the connection drops (submit_many would send one frame).
                futures = [client.submit("m", sample) for sample in samples]
                outputs = [future.result(timeout=30) for future in futures]
                ledger = client.ledger()
        for sample, output in zip(samples, outputs):
            np.testing.assert_array_equal(output, sample * 2.0)
        assert ledger["submitted"] == ledger["succeeded"] + ledger["failed"]
        assert ledger["failed"] == 0
        assert ledger["reconnects"] >= 1

    def test_batch_frame_is_resubmitted_whole(self, samples):
        # Frame 2 is the BATCH_REPLY: dropping it leaves the whole batch
        # unanswered, so resume resubmits the one BATCH frame verbatim.
        faults = FaultInjector(FaultPlan().drop_connection(after_frames=2, times=1))
        with GatewayServer(EchoBackend(), faults=faults) as gateway:
            with RemoteClient(*gateway.address, resume=True, retry=fast_retry()) as client:
                futures = client.submit_many("m", samples)
                outputs = [future.result(timeout=30) for future in futures]
                ledger = client.ledger()
        for sample, output in zip(samples, outputs):
            np.testing.assert_array_equal(output, sample * 2.0)
        assert ledger["submitted"] == ledger["succeeded"] == len(samples)
        assert ledger["failed"] == ledger["pending"] == 0
        assert ledger["reconnects"] == 1
        assert ledger["resubmitted"] == 1

    def test_without_resume_disconnect_fails_typed(self, samples):
        backend = EchoBackend()
        faults = FaultInjector(FaultPlan().drop_connection(after_frames=2, times=1))
        with GatewayServer(backend, faults=faults) as gateway:
            with RemoteClient(*gateway.address) as client:
                # Frame 2 (the first response) aborts the connection, so some
                # predict in the run fails with the typed close error.
                with pytest.raises(ConnectionClosed):
                    for sample in samples:
                        client.predict("m", sample)

    def test_resume_after_socket_reset_on_send(self, samples):
        backend = EchoBackend()
        client_faults = FaultInjector(FaultPlan().reset_socket(on_send=3, times=1))
        with GatewayServer(backend) as gateway:
            with RemoteClient(
                *gateway.address, resume=True, retry=fast_retry(), faults=client_faults
            ) as client:
                outputs = [client.predict("m", sample) for sample in samples]
                ledger = client.ledger()
        for sample, output in zip(samples, outputs):
            np.testing.assert_array_equal(output, sample * 2.0)
        assert ledger["reconnects"] == 1
        assert ledger["resubmitted"] >= 1
        assert ledger["submitted"] == ledger["succeeded"] == len(samples)


class TestResumeBoundaries:
    def test_goodbye_is_never_resumed(self, samples):
        backend = EchoBackend()
        gateway = GatewayServer(backend)
        gateway.start()
        client = RemoteClient(*gateway.address, resume=True, retry=fast_retry())
        try:
            client.predict("m", samples[0])
            gateway.stop()  # graceful: GOODBYE, not an unannounced death
            connection = client._pool[0]
            wait_until(lambda: connection.closed)
            with pytest.raises(ServerStopped):
                client.predict("m", samples[1])
            assert client.ledger()["reconnects"] == 0
        finally:
            client.close()

    def test_exhausted_reconnect_budget_fails_typed(self, samples):
        backend = EchoBackend()
        # First connect succeeds; every reconnect attempt is refused.
        client_faults = FaultInjector(
            FaultPlan()
            .reset_socket(on_send=2, times=1)
            .refuse_connect(after=2, times=-1)
        )
        with GatewayServer(backend) as gateway:
            with RemoteClient(
                *gateway.address,
                resume=True,
                retry=fast_retry(max_attempts=2),
                faults=client_faults,
            ) as client:
                np.testing.assert_array_equal(
                    client.predict("m", samples[0]), samples[0] * 2.0
                )
                with pytest.raises(ConnectionClosed, match="reconnect failed"):
                    client.predict("m", samples[1])
                ledger = client.ledger()
        assert ledger["submitted"] == 2
        assert ledger["succeeded"] == 1
        assert ledger["failed"] == 1
        assert ledger["pending"] == 0

    def test_reconnect_retries_through_refused_connects(self, samples):
        backend = EchoBackend()
        client_faults = FaultInjector(
            FaultPlan()
            .reset_socket(on_send=2, times=1)
            .refuse_connect(after=2, times=2)  # two refusals, then success
        )
        with GatewayServer(backend) as gateway:
            with RemoteClient(
                *gateway.address,
                resume=True,
                retry=fast_retry(max_attempts=6),
                faults=client_faults,
            ) as client:
                outputs = [client.predict("m", sample) for sample in samples[:4]]
                ledger = client.ledger()
        for sample, output in zip(samples, outputs):
            np.testing.assert_array_equal(output, sample * 2.0)
        assert ledger["reconnects"] == 1
        assert ledger["failed"] == 0


class TestReaderGrace:
    def test_validation(self):
        from repro.serve import AsyncRemoteClient

        with pytest.raises(ValueError, match="reader_grace"):
            AsyncRemoteClient("127.0.0.1", 1, reader_grace=0.0)

    def test_send_failure_surfaces_the_real_cause(self, samples):
        """Satellite pin: the typed close error keeps the send failure as its
        ``__cause__`` instead of swallowing it (`from None` previously)."""
        backend = EchoBackend()
        client_faults = FaultInjector(FaultPlan().reset_socket(on_send=2, times=1))
        with GatewayServer(backend) as gateway:
            with RemoteClient(
                *gateway.address, faults=client_faults, reader_grace=2.0
            ) as client:
                client.predict("m", samples[0])
                with pytest.raises(ConnectionClosed) as excinfo:
                    client.predict("m", samples[1])
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)


class TestProxyOverFaultyLoopback:
    @pytest.fixture(scope="class")
    def obfuscated_job(self):
        data = make_mnist(train_count=16, val_count=6, seed=23)
        config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=23)
        job = Amalgam(config).prepare_image_job(
            LeNet(10, 1, 28, rng=np.random.default_rng(23)), data
        )
        return job, data

    def test_extraction_bit_identical_despite_disconnects(self, obfuscated_job):
        """The reconnect pin: obfuscated extraction over a loopback that drops
        the connection mid-run matches the in-process path bit for bit."""
        job, data = obfuscated_job
        raw = [np.asarray(sample) for sample in data.validation.samples[:6]]
        router = ClusterRouter(
            [
                ReplicaWorker(
                    f"replica-{index}",
                    batcher=Batcher(max_batch_size=8, max_wait=0.002, padding="full"),
                )
                for index in range(2)
            ],
            admission=AdmissionScheduler(),
        )
        CloudSession.publish(job, router, "lenet-aug")
        router.start()
        reference_proxy = ExtractionProxy(job.secrets)
        expected = [reference_proxy.predict(router, "lenet-aug", sample) for sample in raw]

        gateway_faults = FaultInjector(
            FaultPlan().drop_connection(after_frames=4, times=1)
        )
        with router:
            with GatewayServer(router, faults=gateway_faults) as gateway:
                with RemoteClient(
                    *gateway.address, resume=True, retry=fast_retry()
                ) as remote:
                    proxy = ExtractionProxy(job.secrets)
                    futures = [proxy.submit(remote, "lenet-aug", sample) for sample in raw]
                    outputs = [future.result(timeout=60) for future in futures]
                    ledger = remote.ledger()

        assert gateway_faults.fired_counts().get("gateway.send:disconnect") == 1
        assert ledger["failed"] == 0
        assert ledger["submitted"] == ledger["succeeded"] == len(raw)
        for output, reference in zip(outputs, expected):
            assert output.dtype == reference.dtype
            assert output.tobytes() == reference.tobytes()
