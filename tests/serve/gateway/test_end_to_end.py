"""End-to-end acceptance pins for the network gateway.

1. **Byte-identity**: ``ExtractionProxy`` over ``RemoteClient`` →
   ``GatewayServer`` → ``ClusterRouter`` on loopback returns byte-identical
   outputs to the in-process path.  Two proxies built from the same secrets
   draw the same augmentation-noise sequence, and ``padding="full"`` makes
   replica batches bit-reproducible regardless of how the wire coalesces
   requests, so any mismatch is a real wire/serving defect.
2. **Zero-loss drain**: a mid-run gateway drain under an 8-client concurrent
   hammer loses nothing — every request either returns a correct result or
   fails with a typed ``ServerStopped``; no future hangs, no silent drops.
"""

from __future__ import annotations

import threading
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
    ExtractionProxy,
    GatewayServer,
    InferenceServer,
    ModelRegistry,
    RateLimiter,
    RateLimitExceeded,
    RemoteClient,
    ReplicaWorker,
    ServeMiddleware,
    ServerStopped,
)

from .conftest import EchoBackend


@pytest.fixture(scope="module")
def obfuscated_job():
    data = make_mnist(train_count=24, val_count=8, seed=11)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=11)
    job = Amalgam(config).prepare_image_job(
        LeNet(10, 1, 28, rng=np.random.default_rng(11)), data
    )
    return job, data


def make_cluster() -> ClusterRouter:
    return ClusterRouter(
        [
            ReplicaWorker(
                f"replica-{index}",
                batcher=Batcher(max_batch_size=8, max_wait=0.002, padding="full"),
            )
            for index in range(2)
        ],
        admission=AdmissionScheduler(tenant_priorities={"vip": 5}),
    )


class TestByteIdentityOverLoopback:
    def test_proxy_over_gateway_matches_in_process(self, obfuscated_job):
        job, data = obfuscated_job
        raw = [np.asarray(sample) for sample in data.validation.samples[:8]]

        router = make_cluster()
        CloudSession.publish(job, router, "lenet-aug")

        # In-process reference: predict on the same cluster.
        router.start()
        in_process_proxy = ExtractionProxy(job.secrets)
        expected = in_process_proxy.predict_batch(router, "lenet-aug", raw)
        before = router.stats()["router"]

        # The row ledger's reference: an in-process padding="full" server.
        rows = ExtractionProxy(job.secrets).augment_batch(
            np.concatenate([data.train.samples, data.validation.samples])[:32]
        )
        registry = ModelRegistry(capacity=2)
        CloudSession.publish(job, registry, "lenet-aug")
        reference = InferenceServer(
            registry, Batcher(max_batch_size=8, padding="full")
        ).predict_batch("lenet-aug", list(rows))

        # Remote path: a fresh proxy from the same secrets draws the identical
        # augmentation-noise sequence; the batch crosses the loopback socket
        # as one BATCH frame and the cluster's admission/submit machinery as
        # one unit.
        with router:
            with GatewayServer(router, server_id="e2e") as gateway:
                with RemoteClient(*gateway.address, tenant="vip") as remote:
                    remote_proxy = ExtractionProxy(job.secrets)
                    actual = remote_proxy.predict_batch(remote, "lenet-aug", raw)
                    outcomes = self.row_ledger_batches(router, remote, rows)
                    ledger = remote.ledger()
                gateway_stats = gateway.stats()

        assert len(actual) == len(expected)
        for remote_out, local_out in zip(actual, expected):
            assert remote_out.dtype == local_out.dtype
            assert remote_out.tobytes() == local_out.tobytes()  # byte-identical

        # Every row resolved exactly once: 20 of each 32-row batch passed the
        # cluster rate limiter and answer byte-identically (the second batch
        # despite losing a replica mid-flight); the other 12 failed typed.
        submitted = len(raw) + 2 * len(rows)
        for batch in outcomes:
            for index, outcome in enumerate(batch):
                if index < 20:
                    assert outcome.tobytes() == reference[index].tobytes()
                else:
                    assert isinstance(outcome, RateLimitExceeded)
        assert ledger["submitted"] == submitted
        assert ledger["succeeded"] == len(raw) + 40
        assert ledger["failed"] == 24 and ledger["pending"] == 0
        counters = {
            key: value - before[key]
            for key, value in router.stats()["router"].items()
            if key in ("completed", "failed", "shed", "failovers")
        }
        assert counters["completed"] + counters["failed"] + counters["shed"] == submitted
        assert counters["failed"] == 24 and counters["failovers"] >= 1
        assert gateway_stats["requests"] == submitted
        assert gateway_stats["responses"] + gateway_stats["errors"] == submitted

    @staticmethod
    def row_ledger_batches(router, remote, rows):
        """Two 32-row batches over the wire against a cluster rate limiter
        holding 20 tokens per batch; one replica dies under the second."""

        def settle(futures):
            return [future.exception(timeout=30) or future.result() for future in futures]

        clock = [0.0]
        router.swap_middleware([RateLimiter(rate=1.0, capacity=20, clock=lambda: clock[0])])
        outcomes = [settle(remote.submit_many("lenet-aug", rows))]
        clock[0] += 20.0  # the bucket refills for the second batch
        gate, in_flight = threading.Event(), threading.Event()

        class Gate(ServeMiddleware):
            def on_batch(self, batch) -> None:
                in_flight.set()
                gate.wait(timeout=30)

        router.swap_replica_middleware([Gate()])
        try:
            futures = remote.submit_many("lenet-aug", rows)
            assert in_flight.wait(timeout=30), "the batch never reached a replica"
            busy = [rid for rid in router.replica_ids() if router.replica(rid).in_flight]
            router.replica(busy[0]).kill()
        finally:
            gate.set()
        outcomes.append(settle(futures))
        return outcomes

    def test_proxy_submit_path_over_the_wire(self, obfuscated_job):
        """ExtractionProxy.submit works unchanged against a RemoteClient."""
        job, data = obfuscated_job
        raw = [np.asarray(sample) for sample in data.validation.samples[:4]]
        router = make_cluster()
        CloudSession.publish(job, router, "lenet-aug")
        router.start()
        # Per-sample reference calls so the noise-draw order matches submit's
        # one-augment-per-request pattern on the remote side.
        reference_proxy = ExtractionProxy(job.secrets)
        expected = [reference_proxy.predict(router, "lenet-aug", sample) for sample in raw]
        with router:
            with GatewayServer(router) as gateway:
                with RemoteClient(*gateway.address) as remote:
                    proxy = ExtractionProxy(job.secrets)
                    futures = [proxy.submit(remote, "lenet-aug", sample) for sample in raw]
                    outputs = [future.result(timeout=60) for future in futures]
        for output, reference in zip(outputs, expected):
            assert output.tobytes() == reference.tobytes()

    def test_tenant_rides_the_handshake_into_admission(self, obfuscated_job):
        job, data = obfuscated_job
        router = make_cluster()
        CloudSession.publish(job, router, "lenet-aug")
        proxy = ExtractionProxy(job.secrets)
        with router:
            with GatewayServer(router) as gateway:
                with RemoteClient(*gateway.address, tenant="vip") as remote:
                    proxy.predict(remote, "lenet-aug", np.asarray(data.validation.samples[0]))
                    admission = router.admission.stats()
        assert admission["admitted"] >= 1
        assert admission["dispatched"] >= 1

    def test_handshake_terms_reach_the_middleware_context(self, obfuscated_job):
        """HELLO tenant + deadline surface in the cluster RequestContext."""
        job, data = obfuscated_job
        observed = []

        class Recorder(ServeMiddleware):
            def on_request(self, context):
                observed.append((context.tenant, context.deadline, context.source))

        router = ClusterRouter(
            [
                ReplicaWorker(
                    "replica-0",
                    batcher=Batcher(max_batch_size=8, max_wait=0.002, padding="full"),
                )
            ],
            middleware=[Recorder()],
        )
        CloudSession.publish(job, router, "lenet-aug")
        proxy = ExtractionProxy(job.secrets)
        with router:
            with GatewayServer(router) as gateway:
                with RemoteClient(*gateway.address, tenant="vip", deadline=30.0) as remote:
                    proxy.predict(remote, "lenet-aug", np.asarray(data.validation.samples[0]))
        assert observed
        tenant, deadline, source = observed[0]
        assert tenant == "vip"
        assert source == "cluster"
        assert deadline is not None  # absolute = router clock + the HELLO's 30s


class TestZeroLossDrain:
    def test_mid_run_drain_loses_no_inflight_requests(self):
        """8 concurrent clients hammer; the gateway drains mid-run.

        Every request must resolve: either a correct result (accepted before
        the drain edge) or a typed ServerStopped (after it).  Anything else —
        a hang, a ConnectionClosed, a wrong payload — is a lost request.
        """
        backend = EchoBackend(delay=0.01)
        server = GatewayServer(backend, max_inflight=8)
        server.start()
        num_clients = 8
        per_client = 40
        results = {index: {"ok": 0, "stopped": 0, "other": []} for index in range(num_clients)}
        barrier = threading.Barrier(num_clients + 1)

        def client_loop(index: int) -> None:
            with RemoteClient(*server.address, window=4) as client:
                barrier.wait(timeout=30)
                for i in range(per_client):
                    value = float(index * 1000 + i)
                    try:
                        out = client.predict("m", np.full(4, value, dtype=np.float32))
                    except ServerStopped:
                        results[index]["stopped"] += 1
                    except BaseException as error:  # noqa: BLE001 - recorded
                        results[index]["other"].append(repr(error))
                    else:
                        if np.array_equal(out, np.full(4, value * 2.0, dtype=np.float32)):
                            results[index]["ok"] += 1
                        else:
                            results[index]["other"].append(f"wrong payload for {value}")

        threads = [
            threading.Thread(target=client_loop, args=(index,)) for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        time.sleep(0.15)  # let the hammer reach steady state
        server.stop()  # mid-run drain
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a client hung: lost request"

        total_ok = sum(entry["ok"] for entry in results.values())
        total_stopped = sum(entry["stopped"] for entry in results.values())
        others = [problem for entry in results.values() for problem in entry["other"]]
        assert not others, others
        assert total_ok + total_stopped == num_clients * per_client
        assert total_ok > 0, "drain should have let some requests complete"
        assert total_stopped > 0, "drain happened mid-run, some requests must be rejected"
        # The gateway's own ledger balances: every accepted request answered.
        stats = server.stats()
        assert stats["responses"] == total_ok
        assert stats["inflight"] == 0

    def test_drain_with_cluster_backend(self, obfuscated_job):
        """Drain over a real cluster: accepted obfuscated requests complete."""
        job, data = obfuscated_job
        router = make_cluster()
        CloudSession.publish(job, router, "lenet-aug")
        proxy = ExtractionProxy(job.secrets)
        raw = [np.asarray(sample) for sample in data.validation.samples[:8]]
        with router:
            gateway = GatewayServer(router)
            gateway.start()
            client = RemoteClient(*gateway.address, window=8)
            try:
                futures = [proxy.submit(client, "lenet-aug", sample) for sample in raw]
                gateway.stop()
                outcomes = {"ok": 0, "stopped": 0}
                for future in futures:
                    try:
                        output = future.result(timeout=60)
                    except ServerStopped:
                        outcomes["stopped"] += 1
                    else:
                        assert output.ndim >= 1
                        outcomes["ok"] += 1
                assert outcomes["ok"] + outcomes["stopped"] == len(raw)
            finally:
                client.close()
                gateway.stop()
