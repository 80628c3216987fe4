"""Acceptance: one request, one trace, across the wire; OBSERVE pulls it all.

The ISSUE's acceptance scenario: a predict through ``RemoteClient`` against a
two-replica cluster at 100% sampling yields **one trace** — client submit →
gateway → router → admission queue → dispatch → replica server → middleware
hooks → model — linked by parent ids across the client/server boundary, and
an ``OBSERVE`` round trip returns the cluster-wide metrics snapshot plus that
trace's server-side spans.  A mid-run replica kill produces a complete,
error-annotated trace with zero orphans; always-sample-on-error keeps failure
traces even at ``sample_rate = 0``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.models import model_factory
from repro.serve import (
    Batcher,
    ClusterRouter,
    ConsistentHashPolicy,
    FailoverExhausted,
    GatewayServer,
    RemoteClient,
    ReplicaWorker,
    Telemetry,
    Tracer,
)

from ..conftest import lenet_bundle


def make_traced_cluster(tracer: Tracer) -> ClusterRouter:
    replicas = [
        ReplicaWorker(
            f"r{index}",
            batcher=Batcher(max_batch_size=8, max_wait=0.002, padding="full"),
            middleware=[Telemetry()],
            tracer=tracer,
        )
        for index in range(2)
    ]
    return ClusterRouter(
        replicas,
        placement=ConsistentHashPolicy(replication_factor=2, vnodes=16),
        tracer=tracer,
    )


def register_lenet(router: ClusterRouter, model_id: str = "lenet") -> None:
    router.register(model_id, lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))


def assert_linked(spans, expect_roots: int = 1) -> None:
    """Structural trace checks: one trace id, resolvable parents, no orphans."""
    assert spans, "expected a non-empty trace"
    assert len({span["trace_id"] for span in spans}) == 1
    by_id = {span["span_id"]: span for span in spans}
    roots = [span for span in spans if span["parent_id"] is None]
    assert len(roots) == expect_roots
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in by_id, f"orphan span: {span['name']}"


@pytest.fixture
def sample() -> np.ndarray:
    return np.random.default_rng(5).standard_normal((1, 28, 28)).astype(np.float32)


class TestOneRequestOneTrace:
    def test_remote_predict_traces_every_hop_across_the_wire(self, sample):
        server_tracer = Tracer(sample_rate=1.0, rng=random.Random(1))
        client_tracer = Tracer(sample_rate=1.0, rng=random.Random(2))
        router = make_traced_cluster(server_tracer)
        register_lenet(router)
        with router:
            with GatewayServer(router, tracer=server_tracer, server_id="obs") as gateway:
                with RemoteClient(*gateway.address, tracer=client_tracer) as client:
                    client.predict("lenet", sample)
                    payload = client.observe()

        client_spans = client_tracer.recent_spans()
        assert [span["name"] for span in client_spans] == ["client.submit"]
        remote_spans = payload["spans"]
        union = client_spans + remote_spans
        assert_linked(union)  # one trace, the client root, zero orphans

        # Every hop of the acceptance path is present, on the right side.
        names = {span["name"] for span in remote_spans}
        assert {
            "gateway.request",
            "router.submit",
            "router.admission",
            "router.dispatch",
            "server.request",
            "model",
            "Telemetry.on_request",
            "Telemetry.on_response",
        } <= names

        # The wire link: the gateway span's parent is the client's root span.
        by_name = {span["name"]: span for span in remote_spans}
        [client_root] = client_spans
        assert by_name["gateway.request"]["parent_id"] == client_root["span_id"]
        assert by_name["gateway.request"]["trace_id"] == client_root["trace_id"]
        # Nobody re-rolled sampling along the way.
        assert all(span["sampled"] for span in union)

    def test_observe_returns_the_unified_cluster_snapshot(self, sample):
        tracer = Tracer(sample_rate=1.0, rng=random.Random(3))
        router = make_traced_cluster(tracer)
        register_lenet(router)
        with router:
            with GatewayServer(router, tracer=tracer, server_id="obs") as gateway:
                with RemoteClient(*gateway.address) as client:
                    client.predict("lenet", sample)
                    payload = client.observe()
                    metrics_only = client.observe(what="metrics")
                    spans_only = client.observe(what="spans", max_spans=4)

        assert payload["server_id"] == "obs"
        metrics = payload["metrics"]
        # One snapshot spans the edge (gateway) and the whole cluster.
        for section in ("gateway", "router", "admission", "health", "replicas", "models"):
            assert section in metrics, f"missing metrics section '{section}'"
        assert metrics["gateway"]["responses"] == 1
        assert metrics["admission"]["dispatched"] >= 1
        assert set(metrics["replicas"]) == {"r0", "r1"}
        assert payload["tracer"]["spans_retained"] > 0
        assert "metrics" not in spans_only and "spans" not in metrics_only
        assert len(spans_only["spans"]) <= 4

    def test_router_stats_is_a_view_over_the_registry(self):
        tracer = Tracer(sample_rate=1.0, rng=random.Random(4))
        router = make_traced_cluster(tracer)
        register_lenet(router)
        stats = router.stats()
        collected = router.metrics.collect(router._STATS_SECTIONS)
        assert set(stats) == set(collected) == set(router._STATS_SECTIONS)
        assert stats["shard_map"] == collected["shard_map"]

    def test_untraced_stack_serves_with_zero_spans(self, sample):
        """tracer=None is the fast path: nothing traced, everything works."""
        router = ClusterRouter(
            [
                ReplicaWorker(
                    "r0", batcher=Batcher(max_batch_size=8, max_wait=0.002)
                )
            ]
        )
        register_lenet(router)
        with router:
            with GatewayServer(router) as gateway:
                with RemoteClient(*gateway.address) as client:
                    output = client.predict("lenet", sample)
                    payload = client.observe()
        assert output.shape == (10,)
        assert payload["spans"] == [] and payload["tracer"] is None
        assert "gateway" in payload["metrics"]  # metrics still flow untraced


class TestFailureTraces:
    def test_mid_run_replica_kill_leaves_a_complete_error_annotated_trace(self, sample):
        server_tracer = Tracer(sample_rate=1.0, rng=random.Random(5))
        client_tracer = Tracer(sample_rate=1.0, rng=random.Random(6))
        router = make_traced_cluster(server_tracer)
        register_lenet(router)
        with router:
            with GatewayServer(router, tracer=server_tracer) as gateway:
                with RemoteClient(*gateway.address, tracer=client_tracer) as client:
                    client.predict("lenet", sample)  # warm: both replicas alive
                    # Freshen the health view, then kill the placement's first
                    # choice — the next dispatch genuinely attempts the corpse
                    # and must fail over.
                    router.check_health()
                    primary = router.shard_map()["lenet"][0]
                    router.replica(primary).kill()
                    output = client.predict("lenet", sample)  # succeeds via failover
                    payload = client.observe()
        assert output.shape == (10,)

        failover_root = client_tracer.recent_spans()[-1]
        trace = [
            span
            for span in payload["spans"]
            if span["trace_id"] == failover_root["trace_id"]
        ]
        assert_linked([failover_root] + trace)
        dispatches = sorted(
            (span for span in trace if span["name"] == "router.dispatch"),
            key=lambda span: span["attributes"]["attempt"],
        )
        assert len(dispatches) == 2
        assert dispatches[0]["error"] is not None  # the killed primary
        assert dispatches[0]["attributes"]["replica_id"] == primary
        assert dispatches[1]["error"] is None  # the survivor answered
        [root] = [span for span in trace if span["name"] == "router.submit"]
        assert root["attributes"]["failover_attempts"] == 2

    def test_errors_survive_sampling_off(self, sample):
        """always-sample-on-error: a dead cluster's trace is kept at rate 0."""
        tracer = Tracer(sample_rate=0.0, rng=random.Random(7))
        router = make_traced_cluster(tracer)
        register_lenet(router)
        with router:
            router.check_health()
            for replica_id in router.replica_ids():
                router.replica(replica_id).kill()
            with pytest.raises(FailoverExhausted):
                router.predict("lenet", sample)
        retained = tracer.recent_spans()
        assert retained, "error spans must be retained with sampling off"
        assert all(span["error"] is not None for span in retained)
        assert all(not span["sampled"] for span in retained)
        names = {span["name"] for span in retained}
        assert "router.submit" in names and "router.dispatch" in names
