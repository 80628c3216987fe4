"""The server-push event plane: SUBSCRIBE/EVENT frames end to end.

A client subscribes to topics; the gateway fans out alert, health and
autoscale transitions as EVENT frames without blocking the request path.
Sequence numbers are minted from one monotonic counter across all topics,
so cross-topic ordering is pinned.
"""

from __future__ import annotations

import time

import pytest

from repro.serve import (
    AlertManager,
    GatewayServer,
    HealthMonitor,
    ProtocolError,
    RemoteClient,
    SLO,
    WindowedSeriesStore,
)
from repro.serve.observability.slo import BurnRateRule, LatencyObjective


def wait_until(condition, timeout: float = 5.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return condition()


class TestSubscribe:
    def test_subscribe_acks_the_granted_topics(self, gateway):
        with RemoteClient(*gateway.address) as client:
            granted = client.subscribe(["health", "alert"])
        assert granted == ["alert", "health"]
        assert gateway.stats()["subscriptions"] == 1

    def test_unknown_topic_is_a_typed_protocol_error(self, gateway):
        with RemoteClient(*gateway.address) as client:
            with pytest.raises(ProtocolError, match="unknown event topics"):
                client.subscribe(["alert", "bogus"])

    def test_resubscribe_replaces_and_empty_unsubscribes(self, gateway):
        with RemoteClient(*gateway.address) as client:
            client.subscribe(["alert"])
            client.subscribe(["health"])  # replaces, not unions
            gateway.publish_event("alert", "firing", {"x": 1})
            gateway.publish_event("health", "replica", {"y": 2})
            event = client.wait_for_event(timeout=5.0)
            assert event.topic == "health"
            assert client.subscribe([]) == []  # unsubscribed
            gateway.publish_event("health", "replica", {"z": 3})
            time.sleep(0.2)
            assert client.events() == []


class TestPublish:
    def test_published_events_reach_subscribed_clients(self, gateway):
        with RemoteClient(*gateway.address) as client:
            client.subscribe(["alert"])
            seq = gateway.publish_event("alert", "firing", {"slo": "latency"})
            assert seq > 0
            event = client.wait_for_event(topic="alert", timeout=5.0)
        assert event.name == "firing"
        assert event.payload == {"slo": "latency"}
        assert event.seq == seq
        assert event.timestamp > 0

    def test_unsubscribed_clients_see_nothing(self, gateway):
        with RemoteClient(*gateway.address) as client:
            gateway.publish_event("alert", "firing", {})
            time.sleep(0.2)
            assert client.events() == []

    def test_seq_is_monotonic_across_topics(self, gateway):
        with RemoteClient(*gateway.address) as client:
            client.subscribe(["alert", "health", "autoscale"])
            expected = []
            for topic, name in [
                ("alert", "firing"),
                ("health", "replica"),
                ("autoscale", "join"),
                ("alert", "resolved"),
            ]:
                expected.append(gateway.publish_event(topic, name, {}))
            assert wait_until(lambda: len(client._pool[0]._events) >= 4)
            events = client.events()
        sequences = [event.seq for event in events]
        assert sequences == expected
        assert sequences == sorted(sequences)

    def test_publish_with_no_server_running_is_dropped(self, echo_backend):
        server = GatewayServer(echo_backend)
        assert server.publish_event("alert", "firing", {}) == 0
        assert server.stats()["events_dropped"] == 1

    def test_events_drain_oldest_first_and_do_not_block_requests(self, gateway):
        import numpy as np

        with RemoteClient(*gateway.address) as client:
            client.subscribe(["health"])
            for index in range(5):
                gateway.publish_event("health", "replica", {"index": index})
            # The request path is untouched by event fan-out.
            output = client.predict("any-model", np.ones((2, 2), dtype=np.float32))
            assert output.tolist() == [[2.0, 2.0], [2.0, 2.0]]
            assert wait_until(lambda: len(client._pool[0]._events) >= 5)
            events = client.events()
        assert [event.payload["index"] for event in events] == [0, 1, 2, 3, 4]
        assert client.events() == []  # drained

    def test_wait_for_event_times_out_cleanly(self, gateway):
        with RemoteClient(*gateway.address) as client:
            client.subscribe(["alert"])
            with pytest.raises(TimeoutError):
                client.wait_for_event(topic="alert", timeout=0.2)


class TestEventSources:
    def test_alert_manager_transitions_are_pushed(self, echo_backend):
        store = WindowedSeriesStore(interval=0.1, buckets=64)
        alerts = AlertManager(store)
        alerts.add_slo(
            SLO(
                "edge-latency",
                LatencyObjective("gateway.latency_ms", target_ms=10.0),
                rules=[BurnRateRule(0.2, 0.4, factor=1.0)],
            )
        )
        with GatewayServer(echo_backend, alerts=alerts) as gateway:
            with RemoteClient(*gateway.address) as client:
                client.subscribe(["alert"])
                for _ in range(50):
                    store.record_observation("gateway.latency_ms", 100.0)
                time.sleep(0.45)  # both windows see only bad samples
                for _ in range(50):
                    store.record_observation("gateway.latency_ms", 100.0)
                alerts.evaluate()
                event = client.wait_for_event(topic="alert", name="firing", timeout=5.0)
        assert event.payload["slo"] == "edge-latency"
        assert event.payload["state"] == "firing"
        # The manager's stats surface rides the gateway's metrics plane.
        assert gateway.metrics.collect(["slo"])["slo"]["fired"] == 1

    def test_health_monitor_transitions_are_pushed(self, echo_backend):
        monitor = HealthMonitor(failure_threshold=2)
        monitor.register("r0")
        echo_backend.health = monitor
        with GatewayServer(echo_backend) as gateway:
            with RemoteClient(*gateway.address) as client:
                client.subscribe(["health"])
                monitor.record_failure("r0")
                monitor.record_failure("r0")  # healthy -> unhealthy
                event = client.wait_for_event(topic="health", timeout=5.0)
        assert event.name == "replica"
        assert event.payload["replica_id"] == "r0"
        assert event.payload["from"] == "healthy"
        assert event.payload["to"] == "unhealthy"

    def test_membership_changes_are_pushed(self, echo_backend):
        listeners = []
        echo_backend.add_membership_listener = listeners.append
        with GatewayServer(echo_backend) as gateway:
            with RemoteClient(*gateway.address) as client:
                client.subscribe(["autoscale"])
                [notify] = listeners
                notify("join", "auto-1")
                event = client.wait_for_event(topic="autoscale", timeout=5.0)
        assert event.name == "join"
        assert event.payload == {"replica_id": "auto-1"}


class TestClientBuffering:
    def test_buffer_is_bounded_drop_oldest(self, gateway):
        from repro.serve.gateway.client import MAX_BUFFERED_EVENTS

        with RemoteClient(*gateway.address) as client:
            client.subscribe(["health"])
            total = MAX_BUFFERED_EVENTS + 40
            last_seq = 0
            for index in range(total):
                last_seq = gateway.publish_event("health", "replica", {"index": index})
            assert wait_until(
                lambda: any(event.seq == last_seq for event in client._pool[0]._events)
            )
            events = client.events()
        assert len(events) <= MAX_BUFFERED_EVENTS
        # The newest events survive; the overflow dropped from the front.
        assert events[-1].seq == last_seq

    def test_only_the_first_pool_connection_subscribes(self, gateway):
        with RemoteClient(*gateway.address, pool_size=3) as client:
            client.subscribe(["alert"])
            gateway.publish_event("alert", "firing", {})
            event = client.wait_for_event(topic="alert", timeout=5.0)
            assert event.name == "firing"
        # Exactly one server-side subscription was taken for three connections.
        assert gateway.stats()["subscriptions"] == 1
