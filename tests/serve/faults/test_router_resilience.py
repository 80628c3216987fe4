"""Router-level resilience: retry pacing, failover stats, breaker-bounded
attempts against a flapping replica — deterministic via injected sleep/clock."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import model_factory
from repro.serve import (
    Batcher,
    CircuitBreaker,
    ClusterRouter,
    ConsistentHashPolicy,
    FailoverExhausted,
    FaultInjector,
    FaultPlan,
    HealthMonitor,
    ReplicaWorker,
    RetryPolicy,
)

from ..conftest import lenet_bundle


def make_replica(replica_id: str, faults=None) -> ReplicaWorker:
    return ReplicaWorker(
        replica_id,
        batcher=Batcher(max_batch_size=8, max_wait=0.005, padding="full"),
        num_workers=1,
        faults=faults,
    )


def make_router(replica_ids=("r0", "r1", "r2"), faults=None, **kwargs):
    kwargs.setdefault("placement", ConsistentHashPolicy(replication_factor=2, vnodes=32))
    replicas = [make_replica(replica_id, faults=faults) for replica_id in replica_ids]
    return ClusterRouter(replicas, **kwargs)


def register_lenet(router: ClusterRouter) -> None:
    router.register("lenet", lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))


@pytest.fixture
def images() -> np.ndarray:
    return np.random.default_rng(11).standard_normal((4, 1, 28, 28)).astype(np.float32)


class TestRetryPacing:
    def test_failover_paces_through_the_policy_sleep(self, images):
        slept = []
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, jitter=False, sleep=slept.append)
        faults = FaultInjector(FaultPlan().crash_replica("r0").crash_replica("r1"))
        router = make_router(retry=policy, faults=faults, max_retries=3)
        register_lenet(router)
        with router:
            outputs = [router.predict("lenet", image) for image in images]
        assert len(outputs) == len(images)
        # Both crash-capable replicas may or may not be hit first depending on
        # placement, but with one row per dispatch every retryable failure
        # paid exactly one paced delay before its re-dispatch.
        stats = router.failover_stats()
        failures = sum(entry["failures"] for entry in stats["per_replica"].values())
        assert failures >= 1
        assert len(slept) == failures
        assert stats["backoff_seconds"] == pytest.approx(sum(slept))

    def test_no_policy_means_immediate_retry(self, images):
        faults = FaultInjector(FaultPlan().crash_replica("r0"))
        router = make_router(faults=faults)
        register_lenet(router)
        with router:
            outputs = router.predict_batch("lenet", list(images))
        assert len(outputs) == len(images)
        assert router.failover_stats()["backoff_seconds"] == 0.0
        assert router.failover_stats()["retry_policy"] is None


class TestFailoverStats:
    def test_stats_structure_and_counters(self, images):
        faults = FaultInjector(FaultPlan().crash_replica("r0", on_request=1))
        router = make_router(faults=faults)
        register_lenet(router)
        with router:
            router.predict_batch("lenet", list(images))
        section = router.stats()["failover"]
        attempts = sum(entry["attempts"] for entry in section["per_replica"].values())
        failures = sum(entry["failures"] for entry in section["per_replica"].values())
        assert attempts >= 1
        # Counted per row: N failed dispatches of the batch + 1 success.
        assert attempts == failures + len(images), "one batch: N failed dispatches + 1 success"

    def test_breaker_state_rides_in_failover_stats(self, images):
        health = HealthMonitor(
            failure_threshold=100,
            heartbeat_timeout=1000.0,
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=1000.0),
        )
        faults = FaultInjector(FaultPlan().crash_replica("r0", on_request=1))
        router = make_router(health=health, faults=faults, max_retries=3)
        register_lenet(router)
        with router:
            router.predict_batch("lenet", list(images))
        section = router.stats()["failover"]
        states = {
            replica_id: entry.get("breaker_state")
            for replica_id, entry in section["per_replica"].items()
        }
        assert all(state is not None for state in states.values())
        crashed = [entry for entry in section["per_replica"].values() if entry["failures"]]
        assert crashed and all(entry["breaker_trips"] >= 1 for entry in crashed)

    def test_middleware_context_sees_failover_attempts(self, images):
        from repro.serve import ServeMiddleware

        seen = []

        class Spy(ServeMiddleware):
            def on_response(self, context):
                seen.append(context.metadata.get("failover_attempts"))

        faults = FaultInjector(FaultPlan().crash_replica("r0", on_request=1))
        router = make_router(faults=faults, middleware=[Spy()], max_retries=3)
        register_lenet(router)
        with router:
            futures = [router.submit("lenet", image) for image in images]
            for future in futures:
                future.result(timeout=30)
        assert len(seen) == len(images)
        assert all(isinstance(count, int) and count >= 1 for count in seen)
        assert any(count >= 2 for count in seen) or not any(
            entry["failures"]
            for entry in router.failover_stats()["per_replica"].values()
        )


class TestBreakerBoundsAttempts:
    def test_flapping_replica_attempts_bounded_by_breaker(self, images):
        """The ISSUE pin at router level: a flapping replica (alive heartbeat,
        every request fails) receives at most breaker-threshold attempts even
        under sustained traffic, counter-asserted from failover stats."""
        health = HealthMonitor(
            failure_threshold=10_000,  # streak benching disabled: breaker only
            heartbeat_timeout=1000.0,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=1000.0),
        )
        faults = FaultInjector(
            FaultPlan().fail_replica("r0", after=1, times=-1)
        )
        router = make_router(health=health, faults=faults, max_retries=3)
        register_lenet(router)
        with router:
            for image in images:
                router.predict("lenet", image)
            for image in images:
                router.predict("lenet", image)
        stats = router.failover_stats()["per_replica"]
        flappy = stats.get("r0", {"attempts": 0})
        assert flappy["attempts"] <= 3, (
            f"breaker must cap attempts against the flapping replica, saw {flappy}"
        )
        assert router.health.breaker("r0").trips >= 1 or flappy["attempts"] == 0

    def test_exhausted_failover_is_typed(self, images):
        faults = FaultInjector(FaultPlan().fail_replica(times=-1))  # every replica
        router = make_router(faults=faults, max_retries=2)
        register_lenet(router)
        with router, pytest.raises(FailoverExhausted):
            router.predict("lenet", images[0])
