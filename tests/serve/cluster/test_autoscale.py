"""Elastic topology: scaling policies, warm-before-cutover, the spike pin.

The acceptance scenario this file exists for: a queue-depth policy grows the
cluster 2 → 6 replicas under a submit spike, every request resolves with a
result (zero lost, ledger balanced), no replica serves a request before its
shard's bundles are warmed, and the topology drains back to 2 once idle.
"""

from __future__ import annotations

from concurrent.futures import wait

import numpy as np
import pytest

from repro.models import model_factory
from repro.serve import (
    Autoscaler,
    Batcher,
    ClusterRouter,
    ConsistentHashPolicy,
    LatencyTargetPolicy,
    ModelStats,
    QueueDepthPolicy,
    ReplicaWorker,
    autoscaler_from_spec,
)
from repro.serve.cluster.autoscale import (
    NOOP,
    SCALE_DOWN,
    SCALE_UP,
    Observation,
    ScalingPolicy,
    UnknownScalingPolicyError,
    build_scaling_policy,
    register_scaling_policy,
    registered_scaling_policies,
)
from repro.serve.middleware.config import ConfigError, StackDefinitionError, spec_from_toml
from repro.serve.stats import LATENCY_WINDOW

from ..conftest import lenet_bundle

VNODES = 32


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds: float):
        self.now += seconds


def make_observation(**overrides) -> Observation:
    values = dict(
        replica_count=2,
        queue_depth=0,
        in_flight=0,
        p95_ms=0.0,
        batch_fill=0.0,
        failovers=0,
        shed=0,
        timestamp=0.0,
    )
    values.update(overrides)
    return Observation(**values)


class WarmGuardReplica(ReplicaWorker):
    """Fails any request that reaches it before its bundle is instance-warm.

    Only autoscaler-created replicas use this subclass, so the assertion is
    exactly the warm-before-placement guarantee: if the executor ever let a
    request land on a cold shard, the request (or the sync call) fails and
    the zero-lost/ledger checks below catch it.
    """

    served_cold: list = []

    def _assert_warm(self, model_id: str) -> None:
        if model_id in self.registry and model_id not in self.registry.cached_ids():
            WarmGuardReplica.served_cold.append((self.replica_id, model_id))
            raise AssertionError(f"{self.replica_id} served '{model_id}' cold")

    def predict_batch(self, model_id, samples, tenant="default"):
        self._assert_warm(model_id)
        return super().predict_batch(model_id, samples, tenant=tenant)

    def submit_many(self, model_id, samples, tenant="default"):
        self._assert_warm(model_id)
        return super().submit_many(model_id, samples, tenant=tenant)


def make_replica(replica_id: str, cls=ReplicaWorker, **batcher_kwargs) -> ReplicaWorker:
    batcher_kwargs.setdefault("max_batch_size", 4)
    batcher_kwargs.setdefault("max_wait", 0.005)
    batcher_kwargs.setdefault("padding", "full")
    return cls(replica_id, batcher=Batcher(**batcher_kwargs), num_workers=1)


def make_cluster(replica_ids=("seed-0", "seed-1"), replication_factor=2, **kwargs):
    kwargs.setdefault(
        "placement", ConsistentHashPolicy(replication_factor=replication_factor, vnodes=VNODES)
    )
    return ClusterRouter([make_replica(rid) for rid in replica_ids], **kwargs)


def register_models(router: ClusterRouter, model_ids=("lenet",)) -> None:
    for index, model_id in enumerate(model_ids):
        router.register(
            model_id,
            lenet_bundle(seed=3 + index),
            model_factory("lenet", in_channels=1, seed=3 + index),
            metadata={"input_shape": [1, 28, 28], "input_dtype": "float32"},
        )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestQueueDepthPolicy:
    def test_band_must_have_width(self):
        with pytest.raises(ValueError):
            QueueDepthPolicy(high=2.0, low=2.0)

    def test_consecutive_breaches_required(self):
        policy = QueueDepthPolicy(high=4, low=1, breach_count=2, cooldown=0, clock=FakeClock())
        hot = make_observation(queue_depth=20)
        assert policy.decide(hot).action == NOOP  # first breach arms only
        assert policy.decide(hot).action == SCALE_UP

    def test_breach_streak_resets_inside_band(self):
        policy = QueueDepthPolicy(high=4, low=1, breach_count=2, cooldown=0, clock=FakeClock())
        hot = make_observation(queue_depth=20)
        calm = make_observation(queue_depth=4)  # 2/replica: inside the band
        assert policy.decide(hot).action == NOOP
        assert policy.decide(calm).action == NOOP  # streak reset
        assert policy.decide(hot).action == NOOP  # re-armed, not fired
        assert policy.decide(hot).action == SCALE_UP

    def test_scale_down_below_low_watermark(self):
        policy = QueueDepthPolicy(high=4, low=1, breach_count=1, cooldown=0, clock=FakeClock())
        assert policy.decide(make_observation(queue_depth=0)).action == SCALE_DOWN

    def test_cooldown_holds_noop_then_releases(self):
        clock = FakeClock()
        policy = QueueDepthPolicy(high=4, low=1, breach_count=1, cooldown=5.0, clock=clock)
        hot = make_observation(queue_depth=40)
        assert policy.decide(hot).action == SCALE_UP
        decision = policy.decide(hot)
        assert decision.action == NOOP and "cooldown" in decision.reason
        clock.advance(5.0)
        assert policy.decide(hot).action == SCALE_UP  # streak survived the hold

    def test_describe_carries_the_band(self):
        described = QueueDepthPolicy(high=8, low=1).describe()
        assert described["name"] == "queue_depth"
        assert described["high"] == 8.0 and described["low"] == 1.0


class TestLatencyTargetPolicy:
    def test_watermarks_derive_from_target(self):
        policy = LatencyTargetPolicy(target_p95_ms=100.0, scale_down_fraction=0.25)
        assert policy.high == 100.0 and policy.low == 25.0

    def test_scale_up_past_target(self):
        policy = LatencyTargetPolicy(
            target_p95_ms=50.0, breach_count=1, cooldown=0, clock=FakeClock()
        )
        slow = make_observation(p95_ms=80.0, in_flight=3)
        assert policy.decide(slow).action == SCALE_UP

    def test_idle_cluster_reads_zero_latency(self):
        # The p95 window ages by wall clock: once the last slow request is a
        # window old, the signal reads 0 and the topology drains back.
        clock = FakeClock()
        stats = ModelStats(max_batch_size=4, clock=clock)
        stats.record_batch(4, 4, [0.4] * 4)
        clock.advance(LATENCY_WINDOW)
        policy = LatencyTargetPolicy(target_p95_ms=50.0, breach_count=1, cooldown=0, clock=clock)
        idle = make_observation(p95_ms=stats.snapshot()["p95_latency_ms"])
        assert policy.signal(idle) == 0.0
        assert policy.decide(idle).action == SCALE_DOWN

    def test_a_live_spike_fires_and_ages_out_by_clock(self):
        clock = FakeClock()
        stats = ModelStats(max_batch_size=4, clock=clock)
        policy = LatencyTargetPolicy(target_p95_ms=50.0, breach_count=1, cooldown=0, clock=clock)

        def busy() -> Observation:  # backlog stays high throughout
            return make_observation(p95_ms=stats.snapshot()["p95_latency_ms"], in_flight=5)

        stats.record_batch(40, 40, [0.2] * 40)
        assert policy.signal(busy()) == 200.0
        assert policy.decide(busy()).action == SCALE_UP
        clock.advance(LATENCY_WINDOW - 1.0)
        assert policy.signal(busy()) == 200.0  # still inside the window
        clock.advance(1.0)  # no new traffic: the spike ages out on its own
        assert policy.signal(busy()) == 0.0
        assert policy.decide(busy()).action == SCALE_DOWN

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatencyTargetPolicy(target_p95_ms=0)
        with pytest.raises(ValueError):
            LatencyTargetPolicy(target_p95_ms=10, scale_down_fraction=1.5)


class TestObservation:
    def test_backlog_sums_queue_and_in_flight(self):
        obs = make_observation(queue_depth=3, in_flight=5, replica_count=4)
        assert obs.backlog == 8
        assert obs.backlog_per_replica == 2.0


# ----------------------------------------------------------------------
# Placement preview
# ----------------------------------------------------------------------
class TestPreviewOwners:
    def test_preview_matches_committed_ownership(self):
        # Ring points are a pure function of replica id, so the scratch-ring
        # preview must agree exactly with what on_membership_change commits.
        policy = ConsistentHashPolicy(replication_factor=2, vnodes=VNODES)
        ids = ["r0", "r1", "r2", "r3"]
        models = [f"model-{i}" for i in range(12)]
        preview = policy.preview_owners(models, ids)
        policy.on_membership_change(ids)
        for model_id in models:
            committed = policy.ring.preference_list(model_id, count=2)
            assert preview[model_id] == committed

    def test_base_policy_replicates_everywhere(self):
        from repro.serve import PlacementPolicy

        preview = PlacementPolicy().preview_owners(["m1", "m2"], ["a", "b"])
        assert preview == {"m1": ["a", "b"], "m2": ["a", "b"]}


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TestAutoscalerExecutor:
    def test_bounds_validation(self):
        router = make_cluster()
        policy = QueueDepthPolicy(clock=FakeClock())
        with pytest.raises(ValueError):
            Autoscaler(router, policy, make_replica, min_replicas=0)
        with pytest.raises(ValueError):
            Autoscaler(router, policy, make_replica, min_replicas=4, max_replicas=2)

    def test_scale_up_warms_assigned_bundles_before_join(self):
        router = make_cluster(replication_factor=2)
        register_models(router, ("lenet", "lenet-b", "lenet-c"))
        joined = []
        router.add_membership_listener(lambda event, rid: joined.append((event, rid)))
        scaler = Autoscaler(
            router,
            QueueDepthPolicy(clock=FakeClock()),
            make_replica,
            min_replicas=1,
            max_replicas=8,
            clock=FakeClock(),
        )
        (new_id,) = scaler.scale_up()
        assert joined == [("join", new_id)]
        replica = router.replica(new_id)
        plan = router.placement.preview_owners(router.model_ids(), router.replica_ids())
        assigned = [mid for mid, owners in plan.items() if new_id in owners]
        for model_id in assigned:
            assert model_id in replica.registry
            # Instance-warm, not merely registered: the LRU cache holds it.
            assert model_id in replica.registry.cached_ids()
        # Non-assigned models were not published (shard-resident caches).
        for model_id in set(router.model_ids()) - set(assigned):
            assert model_id not in replica.registry
        stats = scaler.stats()
        assert stats["warmed_bundles"] == len(assigned)
        assert stats["primed_forwards"] == len(assigned)

    def test_scale_down_migrates_sole_owned_bundles(self):
        # replication_factor=1: every model has exactly one owner, so the
        # victim's shard must move to a survivor before the drain.
        router = make_cluster(("seed-0", "seed-1", "seed-2"), replication_factor=1)
        models = ("lenet", "lenet-b", "lenet-c", "lenet-d")
        register_models(router, models)
        scaler = Autoscaler(
            router,
            QueueDepthPolicy(clock=FakeClock()),
            make_replica,
            min_replicas=1,
            clock=FakeClock(),
        )
        before = router.shard_map()
        assert all(len(owners) == 1 for owners in before.values())
        # Remove a replica that actually owns shards, so migration must run.
        victim = before[models[0]][0]
        victims_models = [mid for mid, owners in before.items() if owners == [victim]]
        assert victims_models
        removed = scaler.scale_down(victim)
        assert removed == victim
        assert victim not in router.replica_ids()
        after = router.shard_map()
        for model_id in models:
            assert len(after[model_id]) == 1, f"'{model_id}' lost its only shard"
        for model_id in victims_models:
            new_owner = after[model_id][0]
            assert new_owner != victim
            # The migrated shard is instance-warm on its new owner.
            assert model_id in router.replica(new_owner).registry.cached_ids()

    def test_scale_down_picks_least_loaded(self):
        router = make_cluster(("seed-0", "seed-1", "seed-2"))
        register_models(router)
        scaler = Autoscaler(
            router, QueueDepthPolicy(clock=FakeClock()), make_replica, clock=FakeClock()
        )
        # All idle: the id tie-break picks the lexicographically first.
        assert scaler.scale_down() == "seed-0"

    def test_step_clamps_at_bounds(self):
        clock = FakeClock()
        router = make_cluster(("seed-0", "seed-1"))
        register_models(router)
        policy = QueueDepthPolicy(high=4, low=1, breach_count=1, cooldown=0, clock=clock)
        scaler = Autoscaler(
            router, policy, make_replica, min_replicas=2, max_replicas=2, clock=clock
        )
        decision = scaler.step()  # idle → scale_down verdict, clamped at min
        assert decision.action == NOOP and "min_replicas" in decision.reason
        assert len(router) == 2
        assert scaler.stats()["clamped"] == 1

    def test_stats_ride_in_router_stats(self):
        router = make_cluster()
        register_models(router)
        scaler = Autoscaler(
            router, QueueDepthPolicy(clock=FakeClock()), make_replica, clock=FakeClock()
        )
        section = router.stats()["autoscaler"]
        assert section["replicas"] == 2
        assert section["policy"]["name"] == "queue_depth"
        assert section["last_decision"] is None
        scaler.step()
        assert router.stats()["autoscaler"]["cycles"] == 1

    def test_background_loop_runs_cycles(self):
        router = make_cluster()
        register_models(router)
        scaler = Autoscaler(
            router,
            QueueDepthPolicy(clock=FakeClock()),
            make_replica,
            interval=0.01,
            clock=FakeClock(),
        )
        import time as _time

        with scaler:
            assert scaler.running
            deadline = _time.monotonic() + 5.0
            while scaler.stats()["cycles"] < 3 and _time.monotonic() < deadline:
                _time.sleep(0.01)
        assert not scaler.running
        assert scaler.stats()["cycles"] >= 3


# ----------------------------------------------------------------------
# Declarative configuration
# ----------------------------------------------------------------------
SPEC = """
default_stack = "plain"

[stacks.plain]
middleware = [ { name = "telemetry" } ]

[cluster]
cluster_stack = "plain"

[cluster.autoscale]
policy = "queue_depth"
high = 6.0
low = 1.0
breach_count = 1
cooldown = 0.0
min_replicas = 2
max_replicas = 6
interval = 0.05
"""


class TestAutoscaleConfig:
    def test_spec_round_trip(self):
        spec = spec_from_toml(SPEC)
        assert spec.autoscale["policy"] == "queue_depth"
        assert spec.cluster == {"cluster_stack": "plain"}  # autoscale split out
        router = make_cluster()
        register_models(router)
        clock = FakeClock()
        scaler = autoscaler_from_spec(router, spec, make_replica, clock=clock)
        assert scaler.min_replicas == 2 and scaler.max_replicas == 6
        assert scaler.interval == 0.05
        assert scaler.policy.high == 6.0 and scaler.policy.breach_count == 1
        assert scaler.policy._clock is clock  # injected, so tests never sleep

    def test_spec_without_autoscale_returns_none(self):
        router = make_cluster()
        spec = spec_from_toml('[stacks.plain]\nmiddleware = [ { name = "telemetry" } ]\n')
        assert autoscaler_from_spec(router, spec, make_replica) is None

    def test_autoscale_table_requires_policy(self):
        with pytest.raises(StackDefinitionError):
            spec_from_toml("[cluster.autoscale]\nhigh = 4.0\n")

    def test_autoscale_values_must_be_scalars(self):
        with pytest.raises(StackDefinitionError):
            spec_from_toml('[cluster.autoscale]\npolicy = "queue_depth"\nhigh = [1, 2]\n')

    def test_unknown_policy_is_typed(self):
        with pytest.raises(UnknownScalingPolicyError):
            build_scaling_policy("who", {})

    def test_bad_policy_kwargs_are_config_errors(self):
        with pytest.raises(ConfigError):
            build_scaling_policy("latency_target", {"target_p95_ms": -1})
        with pytest.raises(ConfigError):
            build_scaling_policy("queue_depth", {"no_such_knob": 1})
        with pytest.raises(ConfigError):
            build_scaling_policy("queue_depth", {"high": True, "low": 0.5})

    def test_register_custom_policy(self):
        class Never(ScalingPolicy):
            name = "never"

            def decide(self, observation):
                from repro.serve.cluster.autoscale import ScalingDecision

                return ScalingDecision(NOOP, "never scales")

        register_scaling_policy("never-test", Never, replace=True)
        try:
            assert "never-test" in registered_scaling_policies()
            policy = build_scaling_policy("never-test", {})
            assert policy.decide(make_observation()).action == NOOP
        finally:
            from repro.serve.cluster import autoscale as _mod

            _mod.POLICIES.unregister("never-test")

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(ConfigError):
            register_scaling_policy("queue_depth", QueueDepthPolicy)


# ----------------------------------------------------------------------
# The acceptance pin: spike → 2 → 6 → drain → 2, zero lost requests
# ----------------------------------------------------------------------
class TestSpikeScenario:
    def test_spike_scales_out_serves_everything_and_drains_back(self):
        WarmGuardReplica.served_cold = []
        models = ("lenet", "lenet-b", "lenet-c")
        # Deliberately slow replicas (small batches, long waits) so the burst
        # outlives the scale-up phase and the backlog signal stays honest.
        # Seed replicas are plain workers (router.register publishes their
        # bundles without instance-warming — warm-up is the *autoscaler's*
        # guarantee, so only its replicas carry the cold-serve guard).
        router = ClusterRouter(
            [
                ReplicaWorker(rid, batcher=Batcher(max_batch_size=2, max_wait=0.02, padding="full"))
                for rid in ("seed-0", "seed-1")
            ],
            placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES),
        )
        register_models(router, models)
        policy = QueueDepthPolicy(high=4.0, low=1.0, breach_count=1, cooldown=0.0)
        scaler = Autoscaler(
            router,
            policy,
            lambda rid: WarmGuardReplica(
                rid, batcher=Batcher(max_batch_size=2, max_wait=0.02, padding="full")
            ),
            min_replicas=2,
            max_replicas=6,
        )
        rng = np.random.default_rng(11)
        burst = rng.standard_normal((240, 1, 28, 28)).astype(np.float32)
        with router:
            futures = [
                router.submit(models[i % len(models)], sample) for i, sample in enumerate(burst)
            ]
            # Spike: every policy-driven step should grow the cluster while
            # the backlog holds; 2 → 6 takes four scale-up cycles.
            for _ in range(12):
                if len(router) == 6:
                    break
                scaler.step()
            peak = len(router)
            assert peak == 6, f"spike only reached {peak} replicas"
            done, pending = wait(futures, timeout=60)
            assert not pending, f"{len(pending)} requests never resolved"
            # Zero lost, zero errors: every future carries a real result.
            for future in futures:
                result = future.result()
                assert isinstance(result, np.ndarray) and result.shape == (10,)
            assert WarmGuardReplica.served_cold == []
            # Drain: idle observations walk the topology back to min.
            for _ in range(12):
                if len(router) == 2:
                    break
                scaler.step()
            assert len(router) == 2, f"drain stalled at {len(router)} replicas"
        # Ledger: completed accounts for every submitted request, nothing
        # failed, nothing shed — the elastic transitions dropped no work.
        assert router.counter("completed") == len(burst)
        assert router.counter("failed") == 0
        assert router.counter("shed") == 0
        stats = scaler.stats()
        assert stats["scale_up"] >= 4 and stats["scale_down"] >= 4
        assert [event["action"] for event in stats["events"]].count(SCALE_UP) >= 4
