"""ClusterRouter: sharded publish, failover (zero lost requests), SLA shedding,
membership changes, cluster-wide middleware, cross-replica stats merging."""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.models import model_factory
from repro.serve import (
    Batcher,
    ClusterRouter,
    ConsistentHashPolicy,
    ConsistentHashRing,
    DeadlineExceeded,
    FailoverExhausted,
    InferenceServer,
    ModelRegistry,
    ModelStats,
    NoHealthyReplica,
    PlacementPolicy,
    PrivacyBudget,
    RateLimiter,
    RateLimitExceeded,
    ReplicaWorker,
    ServeMiddleware,
    ServerOverloaded,
    ServerStopped,
    Telemetry,
)

from ..conftest import lenet_bundle

VNODES = 32


def make_replica(replica_id: str, middleware=None, **batcher_kwargs) -> ReplicaWorker:
    batcher_kwargs.setdefault("max_batch_size", 8)
    batcher_kwargs.setdefault("max_wait", 0.005)
    batcher_kwargs.setdefault("padding", "full")  # bit-reproducible across replicas
    return ReplicaWorker(
        replica_id,
        batcher=Batcher(**batcher_kwargs),
        num_workers=1,
        middleware=middleware,
    )


def make_router(replica_ids=("r0", "r1", "r2"), middleware=None, **kwargs):
    kwargs.setdefault("placement", ConsistentHashPolicy(replication_factor=2, vnodes=VNODES))
    replicas = [make_replica(replica_id) for replica_id in replica_ids]
    return ClusterRouter(replicas, middleware=middleware, **kwargs)


def register_lenet(router: ClusterRouter, model_id: str = "lenet") -> None:
    router.register(model_id, lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))


@pytest.fixture
def images() -> np.ndarray:
    return np.random.default_rng(11).standard_normal((8, 1, 28, 28)).astype(np.float32)


@pytest.fixture
def reference_outputs(images):
    """What a single bit-reproducible server answers for the fixture images."""
    registry = ModelRegistry(capacity=2)
    registry.register("lenet", lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))
    server = InferenceServer(registry, Batcher(max_batch_size=8, padding="full"))
    return server.predict_batch("lenet", list(images))


class TestShardedCatalogue:
    def test_register_places_entries_on_replication_factor_owners(self):
        router = make_router()
        register_lenet(router)
        holders = router.shard_map()["lenet"]
        assert len(holders) == 2
        ring = ConsistentHashRing(["r0", "r1", "r2"], vnodes=VNODES)
        assert holders == ring.preference_list("lenet", count=2)

    def test_register_without_replicas_or_duplicate_id_raises(self):
        empty = ClusterRouter()
        with pytest.raises(NoHealthyReplica):
            register_lenet(empty)
        router = make_router()
        register_lenet(router)
        with pytest.raises(ValueError, match="already registered"):
            register_lenet(router)
        router.register(
            "lenet",
            lenet_bundle(),
            model_factory("lenet", in_channels=1, seed=3),
            replace=True,
        )

    def test_unregister_clears_every_holder(self):
        router = make_router()
        register_lenet(router)
        router.unregister("lenet")
        assert "lenet" not in router
        for replica_id in router.replica_ids():
            assert "lenet" not in router.replica(replica_id).registry

    def test_default_policy_replicates_everywhere(self):
        router = make_router(placement=PlacementPolicy())
        register_lenet(router)
        assert router.shard_map()["lenet"] == ["r0", "r1", "r2"]


class TestSyncServing:
    def test_predict_batch_matches_single_server(self, images, reference_outputs):
        router = make_router()
        register_lenet(router)
        with router:
            outputs = router.predict_batch("lenet", list(images))
        for output, expected in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(output, expected)

    def test_failover_when_the_primary_is_killed(self, images, reference_outputs):
        router = make_router()
        register_lenet(router)
        primary = router.shard_map()["lenet"][0]
        with router:
            # Freshen the health view first: the router still believes the
            # primary is routable when it dies, so the dispatch genuinely
            # attempts it and must fail over (a stale view would dodge the
            # kill via check_health).
            router.check_health()
            router.replica(primary).kill()
            outputs = router.predict_batch("lenet", list(images))
        for output, expected in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(output, expected)
        assert router.stats()["router"]["failovers"] >= 1
        assert router.health.snapshot()[primary]["total_failures"] >= 1

    def test_catalogue_miss_fails_over_to_an_owner(self, images, reference_outputs):
        # Non-owners raising KeyError must not poison health accounting.
        router = make_router(placement=PlacementPolicy(), max_retries=2)
        register_lenet(router)
        router.replica("r0").registry.unregister("lenet")  # simulate a misroute
        with router:
            for _ in range(4):  # whoever is tried first, an owner answers
                outputs = router.predict_batch("lenet", list(images[:2]))
                np.testing.assert_array_equal(outputs[0], reference_outputs[0])
        health = router.health.snapshot()
        assert all(record["state"] == "healthy" for record in health.values())

    def test_all_replicas_dead_raises_typed_errors(self, images):
        router = make_router(replica_ids=("r0", "r1"))
        register_lenet(router)
        with router:
            router.check_health()  # believe both healthy, then kill them
            for replica_id in router.replica_ids():
                router.replica(replica_id).kill()
            with pytest.raises(FailoverExhausted):
                router.predict("lenet", images[0])
            router.check_health()  # monitor now knows both are gone
            with pytest.raises(NoHealthyReplica):
                router.predict("lenet", images[0])

    def test_back_to_back_lone_caller_never_waits_out_max_wait(self, images):
        router = ClusterRouter(
            [make_replica(rid, max_wait=0.2) for rid in ("r0", "r1")],
            placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES),
        )
        register_lenet(router)
        with router:
            router.predict("lenet", images[0])  # build the model outside the clock
            for round_index in range(2):  # the first round settles the gap average
                began = time.perf_counter()
                for index in range(20):
                    router.predict("lenet", images[index % len(images)])
                # Waiting out max_wait each time would take 20 x 0.2 = 4 s.
                assert time.perf_counter() - began < 1.0, f"round {round_index}"

    def test_expired_deadline_sheds_before_compute(self, images):
        router = make_router()
        register_lenet(router)
        with router, pytest.raises(DeadlineExceeded):
            router.predict("lenet", images[0], deadline=-0.1)
        stats = router.stats()
        assert stats["router"]["shed"] == 1
        # no replica spent compute on the shed request
        assert stats["models"]["lenet"]["requests"] == 0


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


class TestDispatchAmongOwners:
    """The router's rule: the first owner below a full batch of outstanding
    rows, else the least loaded owner, else the non-owners."""

    @staticmethod
    @contextlib.contextmanager
    def gated_router(replica_ids, max_batch_size: int = 8):
        """A started router whose replicas hold their batches in a gate until
        the test opens it, so each replica's load is exactly the rows
        dispatched to it.  The gate opens before the router stops."""
        gate = threading.Event()

        class Gate(ServeMiddleware):
            def on_batch(self, batch) -> None:
                gate.wait(timeout=30)

        replicas = [
            make_replica(rid, middleware=[Gate()], max_batch_size=max_batch_size)
            for rid in replica_ids
        ]
        router = ClusterRouter(
            replicas, placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES)
        )
        register_lenet(router)
        with router:
            try:
                yield router, gate
            finally:
                gate.set()

    @staticmethod
    def served(router) -> dict:
        return {
            rid: replica["server"]["models"].get("lenet", {"requests": 0, "batches": 0})
            for rid, replica in router.stats()["replicas"].items()
        }

    @staticmethod
    def loads(router) -> dict:
        return {rid: router.replica(rid).load() for rid in router.replica_ids()}

    def test_concurrent_full_batches_run_one_per_owner(self):
        batch = list(np.random.default_rng(5).standard_normal((32, 1, 28, 28), dtype=np.float32))
        with self.gated_router(("r0", "r1"), max_batch_size=32) as (router, gate):
            futures = []
            clients = [
                threading.Thread(target=lambda: futures.extend(router.submit_many("lenet", batch)))
                for _ in range(2)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
            wait_until(lambda: sum(self.loads(router).values()) == 64)
            gate.set()
            for future in futures:
                assert future.result(timeout=30).shape == (10,)
        for rid, model in self.served(router).items():
            assert (model["requests"], model["batches"]) == (32, 1), rid

    def test_single_rows_stay_on_the_first_owner_until_a_full_batch(self, images):
        with self.gated_router(("r0", "r1")) as (router, gate):
            primary, secondary = router.shard_map()["lenet"]
            futures = []
            for count in range(1, 9):
                futures.append(router.submit("lenet", images[count % len(images)]))
                wait_until(lambda: self.loads(router)[primary] == count)
                assert self.loads(router)[secondary] == 0
            # A full batch is outstanding on the primary: the next row spills.
            futures.append(router.submit("lenet", images[0]))
            wait_until(lambda: self.loads(router)[secondary] == 1)
            gate.set()
            for future in futures:
                future.result(timeout=30)
        served = self.served(router)
        assert (served[primary]["requests"], served[secondary]["requests"]) == (8, 1)

    def test_all_owners_full_dispatches_to_the_least_loaded(self, images):
        rows = list(images) + [images[0]]
        with self.gated_router(("r0", "r1")) as (router, gate):
            primary, secondary = router.shard_map()["lenet"]
            futures = list(router.submit_many("lenet", rows))  # 9 rows: primary
            wait_until(lambda: self.loads(router)[primary] == 9)
            futures += router.submit_many("lenet", rows[:8])  # primary full: secondary
            wait_until(lambda: self.loads(router)[secondary] == 8)
            futures += router.submit_many("lenet", rows[:2])  # both full: the lighter
            wait_until(lambda: self.loads(router)[secondary] == 10)
            gate.set()
            for future in futures:
                future.result(timeout=30)
        served = self.served(router)
        assert (served[primary]["requests"], served[secondary]["requests"]) == (9, 10)

    def test_a_killed_primary_fails_over_to_the_co_owner_first(self, images, reference_outputs):
        ring = ConsistentHashRing(["r0", "r1", "r2"], vnodes=VNODES)
        primary, secondary, outsider = ring.preference_list("lenet")
        # Membership order puts the non-owner first, so a rule that fell
        # back to membership order would try it before the co-owner.
        order = [outsider, secondary, primary]
        router = ClusterRouter(
            [make_replica(rid) for rid in order],
            placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES),
        )
        register_lenet(router)
        with router:
            router.check_health()  # the router still believes the primary is up
            router.replica(primary).kill()
            outputs = router.predict_batch("lenet", list(images))
        for output, expected in zip(outputs, reference_outputs):
            np.testing.assert_array_equal(output, expected)
        stats = router.stats()
        attempts = {
            rid: record["attempts"] for rid, record in stats["failover"]["per_replica"].items()
        }
        assert attempts.get(outsider, 0) == 0
        assert attempts[primary] == attempts[secondary] == len(images)
        assert stats["replicas"][secondary]["server"]["models"]["lenet"]["requests"] == len(images)


class TestConcurrentServing:
    def test_submit_resolves_to_batch_outputs(self, images, reference_outputs):
        router = make_router()
        register_lenet(router)
        with router:
            futures = router.submit_many("lenet", list(images))
            results = [future.result(timeout=30) for future in futures]
        for result, expected in zip(results, reference_outputs):
            np.testing.assert_array_equal(result, expected)

    def test_killing_a_replica_mid_run_loses_zero_in_flight_requests(
        self, images, reference_outputs
    ):
        """The acceptance-bar failover test.

        The model's primary owner stalls its batch in a gate middleware, so
        requests are provably in flight on it when it is killed.  Every
        future must still resolve — re-dispatched to the surviving owner —
        with answers identical to a healthy single server's.
        """
        ring = ConsistentHashRing(["r0", "r1", "r2"], vnodes=VNODES)
        primary = ring.preference_list("lenet", count=1)[0]
        gate = threading.Event()
        in_flight = threading.Event()

        class Gate(ServeMiddleware):
            def on_batch(self, batch) -> None:
                in_flight.set()
                gate.wait(timeout=30)

        replicas = [
            make_replica(rid, middleware=[Gate()] if rid == primary else None)
            for rid in ("r0", "r1", "r2")
        ]
        router = ClusterRouter(
            replicas,
            placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES),
            max_retries=2,
        )
        register_lenet(router)
        try:
            with router:
                futures = router.submit_many("lenet", list(images))
                assert in_flight.wait(timeout=30), "no batch reached the primary"
                router.replica(primary).kill()
                results = [future.result(timeout=30) for future in futures]
            for result, expected in zip(results, reference_outputs):
                np.testing.assert_array_equal(result, expected)
            stats = router.stats()
            assert stats["router"]["failovers"] >= 1
            assert stats["router"]["failed"] == 0
            assert stats["health"][primary]["state"] != "healthy"
        finally:
            gate.set()  # release the killed replica's stalled worker

    def test_batch_that_fits_no_replica_queue_runs_no_row(self, images):
        replicas = [
            ReplicaWorker(
                replica_id,
                batcher=Batcher(max_batch_size=8, max_wait=0.005, padding="full"),
                num_workers=1,
                queue_size=len(images) - 1,
            )
            for replica_id in ("r0", "r1")
        ]
        router = ClusterRouter(
            replicas, placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES)
        )
        register_lenet(router)
        with router:
            futures = router.submit_many("lenet", list(images))
            for future in futures:
                with pytest.raises(FailoverExhausted):
                    future.result(timeout=30)
        stats = router.stats()
        for replica in stats["replicas"].values():
            served = replica["server"]["models"].get("lenet", {"requests": 0, "errors": 0})
            assert served["requests"] + served["errors"] == 0
        assert stats["router"]["failed"] == len(images)
        assert stats["router"]["completed"] + stats["router"]["shed"] == 0

    def test_failover_retries_only_the_unresolved_rows(self, images, reference_outputs):
        """The primary refuses half of one batch with a retryable error: only
        those rows move to the next owner, and every row resolves once."""
        ring = ConsistentHashRing(["r0", "r1"], vnodes=VNODES)
        primary = ring.preference_list("lenet", count=1)[0]
        refused = {0, 2, 5, 7}
        marks = {float(images[index].flat[0]) for index in refused}

        class RefuseSome(ServeMiddleware):
            def on_request(self, context) -> None:
                if float(context.sample.flat[0]) in marks:
                    raise ServerOverloaded("busy")

        replicas = [
            make_replica(rid, middleware=[RefuseSome()] if rid == primary else None)
            for rid in ("r0", "r1")
        ]
        router = ClusterRouter(
            replicas, placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES)
        )
        register_lenet(router)
        with router:
            futures = router.submit_many("lenet", list(images))
            results = [future.result(timeout=30) for future in futures]
        for result, expected in zip(results, reference_outputs):
            np.testing.assert_array_equal(result, expected)
        stats = router.stats()
        served = {
            rid: replica["server"]["models"]["lenet"]["requests"]
            for rid, replica in stats["replicas"].items()
        }
        assert served[primary] == len(images) - len(refused)
        assert sum(served.values()) == len(images)
        assert stats["router"]["completed"] == len(images)
        assert stats["router"]["failovers"] == len(refused)

    def test_submit_deadline_sheds_via_future(self, images):
        router = make_router()
        register_lenet(router)
        with router:
            future = router.submit("lenet", images[0], deadline=-1.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
        assert router.admission.stats()["shed"] == 1
        assert router.stats()["models"]["lenet"]["requests"] == 0

    def test_submit_lifecycle_errors_are_typed(self, images):
        router = make_router()
        register_lenet(router)
        for call in (router.submit, router.predict):
            with pytest.raises(RuntimeError, match="start\\(\\)"):
                call("lenet", images[0])
        router.start()
        router.stop()
        for call in (router.submit, router.predict):
            with pytest.raises(ServerStopped, match="stopped"):
                call("lenet", images[0])

    def test_submit_racing_a_full_stop_still_resolves_the_future(self, images):
        """Regression: submit()'s lifecycle check and its enqueue are not one
        atomic step.  If stop() runs to completion in that window — dispatcher
        joined, queue drained — the late-enqueued ticket must still be picked
        up (submit re-drains after noticing), never left as a forever-pending
        future."""
        router = make_router()
        register_lenet(router)
        router.start()
        real_submit = router.admission.submit

        def preempted_submit(*args, **kwargs):
            router.admission.submit = real_submit
            router.stop()  # the whole stop happens before our enqueue lands
            return real_submit(*args, **kwargs)

        router.admission.submit = preempted_submit
        future = router.submit("lenet", images[0])
        # Resolution (either a served result via the graceful-stopped replicas
        # or a typed failover error) is the contract; hanging is the bug.
        try:
            assert future.result(timeout=10).shape == (10,)
        except (FailoverExhausted, NoHealthyReplica, ServerStopped):
            pass

    def test_stop_drains_pending_requests(self, images):
        router = make_router()
        register_lenet(router)
        router.start()
        futures = router.submit_many("lenet", list(images))
        router.stop()
        for future in futures:
            assert future.result(timeout=30).shape == (10,)


class TestMembership:
    def test_join_resyncs_minimally(self):
        router = make_router()
        ids = [f"model-{index}" for index in range(16)]
        for model_id in ids:
            router.register(model_id, lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))
        before = router.shard_map()
        joiner = make_replica("r3")
        router.add_replica(joiner)
        after = router.shard_map()
        moved = [model_id for model_id in ids if after[model_id] != before[model_id]]
        for model_id in ids:
            assert len(after[model_id]) == 2  # replication factor preserved
        # minimal movement: every reassignment involves the joiner taking over
        for model_id in moved:
            assert "r3" in after[model_id]
        assert len(moved) < len(ids), "join must not reshuffle the whole catalogue"

    def test_drain_removes_a_replica_without_dropping_service(self, images):
        router = make_router()
        register_lenet(router)
        victim = router.shard_map()["lenet"][0]
        removed = router.remove_replica(victim)
        assert removed.draining
        assert victim not in router.replica_ids()
        assert len(router.shard_map()["lenet"]) == 2  # re-homed to survivors
        with router:
            assert router.predict("lenet", images[0]).shape == (10,)

    def test_duplicate_join_raises(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.add_replica(make_replica("r0"))
        with pytest.raises(KeyError):
            router.remove_replica("ghost")

    def test_join_while_running_starts_the_replica(self, images):
        router = make_router(replica_ids=("r0", "r1"))
        register_lenet(router)
        with router:
            joiner = make_replica("r2")
            router.add_replica(joiner)
            assert joiner.server.running
            assert len(router) == 3
            assert router.replica("r2") is joiner
        assert not joiner.server.running  # stop() reaches joined members

    def test_constructor_validation_and_idempotent_lifecycle(self):
        with pytest.raises(ValueError):
            ClusterRouter(max_retries=-1)
        router = make_router()
        register_lenet(router)
        router.start()
        router.start()  # no-op
        router.stop()
        router.stop()  # no-op
        assert not router.running


class TestClusterMiddleware:
    def test_cluster_wide_rate_limit_spans_replicas(self, images):
        limiter = RateLimiter(rate=1.0, capacity=2, clock=lambda: 0.0)
        router = make_router(middleware=[limiter])
        register_lenet(router)
        with router:
            router.predict("lenet", images[0])
            router.predict("lenet", images[1])
            with pytest.raises(RateLimitExceeded):
                router.predict("lenet", images[2])
        assert limiter.stats() == {"admitted": 2, "rejected": 1, "buckets": 1, "pruned": 0}

    @pytest.mark.parametrize("telemetry_first", [True, False])
    def test_rejection_via_submit_future_and_telemetry_observes_it(
        self, images, telemetry_first
    ):
        limiter = RateLimiter(rate=1.0, capacity=1, clock=lambda: 0.0)
        stack = [Telemetry(), limiter] if telemetry_first else [limiter, Telemetry()]
        router = make_router(middleware=stack)
        register_lenet(router)
        with router:
            ok = router.submit("lenet", images[0])
            assert ok.result(timeout=30).shape == (10,)
            rejected = router.submit("lenet", images[1])
            with pytest.raises(RateLimitExceeded):
                rejected.result(timeout=10)
        model = router.stats()["models"]["lenet"]
        # Each request counts once: outcomes come from the cluster chain,
        # execution (the ``model`` stage) from the serving replica's chain.
        assert model["stages"]["request.total"]["count"] == 2
        assert model["stages"]["model"]["count"] == 1
        assert model["stages"]["request.error"]["count"] == 1
        assert model["errors"] == 1

    @pytest.mark.parametrize("stacked", [False, True], ids=["bare", "stacked"])
    def test_each_request_counts_once_under_concurrency(self, images, stacked):
        """N rows from four threads (more than cores), some failing: the cluster view reads
        ``request.total`` N and ``errors`` the failed rows whether only the
        replicas run chains (bare) or the router and replicas both do, with
        rejections at either scope; each replica keeps its own counts."""

        def limiter(capacity: int) -> RateLimiter:
            return RateLimiter(rate=1.0, capacity=capacity, clock=lambda: 0.0)

        if stacked:
            replicas = [make_replica(rid, middleware=[limiter(5)]) for rid in ("r0", "r1", "r2")]
            router = ClusterRouter(
                replicas,
                middleware=[Telemetry(), limiter(16)],
                placement=ConsistentHashPolicy(replication_factor=2, vnodes=VNODES),
            )
        else:
            router = make_router()
        register_lenet(router)
        threads_count, rounds = 4, 6
        futures = []
        lock = threading.Lock()

        def client(thread_index: int) -> None:
            for round_index in range(rounds):
                # Every third row carries an expired deadline: shed, not run.
                deadline = -1.0 if round_index % 3 == 2 else None
                image = images[(thread_index + round_index) % len(images)]
                future = router.submit("lenet", image, deadline=deadline)
                with lock:
                    futures.append(future)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' unwinds finely
        try:
            with router:
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(threads_count)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                failed = sum(future.exception(timeout=30) is not None for future in futures)
        finally:
            sys.setswitchinterval(interval)
        total = threads_count * rounds
        assert len(futures) == total
        assert 0 < failed < total
        stats = router.stats()
        model = stats["models"]["lenet"]
        assert model["stages"]["request.total"]["count"] == total
        assert model["stages"]["request.error"]["count"] == failed
        assert model["errors"] == failed
        assert model["requests"] == total - failed
        served = [
            replica["server"]["models"]["lenet"]
            for replica in stats["replicas"].values()
            if "lenet" in replica["server"]["models"]
        ]
        assert sum(snap["requests"] for snap in served) == total - failed
        reached = sum(snap["stages"].get("request.total", {}).get("count", 0) for snap in served)
        assert reached == total - failed + sum(snap["errors"] for snap in served)


    def test_batch_charges_equal_one_by_one_charges(self, images):
        """A batch enters the cluster chain once per row: the limiter's tokens
        and the privacy budget's charges match the rows sent one by one."""

        def run(send):
            limiter = RateLimiter(rate=1.0, capacity=7, clock=lambda: 0.0)
            budget = PrivacyBudget(budget=3.25, amount=1.0)  # six 0.5-epsilon queries
            router = make_router(middleware=[limiter, budget])
            register_lenet(router)
            with router:
                futures = send(router)
                outcomes = [type(future.exception(timeout=30)).__name__ for future in futures]
            counters = router.stats()["router"]
            return outcomes, limiter.stats(), budget.stats(), counters

        batch = run(lambda router: router.submit_many("lenet", list(images)))
        singles = run(lambda router: [router.submit("lenet", image) for image in images])
        assert batch[:3] == singles[:3]
        assert batch[0].count("NoneType") == 6
        assert batch[1]["rejected"] == 1 and batch[2]["rejected"] == 1
        for counters in (batch[3], singles[3]):
            assert counters["completed"] + counters["failed"] + counters["shed"] == len(images)


class TestStatsMerging:
    def test_merged_percentiles_use_the_union_of_windows(self):
        fast = ModelStats(max_batch_size=4)
        slow = ModelStats(max_batch_size=4)
        fast.record_batch(4, 4, [0.001] * 4)
        slow.record_batch(4, 4, [0.101] * 4)
        merged = ModelStats.merged([fast, slow]).snapshot()
        assert merged["requests"] == 8
        assert merged["batches"] == 2
        # union percentiles straddle the two modes; an average-of-p50s would
        # sit at one of them instead
        assert 1.0 < merged["p50_latency_ms"] < 101.0
        assert merged["p95_latency_ms"] > 100.0

    def test_cluster_stats_aggregate_across_replicas(self, images):
        router = make_router()
        register_lenet(router)
        with router:
            router.predict_batch("lenet", list(images))
            primary = router.shard_map()["lenet"][0]
            router.replica(primary).kill()
            router.predict_batch("lenet", list(images))  # served by the other owner
        merged = router.stats(model_id="lenet")
        assert merged["requests"] == 2 * len(images)
        per_replica = [
            router.replica(replica_id).server.stats().get("models", {}).get("lenet")
            for replica_id in router.replica_ids()
        ]
        served = [snap["requests"] for snap in per_replica if snap]
        assert sum(served) == 2 * len(images)
        assert len([count for count in served if count]) == 2, "two replicas served"
        assert merged["p95_latency_ms"] >= merged["p50_latency_ms"] > 0

    def test_full_snapshot_shape(self, images):
        router = make_router()
        register_lenet(router)
        with router:
            router.predict("lenet", images[0])
        snapshot = router.stats()
        assert set(snapshot) == {
            "models",
            "replicas",
            "health",
            "admission",
            "router",
            "failover",
            "shard_map",
            "autoscaler",
        }
        assert snapshot["router"]["placement"] == "ConsistentHashPolicy"
        assert snapshot["failover"]["per_replica"], "served replica is accounted"
        attempts = sum(e["attempts"] for e in snapshot["failover"]["per_replica"].values())
        assert attempts >= 1
        assert snapshot["replicas"]["r0"]["server"]["queue_depth"] == 0
