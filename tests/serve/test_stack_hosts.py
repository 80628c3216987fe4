"""TOML-declared stacks on every host, plus hot-swap under load.

The acceptance pins for the declarative config layer:

* a stack built **only from TOML** (including the per-tenant privacy-budget
  stack) serves byte-identically to the equivalent imperatively-built chain
  — on a single :class:`InferenceServer`, across a :class:`ClusterRouter`,
  and over the gateway's loopback wire (the tenant riding the HELLO
  handshake is what selects the stack);
* ``swap_middleware`` on a running server under an 8-thread hammer loses
  zero in-flight requests, keeps results byte-identical, and leaves every
  privacy ledger balanced (spent == answered queries x cost);
* the typed :class:`PrivacyBudgetExceeded` survives the wire as itself.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait

import numpy as np
import pytest

from repro.models import model_factory
from repro.privacy import privacy_loss
from repro.serve import (
    Batcher,
    ClusterRouter,
    GatewayServer,
    InferenceServer,
    MiddlewareChain,
    ModelRegistry,
    PrivacyBudget,
    PrivacyBudgetExceeded,
    RemoteClient,
    ReplicaWorker,
    ResponseCache,
    Telemetry,
    apply_to_cluster,
    build_dispatcher,
)
from repro.serve.middleware import config as config_module

from .conftest import lenet_bundle

pytestmark = pytest.mark.skipif(
    config_module.tomllib is None, reason="no TOML parser on this interpreter"
)

TOML = """
default_stack = "standard"

[stacks.standard]
middleware = [
    { name = "telemetry" },
    { name = "cache", capacity = 128 },
]

[stacks.premium]
extends = "standard"
middleware = [ { name = "privacy_budget", budget = 8.0, amount = 3.0 } ]

[tenants]
acme = "premium"

[cluster]
cluster_stack = "standard"
replica_stack = "standard"
"""


def imperative_premium(registry=None) -> MiddlewareChain:
    """The hand-built twin of the TOML ``premium`` stack."""
    return MiddlewareChain(
        [
            Telemetry(),
            ResponseCache(capacity=128),
            PrivacyBudget(budget=8.0, amount=3.0, registry=registry),
        ]
    )


def full_batcher() -> Batcher:
    return Batcher(max_batch_size=8, max_wait=0.002, padding="full")


def make_registry() -> ModelRegistry:
    registry = ModelRegistry(capacity=2)
    registry.register("lenet", lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))
    return registry


@pytest.fixture
def samples() -> list:
    rng = np.random.default_rng(17)
    return [rng.standard_normal((1, 28, 28)).astype(np.float32) for _ in range(12)]


class TestByteParityAcrossHosts:
    def test_inference_server_toml_vs_imperative(self, samples):
        declared = InferenceServer(
            make_registry(),
            full_batcher(),
            middleware=build_dispatcher(TOML),
        )
        imperative = InferenceServer(
            make_registry(), full_batcher(), middleware=imperative_premium()
        )
        got = declared.predict_batch("lenet", samples, tenant="acme")
        want = imperative.predict_batch("lenet", samples, tenant="acme")
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # The dispatcher really routed acme through the privacy stack.
        ledger = declared.middleware.stack("premium").middlewares[-1]
        assert ledger.spent("acme") == pytest.approx(len(samples) * privacy_loss(3.0))

    def test_concurrent_mode_matches_sync(self, samples):
        server = InferenceServer(
            make_registry(), full_batcher(), middleware=build_dispatcher(TOML)
        )
        want = [
            out.tobytes()
            for out in InferenceServer(make_registry(), full_batcher()).predict_batch(
                "lenet", samples
            )
        ]
        with server:
            futures = server.submit_many("lenet", samples, tenant="acme")
            got = [future.result(timeout=30).tobytes() for future in futures]
        assert got == want

    def test_cluster_router_toml_vs_imperative(self, samples):
        def make_router(middleware) -> ClusterRouter:
            router = ClusterRouter(
                [ReplicaWorker(f"replica-{i}", batcher=full_batcher()) for i in range(2)],
                middleware=middleware,
            )
            router.register(
                "lenet", lenet_bundle(), model_factory("lenet", in_channels=1, seed=3)
            )
            return router

        declared = make_router(build_dispatcher(TOML))
        imperative = make_router(imperative_premium())
        with declared, imperative:
            got = declared.predict_batch("lenet", samples, tenant="acme")
            want = imperative.predict_batch("lenet", samples, tenant="acme")
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_apply_to_cluster_installs_both_scopes(self, samples):
        router = ClusterRouter(
            [ReplicaWorker(f"replica-{i}", batcher=full_batcher()) for i in range(2)]
        )
        router.register("lenet", lenet_bundle(), model_factory("lenet", in_channels=1, seed=3))
        dispatcher, replica_chains = apply_to_cluster(router, TOML)
        assert router.middleware is dispatcher
        assert dispatcher.default_stack == "standard"  # [cluster] cluster_stack
        assert set(replica_chains) == {"replica-0", "replica-1"}
        # Fresh chains per replica: per-replica caches stay per-replica.
        chains = list(replica_chains.values())
        assert chains[0] is not chains[1]
        for replica_id, chain in replica_chains.items():
            assert router.replica(replica_id).server.middleware is chain
        with router:
            got = router.predict_batch("lenet", samples[:4], tenant="acme")
        want = InferenceServer(make_registry(), full_batcher()).predict_batch(
            "lenet", samples[:4]
        )
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_gateway_tenant_from_hello_selects_stack(self, samples):
        registry = make_registry()
        backend = InferenceServer(
            registry,
            full_batcher(),
            middleware=build_dispatcher(TOML, resources={"registry": registry}),
        )
        want = [
            out.tobytes()
            for out in InferenceServer(
                make_registry(), full_batcher(), middleware=imperative_premium()
            ).predict_batch("lenet", samples[:6], tenant="acme")
        ]
        with backend:
            with GatewayServer(backend, server_id="stacks") as gateway:
                with RemoteClient(*gateway.address, tenant="acme") as remote:
                    got = [
                        remote.predict("lenet", sample).tobytes() for sample in samples[:6]
                    ]
        assert got == want
        ledger = backend.middleware.stack("premium").middlewares[-1]
        assert ledger.spent("acme") == pytest.approx(6 * privacy_loss(3.0))
        assert ledger.spent("default") == 0.0

    def test_privacy_budget_exceeded_crosses_the_wire_typed(self, samples):
        toml = TOML.replace('budget = 8.0', 'budget = 0.5')  # two queries max
        backend = InferenceServer(
            make_registry(), full_batcher(), middleware=build_dispatcher(toml)
        )
        with backend:
            with GatewayServer(backend, server_id="budget") as gateway:
                with RemoteClient(*gateway.address, tenant="acme") as remote:
                    remote.predict("lenet", samples[0])
                    remote.predict("lenet", samples[1])
                    with pytest.raises(PrivacyBudgetExceeded) as info:
                        remote.predict("lenet", samples[2])
        assert info.value.tenant == "acme"
        assert info.value.budget == 0.5
        assert info.value.spent == pytest.approx(0.5)


class TestHotSwapUnderLoad:
    def test_eight_thread_hammer_loses_nothing(self, samples):
        registry = make_registry()
        reference = InferenceServer(make_registry(), full_batcher())
        expected = {
            index: out.tobytes()
            for index, out in enumerate(reference.predict_batch("lenet", samples))
        }

        # A budget deep enough that the hammer never exhausts it: this test
        # pins swap/loss behaviour, not admission (that's pinned above).
        roomy = TOML.replace("budget = 8.0", "budget = 1000.0")
        chain_a = build_dispatcher(roomy, resources={"registry": registry})
        chain_b = build_dispatcher(roomy, resources={"registry": registry})
        ledgers = [
            chain.stack("premium").middlewares[-1] for chain in (chain_a, chain_b)
        ]
        server = InferenceServer(
            registry, full_batcher(), num_workers=4, middleware=chain_a
        )

        rounds_per_thread = 6
        results: dict = {}
        errors: list = []
        lock = threading.Lock()
        stop_swapping = threading.Event()

        def hammer(thread_index: int) -> None:
            for round_index in range(rounds_per_thread):
                futures = {
                    index: server.submit("lenet", sample, tenant="acme")
                    for index, sample in enumerate(samples)
                }
                done, not_done = wait(futures.values(), timeout=60)
                assert not not_done, "a hot-swap dropped an in-flight request"
                for index, future in futures.items():
                    error = future.exception()
                    if error is not None:
                        with lock:
                            errors.append(error)
                    else:
                        with lock:
                            results[(thread_index, round_index, index)] = (
                                index,
                                future.result().tobytes(),
                            )

        def swapper() -> None:
            current = 0
            while not stop_swapping.is_set():
                current ^= 1
                server.swap_middleware((chain_a, chain_b)[current])

        with server:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            swap_thread = threading.Thread(target=swapper)
            for thread in threads:
                thread.start()
            swap_thread.start()
            for thread in threads:
                thread.join()
            stop_swapping.set()
            swap_thread.join()

        assert errors == []
        assert len(results) == 8 * rounds_per_thread * len(samples)
        for index, payload in results.values():
            assert payload == expected[index], "hot-swap changed a served result"

        # Balanced ledgers: the stack is telemetry -> cache -> budget, so a
        # cache hit short-circuits before the ledger (a repeat answer leaks
        # nothing new) — total charges vary with cache timing, but each
        # ledger's balance must equal exactly (charged - refunded) x cost,
        # with no rejections and no charge lost or duplicated by a swap.
        cost = privacy_loss(3.0)
        assert sum(ledger.charged for ledger in ledgers) > 0
        for ledger in ledgers:
            assert ledger.spent("acme") == pytest.approx(
                (ledger.charged - ledger.refunded) * cost
            )
            assert ledger.rejected == 0
            assert ledger.spent("acme") <= ledger.budget

    def test_swap_replica_middleware_returns_old_chains(self):
        router = ClusterRouter(
            [ReplicaWorker(f"replica-{i}", batcher=full_batcher()) for i in range(2)]
        )
        new = MiddlewareChain([Telemetry()])
        old = router.swap_replica_middleware(new)
        assert set(old) == {"replica-0", "replica-1"}
        for replica_id in old:
            assert router.replica(replica_id).server.middleware is new
        with pytest.raises(KeyError):
            router.swap_replica_middleware(new, replica_ids=["ghost"])
