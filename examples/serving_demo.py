"""End-to-end obfuscated serving demo.

The Figure 1 workflow ends with the user extracting the trained original
model; this demo shows the *serving* continuation instead: keep the trained
augmented model in the cloud, publish it into a model registry, and let many
clients query it through an :class:`ExtractionProxy` so the serving provider
only ever sees augmented inputs and unlabelled per-subnetwork outputs.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cloud import CloudSession, bundle_manifest
from repro.core import Amalgam, AmalgamConfig
from repro.data import make_mnist
from repro.models import LeNet
from repro.serve import (
    Batcher,
    ClusterRouter,
    ConsistentHashPolicy,
    DeadlineExceeded,
    ExtractionProxy,
    GatewayServer,
    InferenceServer,
    ModelRegistry,
    ObfuscationGuard,
    ObfuscationViolation,
    PrivacyBudgetExceeded,
    RateLimiter,
    RateLimitExceeded,
    RemoteClient,
    ReplicaWorker,
    ResponseCache,
    ServerStopped,
    Telemetry,
    ValidationError,
    Validator,
    build_dispatcher,
    load_spec,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # 1. User side: augment dataset + model, train the augmented model.
    # ------------------------------------------------------------------
    print("=== 1. augment + train (user device / cloud) ===")
    data = make_mnist(train_count=192, val_count=64, seed=1)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=13)
    amalgam = Amalgam(config)
    job = amalgam.prepare_image_job(LeNet(10, 1, 28, rng=rng), data)
    trained = amalgam.train_job(job, epochs=1, lr=0.05, batch_size=32)
    accuracy = trained.training.history.last("val_accuracy")
    print(f"augmented model trained: val accuracy {accuracy:.3f}")
    print(f"secrets stay client-side: {job.secrets.describe()}")

    # ------------------------------------------------------------------
    # 2. Publish the trained augmented model into the serving registry.
    # ------------------------------------------------------------------
    print("\n=== 2. publish to the serving registry (cloud) ===")
    registry = ModelRegistry(capacity=4)
    entry = CloudSession.publish(job, registry, "mnist-lenet")
    print(
        f"registered '{entry.model_id}' ({entry.size_bytes} bytes, "
        f"sha256 {entry.checksum[:12]}...)"
    )
    print(bundle_manifest(model=entry.bundle))

    # ------------------------------------------------------------------
    # 3. Serve: batching scheduler + concurrent clients via the proxy.
    # ------------------------------------------------------------------
    print("\n=== 3. serve concurrent clients through the extraction proxy ===")
    server = InferenceServer(
        registry,
        Batcher(max_batch_size=16, max_wait=0.002, padding="bucket"),
        num_workers=2,
    )
    proxy = ExtractionProxy(job.secrets)
    queries = data.validation.samples[:48]
    labels = data.validation.labels[:48]

    with server:
        futures = [proxy.submit(server, "mnist-lenet", sample) for sample in queries]
        outputs = [future.result(timeout=60) for future in futures]

    predictions = np.array([int(np.argmax(output)) for output in outputs])
    served_accuracy = float(np.mean(predictions == labels))
    print(f"served {len(queries)} requests, accuracy {served_accuracy:.3f}")
    stats = server.stats("mnist-lenet")
    print(
        f"batches: {stats['batches']}  mean batch: {stats['mean_batch_size']:.1f}  "
        f"fill: {stats['batch_fill_ratio']:.2f}"
    )
    print(
        f"latency: p50 {stats['p50_latency_ms']:.2f} ms  "
        f"p95 {stats['p95_latency_ms']:.2f} ms"
    )
    print(f"registry: {registry.stats()}")

    # ------------------------------------------------------------------
    # 4. Middleware stack: cache, admission control, validation, telemetry
    #    server-side; the obfuscation guard on the client.
    # ------------------------------------------------------------------
    print("\n=== 4. middleware interception chain ===")
    cache = ResponseCache(capacity=256)
    guarded_server = InferenceServer(
        registry,
        Batcher(max_batch_size=16, padding="bucket"),
        middleware=[
            Telemetry(),
            cache,
            RateLimiter(rate=500.0, capacity=500),
            Validator(registry),
        ],
    )

    # Identical queries: the second pass is served from the response cache.
    augmented = [proxy.augment(sample) for sample in data.validation.samples[:8]]
    for _ in range(2):
        guarded_server.predict_batch("mnist-lenet", augmented)
    print(f"{2 * len(augmented)} requests; cache: {cache.stats()}")

    # The Validator rejects a raw-shaped sample against the published contract
    # (CloudSession.publish recorded input_shape/input_dtype in the registry)...
    try:
        guarded_server.predict("mnist-lenet", data.validation.samples[0])
    except ValidationError as error:
        print(f"validator: {error}")

    # ...and the ObfuscationGuard stops the leak before it leaves the client.
    class BuggyProxy(ExtractionProxy):
        def augment_batch(self, samples):
            return np.asarray(samples)  # forgot to augment!

    buggy = BuggyProxy(job.secrets, middleware=[ObfuscationGuard(job.secrets)])
    try:
        buggy.predict(guarded_server, "mnist-lenet", data.validation.samples[0])
    except ObfuscationViolation as error:
        print(f"obfuscation guard: {error}")

    # Token-bucket admission control rejects bursts with a typed error.
    burst_server = InferenceServer(
        registry,
        Batcher(max_batch_size=16),
        middleware=[RateLimiter(rate=1.0, capacity=2)],
    )
    admitted, rejected, retry_after = 0, 0, 0.0
    for sample in augmented:
        try:
            burst_server.predict("mnist-lenet", sample)
            admitted += 1
        except RateLimitExceeded as error:
            rejected += 1
            retry_after = error.retry_after
    print(
        f"burst of {len(augmented)}: {admitted} admitted, {rejected} rejected "
        f"(retry in {retry_after:.2f}s)"
    )

    # The chain recorded the per-stage latency breakdown into ModelStats.
    stages = guarded_server.stats("mnist-lenet")["stages"]
    for stage in ("request.total", "model", "ResponseCache.on_request"):
        breakdown = stages[stage]
        print(f"  {stage:28s} count={breakdown['count']:3d} mean={breakdown['mean_ms']:.2f}ms")

    # ------------------------------------------------------------------
    # 5. Cluster: shard the catalogue over replicas, survive a kill, shed
    #    what cannot meet its deadline.
    # ------------------------------------------------------------------
    print("\n=== 5. sharded cluster with failover and SLA admission ===")
    router = ClusterRouter(
        [
            ReplicaWorker(
                f"replica-{index}",
                batcher=Batcher(max_batch_size=16, max_wait=0.002, padding="bucket"),
            )
            for index in range(3)
        ],
        placement=ConsistentHashPolicy(replication_factor=2, vnodes=64),
        middleware=[RateLimiter(rate=10_000.0, capacity=10_000)],  # cluster-wide budget
    )
    # Shard-aware publish: the same CloudSession.publish call targets the
    # cluster; the placement policy decides which replicas hold the model.
    CloudSession.publish(job, router, "mnist-lenet")
    print(f"shard map: {router.shard_map()}")

    with router:
        cluster_futures = [proxy.submit(router, "mnist-lenet", sample) for sample in queries]
        primary = router.shard_map()["mnist-lenet"][0]
        router.replica(primary).kill()  # a replica dies mid-run...
        cluster_outputs = [future.result(timeout=60) for future in cluster_futures]
    cluster_predictions = np.array([int(np.argmax(output)) for output in cluster_outputs])
    cluster_accuracy = float(np.mean(cluster_predictions == labels))
    router_stats = router.stats()
    print(
        f"killed '{primary}' mid-run: {len(cluster_outputs)}/{len(queries)} requests "
        f"answered (accuracy {cluster_accuracy:.3f}, "
        f"failovers {router_stats['router']['failovers']}, "
        f"failed {router_stats['router']['failed']})"
    )
    merged = router_stats["models"]["mnist-lenet"]
    print(
        f"cluster-merged stats: {merged['requests']} requests  "
        f"p50 {merged['p50_latency_ms']:.2f} ms  p95 {merged['p95_latency_ms']:.2f} ms"
    )

    # SLA admission: a request whose deadline already passed is shed with a
    # typed error before any replica computes.
    with router:
        try:
            router.predict("mnist-lenet", proxy.augment(queries[0]), deadline=-0.001)
        except DeadlineExceeded as error:
            print(f"admission: {error}")

    # ------------------------------------------------------------------
    # 6. Network gateway: remote clients reach the cluster over loopback.
    #    The proxy works unchanged — obfuscated extraction over the wire.
    # ------------------------------------------------------------------
    print("\n=== 6. network gateway: remote obfuscated serving ===")
    edge_router = ClusterRouter(
        [
            ReplicaWorker(
                f"edge-replica-{index}",
                batcher=Batcher(max_batch_size=16, max_wait=0.002, padding="bucket"),
            )
            for index in range(2)
        ]
    )
    # The gateway resolves architecture factories server-side: code never
    # crosses the socket, only augmented bundle bytes do.
    gateway = GatewayServer(
        edge_router,
        factories={"mnist-remote": CloudSession.architecture_factory(job)},
        server_id="demo-edge",
    )
    with edge_router:
        with gateway:
            host, port = gateway.address
            print(f"gateway listening on {host}:{port}")
            with RemoteClient(host, port, tenant="demo-user") as remote:
                # Publish over the wire: the same CloudSession.publish call,
                # now crossing a socket as a REGISTER frame.
                registration = CloudSession.publish(job, remote, "mnist-remote")
                print(
                    f"published '{registration.model_id}' over the wire "
                    f"({registration.size_bytes} bytes, "
                    f"sha256 {registration.checksum[:12]}...)"
                )
                # Obfuscated extraction over loopback: augment client-side,
                # cross the wire, select the original sub-network's output.
                remote_futures = [
                    proxy.submit(remote, "mnist-remote", sample) for sample in queries
                ]
                remote_outputs = [future.result(timeout=60) for future in remote_futures]
                remote_predictions = np.array(
                    [int(np.argmax(output)) for output in remote_outputs]
                )
                remote_accuracy = float(np.mean(remote_predictions == labels))
                print(
                    f"served {len(remote_outputs)} requests over TCP, "
                    f"accuracy {remote_accuracy:.3f} "
                    f"(matches in-process serving: {remote_accuracy == served_accuracy})"
                )
                edge_stats = gateway.stats()
                print(
                    f"edge: {edge_stats['requests']} requests, "
                    f"{edge_stats['responses']} responses, "
                    f"window {remote.window}, "
                    f"backpressure rejections {edge_stats['backpressure']}"
                )
                # Graceful drain: in-flight work completes, new requests are
                # rejected with a typed ServerStopped.
                gateway.stop()
                try:
                    remote.predict("mnist-remote", proxy.augment(queries[0]))
                except ServerStopped as error:
                    print(f"after drain: {error}")

    # ------------------------------------------------------------------
    # 7. Declarative stacks: the middleware configuration lives in TOML,
    #    selects per tenant, and hot-swaps on a live server.
    # ------------------------------------------------------------------
    print("\n=== 7. TOML-declared middleware stacks + hot-swap ===")
    spec_path = Path(__file__).with_name("serving_stacks.toml")
    spec = load_spec(spec_path)
    stack_registry = ModelRegistry(capacity=4)
    # publish records the augmentation amount, which prices each tenant's
    # per-query privacy loss (epsilon = 1 / (1 + A), Section 6.1).
    CloudSession.publish(job, stack_registry, "mnist-lenet")
    dispatcher = build_dispatcher(spec, resources={"registry": stack_registry})
    print(f"{spec_path.name} defines stacks {list(dispatcher.stack_names())}")

    stack_server = InferenceServer(
        stack_registry,
        Batcher(max_batch_size=16, max_wait=0.002, padding="bucket"),
        middleware=dispatcher,
    )
    augmented_queries = [proxy.augment(sample) for sample in queries]
    with stack_server:
        with GatewayServer(stack_server, server_id="demo-stacks") as stack_gateway:
            stack_host, stack_port = stack_gateway.address
            # The HELLO handshake carries the tenant, and the dispatcher
            # routes it: trial tenants run the privacy-budget stack, everyone
            # else the standard stack — no server code knows either exists.
            with RemoteClient(stack_host, stack_port, tenant="trial-tenant") as trial:
                answered = 0
                try:
                    for sample in augmented_queries:
                        trial.predict("mnist-lenet", sample)
                        answered += 1
                except PrivacyBudgetExceeded as error:
                    print(f"trial tenant stopped after {answered} queries: {error}")
            ledger = dispatcher.stack("trial").middlewares[-1]
            print(f"privacy ledger: {ledger.stats()['tenants']}")

            # Hot-swap the chain mid-traffic: requests already in flight
            # finish on the chain they entered, none are dropped, and the
            # next connection sees the relaxed budget.
            relaxed = build_dispatcher(
                spec_path.read_text().replace("budget = 2.0", "budget = 100.0"),
                resources={"registry": stack_registry},
            )
            in_flight = stack_server.submit_many(
                "mnist-lenet", augmented_queries, tenant="partner"
            )
            stack_server.swap_middleware(relaxed)
            answers = [future.result(timeout=60) for future in in_flight]
            print(
                f"hot-swap mid-traffic: {len(answers)}/{len(in_flight)} in-flight "
                "requests answered, zero dropped"
            )
            with RemoteClient(stack_host, stack_port, tenant="trial-tenant") as trial:
                trial.predict("mnist-lenet", augmented_queries[0])
                print("after the swap the trial tenant is admitted again")

    # ------------------------------------------------------------------
    # 8. The download path still works: extract the original model.
    # ------------------------------------------------------------------
    print("\n=== 8. offline extraction from the served bundle ===")
    report = proxy.extract_model(
        entry.bundle, lambda: LeNet(10, 1, 28, rng=np.random.default_rng(0))
    )
    print(
        f"extracted original model: {report.copied_parameters} parameters "
        f"in {report.elapsed * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
