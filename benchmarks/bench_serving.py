"""Serving throughput benchmark: single-request vs batched vs concurrent.

Measures the request-batching scheduler in ``repro.serve`` on LeNet:

* **single-request** — ``InferenceServer.predict`` one sample at a time (the
  pre-serving baseline: every client call pays one full Python/BLAS dispatch);
* **batched** — ``predict_batch`` at several ``max_batch_size`` settings,
  showing throughput vs batch size;
* **concurrent** — client threads hammering ``submit`` while worker threads
  coalesce the shared queue into batches;
* **obfuscated** — the same round trip through :class:`ExtractionProxy` on an
  augmented LeNet, i.e. the full threat-model-preserving serving path;
* **cluster** — a 4-replica consistent-hash-sharded :class:`ClusterRouter`
  vs one server on a multi-model obfuscated workload whose catalogue exceeds
  a single process's instance-cache budget (the acceptance bar is >= 2x
  aggregate throughput, from shard-local cache residency);
* **observability** — the 8-client loopback-gateway hammer at tracing
  off / 10% / 100% head sampling, plus the ledger-exact span-capture check
  at 100%; the `middleware` section additionally reports the sampled-off
  tracing overhead (gated by ``--max-tracing-overhead``);
* **slo** — the same hammer with the watching layer on: continuous
  :class:`StageProfiler` sampling (overhead gated by
  ``--max-profiler-overhead``), a :class:`WindowedSeriesStore` attached to
  the router's metrics, and an :class:`AlertManager` daemon evaluating a
  latency SLO — which must NOT page on the healthy loopback path.

Writes ``BENCH_serving.json``.  The headline number is
``speedup_batch32_vs_single`` — batched vs single-request throughput of the
obfuscated LeNet serving path (the workload this subsystem exists for); the
acceptance bar is >= 3x.  The plain-LeNet ratio is reported alongside as
``plain.speedup_batch32_vs_single``.  NumPy's OpenBLAS is pinned to one
thread at start-up (``blas_threads`` in the report header): on a small
shared host its thread hand-off can stall batched GEMMs for milliseconds,
which once collapsed the plain section past batch 8.

Run it as a script (no pytest required)::

    PYTHONPATH=src python benchmarks/bench_serving.py
    REPRO_SCALE=tiny PYTHONPATH=src python benchmarks/bench_serving.py  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
from typing import Dict

import numpy as np

from repro import nn
from repro.cloud import CloudSession, pack_model
from repro.core import Amalgam, AmalgamConfig
from repro.data import make_mnist
from repro.models import LeNet, model_factory
from repro.serve import (
    AlertManager,
    Autoscaler,
    Batcher,
    CircuitBreaker,
    ClusterRouter,
    ConsistentHashPolicy,
    ExtractionProxy,
    FaultInjector,
    FaultPlan,
    GatewayServer,
    HealthMonitor,
    InferenceServer,
    ModelRegistry,
    QueueDepthPolicy,
    RateLimiter,
    RemoteClient,
    ReplicaUnavailable,
    ReplicaWorker,
    ResponseCache,
    RetryPolicy,
    SLO,
    StageProfiler,
    Telemetry,
    Tracer,
    Validator,
    WindowedSeriesStore,
)
from repro.serve.observability.slo import BurnRateRule, LatencyObjective
from repro.utils import pin_blas_to_one_thread


#: Interleaved off/on pairs behind each gated overhead.
OVERHEAD_PAIRS = 5


def overhead_trials(run_off, run_on) -> Dict[str, object]:
    """Price an instrumentation on interleaved off/on pairs of rate readings.

    ``run_off`` and ``run_on`` each return one rate (higher is better).
    Interleaving lets host drift hit both sides of a pair alike; every pair
    is recorded with its overhead, the gates read the median, and the IQR
    says how widely the pairs spread on the measuring host.
    """
    trials = []
    for _ in range(OVERHEAD_PAIRS):
        off, on = run_off(), run_on()
        overhead = (off / on - 1.0) * 100.0 if on else float("inf")
        trials.append({"off": off, "on": on, "overhead_pct": round(overhead, 2)})
    q1, median, q3 = np.percentile([trial["overhead_pct"] for trial in trials], [25, 50, 75])
    return {
        "trials": trials,
        "median_pct": round(float(median), 2),
        "iqr_pct": round(float(q3 - q1), 2),
    }


def throughput(total_samples: int, fn) -> Dict[str, float]:
    """Run ``fn`` once (after a warmup call) and report samples/second."""
    fn()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return {
        "samples": total_samples,
        "seconds": round(elapsed, 6),
        "samples_per_s": round(total_samples / elapsed, 2) if elapsed else float("inf"),
    }


def build_plain_registry(seed: int) -> ModelRegistry:
    registry = ModelRegistry(capacity=4)
    model = LeNet(10, 1, 28, rng=np.random.default_rng(seed))
    registry.register(
        "lenet",
        pack_model(model, task="classification"),
        model_factory("lenet", in_channels=1, seed=seed),
        metadata={"input_shape": [1, 28, 28], "input_dtype": "float32"},
    )
    return registry


def bench_single(registry: ModelRegistry, images: np.ndarray) -> Dict[str, float]:
    server = InferenceServer(registry, Batcher(max_batch_size=1, padding="none"))

    def run() -> None:
        for sample in images:
            server.predict("lenet", sample)

    result = throughput(len(images), run)
    result["stats"] = server.stats("lenet")
    return result


def bench_batched(
    registry: ModelRegistry, images: np.ndarray, batch_size: int
) -> Dict[str, float]:
    server = InferenceServer(registry, Batcher(max_batch_size=batch_size, padding="none"))

    def run() -> None:
        server.predict_batch("lenet", list(images))

    result = throughput(len(images), run)
    result["batch_size"] = batch_size
    result["stats"] = server.stats("lenet")
    return result


def bench_concurrent(
    registry: ModelRegistry, images: np.ndarray, num_clients: int, num_workers: int
) -> Dict[str, float]:
    server = InferenceServer(
        registry,
        Batcher(max_batch_size=32, max_wait=0.002, padding="bucket"),
        num_workers=num_workers,
    )
    per_client = max(len(images) // num_clients, 1)

    def run() -> None:
        def client(offset: int) -> None:
            futures = [
                server.submit("lenet", images[(offset + index) % len(images)])
                for index in range(per_client)
            ]
            for future in futures:
                future.result(timeout=60)

        threads = [
            threading.Thread(target=client, args=(index * per_client,))
            for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    server.start()
    try:
        result = throughput(num_clients * per_client, run)
    finally:
        server.stop()
    result["clients"] = num_clients
    result["workers"] = num_workers
    result["stats"] = server.stats("lenet")
    return result


def bench_middleware(registry: ModelRegistry, images: np.ndarray) -> Dict[str, object]:
    """Middleware chain overhead and the ResponseCache win at 50% duplicates.

    * **overhead** — the same unique-request workload through a bare server
      vs one wrapped in Telemetry + RateLimiter + Validator (no cache, so
      every request still executes): the per-request cost of the chain.
    * **tracing** — the chained server again, now with a :class:`Tracer`
      attached at ``sample_rate = 0.0``: every hop still opens/closes its
      span (the ids, the clock reads, the retention check) but nothing is
      retained.  ``tracing_overhead_pct`` is the price of *carrying* the
      instrumentation, the median of interleaved chained/traced pairs (each
      side the best of three runs); the ``--max-tracing-overhead`` gate pins
      it.
    * **cache** — a stream where every sample appears twice (uniques first,
      then their repeats: a 50% duplicate-request rate) through a server with
      a ResponseCache vs one without.  The acceptance bar is a >1.5x
      throughput gain.
    """
    def best_throughput(total_samples: int, fn) -> Dict[str, float]:
        # These two sections compare *ratios* of cheap single-shot runs, so
        # take the best of three to keep scheduler noise out of the report.
        results = [throughput(total_samples, fn) for _ in range(3)]
        return max(results, key=lambda result: result["samples_per_s"])

    batcher_args = dict(max_batch_size=32, padding="none")
    bare = InferenceServer(registry, Batcher(**batcher_args))
    chained = InferenceServer(
        registry,
        Batcher(**batcher_args),
        middleware=[
            Telemetry(),
            RateLimiter(rate=1e9, capacity=1e9),
            Validator(registry),
        ],
    )

    traced = InferenceServer(
        registry,
        Batcher(**batcher_args),
        middleware=[
            Telemetry(),
            RateLimiter(rate=1e9, capacity=1e9),
            Validator(registry),
        ],
        tracer=Tracer(sample_rate=0.0),
    )

    bare_result = best_throughput(len(images), lambda: bare.predict_batch("lenet", list(images)))
    chained_result = best_throughput(
        len(images), lambda: chained.predict_batch("lenet", list(images))
    )
    overhead_pct = (bare_result["samples_per_s"] / chained_result["samples_per_s"] - 1.0) * 100.0

    def rate(server: InferenceServer):
        def run() -> float:
            result = best_throughput(
                len(images), lambda: server.predict_batch("lenet", list(images))
            )
            return result["samples_per_s"]

        return run

    tracing = overhead_trials(rate(chained), rate(traced))

    # 50% duplicate stream: each of the first half of the images twice.
    uniques = list(images[: max(len(images) // 2, 1)])
    stream = uniques + uniques
    uncached = InferenceServer(registry, Batcher(**batcher_args))
    cache = ResponseCache(capacity=4096)
    cached_server = InferenceServer(registry, Batcher(**batcher_args), middleware=[cache])

    def run_uncached() -> None:
        uncached.predict_batch("lenet", stream)

    def run_cached() -> None:
        cache.clear()  # every timed run starts cold and re-earns its hits
        cached_server.predict_batch("lenet", stream)

    uncached_result = best_throughput(len(stream), run_uncached)
    cached_result = best_throughput(len(stream), run_cached)
    cache_speedup = cached_result["samples_per_s"] / uncached_result["samples_per_s"]

    return {
        "overhead": {
            "middlewares": ["Telemetry", "RateLimiter", "Validator"],
            "bare": bare_result,
            "chained": chained_result,
            "overhead_pct": round(overhead_pct, 2),
        },
        "tracing": {
            "sample_rate": 0.0,
            "trials": tracing["trials"],
            "tracing_overhead_pct": tracing["median_pct"],
            "tracing_overhead_iqr_pct": tracing["iqr_pct"],
        },
        "cache": {
            "duplicate_rate": 0.5,
            "requests": len(stream),
            "uncached": uncached_result,
            "cached": cached_result,
            "hit_rate": cache.stats()["hit_rate"],
            "speedup_cached_vs_uncached": round(cache_speedup, 2),
        },
    }


def bench_obfuscated(tiny: bool, seed: int) -> Dict[str, object]:
    """The full threat-model path: proxy-augmented inputs, stacked outputs."""
    samples = 64 if tiny else 256
    data = make_mnist(train_count=samples, val_count=16, seed=seed)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=seed)
    job = Amalgam(config).prepare_image_job(
        LeNet(10, 1, 28, rng=np.random.default_rng(seed)), data
    )
    registry = ModelRegistry(capacity=2)
    CloudSession.publish(job, registry, "lenet-aug")
    proxy = ExtractionProxy(job.secrets)
    images = data.train.samples

    single_server = InferenceServer(registry, Batcher(max_batch_size=1, padding="none"))
    batched_server = InferenceServer(registry, Batcher(max_batch_size=32, padding="none"))

    def run_single() -> None:
        for sample in images:
            proxy.predict(single_server, "lenet-aug", sample)

    def run_batched() -> None:
        proxy.predict_batch(batched_server, "lenet-aug", images)

    single = throughput(len(images), run_single)
    batched = throughput(len(images), run_batched)
    ratio = batched["samples_per_s"] / single["samples_per_s"]
    return {
        "subnetworks": job.augmented_model.num_subnetworks,
        "single_request": single,
        "batched_32": batched,
        "speedup_batch32_vs_single": round(ratio, 2),
    }


def bench_cluster(tiny: bool, seed: int) -> Dict[str, object]:
    """4-replica sharded cluster vs one server on a multi-model obfuscated load.

    The workload cycles proxy-augmented batches across ``num_models`` model
    ids with a fixed per-process instance-cache budget (``capacity`` live
    models).  A single server thrashes its LRU — every batch pays a full
    model load (factory + parameter unpack) before it can run — while the
    4-replica cluster consistent-hash-shards the catalogue so each replica's
    shard stays cache-resident and batches only pay the forward pass.

    That shard-local residency is the honest scaling lever on a single-core
    host (compute itself cannot parallelise there); on multi-core hosts the
    replicas' worker threads additionally overlap BLAS work.  The acceptance
    bar is >= 2x aggregate throughput, recorded as
    ``cluster.speedup_4replica_vs_single``.
    """
    num_models = 8
    num_replicas = 4
    capacity = 4  # live model instances per process: the memory budget
    chunk = 8 if tiny else 16
    rounds = 2 if tiny else 3

    data = make_mnist(train_count=chunk, val_count=8, seed=seed)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=seed)
    job = Amalgam(config).prepare_image_job(
        LeNet(10, 1, 28, rng=np.random.default_rng(seed)), data
    )
    model_ids = [f"lenet-aug-{index}" for index in range(num_models)]
    images = list(data.train.samples[:chunk])
    proxy = ExtractionProxy(job.secrets)

    single_registry = ModelRegistry(capacity=capacity)
    single = InferenceServer(single_registry, Batcher(max_batch_size=32, padding="none"))
    router = ClusterRouter(
        [
            ReplicaWorker(
                f"replica-{index}",
                batcher=Batcher(max_batch_size=32, padding="none"),
                registry_capacity=capacity,
            )
            for index in range(num_replicas)
        ],
        # Replication 1 maximises aggregate residency (the point of this
        # benchmark); raise it for failover headroom at proportional memory.
        placement=ConsistentHashPolicy(replication_factor=1, vnodes=64),
    )
    for model_id in model_ids:
        CloudSession.publish(job, single_registry, model_id)
        CloudSession.publish(job, router, model_id)

    def sweep(target) -> None:
        for _ in range(rounds):
            for model_id in model_ids:
                proxy.predict_batch(target, model_id, images)

    total = rounds * num_models * chunk
    single_result = throughput(total, lambda: sweep(single))
    with router:
        cluster_result = throughput(total, lambda: sweep(router))
    speedup = cluster_result["samples_per_s"] / single_result["samples_per_s"]

    shard_sizes = {
        replica_id: len(router.replica(replica_id).registry)
        for replica_id in router.replica_ids()
    }
    merged = router.stats(model_id=model_ids[0])
    return {
        "num_models": num_models,
        "num_replicas": num_replicas,
        "registry_capacity": capacity,
        "requests_per_sweep": total,
        "single_server": {
            **single_result,
            "registry": single_registry.stats(),
        },
        "cluster": {
            **cluster_result,
            "shard_sizes": shard_sizes,
            "merged_model0_p50_ms": merged["p50_latency_ms"],
            "merged_model0_p95_ms": merged["p95_latency_ms"],
        },
        "speedup_4replica_vs_single": round(speedup, 2),
    }


def bench_gateway(tiny: bool, seed: int) -> Dict[str, object]:
    """The network edge: loopback gateway vs the same cluster in-process.

    N concurrent clients each run a request loop against a 2-replica cluster,
    once through in-process ``submit`` futures and once through a
    :class:`RemoteClient` over a loopback :class:`GatewayServer`.  Both
    sections record aggregate requests/s plus the client-observed p95 — the
    gap between them is the full wire cost (framing, loopback TCP, the
    asyncio hop), which is the honest price of crossing a process boundary.
    """
    num_clients = 8
    per_client = 8 if tiny else 32
    registry_seed = seed

    def build_router() -> ClusterRouter:
        return ClusterRouter(
            [
                ReplicaWorker(
                    f"replica-{index}",
                    batcher=Batcher(max_batch_size=32, max_wait=0.002, padding="bucket"),
                )
                for index in range(2)
            ]
        )

    model = LeNet(10, 1, 28, rng=np.random.default_rng(registry_seed))
    bundle = pack_model(model, task="classification")
    factory = model_factory("lenet", in_channels=1, seed=registry_seed)
    images = (
        np.random.default_rng(registry_seed)
        .standard_normal((num_clients * per_client, 1, 28, 28))
        .astype(np.float32)
    )

    def hammer(predict) -> Dict[str, float]:
        """Run the client loops once; returns throughput + client-side p95."""
        latencies: list = []
        lock = threading.Lock()

        def client(offset: int) -> None:
            local = []
            for index in range(per_client):
                sample = images[offset + index]
                start = time.perf_counter()
                predict(sample)
                local.append(time.perf_counter() - start)
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=client, args=(index * per_client,))
            for index in range(num_clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = num_clients * per_client
        return {
            "requests": total,
            "seconds": round(elapsed, 6),
            "requests_per_s": round(total / elapsed, 2) if elapsed else float("inf"),
            "p95_latency_ms": round(float(np.percentile(latencies, 95)) * 1e3, 3),
        }

    # In-process baseline: the same concurrent submit path, no socket.
    router = build_router()
    router.register("lenet", bundle, factory)
    with router:
        router.predict("lenet", images[0])  # warm the instance caches
        in_process = hammer(lambda sample: router.submit("lenet", sample).result(timeout=60))

    # Loopback gateway: every request crosses the wire.
    router = build_router()
    router.register("lenet", bundle, factory)
    with router:
        with GatewayServer(router, server_id="bench") as gateway:
            clients = [
                RemoteClient(*gateway.address, tenant=f"client-{index}")
                for index in range(num_clients)
            ]
            try:
                clients[0].predict("lenet", images[0])  # warm caches + connections
                counter = {"next": 0}
                counter_lock = threading.Lock()

                def remote_predict(sample: np.ndarray) -> None:
                    with counter_lock:
                        client = clients[counter["next"] % num_clients]
                        counter["next"] += 1
                    client.predict("lenet", sample)

                remote = hammer(remote_predict)
            finally:
                for client in clients:
                    client.close()

    overhead = (
        in_process["requests_per_s"] / remote["requests_per_s"]
        if remote["requests_per_s"]
        else float("inf")
    )
    return {
        "num_clients": num_clients,
        "requests_per_client": per_client,
        "num_replicas": 2,
        "in_process": in_process,
        "gateway_loopback": remote,
        "wire_overhead_x": round(overhead, 2),
    }


def bench_observability(tiny: bool, seed: int) -> Dict[str, object]:
    """Tracing cost at the edge: the 8-client gateway hammer, off/10%/100%.

    The same loopback-gateway workload as the ``gateway`` section runs three
    times against a traced 2-replica cluster: no tracer at all (the
    ``tracer=None`` fast path), head sampling at 10%, and at 100%.  Each run
    reports aggregate requests/s and the client-observed p95; the two
    overhead percentages are the honest price of the corresponding sampling
    level.  At 100% the section also proves capture is **ledger-exact**: the
    tracer's per-name span tally shows exactly one ``gateway.request`` /
    ``router.submit`` per request served (warm-up included) and its
    ``spans_dropped`` counter stays 0.
    """
    num_clients = 8
    per_client = 8 if tiny else 32

    model = LeNet(10, 1, 28, rng=np.random.default_rng(seed))
    bundle = pack_model(model, task="classification")
    factory = model_factory("lenet", in_channels=1, seed=seed)
    images = (
        np.random.default_rng(seed)
        .standard_normal((num_clients * per_client, 1, 28, 28))
        .astype(np.float32)
    )

    def hammer(predict) -> Dict[str, float]:
        latencies: list = []
        lock = threading.Lock()

        def client(offset: int) -> None:
            local = []
            for index in range(per_client):
                sample = images[offset + index]
                start = time.perf_counter()
                predict(sample)
                local.append(time.perf_counter() - start)
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=client, args=(index * per_client,))
            for index in range(num_clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = num_clients * per_client
        return {
            "requests": total,
            "seconds": round(elapsed, 6),
            "requests_per_s": round(total / elapsed, 2) if elapsed else float("inf"),
            "p95_latency_ms": round(float(np.percentile(latencies, 95)) * 1e3, 3),
        }

    def run_at(tracer) -> Dict[str, object]:
        router = ClusterRouter(
            [
                ReplicaWorker(
                    f"replica-{index}",
                    batcher=Batcher(max_batch_size=32, max_wait=0.002, padding="bucket"),
                    tracer=tracer,
                )
                for index in range(2)
            ],
            tracer=tracer,
        )
        router.register("lenet", bundle, factory)
        with router:
            with GatewayServer(router, tracer=tracer, server_id="bench-obs") as gateway:
                clients = [
                    RemoteClient(*gateway.address, tenant=f"client-{index}")
                    for index in range(num_clients)
                ]
                try:
                    clients[0].predict("lenet", images[0])  # warm caches + connections
                    counter = {"next": 0}
                    counter_lock = threading.Lock()

                    def remote_predict(sample: np.ndarray) -> None:
                        with counter_lock:
                            client = clients[counter["next"] % num_clients]
                            counter["next"] += 1
                        client.predict("lenet", sample)

                    result = hammer(remote_predict)
                finally:
                    for client in clients:
                        client.close()
        return result

    off = run_at(None)

    sampled_tracer = Tracer(sample_rate=0.1, max_spans=4096)
    sampled = run_at(sampled_tracer)
    sampled["tracer"] = sampled_tracer.stats()

    full_tracer = Tracer(sample_rate=1.0, max_spans=8192)
    full = run_at(full_tracer)
    counts = full_tracer.span_counts()
    expected = num_clients * per_client + 1  # the hammer plus the warm-up call
    full["tracer"] = full_tracer.stats()
    full["span_counts"] = counts
    full["ledger_exact"] = (
        counts.get("gateway.request") == expected
        and counts.get("router.submit") == expected
        and full_tracer.stats()["spans_dropped"] == 0
    )

    def overhead_pct(traced: Dict[str, float]) -> float:
        if not traced["requests_per_s"]:
            return float("inf")
        return round((off["requests_per_s"] / traced["requests_per_s"] - 1.0) * 100.0, 2)

    return {
        "num_clients": num_clients,
        "requests_per_client": per_client,
        "num_replicas": 2,
        "requests_traced_expected": expected,
        "off": off,
        "sampled_10pct": sampled,
        "sampled_100pct": full,
        "overhead_10pct_pct": overhead_pct(sampled),
        "overhead_100pct_pct": overhead_pct(full),
    }


def bench_slo(tiny: bool, seed: int) -> Dict[str, object]:
    """The watching layer's price: profiler, windowed store and SLO engine.

    The 8-client loopback-gateway hammer runs three times over the same
    2-replica cluster: bare (no instrumentation beyond the always-on metrics
    registry), with only the continuous :class:`StageProfiler` sampling at
    100 Hz, and with the full watching stack — profiler plus a
    :class:`WindowedSeriesStore` attached to the router's registry plus an
    :class:`AlertManager` daemon evaluating a latency SLO every 250 ms.
    ``profiler_overhead_pct`` is the price of *continuous* profiling, the
    median of interleaved bare/profiled pairs (gated by
    ``--max-profiler-overhead``); ``full_overhead_pct`` is everything
    together, against the median bare rate.  The healthy run must not page:
    ``alerts_fired`` is asserted 0.  Two micro-rates round out the section:
    store ingest (observations/s into the per-bucket latency histograms) and
    SLO evaluation (full manager sweeps/s).
    """
    num_clients = 8
    per_client = 8 if tiny else 32

    model = LeNet(10, 1, 28, rng=np.random.default_rng(seed))
    bundle = pack_model(model, task="classification")
    factory = model_factory("lenet", in_channels=1, seed=seed)
    images = (
        np.random.default_rng(seed)
        .standard_normal((num_clients * per_client, 1, 28, 28))
        .astype(np.float32)
    )

    def hammer(predict) -> Dict[str, float]:
        latencies: list = []
        lock = threading.Lock()

        def client(offset: int) -> None:
            local = []
            for index in range(per_client):
                sample = images[offset + index]
                start = time.perf_counter()
                predict(sample)
                local.append(time.perf_counter() - start)
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=client, args=(index * per_client,))
            for index in range(num_clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = num_clients * per_client
        return {
            "requests": total,
            "seconds": round(elapsed, 6),
            "requests_per_s": round(total / elapsed, 2) if elapsed else float("inf"),
            "p95_latency_ms": round(float(np.percentile(latencies, 95)) * 1e3, 3),
        }

    def make_slo() -> SLO:
        # A target the healthy loopback path sits comfortably under; the
        # point of the full run is the cost of watching, not an alert drill.
        return SLO(
            "bench-latency",
            LatencyObjective("gateway.latency_ms", target_ms=1000.0),
            rules=[BurnRateRule(5.0, 30.0, factor=14.4, severity="page")],
        )

    def run_at(profiled: bool, watched: bool) -> Dict[str, object]:
        router = ClusterRouter(
            [
                ReplicaWorker(
                    f"replica-{index}",
                    batcher=Batcher(max_batch_size=32, max_wait=0.002, padding="bucket"),
                )
                for index in range(2)
            ]
        )
        router.register("lenet", bundle, factory)
        store = alerts = None
        if watched:
            store = WindowedSeriesStore(interval=1.0, buckets=64).attach(router.metrics)
            alerts = AlertManager(store)
            alerts.add_slo(make_slo())
        profiler = StageProfiler(hz=100.0) if profiled else None

        def serve() -> Dict[str, object]:
            with GatewayServer(
                router, server_id="bench-slo", alerts=alerts, profiler=profiler
            ) as gateway:
                clients = [
                    RemoteClient(*gateway.address, tenant=f"client-{index}")
                    for index in range(num_clients)
                ]
                try:
                    clients[0].predict("lenet", images[0])  # warm caches + connections
                    counter = {"next": 0}
                    counter_lock = threading.Lock()

                    def remote_predict(sample: np.ndarray) -> None:
                        with counter_lock:
                            client = clients[counter["next"] % num_clients]
                            counter["next"] += 1
                        client.predict("lenet", sample)

                    return hammer(remote_predict)
                finally:
                    for client in clients:
                        client.close()

        with router:
            if profiler is not None and alerts is not None:
                with profiler, alerts.start(interval=0.25):
                    result = serve()
            elif profiler is not None:
                with profiler:
                    result = serve()
            else:
                result = serve()

        if profiler is not None:
            snapshot = profiler.stats()
            result["profiler"] = {
                "hz": snapshot["hz"],
                "ticks": snapshot["ticks"],
                "samples": snapshot["samples"],
                "distinct_stacks": snapshot["distinct_stacks"],
            }
        if alerts is not None and store is not None:
            result["alerts_fired"] = alerts.stats()["fired"]
            result["windowed_p95_ms"] = store.quantile("gateway.latency_ms", 0.95, window=60.0)
        return result

    last: Dict[bool, Dict[str, object]] = {}

    def rate_at(profiled: bool):
        def run() -> float:
            last[profiled] = run_at(profiled=profiled, watched=False)
            return last[profiled]["requests_per_s"]

        return run

    profiler = overhead_trials(rate_at(False), rate_at(True))
    bare, profiled = last[False], last[True]  # the final pair, in full
    bare_rate = float(np.median([trial["off"] for trial in profiler["trials"]]))
    full = run_at(profiled=True, watched=True)
    full_overhead_pct = (
        round((bare_rate / full["requests_per_s"] - 1.0) * 100.0, 2)
        if full["requests_per_s"]
        else float("inf")
    )

    # Micro-rate: windowed-store ingest straight into the per-bucket histograms.
    micro_store = WindowedSeriesStore(interval=1.0, buckets=16)
    ingest_count = 20_000 if tiny else 100_000
    start = time.perf_counter()
    for index in range(ingest_count):
        micro_store.record_observation("gateway.latency_ms", float(index % 97))
    ingest_elapsed = time.perf_counter() - start

    # Micro-rate: full-manager SLO sweeps against the populated store.
    micro_alerts = AlertManager(micro_store)
    micro_alerts.add_slo(make_slo())
    sweep_count = 200 if tiny else 1_000
    start = time.perf_counter()
    for _ in range(sweep_count):
        micro_alerts.evaluate()
    sweep_elapsed = time.perf_counter() - start

    return {
        "num_clients": num_clients,
        "requests_per_client": per_client,
        "num_replicas": 2,
        "bare": bare,
        "profiled": profiled,
        "full": full,
        "profiler_trials": profiler["trials"],
        "profiler_overhead_pct": profiler["median_pct"],
        "profiler_overhead_iqr_pct": profiler["iqr_pct"],
        "full_overhead_pct": full_overhead_pct,
        "store_ingest_per_s": round(ingest_count / ingest_elapsed, 2)
        if ingest_elapsed
        else float("inf"),
        "slo_evaluations_per_s": round(sweep_count / sweep_elapsed, 2)
        if sweep_elapsed
        else float("inf"),
    }


def bench_resilience(tiny: bool, seed: int) -> Dict[str, object]:
    """Kill a replica mid-run, with the circuit breaker on vs off.

    Three hammers over the same 2-replica cluster: a no-fault baseline, then
    a run where one replica starts failing every request partway through
    (alive heartbeat, dead serving — the flapping-shard failure mode) with a
    per-replica circuit breaker consulted by placement, and the same faulted
    run without a breaker.  Reported per section: aggregate requests/s, the
    client-observed p95, the recovery time (first fault to the next
    successful completion), and — from the router's failover counters — how
    many dispatch attempts the dead replica soaked up.  The breaker's value
    is that last pair: attempts against the corpse stay bounded near its
    failure threshold instead of growing with offered load, which is what
    keeps the healthy shard's p95 near the no-fault baseline
    (``p95_vs_no_fault_x``; the acceptance bar is <= 1.5x).
    """
    num_clients = 4
    per_client = 12 if tiny else 48
    kill_after = 3  # the victim's Nth request starts the outage

    model = LeNet(10, 1, 28, rng=np.random.default_rng(seed))
    bundle = pack_model(model, task="classification")
    factory = model_factory("lenet", in_channels=1, seed=seed)
    images = (
        np.random.default_rng(seed)
        .standard_normal((num_clients * per_client, 1, 28, 28))
        .astype(np.float32)
    )

    def build_router(faults, breaker_on: bool) -> ClusterRouter:
        health = HealthMonitor(
            failure_threshold=10_000,  # isolate the breaker's contribution
            breaker=(
                CircuitBreaker(failure_threshold=3, reset_timeout=5.0) if breaker_on else None
            ),
        )
        router = ClusterRouter(
            [
                ReplicaWorker(
                    f"replica-{index}",
                    batcher=Batcher(max_batch_size=32, max_wait=0.002, padding="bucket"),
                    faults=faults,
                )
                for index in range(2)
            ],
            placement=ConsistentHashPolicy(replication_factor=2, vnodes=32),
            health=health,
            retry=RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01, jitter=False),
            max_retries=3,
        )
        router.register("lenet", bundle, factory)
        # Warm every replica's instance cache up front so the faulted runs
        # measure routing + failover, not the secondary's one-time model load.
        for replica_id in router.replica_ids():
            router.replica(replica_id).predict("lenet", images[0])
        return router.start()  # every caller stops it

    def hammer(router) -> Dict[str, float]:
        completions: list = []  # (finished_at, latency_s)
        lock = threading.Lock()

        def client(offset: int) -> None:
            local = []
            for index in range(per_client):
                start = time.perf_counter()
                router.predict("lenet", images[offset + index])
                done = time.perf_counter()
                local.append((done, done - start))
            with lock:
                completions.extend(local)

        threads = [
            threading.Thread(target=client, args=(index * per_client,))
            for index in range(num_clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = num_clients * per_client
        latencies = [latency for _, latency in completions]
        return {
            "requests": total,
            "seconds": round(elapsed, 6),
            "requests_per_s": round(total / elapsed, 2) if elapsed else float("inf"),
            "p95_latency_ms": round(float(np.percentile(latencies, 95)) * 1e3, 3),
            "_completions": completions,
        }

    def primary_replica() -> str:
        """Consistent hashing sends all of one model's traffic to its primary
        shard — that is the replica whose death actually matters."""
        probe = build_router(FaultInjector(), breaker_on=True)
        try:
            probe.predict("lenet", images[0])
            stats = probe.failover_stats()["per_replica"]
        finally:
            probe.stop()
        return max(stats.items(), key=lambda item: item[1]["attempts"])[0]

    victim = primary_replica()

    def faulted_run(breaker_on: bool) -> Dict[str, object]:
        outage = {}

        def failing() -> BaseException:
            outage.setdefault("t", time.perf_counter())
            return ReplicaUnavailable(f"{victim} killed mid-run (fault injection)")

        faults = FaultInjector(
            FaultPlan().fail_replica(victim, error=failing, after=kill_after, times=-1)
        )
        router = build_router(faults, breaker_on)
        try:
            router.predict("lenet", images[0])  # warm the instance caches
            result = hammer(router)
            stats = router.failover_stats()
        finally:
            router.stop()
        completions = result.pop("_completions")
        recovered = [done for done, _ in completions if done > outage.get("t", 0.0)]
        recovery_ms = (
            round((min(recovered) - outage["t"]) * 1e3, 3) if "t" in outage and recovered else 0.0
        )
        # Healthy-shard steady state: requests *started* after the first
        # post-outage success never touch the corpse (the breaker is open),
        # so their p95 is the failover-complete service level.  The overall
        # p95 above still includes the outage transient itself.
        recover_at = min(recovered) if recovered else 0.0
        steady = [latency for done, latency in completions if done - latency > recover_at]
        if len(steady) < 5:  # outage too close to the end of the run
            steady = [latency for _, latency in completions]
        result["steady_p95_latency_ms"] = round(float(np.percentile(steady, 95)) * 1e3, 3)
        against = stats["per_replica"].get(victim, {"attempts": 0, "failures": 0})
        return {
            **result,
            "recovery_ms": recovery_ms,
            "attempts_vs_killed": against["attempts"],
            "failures_vs_killed": against["failures"],
            "breaker_trips": against.get("breaker_trips", 0),
            "backoff_seconds": stats["backoff_seconds"],
        }

    baseline_router = build_router(FaultInjector(), breaker_on=True)
    try:
        baseline_router.predict("lenet", images[0])
        hammer(baseline_router)  # discarded warmup: steadies batch coalescing
        no_fault = hammer(baseline_router)
    finally:
        baseline_router.stop()
    no_fault.pop("_completions")

    breaker_on = faulted_run(breaker_on=True)
    breaker_off = faulted_run(breaker_on=False)
    p95_ratio = (
        breaker_on["steady_p95_latency_ms"] / no_fault["p95_latency_ms"]
        if no_fault["p95_latency_ms"]
        else float("inf")
    )
    return {
        "num_clients": num_clients,
        "requests_per_client": per_client,
        "num_replicas": 2,
        "kill_after_requests": kill_after,
        "killed_replica": victim,
        "no_fault": no_fault,
        "breaker_on": breaker_on,
        "breaker_off": breaker_off,
        "p95_vs_no_fault_x": round(p95_ratio, 2),
        "healthy_p95_within_1_5x": p95_ratio <= 1.5,
        "attempts_saved_by_breaker": breaker_off["attempts_vs_killed"]
        - breaker_on["attempts_vs_killed"],
    }


def bench_autoscale(tiny: bool, seed: int) -> Dict[str, object]:
    """Elastic topology under a spike: 2 -> 6 replicas -> drain back to 2.

    A queue-depth policy watches a submit burst against a 2-replica
    consistent-hash cluster and grows membership one warmed replica per
    cycle (bundles published, instances loaded, one priming forward — all
    before placement can route there); once the burst is served and the
    cluster idles, the same policy drains it back to the floor, migrating
    any shard a victim solely owned.  Recorded per phase: time to peak,
    drain time, and the elastic contract — ``lost_requests`` must be 0 and
    the router's ledger must account for every submission
    (``ledger_balanced``), across every join and drain.
    """
    burst_size = 120 if tiny else 360
    model_ids = ["lenet-a", "lenet-b", "lenet-c"]

    def make_replica(replica_id: str) -> ReplicaWorker:
        return ReplicaWorker(
            replica_id,
            batcher=Batcher(max_batch_size=4, max_wait=0.01, padding="full"),
        )

    router = ClusterRouter(
        [make_replica("seed-0"), make_replica("seed-1")],
        placement=ConsistentHashPolicy(replication_factor=2, vnodes=32),
    )
    for index, model_id in enumerate(model_ids):
        model = LeNet(10, 1, 28, rng=np.random.default_rng(seed + index))
        router.register(
            model_id,
            pack_model(model, task="classification"),
            model_factory("lenet", in_channels=1, seed=seed + index),
            metadata={"input_shape": [1, 28, 28], "input_dtype": "float32"},
        )
    scaler = Autoscaler(
        router,
        QueueDepthPolicy(high=4.0, low=1.0, breach_count=1, cooldown=0.0),
        make_replica,
        min_replicas=2,
        max_replicas=6,
    )
    images = (
        np.random.default_rng(seed).standard_normal((burst_size, 1, 28, 28)).astype(np.float32)
    )

    with router:
        spike_start = time.perf_counter()
        futures = [
            router.submit(model_ids[index % len(model_ids)], sample)
            for index, sample in enumerate(images)
        ]
        while len(router) < 6:
            scaler.step()
        scale_up_s = time.perf_counter() - spike_start
        peak_replicas = len(router)
        lost = 0
        for future in futures:
            error = future.exception(timeout=120)
            if error is not None:
                lost += 1
        served_s = time.perf_counter() - spike_start
        drain_start = time.perf_counter()
        while len(router) > 2:
            scaler.step()
        drain_s = time.perf_counter() - drain_start
        settled_replicas = len(router)
    accounted = router.counter("completed") + router.counter("failed") + router.counter("shed")
    stats = scaler.stats()
    return {
        "burst_requests": burst_size,
        "num_models": len(model_ids),
        "policy": stats["policy"],
        "peak_replicas": peak_replicas,
        "settled_replicas": settled_replicas,
        "scale_up_to_peak_s": round(scale_up_s, 6),
        "burst_served_s": round(served_s, 6),
        "drain_to_floor_s": round(drain_s, 6),
        "burst_samples_per_s": round(burst_size / served_s, 2) if served_s else float("inf"),
        "lost_requests": lost,
        "ledger_balanced": accounted == burst_size,
        "failovers": router.counter("failovers"),
        "scale_up_events": stats["scale_up"],
        "scale_down_events": stats["scale_down"],
        "warmed_bundles": stats["warmed_bundles"],
        "primed_forwards": stats["primed_forwards"],
    }


def run(
    output_path: str,
    scale: str,
    seed: int,
    min_speedup: float,
    max_tracing_overhead: float = 0.0,
    max_profiler_overhead: float = 0.0,
) -> Dict[str, object]:
    blas_threads = pin_blas_to_one_thread()
    tiny = scale == "tiny"
    print(
        f"# bench_serving scale={scale} seed={seed} "
        f"dtype={np.dtype(nn.get_default_dtype()).name} numpy={np.__version__} "
        f"python={platform.python_version()} machine={platform.machine()} "
        f"blas_threads={blas_threads}"
    )

    count = 128 if tiny else 512
    images = np.random.default_rng(seed).standard_normal((count, 1, 28, 28)).astype(np.float32)
    registry = build_plain_registry(seed)

    single = bench_single(registry, images)
    print(f"{'single_request':24s} {single['samples_per_s']:10.1f} samples/s")

    batched: Dict[str, Dict[str, float]] = {}
    for batch_size in (4, 8, 16, 32):
        entry = bench_batched(registry, images, batch_size)
        batched[str(batch_size)] = entry
        print(f"{'batched@' + str(batch_size):24s} {entry['samples_per_s']:10.1f} samples/s")

    concurrent = bench_concurrent(registry, images, num_clients=8, num_workers=2)
    print(
        f"{'concurrent(8 clients)':24s} {concurrent['samples_per_s']:10.1f} samples/s "
        f"(fill {concurrent['stats']['batch_fill_ratio']:.2f})"
    )

    middleware = bench_middleware(registry, images)
    print(
        f"{'middleware overhead':24s} {middleware['overhead']['overhead_pct']:9.1f}% "
        f"(Telemetry+RateLimiter+Validator)"
    )
    print(
        f"{'tracing overhead (off)':24s} "
        f"{middleware['tracing']['tracing_overhead_pct']:9.1f}% "
        f"(chain + Tracer at sample_rate=0.0; median of {OVERHEAD_PAIRS} pairs, "
        f"IQR {middleware['tracing']['tracing_overhead_iqr_pct']:.1f}%)"
    )
    print(
        f"{'cache @50% duplicates':24s} "
        f"{middleware['cache']['cached']['samples_per_s']:10.1f} samples/s "
        f"({middleware['cache']['speedup_cached_vs_uncached']:.2f}x vs uncached, "
        f"hit rate {middleware['cache']['hit_rate']:.2f})"
    )

    obfuscated = bench_obfuscated(tiny, seed)
    print(
        f"{'obfuscated batched@32':24s} "
        f"{obfuscated['batched_32']['samples_per_s']:10.1f} samples/s "
        f"({obfuscated['speedup_batch32_vs_single']:.2f}x vs single)"
    )

    cluster = bench_cluster(tiny, seed)
    print(
        f"{'cluster 4x (8 models)':24s} "
        f"{cluster['cluster']['samples_per_s']:10.1f} samples/s "
        f"({cluster['speedup_4replica_vs_single']:.2f}x vs one server, "
        f"shards {list(cluster['cluster']['shard_sizes'].values())})"
    )

    gateway = bench_gateway(tiny, seed)
    print(
        f"{'gateway loopback (8c)':24s} "
        f"{gateway['gateway_loopback']['requests_per_s']:10.1f} requests/s "
        f"(p95 {gateway['gateway_loopback']['p95_latency_ms']:.2f} ms, "
        f"{gateway['wire_overhead_x']:.2f}x wire overhead vs in-process)"
    )

    observability = bench_observability(tiny, seed)
    print(
        f"{'observability (8c)':24s} "
        f"{observability['sampled_100pct']['requests_per_s']:10.1f} requests/s "
        f"@100% sampling ({observability['overhead_10pct_pct']:.1f}% at 10%, "
        f"{observability['overhead_100pct_pct']:.1f}% at 100%, "
        f"ledger_exact={observability['sampled_100pct']['ledger_exact']})"
    )

    slo = bench_slo(tiny, seed)
    print(
        f"{'slo watching layer (8c)':24s} "
        f"{slo['full']['requests_per_s']:10.1f} requests/s "
        f"(profiler {slo['profiler_overhead_pct']:.1f}% "
        f"IQR {slo['profiler_overhead_iqr_pct']:.1f}%, "
        f"full stack {slo['full_overhead_pct']:.1f}%, "
        f"ingest {slo['store_ingest_per_s'] / 1e3:.0f}k obs/s, "
        f"fired {slo['full']['alerts_fired']})"
    )

    resilience = bench_resilience(tiny, seed)
    print(
        f"{'resilience kill-mid-run':24s} "
        f"{resilience['breaker_on']['requests_per_s']:10.1f} requests/s "
        f"(breaker on: p95 {resilience['breaker_on']['p95_latency_ms']:.2f} ms, "
        f"recovery {resilience['breaker_on']['recovery_ms']:.1f} ms, "
        f"attempts vs killed {resilience['breaker_on']['attempts_vs_killed']} "
        f"vs {resilience['breaker_off']['attempts_vs_killed']} without breaker)"
    )

    autoscale = bench_autoscale(tiny, seed)
    print(
        f"{'autoscale spike 2->6->2':24s} "
        f"{autoscale['burst_samples_per_s']:10.1f} samples/s "
        f"(peak {autoscale['peak_replicas']} replicas in "
        f"{autoscale['scale_up_to_peak_s'] * 1e3:.0f} ms, "
        f"drain {autoscale['drain_to_floor_s'] * 1e3:.0f} ms, "
        f"lost {autoscale['lost_requests']})"
    )

    plain_speedup = batched["32"]["samples_per_s"] / single["samples_per_s"]
    speedup = obfuscated["speedup_batch32_vs_single"]
    print(f"{'plain speedup@32':24s} {plain_speedup:10.2f}x")
    print(f"{'speedup_batch32_vs_single':24s} {speedup:10.2f}x  (obfuscated serving path)")

    report: Dict[str, object] = {
        "suite": "bench_serving",
        "scale": scale,
        "seed": seed,
        "model": "lenet",
        "default_dtype": str(np.dtype(nn.get_default_dtype())),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": blas_threads,
        "plain": {
            "single_request": single,
            "batched": batched,
            "concurrent": concurrent,
            "speedup_batch32_vs_single": round(plain_speedup, 2),
        },
        "middleware": middleware,
        "obfuscated": obfuscated,
        "cluster": cluster,
        "gateway": gateway,
        "observability": observability,
        "slo": slo,
        "resilience": resilience,
        "autoscale": autoscale,
        "speedup_batch32_vs_single": round(speedup, 2),
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {output_path}")

    if min_speedup > 0 and speedup < min_speedup:
        print(
            f"SERVING GATE FAILED: obfuscated batched@32 speedup {speedup:.2f}x < "
            f"required {min_speedup:.1f}x"
        )
        raise SystemExit(1)
    tracing_overhead = middleware["tracing"]["tracing_overhead_pct"]
    if max_tracing_overhead > 0 and tracing_overhead >= max_tracing_overhead:
        print(
            f"TRACING GATE FAILED: sampled-off tracing overhead "
            f"{tracing_overhead:.2f}% >= allowed {max_tracing_overhead:.1f}% "
            f"(median of {OVERHEAD_PAIRS} interleaved pairs, IQR "
            f"{middleware['tracing']['tracing_overhead_iqr_pct']:.2f}%; middleware "
            f"section, Tracer at sample_rate=0.0)"
        )
        raise SystemExit(1)
    profiler_overhead = slo["profiler_overhead_pct"]
    if max_profiler_overhead > 0 and profiler_overhead >= max_profiler_overhead:
        print(
            f"PROFILER GATE FAILED: continuous-profiler overhead "
            f"{profiler_overhead:.2f}% >= allowed {max_profiler_overhead:.1f}% "
            f"(median of {OVERHEAD_PAIRS} interleaved pairs, IQR "
            f"{slo['profiler_overhead_iqr_pct']:.2f}%; slo section, StageProfiler "
            f"at 100 Hz on the gateway hammer)"
        )
        raise SystemExit(1)
    if slo["full"]["alerts_fired"]:
        print(
            f"SLO GATE FAILED: the healthy bench run paged "
            f"({slo['full']['alerts_fired']} alert(s) fired against a "
            f"1000 ms target on the loopback path)"
        )
        raise SystemExit(1)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_serving.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_SCALE", "full"),
        choices=("tiny", "full"),
        help="workload size",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for weights/inputs")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero when batched@32 throughput is below this "
        "multiple of single-request throughput (0 disables)",
    )
    parser.add_argument(
        "--max-tracing-overhead",
        type=float,
        default=0.0,
        help="exit non-zero when the sampled-off tracing overhead on the "
        "middleware section reaches this percentage (0 disables)",
    )
    parser.add_argument(
        "--max-profiler-overhead",
        type=float,
        default=0.0,
        help="exit non-zero when the continuous-profiler overhead on the "
        "slo section's gateway hammer reaches this percentage (0 disables)",
    )
    args = parser.parse_args()
    run(
        args.output,
        args.scale,
        args.seed,
        args.min_speedup,
        args.max_tracing_overhead,
        args.max_profiler_overhead,
    )


if __name__ == "__main__":
    main()
