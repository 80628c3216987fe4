"""The full threat-model path against a cluster: publish, proxy, failover.

``CloudSession.publish`` targets the :class:`ClusterRouter` exactly like a
single registry (shard-aware publish), and the client-side
:class:`ExtractionProxy` queries the cluster unchanged — augmented inputs
out, stacked sub-network outputs back, secrets never serverside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import CloudSession
from repro.core import Amalgam, AmalgamConfig
from repro.data import make_mnist
from repro.models import LeNet
from repro.serve import (
    Batcher,
    ClusterRouter,
    ConsistentHashPolicy,
    ExtractionProxy,
    InferenceServer,
    ModelRegistry,
    ReplicaWorker,
)


def make_cluster_replica(replica_id: str) -> ReplicaWorker:
    return ReplicaWorker(
        replica_id,
        batcher=Batcher(max_batch_size=8, max_wait=0.005, padding="full"),
        num_workers=1,
    )


@pytest.fixture(scope="module")
def served_cluster_job():
    data = make_mnist(train_count=16, val_count=8, seed=1)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=13)
    job = Amalgam(config).prepare_image_job(LeNet(10, 1, 28, rng=np.random.default_rng(5)), data)
    router = ClusterRouter(
        [make_cluster_replica(f"r{index}") for index in range(3)],
        placement=ConsistentHashPolicy(replication_factor=2, vnodes=32),
    )
    entry = CloudSession.publish(job, router, "lenet-aug")
    return data, job, router, entry


class TestShardAwarePublish:
    def test_publish_targets_the_cluster(self, served_cluster_job):
        _, _, router, entry = served_cluster_job
        assert entry.model_id == "lenet-aug"
        holders = router.shard_map()["lenet-aug"]
        assert len(holders) == 2
        for replica_id in holders:
            replica_entry = router.replica(replica_id).registry.entry("lenet-aug")
            assert replica_entry.checksum == entry.checksum

    def test_replica_shards_carry_no_secrets(self, served_cluster_job):
        """Sharding must not widen the trust boundary: every replica holds
        only the public contract (augmented shape), never plan positions or
        the original sub-network index."""
        _, job, router, _ = served_cluster_job
        plan = job.secrets.dataset_plan
        for replica_id in router.shard_map()["lenet-aug"]:
            metadata = router.replica(replica_id).registry.entry("lenet-aug").metadata
            assert list(metadata["input_shape"]) == list(plan.augmented_shape)
            flattened = repr(sorted(metadata.items()))
            assert "positions" not in flattened
            assert "original" not in flattened


class TestProxyRoundTrips:
    def _reference(self, data, job):
        registry = ModelRegistry(capacity=2)
        CloudSession.publish(job, registry, "lenet-aug")
        return InferenceServer(registry, Batcher(max_batch_size=8, max_wait=0.005, padding="full"))

    def test_predict_batch_matches_single_server(self, served_cluster_job):
        data, job, router, _ = served_cluster_job
        samples = list(data.train.samples[:6])
        # Identical proxies (same seeds) so both paths augment identically.
        with router:
            cluster_outputs = ExtractionProxy(job.secrets).predict_batch(
                router, "lenet-aug", samples
            )
        single_outputs = ExtractionProxy(job.secrets).predict_batch(
            self._reference(data, job), "lenet-aug", samples
        )
        for clustered, single in zip(cluster_outputs, single_outputs):
            np.testing.assert_array_equal(clustered, single)
            assert clustered.shape == (10,)

    def test_submit_round_trip_and_mid_run_kill(self, served_cluster_job):
        data, job, router, _ = served_cluster_job
        proxy = ExtractionProxy(job.secrets)
        samples = list(data.train.samples[:8])
        # A second wave travels as one batch: one admission entry, one
        # replica dispatch per attempt, one future per row.
        augmented = list(ExtractionProxy(job.secrets).augment_batch(data.train.samples[8:16]))
        served_before = router.stats(model_id="lenet-aug")["requests"]
        counters_before = router.stats()["router"]
        with router:
            futures = [proxy.submit(router, "lenet-aug", sample) for sample in samples]
            batch = router.submit_many("lenet-aug", augmented)
            router.replica(router.shard_map()["lenet-aug"][0]).kill()
            results = [future.result(timeout=30) for future in futures]
            batch_results = [future.result(timeout=30) for future in batch]
        for result in results:
            assert result.shape == (10,)
        expected = self._reference(data, job).predict_batch("lenet-aug", augmented)
        for result, reference in zip(batch_results, expected):
            assert result.tobytes() == reference.tobytes()
        stats = router.stats()
        assert stats["router"]["failed"] == 0
        # Every row resolved exactly once: the router's ledger grew by the rows.
        resolved = sum(
            stats["router"][key] - counters_before[key] for key in ("completed", "failed", "shed")
        )
        assert resolved == len(samples) + len(augmented)
        # Failover is at-least-once for *compute* (the victim may finish a
        # batch whose futures were already failed over) but exactly-once for
        # results, so the merged count is >= the submitted count.
        assert stats["models"]["lenet-aug"]["requests"] >= served_before + len(samples)

    def test_cluster_sees_only_augmented_widths(self, served_cluster_job):
        data, job, router, _ = served_cluster_job
        proxy = ExtractionProxy(job.secrets)
        with router:
            proxy.predict(router, "lenet-aug", data.train.samples[0])
        plan = job.secrets.dataset_plan
        for replica_id in router.replica_ids():
            validator_shape = (
                router.replica(replica_id).registry.entry("lenet-aug").metadata
                if replica_id in router.shard_map()["lenet-aug"]
                else None
            )
            if validator_shape is not None:
                assert tuple(validator_shape["input_shape"]) == plan.augmented_shape
