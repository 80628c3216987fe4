"""ExtractionProxy: augmentation correctness, output selection, threat boundary."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.cloud import CloudSession
from repro.core import Amalgam, AmalgamConfig, ModelExtractor
from repro.data import make_agnews, make_mnist
from repro.models import LeNet, TextClassifier
from repro.serve import (
    Batcher,
    ExtractionProxy,
    InferenceServer,
    ModelRegistry,
    ObfuscationGuard,
    ObfuscationViolation,
    RateLimitExceeded,
    RateLimiter,
    ResponseCache,
    ServerStopped,
)
from repro.utils.rng import get_rng


def make_image_job(seed: int = 13):
    data = make_mnist(train_count=24, val_count=8, seed=1)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=seed)
    job = Amalgam(config).prepare_image_job(
        LeNet(10, 1, 28, rng=np.random.default_rng(5)), data
    )
    return data, job


@pytest.fixture(scope="module")
def served_image_job():
    data, job = make_image_job()
    registry = ModelRegistry(capacity=2)
    CloudSession.publish(job, registry, "lenet-aug")
    server = InferenceServer(registry, Batcher(max_batch_size=8, max_wait=0.005))
    return data, job, registry, server


class TestImageAugmentation:
    def test_shapes_and_original_values_preserved(self, served_image_job):
        data, job, _, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)
        sample = data.train.samples[0]
        augmented = proxy.augment(sample)
        plan = job.secrets.dataset_plan
        assert augmented.shape == plan.augmented_shape
        flat = augmented.reshape(plan.channels, -1)
        for channel in range(plan.channels):
            assert np.array_equal(
                flat[channel, plan.channel_positions[channel]],
                sample.reshape(plan.channels, -1)[channel],
            )

    def test_noise_is_fresh_per_call(self, served_image_job):
        data, job, _, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)
        sample = data.train.samples[0]
        first = proxy.augment(sample)
        second = proxy.augment(sample)
        plan = job.secrets.dataset_plan
        noise = plan.noise_positions()
        flat_first = first.reshape(plan.channels, -1)
        flat_second = second.reshape(plan.channels, -1)
        assert not np.array_equal(flat_first[0, noise[0]], flat_second[0, noise[0]])

    def test_batch_matches_per_sample_augmentation(self, served_image_job):
        data, job, _, _ = served_image_job
        batch_proxy = ExtractionProxy(job.secrets, rng=get_rng(99))
        batch = batch_proxy.augment_batch(data.train.samples[:3])
        assert batch.shape == (3,) + job.secrets.dataset_plan.augmented_shape
        plan = job.secrets.dataset_plan
        flat = batch.reshape(3, plan.channels, -1)
        originals = data.train.samples[:3].reshape(3, plan.channels, -1)
        for channel in range(plan.channels):
            assert np.array_equal(
                flat[:, channel, plan.channel_positions[channel]], originals[:, channel]
            )

    def test_cached_noise_positions_leave_outputs_unchanged(self, served_image_job):
        """Repeated and swapped-plan augmentations match the uncached algorithm."""
        data, job, _, _ = served_image_job
        other_plan = make_image_job(seed=14)[1].secrets.dataset_plan
        secrets = dataclasses.replace(job.secrets)
        proxy = ExtractionProxy(secrets, rng=get_rng(3))
        reference_rng = get_rng(3)

        def uncached(samples, plan):
            count = len(samples)
            flat = samples.reshape(count, plan.channels, plan.original_pixels)
            out = np.empty((count, plan.channels, plan.augmented_pixels), dtype=samples.dtype)
            noise = plan.noise_positions()
            for channel in range(plan.channels):
                values = proxy.noise.sample_pixels(
                    count * noise.shape[1], reference_rng, proxy.value_range
                )
                out[:, channel, plan.channel_positions[channel]] = flat[:, channel]
                out[:, channel, noise[channel]] = values.reshape(count, -1).astype(samples.dtype)
            return out.reshape((count,) + plan.augmented_shape)

        for plan in (job.secrets.dataset_plan, job.secrets.dataset_plan, other_plan):
            secrets.dataset_plan = plan
            for count in (1, 3):
                samples = data.train.samples[:count]
                assert np.array_equal(proxy.augment_batch(samples), uncached(samples, plan))

    def test_wrong_shape_rejected(self, served_image_job):
        _, job, _, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)
        with pytest.raises(ValueError):
            proxy.augment(np.zeros((1, 5, 5), np.float32))


class TestTokenAugmentation:
    def test_original_tokens_preserved(self):
        data, _ = make_agnews(train_samples=16, val_samples=8, seed=2)
        config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=7)
        vocab_size = data.info.vocab_size
        model = TextClassifier(
            vocab_size, num_classes=data.info.num_classes, rng=np.random.default_rng(3)
        )
        job = Amalgam(config).prepare_text_job(model, data, vocab_size=vocab_size)
        proxy = ExtractionProxy(job.secrets)
        row = data.train.samples[0]
        augmented = proxy.augment(row)
        plan = job.secrets.dataset_plan
        assert augmented.shape == (plan.augmented_length,)
        assert np.array_equal(augmented[plan.positions[0]], row)
        noise = augmented[plan.noise_positions()[0]]
        assert noise.min() >= 0 and noise.max() < vocab_size


class TestServingRoundTrip:
    def test_predict_selects_the_original_subnetwork(self, served_image_job):
        data, job, _, server = served_image_job
        sample = data.train.samples[0]
        # Two proxies with identical rng state produce the same augmented
        # input, so the served result must equal running the original
        # sub-network directly on that input.
        probe = ExtractionProxy(job.secrets, rng=get_rng(42))
        proxy = ExtractionProxy(job.secrets, rng=get_rng(42))
        augmented = probe.augment(sample)
        expected = job.augmented_model.original_output(nn.Tensor(augmented[None])).data[0]
        got = proxy.predict(server, "lenet-aug", sample)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)

    def test_predict_batch_selects_original_for_every_sample(self, served_image_job):
        data, job, _, server = served_image_job
        probe = ExtractionProxy(job.secrets, rng=get_rng(7))
        proxy = ExtractionProxy(job.secrets, rng=get_rng(7))
        samples = data.train.samples[:4]
        augmented = probe.augment_batch(samples)
        with nn.no_grad():
            expected = job.augmented_model(nn.Tensor(augmented))
        expected = expected[job.secrets.original_subnetwork_index].data
        batched = proxy.predict_batch(server, "lenet-aug", samples)
        assert len(batched) == 4
        for index, output in enumerate(batched):
            np.testing.assert_allclose(output, expected[index], rtol=1e-5, atol=1e-6)

    def test_concurrent_submit_resolves_selected_output(self, served_image_job):
        data, job, _, server = served_image_job
        proxy = ExtractionProxy(job.secrets)
        with server:
            future = proxy.submit(server, "lenet-aug", data.train.samples[1])
            output = future.result(timeout=30)
        assert output.shape == (10,)

    def test_select_rejects_plain_model_outputs(self, served_image_job):
        _, job, _, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)
        with pytest.raises(ValueError):
            proxy.select(np.zeros(10))


class TestThreatBoundary:
    def test_server_side_artefacts_carry_no_secrets(self, served_image_job):
        _, job, registry, server = served_image_job
        entry = registry.entry("lenet-aug")
        # The registry holds the same augmented artefact CloudSession uploads
        # for training: parameter names/shapes and the task only.  Neither the
        # entry metadata nor the architecture digest may identify the original
        # sub-network or embed the dataset plan object.
        assert "original_subnetwork_index" not in entry.metadata
        assert "plan" not in entry.metadata
        digest = entry.bundle.architecture
        assert set(digest) == {"task", "parameters", "total_parameters"}
        for name in digest["parameters"]:
            assert "original" not in name
        # The served reply is one output row per sub-network, unlabelled.
        sample = np.zeros(job.secrets.dataset_plan.augmented_shape, np.float32)
        stacked = server.predict("lenet-aug", sample)
        assert stacked.shape[0] == job.augmented_model.num_subnetworks

    def test_secrets_never_required_server_side(self, served_image_job):
        """The server can run without ever touching ObfuscationSecrets."""
        data, job, registry, _ = served_image_job
        fresh_server = InferenceServer(registry, Batcher(max_batch_size=4))
        proxy = ExtractionProxy(job.secrets)
        output = proxy.predict(fresh_server, "lenet-aug", data.train.samples[2])
        assert output.shape == (10,)


class TestOfflineExtraction:
    def test_extract_model_matches_model_extractor(self, served_image_job):
        _, job, registry, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)

        def factory():
            return LeNet(10, 1, 28, rng=np.random.default_rng(5))

        report = proxy.extract_model(registry.entry("lenet-aug").bundle, factory)
        reference = ModelExtractor(factory).extract(job.augmented_model)
        assert report.copied_parameters == reference.copied_parameters
        got = report.model.state_dict()
        want = reference.model.state_dict()
        assert set(got) == set(want)
        for name in want:
            assert np.array_equal(got[name], want[name])


class TestProxyMiddleware:
    """The client-side chain: guard, cache and telemetry around round trips."""

    def test_obfuscation_guard_passes_augmented_traffic(self, served_image_job):
        data, job, _, server = served_image_job
        proxy = ExtractionProxy(job.secrets, middleware=[ObfuscationGuard(job.secrets)])
        output = proxy.predict(server, "lenet-aug", data.train.samples[0])
        assert output.shape == (10,)

    def test_obfuscation_guard_blocks_raw_leak(self, served_image_job):
        data, job, _, server = served_image_job

        class SkipAugmentation(ExtractionProxy):
            def augment_batch(self, samples):  # a buggy client: no augmentation
                return np.asarray(samples)

        proxy = SkipAugmentation(job.secrets, middleware=[ObfuscationGuard(job.secrets)])
        with pytest.raises(ObfuscationViolation, match="trust boundary"):
            proxy.predict(server, "lenet-aug", data.train.samples[0])

    def test_client_cache_hits_on_repeated_raw_samples(self, served_image_job):
        """The cache keys on the *raw* sample even though every outbound
        augmentation carries fresh noise — a repeated client request must hit
        without any server round trip."""
        data, job, registry, _ = served_image_job
        cache = ResponseCache(capacity=16)

        class CountingServer:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def predict(self, model_id, sample):
                self.calls += 1
                return self.inner.predict(model_id, sample)

            def predict_batch(self, model_id, samples):
                self.calls += 1
                return self.inner.predict_batch(model_id, samples)

        counting = CountingServer(InferenceServer(registry, Batcher(max_batch_size=8)))
        proxy = ExtractionProxy(job.secrets, middleware=[cache])
        sample = data.train.samples[0]
        first = proxy.predict(counting, "lenet-aug", sample)
        second = proxy.predict(counting, "lenet-aug", sample)
        assert counting.calls == 1  # the second round trip never left the client
        assert np.array_equal(first, second)
        assert cache.stats()["hits"] == 1

    def test_submit_short_circuits_on_client_cache_hit(self, served_image_job):
        data, job, registry, _ = served_image_job
        cache = ResponseCache(capacity=16)
        sample = data.train.samples[3]
        proxy = ExtractionProxy(job.secrets, middleware=[cache])
        server = InferenceServer(registry, Batcher(max_batch_size=4, max_wait=0.005))
        with server:
            warm = proxy.submit(server, "lenet-aug", sample).result(timeout=30)
        # server stopped: a hit must resolve client-side without touching it
        future = proxy.submit(server, "lenet-aug", sample)
        assert np.array_equal(future.result(timeout=5), warm)
        assert cache.stats()["hits"] == 1

    def test_rejection_propagates_through_submit_future(self, served_image_job):
        data, job, registry, _ = served_image_job
        limiter = RateLimiter(rate=1.0, capacity=1, clock=lambda: 0.0)
        proxy = ExtractionProxy(job.secrets, middleware=[limiter])
        server = InferenceServer(registry, Batcher(max_batch_size=4, max_wait=0.005))
        with server:
            ok = proxy.submit(server, "lenet-aug", data.train.samples[0])
            assert ok.result(timeout=30).shape == (10,)
            rejected = proxy.submit(server, "lenet-aug", data.train.samples[1])
            with pytest.raises(RateLimitExceeded):
                rejected.result(timeout=5)

    def test_submit_failure_on_stopped_server_arrives_via_future(self, served_image_job):
        data, job, registry, _ = served_image_job
        limiter = RateLimiter(rate=1e6, capacity=1e6)
        proxy = ExtractionProxy(job.secrets, middleware=[limiter])
        server = InferenceServer(registry, Batcher(max_batch_size=4))
        server.start()
        server.stop()
        # the chain already entered (token taken) when submit fails; the
        # failure must unwind it and arrive via the future, not raise here
        future = proxy.submit(server, "lenet-aug", data.train.samples[0])
        with pytest.raises(RuntimeError, match="stopped"):
            future.result(timeout=5)
        assert limiter.stats()["admitted"] == 1

    def test_submit_on_stopped_server_surfaces_typed_error_via_future(self, served_image_job):
        """Regression: a server stopped mid-flight must fail the proxy future
        with the typed ServerStopped, not a bare RuntimeError the client has
        to string-match (the cluster router also keys failover on the type)."""
        data, job, registry, _ = served_image_job
        proxy = ExtractionProxy(job.secrets, middleware=[RateLimiter(rate=1e6)])
        server = InferenceServer(registry, Batcher(max_batch_size=4))
        server.start()
        server.stop()
        future = proxy.submit(server, "lenet-aug", data.train.samples[0])
        with pytest.raises(ServerStopped):
            future.result(timeout=5)

    def test_submit_without_middleware_raises_synchronously(self, served_image_job):
        data, job, registry, _ = served_image_job
        proxy = ExtractionProxy(job.secrets)  # no chain: pre-middleware behaviour
        server = InferenceServer(registry, Batcher(max_batch_size=4))
        server.start()
        server.stop()
        with pytest.raises(ServerStopped, match="stopped"):
            proxy.submit(server, "lenet-aug", data.train.samples[0])
