"""Graph-free inference kernels: agreement with the grad-mode reference.

Under ``no_grad`` (or when no operand requires grad) batch norm, the
ReLU/clip family, dense convolutions and the depthwise stencil take fast
paths that record no graph.  The grad-mode paths are the reference: every
fast path must agree with them to float tolerance, and the served
(augmented) forward must still agree *bit for bit* with the extracted
original model, because both run the same kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import Amalgam, AmalgamConfig, ModelExtractor
from repro.data import make_cifar10, make_mnist
from repro.models import LeNet
from repro.models.mobilenet import mobilenet_v2_small
from repro.nn import Tensor
from repro.nn import functional as F
from repro.serve import Batcher, ExtractionProxy


def assert_no_graph(tensor: Tensor) -> None:
    assert tensor._parents == ()
    assert tensor._backward is None
    assert not tensor.requires_grad


def fast_and_reference(op, *arrays):
    """``op`` on grad-requiring tensors, under ``no_grad`` and in grad mode."""
    with nn.no_grad():
        fast = op(*(Tensor(array, requires_grad=True) for array in arrays))
    reference = op(*(Tensor(array, requires_grad=True) for array in arrays))
    assert reference.requires_grad, "the reference must take the graph path"
    assert_no_graph(fast)
    assert fast.dtype == reference.dtype
    return fast.data, reference.data


def tolerance(dtype) -> dict:
    return {"rtol": 1e-5, "atol": 1e-5} if dtype == np.float32 else {"rtol": 1e-12, "atol": 1e-12}


class TestBatchNormEval:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 5), (3, 5, 4, 7)])
    def test_matches_graph_path(self, rng, dtype, shape):
        channels = shape[1]
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        gamma = rng.uniform(0.5, 2.0, channels).astype(dtype)
        beta = rng.standard_normal(channels).astype(dtype)
        mean = rng.standard_normal(channels).astype(dtype)
        var = rng.uniform(0.2, 3.0, channels).astype(dtype)

        def op(inputs, weight, bias):
            return F.batch_norm(inputs, weight, bias, mean, var, training=False)

        fast, reference = fast_and_reference(op, x, gamma, beta)
        np.testing.assert_allclose(fast, reference, **tolerance(dtype))

    def test_running_statistics_untouched(self, rng):
        layer = nn.BatchNorm2d(4).eval()
        layer.running_mean[...] = rng.standard_normal(4)
        layer.running_var[...] = rng.uniform(0.5, 2.0, 4)
        before = (layer.running_mean.copy(), layer.running_var.copy())
        with nn.no_grad():
            layer(Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32)))
        assert np.array_equal(layer.running_mean, before[0])
        assert np.array_equal(layer.running_var, before[1])

    def test_grad_mode_backpropagates_to_input_gamma_and_beta(self, rng):
        shape, channels = (3, 4, 5, 5), 4
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, channels), requires_grad=True)
        beta = Tensor(rng.standard_normal(channels), requires_grad=True)
        mean = rng.standard_normal(channels)
        var = rng.uniform(0.2, 3.0, channels)
        upstream = rng.standard_normal(shape)

        out = F.batch_norm(x, gamma, beta, mean, var, training=False)
        (out * Tensor(upstream)).sum().backward()

        inv_std = 1.0 / np.sqrt(var + 1e-5)
        normalised = (x.data - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(x.grad, upstream * (gamma.data * inv_std).reshape(1, -1, 1, 1))
        np.testing.assert_allclose(gamma.grad, (upstream * normalised).sum(axis=(0, 2, 3)))
        np.testing.assert_allclose(beta.grad, upstream.sum(axis=(0, 2, 3)))


class TestActivations:
    @pytest.mark.parametrize("op", [
        lambda t: t.relu(),
        F.relu,
        F.relu6,
        lambda t: t.clip(-0.5, 0.75),
    ], ids=["relu", "F.relu", "relu6", "clip"])
    def test_matches_graph_path(self, rng, op):
        x = (rng.standard_normal((4, 3, 5, 5)) * 5.0).astype(np.float32)
        fast, reference = fast_and_reference(op, x)
        np.testing.assert_array_equal(fast, reference)

    def test_layers_record_no_graph(self, rng):
        x = Tensor(rng.standard_normal((2, 6)).astype(np.float32), requires_grad=True)
        with nn.no_grad():
            assert_no_graph(nn.ReLU()(x))
            assert_no_graph(nn.ReLU6()(x))


class TestDenseConv:
    @pytest.mark.parametrize("bias", [False, True])
    def test_pointwise(self, rng, bias):
        x = rng.standard_normal((3, 6, 5, 7)).astype(np.float32)
        weight = rng.standard_normal((4, 6, 1, 1)).astype(np.float32)
        arrays = (x, weight) + ((rng.standard_normal(4).astype(np.float32),) if bias else ())
        fast, reference = fast_and_reference(lambda *t: F.conv2d(*t), *arrays)
        assert fast.shape == (3, 4, 5, 7)
        np.testing.assert_allclose(fast, reference, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1)])
    def test_wide_kernels(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 11)).astype(np.float32)
        weight = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        fast, reference = fast_and_reference(
            lambda *t: F.conv2d(*t, stride=stride, padding=padding), x, weight, bias)
        np.testing.assert_allclose(fast, reference, rtol=1e-5, atol=1e-5)


class TestDepthwiseConv:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_graph_path(self, rng, monkeypatch, batch, stride, padding):
        channels, height, width = 4, 9, 7
        # Two samples per tile, so batch 5 runs two full tiles and a partial one.
        sample_bytes = channels * (height + 2 * padding) * (width + 2 * padding) * 4
        monkeypatch.setattr(F, "_DEPTHWISE_TILE_BYTES", 2 * sample_bytes)
        x = rng.standard_normal((batch, channels, height, width)).astype(np.float32)
        weight = rng.standard_normal((channels, 1, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(channels).astype(np.float32)
        fast, reference = fast_and_reference(
            lambda *t: F.conv2d(*t, stride=stride, padding=padding, groups=channels),
            x, weight, bias)
        # Same multiply-then-add sequence per element, whatever the tiling.
        np.testing.assert_array_equal(fast, reference)


def _original_factory(kind: str):
    if kind == "lenet":
        return lambda: LeNet(10, 1, 28, rng=np.random.default_rng(5))
    return lambda: mobilenet_v2_small(num_classes=10, in_channels=3, rng=np.random.default_rng(5))


@pytest.fixture(scope="module", params=["lenet", "mobilenet"])
def served_job(request):
    """An augmented job with non-trivial BN statistics, and its extracted original."""
    make_data = make_mnist if request.param == "lenet" else make_cifar10
    data = make_data(train_count=16, val_count=32, seed=5)
    config = AmalgamConfig(augmentation_amount=0.5, num_subnetworks=2, seed=11)
    factory = _original_factory(request.param)
    job = Amalgam(config).prepare_image_job(factory(), data)
    stats = np.random.default_rng(9)
    for name, buffer in job.augmented_model.named_buffers():
        if name.endswith("running_mean"):
            buffer[...] = stats.standard_normal(buffer.shape)
        elif name.endswith("running_var"):
            buffer[...] = stats.uniform(0.3, 2.0, buffer.shape)
    job.augmented_model.eval()
    extracted = ModelExtractor(factory).extract(job.augmented_model).model.eval()
    return job, data, extracted


class TestServedForwardMatchesExtraction:
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_select_is_bit_identical_to_extracted_original(self, served_job, batch):
        job, data, extracted = served_job
        proxy = ExtractionProxy(job.secrets, rng=np.random.default_rng(batch))
        raw = data.validation.samples[:batch]

        stacked, multi_output = Batcher.forward(job.augmented_model, proxy.augment_batch(raw))
        with nn.no_grad():
            direct = extracted(Tensor(raw)).data
        assert multi_output
        np.testing.assert_array_equal(proxy.select(stacked), direct)
