"""Gradient pins for the training-path kernels.

Training batch norm is one graph node whose backward runs through the batch
statistics, the depthwise backward runs batch tile by batch tile, and
``Tensor._accumulate`` keeps a gradient buffer an op hands over instead of
copying it.  Everything here runs in float64, against central finite
differences (``tests/helpers.py:finite_difference``) or an exact reference.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.models.mobilenet import mobilenet_v2_small
from repro.nn import Tensor
from repro.nn import functional as F

from ..helpers import finite_difference


def numeric_gradient(loss, array: np.ndarray, indices=None) -> np.ndarray:
    """Finite-difference gradient of ``loss`` w.r.t. ``array`` at ``indices`` (default: all)."""
    indices = list(np.ndindex(array.shape)) if indices is None else indices
    return np.array([finite_difference(loss, array, index) for index in indices])


class TestBatchNormGradients:
    @pytest.mark.parametrize("shape", [(6, 4), (4, 3, 2, 2)], ids=["2d", "4d"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_matches_finite_differences(self, rng, shape, training):
        channels = shape[1]
        x = rng.standard_normal(shape) * 2.0 + 0.5
        gamma = rng.uniform(0.5, 2.0, channels)
        beta = rng.standard_normal(channels)
        running_mean = rng.standard_normal(channels) * 0.1
        running_var = rng.uniform(0.5, 2.0, channels)
        upstream = rng.standard_normal(shape)

        def loss() -> float:
            # Fresh running buffers per call: training updates them in place.
            out = F.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta),
                               running_mean.copy(), running_var.copy(), training=training)
            return float(np.sum(out.data * upstream))

        tensors = [Tensor(array, requires_grad=True) for array in (x, gamma, beta)]
        out = F.batch_norm(*tensors, running_mean.copy(), running_var.copy(),
                           training=training)
        (out * Tensor(upstream)).sum().backward()
        for tensor, array in zip(tensors, (x, gamma, beta)):
            expected = numeric_gradient(loss, array).reshape(array.shape)
            np.testing.assert_allclose(tensor.grad, expected, rtol=1e-6, atol=1e-6)

    def test_training_input_gradient_is_orthogonal_to_the_batch_statistics(self, rng):
        """Shifting or rescaling one channel's batch leaves the output unchanged,
        so the input gradient sums to zero, and is orthogonal to ``x_hat``, per channel."""
        x = Tensor(rng.standard_normal((5, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True, eps=0.0)
        out.backward(rng.standard_normal(out.shape))
        centred = x.data - x.data.mean(axis=(0, 2, 3), keepdims=True)
        np.testing.assert_allclose(x.grad.sum(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose((x.grad * centred).sum(axis=(0, 2, 3)), 0.0, atol=1e-9)


class TestDepthwiseTiledBackward:
    SHAPE = (24, 16, 34, 34)

    def test_batch_spans_several_tiles(self):
        batch, channels, height, width = self.SHAPE
        padded_sample_bytes = channels * (height + 2) * (width + 2) * 8
        assert batch > 2 * (F._DEPTHWISE_TILE_BYTES // padded_sample_bytes)

    def test_stride_two_matches_dense_reference_and_finite_differences(self, rng):
        batch, channels = self.SHAPE[:2]
        x = rng.standard_normal(self.SHAPE)
        w = rng.standard_normal((channels, 1, 3, 3))
        b = rng.standard_normal(channels)
        upstream = rng.standard_normal((batch, channels, 17, 17))

        tensors = [Tensor(array, requires_grad=True) for array in (x, w, b)]
        out = F.conv2d(*tensors, stride=2, padding=1, groups=channels)
        assert out.shape == upstream.shape
        out.backward(upstream)

        # Exact reference: the dense convolution with a block-diagonal kernel.
        dense_kernel = np.zeros((channels, channels, 3, 3))
        dense_kernel[np.arange(channels), np.arange(channels)] = w[:, 0]
        dense = [Tensor(array, requires_grad=True) for array in (x, dense_kernel, b)]
        F.conv2d(*dense, stride=2, padding=1).backward(upstream)
        np.testing.assert_allclose(tensors[0].grad, dense[0].grad, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(tensors[1].grad[:, 0],
                                   dense[1].grad[np.arange(channels), np.arange(channels)],
                                   rtol=1e-10, atol=1e-9)
        np.testing.assert_allclose(tensors[2].grad, dense[2].grad, rtol=1e-10, atol=1e-9)

        def loss() -> float:
            out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1,
                           groups=channels)
            return float(np.sum(out.data * upstream))

        # Samples from the first, a middle and the last (partial) tile, at
        # the border and inside.
        x_indices = [(0, 0, 0, 0), (0, 5, 33, 33), (11, 3, 17, 16), (12, 15, 1, 2),
                     (23, 7, 33, 0), (23, 15, 20, 31)]
        w_indices = [(0, 0, 0, 0), (7, 0, 1, 2), (15, 0, 2, 2)]
        for tensor, array, indices in ((tensors[0], x, x_indices), (tensors[1], w, w_indices)):
            expected = numeric_gradient(loss, array, indices)
            actual = np.array([tensor.grad[index] for index in indices])
            np.testing.assert_allclose(actual, expected, rtol=1e-6, atol=1e-6)


class TestGradientOwnership:
    """``_accumulate`` keeps owned buffers, so no two arrays may end up shared."""

    @staticmethod
    def assert_independent(tensors: dict) -> None:
        """Each ``.grad`` can be overwritten without touching any other array."""
        grads = {name: tensor.grad.copy() for name, tensor in tensors.items()}
        data = {name: tensor.data.copy() for name, tensor in tensors.items()}
        for name, tensor in tensors.items():
            tensor.grad[...] = 12345.0
            for other, other_tensor in tensors.items():
                np.testing.assert_array_equal(other_tensor.data, data[other])
                if other != name:
                    np.testing.assert_array_equal(other_tensor.grad, grads[other])
            tensor.grad[...] = grads[name]
        arrays = [t.grad for t in tensors.values()] + [t.data for t in tensors.values()]
        for first, second in itertools.combinations(range(len(arrays)), 2):
            if first < len(tensors) or second < len(tensors):
                assert not np.shares_memory(arrays[first], arrays[second])

    def test_elementwise_graph(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        double = x + x  # one incoming gradient, handed to the same tensor twice
        product = double * w  # products of that gradient
        square = w * w  # both factors are the same tensor
        total = product.sum() + square.sum()  # sum hands back a broadcast view
        total.backward()

        np.testing.assert_allclose(x.grad, 2.0 * w.data)
        np.testing.assert_allclose(w.grad, 2.0 * x.data + 2.0 * w.data)
        np.testing.assert_allclose(double.grad, w.data)
        np.testing.assert_array_equal(product.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(square.grad, np.ones((3, 4)))
        self.assert_independent({"x": x, "w": w, "double": double, "product": product,
                                 "square": square})

    def test_training_kernels_graph(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 6, 6)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)
        conv = F.conv2d(x, kernel, stride=2, padding=1, groups=3)
        normed = F.batch_norm(conv, gamma, beta, np.zeros(3), np.ones(3), training=True)
        flat = normed.reshape(4, -1)  # hands back a contiguous view of its gradient
        activated = F.relu6(flat)
        (activated * activated).sum().backward()
        self.assert_independent({"x": x, "kernel": kernel, "gamma": gamma, "beta": beta,
                                 "conv": conv, "normed": normed, "flat": flat,
                                 "activated": activated})


#: Losses of five SGD steps of a float64 MobileNetV2-small, seeded below.
#: The first is the untrained forward; the rest follow from the gradients
#: (the composite batch norm, which did not differentiate through the batch
#: statistics, read 1.75237 at the second step).
MOBILENET_LOSSES = [2.549167289794287, 1.7547280520359232, 1.1745513048070388,
                    0.7732412334864907, 0.48104185936900046]


class TestMobileNetTrajectory:
    def test_fixed_seed_sgd_losses(self):
        previous = nn.set_default_dtype(np.float64)
        try:
            data_rng = np.random.default_rng(0)
            images = data_rng.standard_normal((8, 3, 16, 16))
            labels = data_rng.integers(0, 10, size=8)
            model = mobilenet_v2_small(num_classes=10, in_channels=3,
                                       rng=np.random.default_rng(3))
            optimizer = nn.optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            losses = []
            for _ in range(5):
                optimizer.zero_grad()
                loss = F.cross_entropy(model(Tensor(images)), labels)
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
        finally:
            nn.set_default_dtype(previous)
        np.testing.assert_allclose(losses, MOBILENET_LOSSES, rtol=1e-6)
