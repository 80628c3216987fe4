"""Graph-free inference kernels: agreement with the grad-mode reference.

Under ``no_grad`` (or when no operand requires grad) batch norm, the
ReLU/clip family, dense convolutions and the depthwise stencil take fast
paths that record no graph, and ``Sequential`` folds Conv2d -> eval
BatchNorm2d (-> ReLU/ReLU6) into one convolution.  The grad-mode paths are
the reference: every fast path must agree with them to float tolerance, and
the served (augmented) forward must still agree *bit for bit* with the
extracted original model, because both run the same kernels.  On glibc, a
repeated forward must also reuse its heap pages instead of faulting them in.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

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


CONV_CASES = {
    "1x1": dict(in_channels=6, out_channels=8, kernel_size=1),
    "3x3-padded": dict(in_channels=6, out_channels=8, kernel_size=3, padding=1),
    "depthwise-s1": dict(in_channels=6, out_channels=6, kernel_size=3, padding=1, groups=6),
    "depthwise-s2": dict(in_channels=6, out_channels=6, kernel_size=3, stride=2, padding=1,
                         groups=6),
}


def _batch_norm(channels: int, rng, cls=nn.BatchNorm2d) -> nn.BatchNorm2d:
    """An eval-mode batch norm with non-trivial statistics and affine parameters."""
    norm = cls(channels)
    norm.weight.data[...] = rng.uniform(0.5, 2.0, channels)
    norm.bias.data[...] = rng.standard_normal(channels)
    norm.running_mean[...] = rng.standard_normal(channels)
    norm.running_var[...] = rng.uniform(0.2, 3.0, channels)
    return norm.eval()


def _count_calls(monkeypatch, *modules) -> list:
    """Count calls of each module's own ``forward``."""
    calls = [0] * len(modules)
    for index, module in enumerate(modules):
        def counted(*args, _index=index, _forward=module.forward, **kwargs):
            calls[_index] += 1
            return _forward(*args, **kwargs)
        monkeypatch.setattr(module, "forward", counted, raising=False)
    return calls


class TestConvBatchNormFold:
    """Graph-free ``Sequential`` runs Conv2d -> eval BatchNorm2d (-> ReLU/ReLU6)
    as one folded convolution; everything else runs layer by layer."""

    @pytest.mark.parametrize("activation", [nn.ReLU, nn.ReLU6, None],
                             ids=["relu", "relu6", "none"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("case", list(CONV_CASES))
    def test_matches_grad_mode_reference(self, rng, monkeypatch, case, bias, activation):
        conv = nn.Conv2d(**CONV_CASES[case], bias=bias, rng=rng)
        norm = _batch_norm(conv.out_channels, rng)
        layers = [conv, norm] + ([activation()] if activation is not None else [])
        block = nn.Sequential(*layers)
        x = Tensor((rng.standard_normal((3, 6, 9, 7)) * 2.0).astype(np.float32))

        reference = block(x)  # the parameters require grad: layer by layer
        assert reference.requires_grad
        calls = _count_calls(monkeypatch, *layers)
        with nn.no_grad():
            fast = block(x)
        assert calls == [0] * len(layers), "the fold must replace every layer's forward"
        assert_no_graph(fast)
        assert fast.dtype == reference.dtype
        np.testing.assert_allclose(fast.data, reference.data, rtol=1e-5, atol=1e-5)

    def test_float64(self, rng):
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        block = nn.Sequential(conv, _batch_norm(4, rng), nn.ReLU6())
        for parameter in block.parameters():
            parameter.data = parameter.data.astype(np.float64)
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        reference = block(x)
        with nn.no_grad():
            fast = block(x)
        assert fast.dtype == reference.dtype == np.float64
        np.testing.assert_allclose(fast.data, reference.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grad_mode", [True, False], ids=["grad", "no_grad"])
    def test_training_mode_batch_norm_is_not_folded(self, rng, monkeypatch, grad_mode):
        conv = nn.Conv2d(6, 8, 1, rng=rng)
        norm = _batch_norm(8, rng).train()
        block = nn.Sequential(conv, norm, nn.ReLU6())
        calls = _count_calls(monkeypatch, conv, norm)
        before = (norm.running_mean.copy(), norm.running_var.copy())
        x = Tensor(rng.standard_normal((4, 6, 5, 5)).astype(np.float32))
        if grad_mode:
            out = block(x)
            assert out.requires_grad
            out.sum().backward()
            assert conv.weight.grad is not None and norm.weight.grad is not None
        else:
            with nn.no_grad():
                block(x)
        assert calls == [1, 1]
        assert not np.array_equal(norm.running_mean, before[0])
        assert not np.array_equal(norm.running_var, before[1])

    def test_grad_mode_eval_batch_norm_records_the_graph(self, rng, monkeypatch):
        conv = nn.Conv2d(6, 8, 3, padding=1, rng=rng)
        norm = _batch_norm(8, rng)
        block = nn.Sequential(conv, norm, nn.ReLU())
        calls = _count_calls(monkeypatch, conv, norm)
        x = Tensor(rng.standard_normal((2, 6, 5, 5)).astype(np.float32), requires_grad=True)
        out = block(x)
        out.sum().backward()
        assert calls == [1, 1]
        assert x.grad is not None and conv.weight.grad is not None

    def test_subclasses_are_not_folded(self, rng, monkeypatch):
        class PlainConv(nn.Conv2d):
            pass

        pairs = [(nn.Conv2d(6, 8, 1, rng=rng), _batch_norm(8, rng, nn.BatchNorm1d)),
                 (PlainConv(6, 8, 1, rng=rng), _batch_norm(8, rng))]
        x = Tensor(rng.standard_normal((2, 6, 4, 4)).astype(np.float32))
        for conv, norm in pairs:
            calls = _count_calls(monkeypatch, conv, norm)
            with nn.no_grad():
                nn.Sequential(conv, norm, nn.ReLU6())(x)
            assert calls == [1, 1], type(conv).__name__ + " + " + type(norm).__name__

    def test_parameter_changes_take_effect_on_the_next_forward(self, rng):
        conv = nn.Conv2d(6, 8, 3, padding=1, rng=rng)
        block = nn.Sequential(conv, _batch_norm(8, rng), nn.ReLU6())
        x = Tensor(rng.standard_normal((2, 6, 5, 5)).astype(np.float32))
        with nn.no_grad():
            first = block(x).data.copy()
        state = {name: np.asarray(value) * 1.5 + 0.25 for name, value in
                 block.state_dict().items()}
        block.load_state_dict(state)
        conv.weight.data[0] *= -1.0  # an in-place update, as an optimizer makes
        with nn.no_grad():
            second = block(x).data
        reference = block(x).data
        assert not np.allclose(first, second)
        np.testing.assert_allclose(second, reference, rtol=1e-5, atol=1e-5)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pad needs glibc")
class TestSteadyStateHeap:
    """``repro.nn`` keeps freed heap memory resident, so repeated work reuses
    its pages instead of page-faulting them back in."""

    def test_served_forward_takes_few_page_faults(self):
        # Trimming the heap after every call re-faults ~1000-2000 pages here.
        model = mobilenet_v2_small(num_classes=10, in_channels=3,
                                   rng=np.random.default_rng(5)).eval()
        batch = Tensor(np.random.default_rng(6).standard_normal((32, 3, 32, 32))
                       .astype(np.float32))
        resource = pytest.importorskip("resource")
        with nn.no_grad():
            for _ in range(3):
                model(batch)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            model(batch)
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50

    def test_large_arrays_are_reused_in_a_fresh_process(self):
        # Setting M_TOP_PAD alone freezes glibc's mmap threshold at 128 KiB,
        # so in a process whose heap top is still small every array this
        # large would be mmapped and faulted afresh, one fault per page.
        script = (
            "import resource, numpy as np, repro.nn\n"
            "def faults(size):\n"
            "    np.ones(size // 8)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for _ in range(5):\n"
            "        np.ones(size // 8)\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(max(faults(size) for size in (256 << 10, 1 << 20, 8 << 20)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nn.__file__).resolve().parents[2]))
        result = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True, timeout=60)
        assert int(result.stdout) <= 8


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
