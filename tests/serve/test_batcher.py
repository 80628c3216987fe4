"""Batcher: bucket arithmetic, padding correctness, batched-vs-single equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.serve import Batcher, bucket_size

from .conftest import make_lenet


class TestBucketSize:
    def test_powers_of_two(self):
        assert bucket_size(1, 32) == 1
        assert bucket_size(2, 32) == 2
        assert bucket_size(3, 32) == 4
        assert bucket_size(5, 32) == 8
        assert bucket_size(9, 32) == 16
        assert bucket_size(17, 32) == 32

    def test_capped_at_max(self):
        assert bucket_size(33, 32) == 32
        assert bucket_size(7, 4) == 4


class TestPaddedSize:
    def test_none_mode(self):
        assert Batcher(max_batch_size=8, padding="none").padded_size(5) == 5

    def test_bucket_mode(self):
        assert Batcher(max_batch_size=8, padding="bucket").padded_size(5) == 8
        assert Batcher(max_batch_size=8, padding="bucket").padded_size(1) == 1

    def test_full_mode(self):
        assert Batcher(max_batch_size=8, padding="full").padded_size(1) == 8

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Batcher(max_batch_size=0)
        with pytest.raises(ValueError):
            Batcher(max_wait=-1.0)
        with pytest.raises(ValueError):
            Batcher(padding="wedge")


class TestRunBatch:
    def test_padding_rows_do_not_change_real_outputs(self):
        """Padded rows are discarded and never leak into real rows' results."""
        model = make_lenet().eval()
        x = np.random.default_rng(0).standard_normal((3, 1, 28, 28)).astype(np.float32)
        full_batcher = Batcher(max_batch_size=8, padding="full")
        none_batcher = Batcher(max_batch_size=8, padding="none")
        padded = full_batcher.run_batch(model, list(x))
        with nn.no_grad():
            direct = model(nn.Tensor(np.concatenate([x, np.zeros((5, 1, 28, 28), np.float32)])))
        assert len(padded) == 3
        for index in range(3):
            assert np.array_equal(padded[index], direct.data[index])
        unpadded = none_batcher.run_batch(model, list(x))
        for got, want in zip(unpadded, padded):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_fixed_shape_outputs_are_bit_reproducible(self):
        """padding='full' makes per-row results independent of batch composition."""
        model = make_lenet().eval()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)
        batcher = Batcher(max_batch_size=8, padding="full")
        together = batcher.run_batch(model, list(x))
        alone = [batcher.run_batch(model, [sample])[0] for sample in x]
        pairs = [batcher.run_batch(model, [x[i], x[(i + 1) % 6]])[0] for i in range(6)]
        for index in range(6):
            assert np.array_equal(together[index], alone[index])
            assert np.array_equal(together[index], pairs[index])

    @pytest.mark.parametrize("padding", ["none", "bucket", "full"])
    def test_padded_batch_is_stacked_requests_then_zero_rows(self, padding):
        """The executed batch is bit-identical to stacking then concatenating pad rows."""
        seen = []

        class Echo(nn.Module):
            def forward(self, inputs):
                seen.append(inputs.data.copy())
                return inputs

        batcher = Batcher(max_batch_size=8, padding=padding)
        x = np.random.default_rng(4).standard_normal((3, 2, 5)).astype(np.float32)
        outputs = batcher.run_batch(Echo(), list(x))
        target = batcher.padded_size(3)
        expected = np.concatenate([x, np.zeros((target - 3, 2, 5), np.float32)])
        assert seen[0].dtype == expected.dtype
        assert np.array_equal(seen[0], expected)
        for got, want in zip(outputs, x):
            assert np.array_equal(got, want)

    def test_mismatched_sample_shapes_rejected(self):
        samples = [np.zeros((1, 28, 28), np.float32), np.zeros((28, 28), np.float32)]
        with pytest.raises(ValueError):
            Batcher(max_batch_size=4).run_batch(make_lenet(), samples)

    def test_run_chunks_large_request_lists(self):
        model = make_lenet().eval()
        x = np.random.default_rng(2).standard_normal((11, 1, 28, 28)).astype(np.float32)
        batcher = Batcher(max_batch_size=4, padding="full")
        outputs = batcher.run(model, list(x))
        assert len(outputs) == 11
        reference = [batcher.run_batch(model, [sample])[0] for sample in x]
        for got, want in zip(outputs, reference):
            assert np.array_equal(got, want)

    def test_oversized_batch_rejected(self):
        model = make_lenet().eval()
        x = np.zeros((5, 1, 28, 28), np.float32)
        with pytest.raises(ValueError):
            Batcher(max_batch_size=4).run_batch(model, list(x))

    def test_empty_chunk(self):
        assert Batcher().run_batch(make_lenet(), []) == []

    def test_integer_batches_passed_raw(self):
        """Token-id batches must reach the model as raw integer arrays."""

        class TokenEcho(nn.Module):
            def forward(self, tokens):
                assert isinstance(tokens, np.ndarray)
                assert np.issubdtype(tokens.dtype, np.integer)
                return nn.Tensor(tokens.astype(np.float32))

        batcher = Batcher(max_batch_size=4, padding="full")
        tokens = np.arange(6, dtype=np.int64).reshape(2, 3)
        outputs = batcher.run_batch(TokenEcho(), list(tokens))
        assert np.array_equal(outputs[0], tokens[0].astype(np.float32))

    def test_multi_output_models_stack_on_leading_axis(self):
        """Augmented-style models (list outputs) yield (subnetworks, classes) slices."""

        class TwoHeads(nn.Module):
            def forward(self, inputs):
                return [inputs * 2.0, inputs * 3.0]

        batcher = Batcher(max_batch_size=4, padding="bucket")
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        outputs = batcher.run_batch(TwoHeads(), list(x))
        assert outputs[0].shape == (2, 4)
        assert np.array_equal(outputs[0][0], x[0] * 2.0)
        assert np.array_equal(outputs[1][1], x[1] * 3.0)
