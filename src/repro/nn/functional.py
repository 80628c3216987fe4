"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

The functions here mirror the subset of ``torch.nn.functional`` that the
Amalgam reproduction requires: 2-D convolution (via im2col), pooling,
normalisation, activations, embedding lookup, dropout and the classification
losses.  All functions are differentiable unless stated otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, is_grad_enabled

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _graph_free(*operands: Optional[Tensor]) -> bool:
    """Whether an op over ``operands`` records no autograd graph.

    This selects every inference fast path below: under ``no_grad``, or when
    no operand requires grad, the result is a plain tensor, so the op may
    skip whatever exists only to route gradients (masks, column matrices,
    intermediate tensors).  The grad-mode paths remain the reference.
    """
    if not is_grad_enabled():
        return True
    return not any(operand is not None and operand.requires_grad for operand in operands)


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------
def _zero_pad(images: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """``images`` zero-padded spatially: one zero-fill plus one slice-assign.

    Same result as ``np.pad`` at a fraction of its cost.
    """
    if ph == 0 and pw == 0:
        return images
    batch, channels, height, width = images.shape
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=images.dtype)
    padded[:, :, ph : ph + height, pw : pw + width] = images
    return padded


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower a batch of images to column form for convolution.

    Returns ``(columns, (out_h, out_w))`` where ``columns`` has shape
    ``(batch, out_h * out_w, channels * kh * kw)``.
    """
    batch, channels, height, width = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding

    # ``_zero_pad`` skips the copy whenever there is nothing to pad — every
    # pooling op and all padding-free convolutions take that path.
    padded = _zero_pad(images, ph, pw)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1

    strides = padded.strides
    shape = (batch, channels, out_h, out_w, kh, kw)
    window_strides = (
        strides[0],
        strides[1],
        strides[2] * sh,
        strides[3] * sw,
        strides[2],
        strides[3],
    )
    windows = np.lib.stride_tricks.as_strided(padded, shape=shape, strides=window_strides)
    # The reshape of the strided view is normally the one unavoidable copy and
    # yields a C-contiguous array ready for BLAS.  For layouts where the
    # reshape stays a view (e.g. 1x1 kernels at stride 1), copy explicitly:
    # callers own the returned columns (backward closures capture them, and
    # they must not alias the caller's live input memory).
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, channels * kh * kw)
    if columns.base is not None:
        columns = np.ascontiguousarray(columns)
    return columns, (out_h, out_w)


def _channel_major_columns(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Columns of shape ``(batch, channels * kh * kw, out_h * out_w)``.

    The channel-major counterpart of :func:`im2col`, for the graph-free dense
    convolution.  The result may be a view of ``images`` (1x1 kernels at
    stride 1 without padding), so callers must only read it.
    """
    batch, channels = images.shape[:2]
    kh, kw = kernel_size
    sh, sw = stride
    padded = _zero_pad(images, *padding)
    out_h = (padded.shape[2] - kh) // sh + 1
    out_w = (padded.shape[3] - kw) // sw + 1
    strides = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, kh, kw, out_h, out_w),
        strides=(strides[0], strides[1], strides[2], strides[3],
                 strides[2] * sh, strides[3] * sw),
    )
    return windows.reshape(batch, channels * kh * kw, out_h * out_w), (out_h, out_w)


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`, scattering column gradients back to image space."""
    batch, channels, height, width = image_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1

    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    cols = columns.reshape(batch, out_h, out_w, channels, kh, kw)

    if kh == sh and kw == sw and out_h * sh == padded_h and out_w * sw == padded_w:
        # Windows tile the image exactly (the pooling-backward case): the
        # scatter is a pure relayout, done in a single vectorised copy.
        padded = cols.transpose(0, 3, 1, 4, 2, 5).reshape(batch, channels, padded_h, padded_w)
    else:
        # Overlapping windows: accumulate one strided slice per kernel offset.
        # Each iteration is a fully vectorised slice-add over the whole batch,
        # so Python-level work is O(kh * kw), independent of batch/channels.
        # One up-front transpose copy makes every scatter-add read contiguous
        # memory, which roughly halves the scatter cost for 3x3 kernels.
        padded = np.zeros((batch, channels, padded_h, padded_w), dtype=columns.dtype)
        cols_t = np.ascontiguousarray(cols.transpose(0, 3, 4, 5, 1, 2))  # (batch, C, kh, kw, oh, ow)
        for i in range(kh):
            row = padded[:, :, i : i + sh * out_h : sh]
            for j in range(kw):
                row[:, :, :, j : j + sw * out_w : sw] += cols_t[:, :, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------
#: Byte budget of one batch tile of the graph-free depthwise stencil's padded
#: input.  Running all ``kh * kw`` taps over a tile this small keeps the tile,
#: its output and the scratch buffer cache-resident across taps, instead of
#: streaming the whole batch through memory once per tap.
_DEPTHWISE_TILE_BYTES = 512 * 1024


def _depthwise_taps(padded: np.ndarray, kernel: np.ndarray, stride: Tuple[int, int],
                    out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the depthwise stencil of ``padded`` into ``out``.

    The first tap writes ``out`` directly and every later tap is multiplied
    into the reused ``scratch`` buffer and added, so the loop allocates
    nothing.  Each output element sees the same multiply-then-add sequence
    whatever the batch slice, so results are bit-identical for any tiling.
    """
    _, _, kh, kw = kernel.shape
    sh, sw = stride
    out_h, out_w = out.shape[2], out.shape[3]
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
            tap = kernel[None, :, 0, i, j, None, None]
            if i == 0 and j == 0:
                np.multiply(window, tap, out=out)
            else:
                np.multiply(window, tap, out=scratch)
                out += scratch


def _depthwise_conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tensor:
    """Depthwise convolution (``groups == in_channels == out_channels``).

    A depthwise kernel touches each input element exactly ``kh * kw`` times,
    so lowering to im2col columns would inflate memory traffic ``kh * kw``-
    fold for a contraction of length ``kh * kw``.  Instead, forward and
    backward are computed as ``kh * kw`` fused multiply-adds over strided
    window views of the (padded) input — no column matrix, no scatter.
    Without a graph to record, the forward runs batch tile by batch tile
    through one reused padded buffer (see ``_DEPTHWISE_TILE_BYTES``).
    """
    batch, channels, height, width = inputs.shape
    _, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1

    kernel = weight.data  # (channels, 1, kh, kw)
    out_data = np.empty((batch, channels, out_h, out_w),
                        dtype=np.result_type(inputs.dtype, kernel.dtype))
    graph_free = _graph_free(inputs, weight, bias)
    padded_shape = (channels, height + 2 * ph, width + 2 * pw)
    tile = batch  # the backward reads the whole padded input
    if graph_free:
        sample_bytes = int(np.prod(padded_shape)) * inputs.dtype.itemsize
        tile = max(1, min(batch, _DEPTHWISE_TILE_BYTES // sample_bytes))
    # Only the interior is rewritten per tile, so the border stays zero.
    padded = np.zeros((tile,) + padded_shape, dtype=inputs.dtype)
    scratch = np.empty((tile,) + out_data.shape[1:], dtype=out_data.dtype)
    for start in range(0, batch, max(tile, 1)):
        rows = min(tile, batch - start)
        padded[:rows, :, ph : ph + height, pw : pw + width] = inputs.data[start : start + rows]
        _depthwise_taps(padded[:rows], kernel, stride,
                        out_data[start : start + rows], scratch[:rows])
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)
    if graph_free:
        return Tensor(out_data)

    parents = [inputs, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            grad_weight = np.empty_like(kernel)
            for i in range(kh):
                for j in range(kw):
                    window = padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
                    grad_weight[:, 0, i, j] = np.einsum("bcxy,bcxy->c", grad, window)
            weight._accumulate(grad_weight)
        if inputs.requires_grad:
            grad_padded = np.zeros(padded.shape, dtype=grad.dtype)
            for i in range(kh):
                for j in range(kw):
                    grad_padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += (
                        grad * kernel[None, :, 0, i, j, None, None]
                    )
            if ph or pw:
                grad_padded = grad_padded[:, :, ph : ph + height, pw : pw + width]
            inputs._accumulate(grad_padded)

    return inputs._make_child(out_data, parents, backward)


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over a ``(batch, channels, height, width)`` input."""
    stride = _pair(stride)
    padding = _pair(padding)
    batch, in_channels, _, _ = inputs.shape
    out_channels, in_per_group, kh, kw = weight.shape
    if in_channels != in_per_group * groups:
        raise ValueError(
            f"conv2d: input has {in_channels} channels but weight expects "
            f"{in_per_group * groups} (groups={groups})"
        )

    if groups > 1 and in_per_group == 1 and out_channels == groups:
        return _depthwise_conv2d(inputs, weight, bias, stride, padding)

    if groups == 1 and _graph_free(inputs, weight, bias):
        # Inference fast path: ``(O, K) @ (B, K, P)`` over channel-major
        # columns lands the result in channel-major layout.  For 1x1 kernels
        # at stride 1 (MobileNet's expand/project convs) the columns are a
        # view of the input, so nothing is copied; for wider kernels the
        # gather runs along contiguous output rows, several times faster
        # than im2col's patch-major copy.
        columns, (out_h, out_w) = _channel_major_columns(inputs.data, (kh, kw), stride, padding)
        out_data = np.matmul(weight.data.reshape(out_channels, -1), columns)
        out_data = out_data.reshape(batch, out_channels, out_h, out_w)
        if bias is not None:
            out_data += bias.data.reshape(1, -1, 1, 1)
        return Tensor(out_data)

    columns, (out_h, out_w) = im2col(inputs.data, (kh, kw), stride, padding)
    patches = out_h * out_w

    if groups == 1:
        # Dense path: one BLAS matmul over the whole batch.  The flattened
        # weight view is computed once here and captured by the backward
        # closure, so forward and backward share it.  Multiplying as
        # ``(O, K) @ (B, K, P)`` lands the result directly in channel-major
        # layout, so the reshape below is a view — no post-GEMM transpose
        # copy (the transposed columns argument is handled natively by BLAS).
        flat_weight = weight.data.reshape(out_channels, -1)
        out_data = np.matmul(flat_weight, columns.transpose(0, 2, 1))
        out_data = out_data.reshape(batch, out_channels, out_h, out_w)
    else:
        # Grouped path (MobileNetV2 depthwise layers): a single batched
        # einsum over all groups at once.  im2col's column layout is
        # channel-major, so splitting the last axis into (groups, k) keeps
        # each group's patch entries contiguous — no per-group Python
        # dispatch, no concatenate.
        group_out = out_channels // groups
        grouped_columns = columns.reshape(batch, patches, groups, in_per_group * kh * kw)
        grouped_weight = weight.data.reshape(groups, group_out, in_per_group * kh * kw)
        out_data = np.einsum("bpgk,gok->bgop", grouped_columns, grouped_weight)
        out_data = out_data.reshape(batch, out_channels, out_h, out_w)

    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)

    parents = [inputs, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch, out_channels, patches)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if groups == 1:
            if weight.requires_grad:
                grad_weight = np.tensordot(grad_flat, columns, axes=((0, 2), (0, 1)))
                weight._accumulate(grad_weight.reshape(weight.shape))
            if inputs.requires_grad:
                grad_columns = grad_flat.transpose(0, 2, 1) @ flat_weight
                inputs._accumulate(
                    col2im(grad_columns, inputs.shape, (kh, kw), stride, padding)
                )
        else:
            grad_grouped = grad_flat.reshape(batch, groups, group_out, patches)
            if weight.requires_grad:
                grad_weight = np.einsum("bgop,bpgk->gok", grad_grouped, grouped_columns)
                weight._accumulate(grad_weight.reshape(weight.shape))
            if inputs.requires_grad:
                grad_columns = np.einsum("bgop,gok->bpgk", grad_grouped, grouped_weight)
                inputs._accumulate(
                    col2im(grad_columns.reshape(batch, patches, -1),
                           inputs.shape, (kh, kw), stride, padding)
                )

    return inputs._make_child(out_data, parents, backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------
def _pool_reduce(images: np.ndarray, kernel_size: Tuple[int, int],
                 stride: Tuple[int, int], reduce: str) -> np.ndarray:
    """Window reduction (max/mean) without materialising columns.

    Fuses ``kh * kw`` elementwise reductions over strided slices — one
    vectorised op per kernel offset, no column copy and no argmax
    bookkeeping.  An order of magnitude faster than an axis reduction over a
    window view, because numpy reduces over short trailing axes one window at
    a time while the slice form streams the whole feature map per offset.
    Gradients never flow through this path.
    """
    kh, kw = kernel_size
    sh, sw = stride
    height, width = images.shape[2], images.shape[3]
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1
    out: Optional[np.ndarray] = None
    for row in range(kh):
        for col in range(kw):
            window = images[:, :, row : row + out_h * sh : sh, col : col + out_w * sw : sw]
            if out is None:
                out = window.copy()
            elif reduce == "max":
                np.maximum(out, window, out=out)
            else:
                np.add(out, window, out=out)
    assert out is not None
    if reduce == "mean":
        out /= kh * kw
    return out


def _pool_backward_noop(grad: np.ndarray) -> None:
    return None


def max_pool2d(inputs: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    kernel = _pair(kernel_size)
    if inputs.shape[2] < kernel[0] or inputs.shape[3] < kernel[1]:
        # Feature map already smaller than the window (e.g. VGG on 28x28 MNIST):
        # pooling further would produce an empty map, so pass through unchanged.
        return inputs
    stride_pair = _pair(stride) if stride is not None else kernel
    if not (is_grad_enabled() and inputs.requires_grad):
        # Inference fast path (the serving hot loop): skips the column copy
        # and the argmax / take_along_axis pair, which only exist to route
        # gradients.
        out_data = _pool_reduce(inputs.data, kernel, stride_pair, "max")
        return inputs._make_child(out_data, (inputs,), _pool_backward_noop)
    columns, (out_h, out_w) = im2col(inputs.data, kernel, stride_pair, (0, 0))
    batch, channels = inputs.shape[0], inputs.shape[1]
    kh, kw = kernel
    cols = columns.reshape(batch, out_h * out_w, channels, kh * kw)
    max_idx = cols.argmax(axis=-1)
    out_data = np.take_along_axis(cols, max_idx[..., None], axis=-1)[..., 0]
    out_data = out_data.transpose(0, 2, 1).reshape(batch, channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_flat = grad.reshape(batch, channels, out_h * out_w).transpose(0, 2, 1)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, max_idx[..., None], grad_flat[..., None], axis=-1)
        grad_columns = grad_cols.reshape(batch, out_h * out_w, channels * kh * kw)
        inputs._accumulate(col2im(grad_columns, inputs.shape, kernel, stride_pair, (0, 0)))

    return inputs._make_child(out_data, (inputs,), backward)


def avg_pool2d(inputs: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    kernel = _pair(kernel_size)
    if inputs.shape[2] < kernel[0] or inputs.shape[3] < kernel[1]:
        return inputs
    stride_pair = _pair(stride) if stride is not None else kernel
    if not (is_grad_enabled() and inputs.requires_grad):
        # Same inference fast path as max_pool2d: window mean, no copies.
        out_data = _pool_reduce(inputs.data, kernel, stride_pair, "mean")
        return inputs._make_child(out_data, (inputs,), _pool_backward_noop)
    columns, (out_h, out_w) = im2col(inputs.data, kernel, stride_pair, (0, 0))
    batch, channels = inputs.shape[0], inputs.shape[1]
    kh, kw = kernel
    cols = columns.reshape(batch, out_h * out_w, channels, kh * kw)
    out_data = cols.mean(axis=-1).transpose(0, 2, 1).reshape(batch, channels, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_flat = grad.reshape(batch, channels, out_h * out_w).transpose(0, 2, 1)
        grad_cols = np.repeat(grad_flat[..., None] / (kh * kw), kh * kw, axis=-1)
        grad_columns = grad_cols.reshape(batch, out_h * out_w, channels * kh * kw)
        inputs._accumulate(col2im(grad_columns, inputs.shape, kernel, stride_pair, (0, 0)))

    return inputs._make_child(out_data, (inputs,), backward)


def adaptive_avg_pool2d(inputs: Tensor, output_size: IntPair = 1) -> Tensor:
    """Adaptive average pooling; only exact divisors or global pooling are supported."""
    target_h, target_w = _pair(output_size)
    _, _, height, width = inputs.shape
    if target_h == 1 and target_w == 1:
        return inputs.mean(axis=(2, 3), keepdims=True)
    if height % target_h or width % target_w:
        raise ValueError("adaptive_avg_pool2d requires the input size to be divisible by the target")
    return avg_pool2d(inputs, (height // target_h, width // target_w))


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------
def batch_norm(
    inputs: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel axis of 2-D or 4-D inputs.

    ``running_mean``/``running_var`` are plain numpy buffers updated in place
    when ``training`` is true.
    """
    if inputs.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif inputs.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError("batch_norm supports 2-D or 4-D inputs")

    if not training and _graph_free(inputs, gamma, beta):
        # Inference fast path: fold the running statistics and the affine
        # parameters into one per-channel scale and shift, applied in one
        # multiply and one in-place add (the graph path makes four passes,
        # each allocating a tensor).  Computed in the dtype the graph path
        # would return.
        dtype = np.result_type(inputs.dtype, gamma.dtype, beta.dtype)
        scale = np.asarray(gamma.data, dtype=dtype) / np.sqrt(
            np.asarray(running_var, dtype=dtype) + eps)
        shift = np.asarray(beta.data, dtype=dtype) - np.asarray(running_mean, dtype=dtype) * scale
        out_data = inputs.data * scale.reshape(shape)
        out_data += shift.reshape(shape)
        return Tensor(out_data)

    if training:
        batch_mean = inputs.data.mean(axis=axes)
        batch_var = inputs.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * batch_mean
        running_var *= 1.0 - momentum
        running_var += momentum * batch_var
        mean_used, var_used = batch_mean, batch_var
    else:
        mean_used, var_used = running_mean, running_var

    # Cast the statistics to the input dtype so float32 activations are not
    # silently upcast by float64 running buffers (or vice versa).
    mean_t = Tensor(np.asarray(mean_used, dtype=inputs.dtype).reshape(shape))
    std_t = Tensor(np.sqrt(np.asarray(var_used, dtype=inputs.dtype).reshape(shape) + eps))
    normalised = (inputs - mean_t) / std_t
    return normalised * gamma.reshape(*shape) + beta.reshape(*shape)


def layer_norm(inputs: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    mean = inputs.mean(axis=-1, keepdims=True)
    variance = inputs.var(axis=-1, keepdims=True)
    normalised = (inputs - mean) / ((variance + eps) ** 0.5)
    return normalised * gamma + beta


# ---------------------------------------------------------------------------
# Activations and probability transforms
# ---------------------------------------------------------------------------
def relu(inputs: Tensor) -> Tensor:
    return inputs.relu()


def gelu(inputs: Tensor) -> Tensor:
    """Tanh-approximated GELU activation."""
    scaled = (inputs + inputs * inputs * inputs * 0.044715) * 0.7978845608028654
    return inputs * (scaled.tanh() + 1.0) * 0.5


def relu6(inputs: Tensor) -> Tensor:
    return inputs.clip(0.0, 6.0)


def softmax(inputs: Tensor, axis: int = -1) -> Tensor:
    shifted = inputs - Tensor(inputs.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(inputs: Tensor, axis: int = -1) -> Tensor:
    shifted = inputs - Tensor(inputs.data.max(axis=axis, keepdims=True))
    logsum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsum


def dropout(inputs: Tensor, probability: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    if not training or probability <= 0.0:
        return inputs
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.random(inputs.shape) >= probability).astype(inputs.dtype)
    mask *= 1.0 / (1.0 - probability)
    return inputs * Tensor(mask)


# ---------------------------------------------------------------------------
# Embedding lookup
# ---------------------------------------------------------------------------
def embedding(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (any shape)."""
    indices = np.asarray(indices, dtype=np.int64)
    data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        grad_weight = np.zeros_like(weight.data)
        np.add.at(grad_weight, indices.reshape(-1), grad.reshape(-1, weight.shape[1]))
        weight._accumulate(grad_weight)

    return weight._make_child(data, (weight,), backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` ``(batch, classes)`` and integer targets."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    log_probs = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -picked.mean()


def mse_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    targets_t = targets if isinstance(targets, Tensor) else Tensor(targets)
    diff = predictions - targets_t
    return (diff * diff).mean()


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Classification accuracy (not differentiable)."""
    predictions = logits.data.argmax(axis=-1)
    targets = np.asarray(targets).reshape(predictions.shape)
    return float((predictions == targets).mean())


def linear(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``inputs @ weight.T + bias`` (weight stored as (out, in))."""
    out = inputs.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    from .tensor import get_default_dtype

    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    encoded = np.zeros((indices.size, num_classes), dtype=get_default_dtype())
    encoded[np.arange(indices.size), indices] = 1.0
    return encoded
