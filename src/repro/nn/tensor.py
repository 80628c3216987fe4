"""Reverse-mode automatic differentiation tensor.

This module provides the :class:`Tensor` class used throughout the
reproduction as the substitute for ``torch.Tensor``.  A tensor wraps a numpy
array and records the operations applied to it so that gradients can be
propagated backwards through the computation graph with :meth:`Tensor.backward`.

The implementation is deliberately small and explicit: each differentiable
operation creates an output tensor whose ``_backward`` closure accumulates
gradients into its parents.  Gradient propagation performs a topological sort
over the recorded graph, which keeps the semantics identical to the eager
autograd engines used by mainstream frameworks.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# ---------------------------------------------------------------------------
# Default compute dtype
# ---------------------------------------------------------------------------
# The substrate computes in float32 by default: it halves memory traffic on
# every hot path and lets numpy's BLAS-backed kernels run at single-precision
# speed.  Code that needs the old float64 behaviour (e.g. bit-exact
# training-equivalence checks) can switch globally via :func:`set_default_dtype`.
_DEFAULT_DTYPE = np.dtype(np.float32)


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with when none is inferable."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the global default compute dtype (must be a floating-point type).

    Returns the previous default so callers can restore it::

        previous = nn.set_default_dtype(np.float64)
        try:
            ...
        finally:
            nn.set_default_dtype(previous)
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be floating point, got {resolved}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


# ---------------------------------------------------------------------------
# Gradient-mode switch (``no_grad``)
# ---------------------------------------------------------------------------
# Grad mode is *per thread*: the serving worker threads run forwards under
# ``no_grad`` concurrently with (potentially) a training thread, so a global
# flag would let one thread's context leak into another's graph construction.
_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Whether new operations on this thread record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager / decorator that disables autograd graph construction.

    Inside the context every operation produces plain result tensors: no
    ``_backward`` closure is stored, no parent references are kept, and the
    forward arrays become garbage-collectable as soon as the next layer has
    consumed them.  This is what evaluation loops, the extractor, the
    serving batcher and the forward-only privacy attacks run under.

    The mode is thread-local, and the save/restore stack lives on the thread
    as well, so one ``no_grad`` instance (e.g. a ``@nn.no_grad()`` decorator
    on a shared method) may be entered from many threads at once.
    """

    def __enter__(self) -> "no_grad":
        stack = getattr(_GRAD_STATE, "stack", None)
        if stack is None:
            stack = _GRAD_STATE.stack = []
        stack.append(is_grad_enabled())
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_STATE.enabled = _GRAD_STATE.stack.pop()

    def __call__(self, fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes where the original dimension was 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _coerce(value, dtype=None) -> np.ndarray:
    """Convert ``value`` to an ndarray following the substrate's dtype policy.

    Floating-point arrays keep their dtype (so a float32 data pipeline stays
    float32 end to end and a float64 test oracle stays float64); everything
    else — python scalars, lists, integer/bool arrays — lands on the default
    compute dtype.  An explicit ``dtype`` always wins.
    """
    if dtype is not None:
        return np.asarray(value, dtype=dtype)
    # numpy scalars (e.g. the result of ``arr.sum()``) count as arrays here,
    # otherwise full reductions would silently drop to the default dtype.
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind == "f":
        return np.asarray(value)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return _coerce(value, dtype=dtype)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = _coerce(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              requires_grad: bool = False) -> "Tensor":
        gen = rng if rng is not None else np.random.default_rng()
        data = gen.standard_normal(shape).astype(_DEFAULT_DTYPE, copy=False)
        return Tensor(data, requires_grad=requires_grad)

    @staticmethod
    def ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(parent.requires_grad for parent in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._backward = backward
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``, which is created on first touch.

        ``owned=True`` is the caller's promise that it freshly allocated
        ``grad`` and hands it to this tensor alone.  Such a buffer becomes
        ``self.grad`` as it is, when it is C-contiguous.  Anything else (the
        incoming gradient itself, views, broadcasts, a buffer passed to more
        than one parent) is copied, so no two ``.grad`` arrays, and no
        ``.grad`` and forward buffer, ever share memory.  Later contributions
        add into ``self.grad`` in place.
        """
        if not isinstance(grad, np.ndarray) or grad.dtype != self.data.dtype:
            grad = np.array(grad, dtype=self.data.dtype)
            owned = True
        if self.grad is None:
            self.grad = grad if owned and grad.flags.c_contiguous else np.array(grad)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        ordering: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordering.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            # ``_unbroadcast`` returns ``grad`` itself when no axis was
            # broadcast: that buffer is the child's, so it is not handed over.
            if self.requires_grad:
                summed = _unbroadcast(grad, self.shape)
                self._accumulate(summed, owned=summed is not grad)
            if other.requires_grad:
                summed = _unbroadcast(grad, other.shape)
                other._accumulate(summed, owned=summed is not grad)

        return self._make_child(data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                summed = _unbroadcast(grad, self.shape)
                self._accumulate(summed, owned=summed is not grad)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape), owned=True)

        return self._make_child(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return self._make_child(data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
                    owned=True,
                )

        return self._make_child(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return self._make_child(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * (self.data ** (exponent - 1)), owned=True)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(_unbroadcast(np.outer(grad, other.data)
                                                  if grad.ndim == 1 else
                                                  grad[..., None] * other.data, self.shape),
                                     owned=True)
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape),
                        owned=True,
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(_unbroadcast(np.outer(self.data, grad)
                                                   if grad.ndim == 1 else
                                                   self.data[..., None] @ grad[None, ...],
                                                   other.shape),
                                      owned=True)
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape),
                        owned=True,
                    )

        return self._make_child(data, (self, other), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # Not owned: _accumulate copies the read-only broadcast view on
            # first touch, so it never needs materialising here.
            self._accumulate(np.broadcast_to(g, self.shape))

        return self._make_child(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * g, owned=True)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make_child(data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]]
        if not axes:
            axes_tuple = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_tuple = tuple(axes[0])
        else:
            axes_tuple = tuple(axes)
        data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_tuple is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(grad.transpose(inverse))

        return self._make_child(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        order = list(range(self.ndim))
        order[axis1], order[axis2] = order[axis2], order[axis1]
        return self.transpose(*order)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return self._make_child(data, (self,), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        pad_width = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            slices = tuple(
                slice(before, grad.shape[i] - after)
                for i, (before, after) in enumerate(pad_width)
            )
            self._accumulate(grad[slices])

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data, owned=True)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return self._make_child(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2), owned=True)

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data), owned=True)

        return self._make_child(data, (self,), backward)

    def relu(self) -> "Tensor":
        if not (is_grad_enabled() and self.requires_grad):
            # Inference fast path: the mask only exists to route gradients.
            return Tensor(np.maximum(self.data, 0))
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return self._make_child(data, (self,), backward)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        data = np.clip(self.data, minimum, maximum)
        if not (is_grad_enabled() and self.requires_grad):
            return Tensor(data)  # inference fast path: no gradient mask
        mask = (self.data >= minimum) & (self.data <= maximum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return self._make_child(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign, owned=True)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain tensors)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __eq__(self, other) -> np.ndarray:  # type: ignore[override]
        return self.data == _as_array(other)

    def __hash__(self) -> int:  # Tensors are identity-hashable graph nodes.
        return id(self)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        offset = 0
        for tensor, size in zip(tensors, sizes):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(offset, offset + size)
                tensor._accumulate(grad[tuple(index)])
            offset += size

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._backward = backward
        out._parents = tuple(tensors)
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for position, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(grad, position, axis=axis), owned=True)  # take copies

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._backward = backward
        out._parents = tuple(tensors)
    return out
