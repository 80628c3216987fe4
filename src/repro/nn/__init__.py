"""``repro.nn`` — from-scratch numpy autograd substrate.

This package stands in for PyTorch in the Amalgam reproduction: it provides a
:class:`~repro.nn.tensor.Tensor` with reverse-mode autodiff, the layer types
used by the paper's model zoo (convolutions, batch norm, embeddings,
attention), optimizers and serialisation helpers.

Importing it keeps freed heap memory resident
(:func:`repro.utils.keep_heap_resident`), so steady-state forwards and
training steps do not page-fault their activations back in.
"""

from . import functional
from . import init
from . import optim
from .losses import CrossEntropyLoss, MSELoss, NLLLoss
from .layers import (
    GELU,
    LogSoftmax,
    ReLU,
    ReLU6,
    Sigmoid,
    Softmax,
    Tanh,
    MultiHeadSelfAttention,
    PositionalEncoding,
    TransformerEncoderLayer,
    ModuleList,
    Sequential,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    Identity,
    Linear,
    Module,
    Parameter,
    BatchNorm1d,
    BatchNorm2d,
    LayerNorm,
    AdaptiveAvgPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    MaxPool2d,
)
from .serialization import (
    load_metadata,
    load_state,
    save_state,
    state_from_bytes,
    state_size_bytes,
    state_to_bytes,
)
from .tensor import (
    Tensor,
    concatenate,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
)
from ..utils.heap import keep_heap_resident

keep_heap_resident()

__all__ = [
    "functional",
    "init",
    "optim",
    "CrossEntropyLoss",
    "MSELoss",
    "NLLLoss",
    "GELU",
    "LogSoftmax",
    "ReLU",
    "ReLU6",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "MultiHeadSelfAttention",
    "PositionalEncoding",
    "TransformerEncoderLayer",
    "ModuleList",
    "Sequential",
    "Conv2d",
    "Dropout",
    "Embedding",
    "Flatten",
    "Identity",
    "Linear",
    "Module",
    "Parameter",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "MaxPool2d",
    "load_metadata",
    "load_state",
    "save_state",
    "state_from_bytes",
    "state_size_bytes",
    "state_to_bytes",
    "Tensor",
    "concatenate",
    "get_default_dtype",
    "is_grad_enabled",
    "no_grad",
    "set_default_dtype",
    "stack",
]
