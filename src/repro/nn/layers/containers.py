"""Container modules: Sequential and ModuleList."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from .. import functional as F
from ..tensor import Tensor
from .activations import ReLU, ReLU6
from .conv import Conv2d
from .module import Module
from .normalization import BatchNorm2d


#: Activations a folded conv+BN applies in place, by exact module type
#: (the same arithmetic as their graph-free ``forward``).
_IN_PLACE_ACTIVATIONS = {
    ReLU: lambda data: np.maximum(data, 0, out=data),
    ReLU6: lambda data: np.clip(data, 0.0, 6.0, out=data),
}


def conv_batch_norm(conv: Conv2d, norm: BatchNorm2d, activation: Optional[Module],
                    inputs: Tensor) -> Tensor:
    """``activation(norm(conv(inputs)))`` as one graph-free convolution.

    The eval batch norm's per-channel scale ``gamma / sqrt(var + eps)``
    multiplies the conv weights, and its shift (plus the conv bias times the
    scale) becomes the bias, so the BN costs no pass over the activation;
    a ReLU or ReLU6 then clips the fresh output in place.  The fold is
    recomputed from the live parameters and running statistics on every
    call, so a weight update, ``load_state_dict`` or hot-swap takes effect
    on the next forward.  Agrees with the unfused layers to float tolerance.
    """
    # The dtype the unfused layers would return (the conv bias is added in place).
    dtype = np.result_type(inputs.dtype, conv.weight.dtype, norm.weight.dtype, norm.bias.dtype)
    scale = norm.weight.data.astype(dtype) / np.sqrt(norm.running_var.astype(dtype) + norm.eps)
    shift = norm.bias.data.astype(dtype) - norm.running_mean.astype(dtype) * scale
    if conv.bias is not None:
        shift += conv.bias.data.astype(dtype) * scale
    weight = conv.weight.data.astype(dtype) * scale.reshape(-1, 1, 1, 1)
    output = F.conv2d(inputs, Tensor(weight), Tensor(shift),
                      stride=conv.stride, padding=conv.padding, groups=conv.groups)
    if activation is not None:
        _IN_PLACE_ACTIVATIONS[type(activation)](output.data)
    return output


class Sequential(Module):
    """Applies child modules in order.

    When no graph is recorded, an exact ``Conv2d`` followed by an exact
    ``BatchNorm2d`` in eval mode (and optionally a ``ReLU``/``ReLU6``) runs
    as one folded convolution (:func:`conv_batch_norm`).  Served models and
    extracted originals both run their layers through here, so they stay
    bit-identical to each other.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.register_module(str(index), module)

    def forward(self, inputs: Tensor) -> Tensor:
        modules = list(self._modules.values())
        output = inputs
        index = 0
        while index < len(modules):
            module = modules[index]
            norm = modules[index + 1] if index + 1 < len(modules) else None
            if (type(module) is Conv2d and type(norm) is BatchNorm2d and not norm.training
                    and F._graph_free(output, module.weight, module.bias, norm.weight, norm.bias)):
                after = modules[index + 2] if index + 2 < len(modules) else None
                activation = after if type(after) in _IN_PLACE_ACTIVATIONS else None
                output = conv_batch_norm(module, norm, activation, output)
                index += 2 if activation is None else 3
            else:
                output = module(output)
                index += 1
        return output

    def append(self, module: Module) -> "Sequential":
        self.register_module(str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]


class ModuleList(Module):
    """Holds an ordered list of modules without defining a forward pass."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.register_module(str(index), module)

    def append(self, module: Module) -> "ModuleList":
        self.register_module(str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def to_list(self) -> List[Module]:
        return list(self._modules.values())

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList has no forward(); iterate over its children instead")
