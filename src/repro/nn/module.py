"""Module/Parameter system, mirroring the ``torch.nn.Module`` contract.

Modules register :class:`Parameter` attributes and child modules
automatically (via ``__setattr__``), expose recursive iteration over
parameters, and carry a ``training`` flag toggled by :meth:`Module.train` /
:meth:`Module.eval` — the exact surface the PIT trainer and the deployment
flow rely on.  :func:`probe_shapes` records every module's shapes in one
forward, for the GAP8 cost model and the streaming executor.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad

__all__ = ["Parameter", "Module", "probe_shapes"]

Shape = Tuple[int, ...]


class Parameter(Tensor):
    """A :class:`Tensor` that is a learnable leaf of a module.

    Parameters always require gradients; optimizers discover them through
    :meth:`Module.parameters`.
    """

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        elif key in self.__dict__.get("_buffers", ()):
            # Assigning to a registered buffer name updates the buffer
            # (coerced to an array so scalars survive state_dict round
            # trips) instead of silently shadowing it with a plain
            # attribute that save/load would ignore.
            value = np.asarray(value)
            self._buffers[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable state array (e.g. BatchNorm statistics).

        Buffers travel with ``state_dict`` but receive no gradients.
        """
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Recursive iteration
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def children(self) -> List["Module"]:
        return list(self._modules.values())

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter/buffer names to array copies."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: np.array(buf, copy=True) for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching).

        Every array takes the dtype of the one it replaces, so a file saved
        at another precision loads into this model's precision.  Keys and
        parameter shapes are all checked before anything is assigned, so
        a state that does not fit leaves the model unchanged.
        """
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own_params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{param.data.shape} vs {state[name].shape}")
        for name, param in own_params.items():
            param.data[...] = state[name]
        # Buffers may live on nested modules; walk and assign.
        for name, buf in own_buffers.items():
            module, leaf = self._resolve_buffer(name)
            module.update_buffer(
                leaf, np.array(state[name], dtype=np.asarray(buf).dtype))

    def _resolve_buffer(self, dotted: str) -> Tuple["Module", str]:
        parts = dotted.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._modules[part]
        return module, parts[-1]

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def count_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(p.data.size for p in self.parameters())

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"


Shapes = Dict[Module, Tuple[Shape, Shape]]


def probe_shapes(net: Module, x_shape: Shape) -> Shapes:
    """``{module: (in_shape, out_shape)}`` of one forward of zeros.

    Every module called with a single tensor that returns a tensor is
    recorded (the last call wins).  The forward runs in eval mode under
    ``no_grad`` and every module's mode is restored afterwards, so a probe
    never updates BatchNorm running statistics.
    """
    shapes: Shapes = {}
    original = Module.__call__

    def recording(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if (len(args) == 1 and not kwargs and isinstance(args[0], Tensor)
                and isinstance(out, Tensor)):
            shapes[self] = (args[0].shape, out.shape)
        return out

    modes = [(module, module.training) for module in net.modules()]
    net.eval()
    Module.__call__ = recording
    try:
        with no_grad():
            net(Tensor(np.zeros(x_shape)))
    finally:
        Module.__call__ = original
        for module, mode in modes:
            object.__setattr__(module, "training", mode)
    return shapes
