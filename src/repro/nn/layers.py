"""Core layers: Linear, CausalConv1d, BatchNorm1d, activations, dropout, pooling.

These are the building blocks of the two seed architectures (ResTCN and
TEMPONet).  ``CausalConv1d`` implements paper Eq. 1 exactly — a left-padded
dilated temporal convolution — and is also the export target of PIT: after
the search, each ``PITConv1d`` collapses into a ``CausalConv1d`` with the
learned dilation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import (
    Tensor,
    avg_pool1d,
    batch_norm,
    batch_norm_stats,
    conv1d_causal,
    dropout as dropout_op,
    get_default_dtype,
    global_avg_pool1d,
    record_side_effect,
)
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "CausalConv1d",
    "BatchNorm1d",
    "ReLU",
    "Dropout",
    "AvgPool1d",
    "GlobalAvgPool1d",
    "Flatten",
    "Identity",
    "Sequential",
]


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` with weight shape ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng),
                                name="linear.weight")
        self.bias = Parameter(init.uniform_fan_in((out_features,), rng),
                              name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (f"Linear(in={self.in_features}, out={self.out_features}, "
                f"bias={self.bias is not None})")


class CausalConv1d(Module):
    """Causal dilated temporal convolution (paper Eq. 1).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts ``C_in`` / ``C_out``.
    kernel_size:
        Number of taps ``K``.
    dilation:
        Step ``d`` between input samples read by consecutive taps.  The
        receptive field is ``(K - 1) * d + 1``.
    stride:
        Temporal output stride.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, stride: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.stride = stride
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size), rng),
            name="conv.weight")
        self.bias = Parameter(init.uniform_fan_in((out_channels,), rng),
                              name="conv.bias") if bias else None

    @property
    def receptive_field(self) -> int:
        """Layer-local temporal span covered by one output sample,
        ``(K - 1) * d + 1``.

        This is the extent of *this layer's* window on its own input and
        is independent of ``stride`` (stride decides which output
        positions exist, not how far each one looks back).  When layers
        are composed, an earlier stride multiplies the reach of every
        later layer — use :func:`repro.core.export.network_receptive_field`
        for the whole-network figure (what streaming warm-up is sized by).
        """
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        # Stateless: the hardware cost model (repro.hw.gap8) reads the
        # temporal extents it prices from repro.nn.module.probe_shapes.
        return conv1d_causal(x, self.weight, self.bias,
                             dilation=self.dilation, stride=self.stride)

    def __repr__(self) -> str:
        return (f"CausalConv1d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, d={self.dilation}, s={self.stride})")


class BatchNorm1d(Module):
    """Batch normalization over ``(N, C, T)`` or ``(N, C)`` inputs.

    Normalizes per channel across batch (and time, when present), tracking
    running statistics for evaluation mode — the behaviour the int8
    deployment flow folds into the preceding convolution.

    A training-mode call dispatches two ops: the detached batch statistics
    (:func:`repro.autograd.batch_norm_stats`, which also feed the
    running-statistics update) and :func:`repro.autograd.batch_norm`,
    whose backward is the closed form (Ioffe & Szegedy) rather than a
    chain of primitive VJPs, so a step keeps x̂ and the output instead of
    every intermediate.  Evaluation mode is unchanged: it computes
    ``(x − mean) / sqrt(var + eps) · w + b`` from the running statistics
    with primitive ops, the math serving and the GAP8 BN folding rely on.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="bn.weight")
        self.bias = Parameter(np.zeros(num_features), name="bn.bias")
        # Statistics live at the parameters' dtype, so the running update
        # and a loaded state stay in it too.
        dtype = get_default_dtype()
        self.register_buffer("running_mean", np.zeros(num_features, dtype))
        self.register_buffer("running_var", np.ones(num_features, dtype))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 3:
            axes, shape = (0, 2), (1, self.num_features, 1)
        elif x.ndim == 2:
            axes, shape = (0,), (1, self.num_features)
        else:
            raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.shape}")

        if self.training:
            stats = batch_norm_stats(x, axes)
            # Routed through the side-effect hook so a graph-captured step
            # replays the running-statistics update on every batch.
            record_side_effect((stats,), self._update_running_stats)
            return batch_norm(x, stats, self.weight, self.bias, axes, shape,
                              self.eps)

        mean = Tensor(self.running_mean.reshape(shape))
        var = Tensor(self.running_var.reshape(shape))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        return x_hat * self.weight.reshape(shape) + self.bias.reshape(shape)

    def _update_running_stats(self, stats: np.ndarray) -> None:
        mean, var = stats
        self.update_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean + self.momentum * mean.reshape(-1))
        self.update_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var + self.momentum * var.reshape(-1))

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return dropout_op(x, self.p, self.training, rng=self.rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class AvgPool1d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool1d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool1d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool1d(Module):
    """Mean over the time axis: ``(N, C, T) -> (N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool1d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool1d()"


class Flatten(Module):
    """Flatten all axes except the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            setattr(self, f"m{i}", module)
            self._order.append(f"m{i}")

    def append(self, module: Module) -> "Sequential":
        name = f"m{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return iter(getattr(self, name) for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def __len__(self) -> int:
        return len(self._order)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x
