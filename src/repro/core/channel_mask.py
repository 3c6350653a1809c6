"""Channel masking: the MorphNet-style extension of paper Sec. III-C.

The paper notes PIT "can be easily integrated with other DMaskingNAS
techniques that affect different hyper-parameters, e.g. [10] to tune the
number of channels in each layer, simply by adding further regularization
terms and masking parameters, to perform a wider exploration."

This module implements that integration:

* :class:`ChannelMask` — a vector of trainable parameters γ̂ᶜ (one per
  output channel), binarized with the same BinaryConnect/STE scheme as the
  time masks (Eq. 2), multiplying the layer's output channels;
* :class:`PITChannelConv1d` — a causal convolution searchable in *both*
  dimensions: a :class:`TimeMask` over kernel time slices and a
  :class:`ChannelMask` over output channels;
* :func:`channel_regularizer` — the MorphNet-style Lasso on γ̂ᶜ, weighted
  by each channel's parameter cost (C_in × kept_taps);
* export support — :func:`export_channel_conv` zeroes-and-slices dead
  output channels; whole-network export is provided for purely sequential
  feature extractors (channel changes must propagate to the consumer
  layer's input, which is well-defined only for linear chains).

A minimum number of alive channels is enforced (default 1) so the network
can never prune itself to a disconnected graph.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autograd import (Tensor, apply_op, binarize_ste, conv1d_causal_masked,
                        get_default_dtype)
from ..autograd.ops_nn import binary_mask
from ..autograd.tensor import _SUM
from ..nn import init
from ..nn.module import Module, Parameter
from .masks import TimeMask, kept_lags

__all__ = [
    "ChannelMask",
    "PITChannelConv1d",
    "channel_regularizer",
    "channel_layers",
    "export_channel_conv",
]


class ChannelMask(Module):
    """Trainable on/off gate per output channel (MorphNet-style γ).

    Forward returns a ``(channels,)`` 0/1 tensor with straight-through
    gradients into the float shadow parameters γ̂ᶜ.  If fewer than
    ``min_channels`` channels pass the threshold, the ``min_channels``
    highest-γ̂ channels are kept alive — a projection that keeps the
    network connected, computed inside the ``binarize_ste`` op so a
    replayed step decides it from the current γ̂.
    """

    def __init__(self, channels: int, threshold: float = 0.5,
                 min_channels: int = 1):
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if not 1 <= min_channels <= channels:
            raise ValueError("min_channels must be in [1, channels]")
        self.channels = channels
        self.threshold = threshold
        self.min_channels = min_channels
        dtype = get_default_dtype()
        self.gamma_hat = Parameter(np.ones(channels, dtype),
                                   name="pit.channel_gamma_hat")
        self.register_buffer("frozen_mask", np.zeros(0, dtype))
        self.frozen = False

    def forward(self) -> Tensor:
        if self.frozen:
            return Tensor(self.frozen_mask)
        return binarize_ste(self.gamma_hat, self.threshold,
                            min_keep=self.min_channels)

    def current_mask(self) -> np.ndarray:
        if self.frozen and self.frozen_mask.size:
            return self.frozen_mask.copy()
        return binary_mask(self.gamma_hat.data, self.threshold,
                           self.min_channels).astype(get_default_dtype(),
                                                     copy=False)

    def alive_channels(self) -> int:
        return int(self.current_mask().sum())

    def freeze(self) -> None:
        self.update_buffer("frozen_mask", self.current_mask())
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def set_alive(self, alive: np.ndarray) -> None:
        """Force a binary channel pattern (testing/baselines)."""
        alive = np.asarray(alive, dtype=get_default_dtype())
        if alive.shape != (self.channels,):
            raise ValueError(f"expected shape ({self.channels},), got {alive.shape}")
        self.gamma_hat.data[...] = np.where(alive >= 0.5, 1.0, 0.0)

    def __repr__(self) -> str:
        return (f"ChannelMask({self.alive_channels()}/{self.channels} alive, "
                f"frozen={self.frozen})")


class PITChannelConv1d(Module):
    """Causal convolution searchable in time (dilation) and width (channels).

    Combines a :class:`TimeMask` (paper Eq. 2-5) with a :class:`ChannelMask`
    (Sec. III-C extension).  The masked forward is::

        y[m, t] = ch_mask[m] * Σ_i Σ_l x[l, t-i] * (M_i ⊙ W[l, m, i])
    """

    def __init__(self, in_channels: int, out_channels: int, rf_max: int,
                 stride: int = 1, bias: bool = True, threshold: float = 0.5,
                 min_channels: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if rf_max < 2:
            raise ValueError("rf_max must be >= 2")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.rf_max = rf_max
        self.stride = stride
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, rf_max), rng),
            name="pitchconv.weight")
        self.bias = Parameter(init.uniform_fan_in((out_channels,), rng),
                              name="pitchconv.bias") if bias else None
        self.time_mask = TimeMask(rf_max, threshold=threshold)
        self.channel_mask = ChannelMask(out_channels, threshold=threshold,
                                        min_channels=min_channels)
        self._flip_index = np.arange(rf_max)[::-1].copy()

    def forward(self, x: Tensor) -> Tensor:
        time = self.time_mask()[self._flip_index]
        out = conv1d_causal_masked(x, self.weight, time, self.bias,
                                   stride=self.stride)
        channels = self.channel_mask()
        return out * channels.reshape(1, self.out_channels, 1)

    # -- accounting -----------------------------------------------------
    def current_dilation(self) -> int:
        return self.time_mask.current_dilation()

    def alive_channels(self) -> int:
        return self.channel_mask.alive_channels()

    def kept_taps(self) -> int:
        return int(self.time_mask.current_mask().sum())

    def effective_params(self) -> int:
        alive = self.alive_channels()
        count = self.kept_taps() * self.in_channels * alive
        if self.bias is not None:
            count += alive
        return count

    def freeze(self) -> None:
        self.time_mask.freeze()
        self.channel_mask.freeze()

    def __repr__(self) -> str:
        return (f"PITChannelConv1d({self.in_channels}, {self.out_channels}, "
                f"rf_max={self.rf_max}, d={self.current_dilation()}, "
                f"alive={self.alive_channels()}/{self.out_channels})")


def channel_layers(model: Module) -> List[PITChannelConv1d]:
    """All combined-search convolutions of a model, in traversal order."""
    return [m for m in model.modules() if isinstance(m, PITChannelConv1d)]


def channel_regularizer(model: Module, lam: float) -> Tensor:
    """MorphNet-style Lasso on the channel γ̂ᶜ of every combined layer.

    Each channel's coefficient is its parameter cost ``C_in * kept_taps``
    (analogous to Eq. 6's size weighting, but along the width axis).  The
    kept taps are summed from the time mask inside the graph, detached, so
    a replayed step recomputes the weight as the time mask moves and no
    gradient flows through it.
    """
    terms = []
    for layer in channel_layers(model):
        mask = layer.channel_mask
        if mask.frozen:
            continue
        kept_taps = apply_op(_SUM, (layer.time_mask(),),
                             {"axis": None, "keepdims": False}, detach=True)
        cost = kept_taps * layer.in_channels
        terms.append(mask.gamma_hat.abs().sum() * cost)
    if not terms:
        return Tensor(np.zeros(()))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * lam


def export_channel_conv(layer: PITChannelConv1d):
    """Collapse a combined layer: dilated kernel + alive channels only.

    Returns ``(conv, alive_index)``: the compact :class:`CausalConv1d` and
    the indices of the surviving output channels, which the *consumer*
    layer must use to slice its input weights (only well-defined in a
    linear chain — the caller owns that propagation).
    """
    from ..nn.layers import CausalConv1d

    dilation = layer.current_dilation()
    lags = kept_lags(layer.rf_max, dilation)
    kernel_size = len(lags)
    alive_index = np.nonzero(layer.channel_mask.current_mask() >= 0.5)[0]
    conv = CausalConv1d(layer.in_channels, len(alive_index), kernel_size,
                        dilation=dilation, stride=layer.stride,
                        bias=layer.bias is not None)
    for j in range(kernel_size):
        lag = (kernel_size - 1 - j) * dilation
        source = layer.rf_max - 1 - lag
        conv.weight.data[:, :, j] = layer.weight.data[alive_index, :, source]
    if layer.bias is not None:
        conv.bias.data[...] = layer.bias.data[alive_index]
    return conv, alive_index
