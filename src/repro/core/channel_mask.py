"""Channel masking: the MorphNet-style extension of paper Sec. III-C.

The paper notes PIT "can be easily integrated with other DMaskingNAS
techniques that affect different hyper-parameters, e.g. [10] to tune the
number of channels in each layer, simply by adding further regularization
terms and masking parameters, to perform a wider exploration."

That is one more mask on the same layer: :class:`ChannelMask` is a vector
of trainable parameters γ̂ᶜ (one per output channel), binarized with the
same BinaryConnect/STE scheme as the time masks (Eq. 2).  A
:class:`repro.core.PITConv1d` built with ``min_channels=`` owns one and
multiplies its output channels by it, so the layer is searchable in time
(dilation) *and* width.  The further regularization term is
:func:`repro.core.channel_regularizer`, and
:func:`repro.core.export_channel_conv` collapses such a layer into its
alive channels.

A minimum number of alive channels is enforced (``min_channels``) so the
network can never prune itself to a disconnected graph.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, binarize_ste, get_default_dtype
from ..autograd.ops_nn import binary_mask
from ..nn.module import Module, Parameter

__all__ = ["ChannelMask"]


class ChannelMask(Module):
    """Trainable on/off gate per output channel (MorphNet-style γ).

    Forward returns a ``(channels,)`` 0/1 tensor with straight-through
    gradients into the float shadow parameters γ̂ᶜ.  If fewer than
    ``min_channels`` channels pass the threshold, the ``min_channels``
    highest-γ̂ channels are kept alive — a projection that keeps the
    network connected, computed inside the ``binarize_ste`` op so a
    replayed step decides it from the current γ̂.
    """

    threshold = 0.5   # δ of Eq. 2

    def __init__(self, channels: int, min_channels: int = 1):
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if not 1 <= min_channels <= channels:
            raise ValueError("min_channels must be in [1, channels]")
        self.channels = channels
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
