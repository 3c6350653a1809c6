"""``PITConv1d`` — the masked temporal convolution of paper Eq. 5.

A PIT layer is a causal convolution with *maximally-sized* kernel
(``rf_max`` taps, dilation 1) whose kernel time-slices are multiplied by
the differentiable mask ``M`` produced by :class:`repro.core.masks.TimeMask`::

    y[m, t] = Σ_{i=0..rf_max-1} Σ_l  x[l, t - i] * (M_i ⊙ W[l, m, i])

The layer never materializes that full-tap product:
:func:`repro.autograd.conv1d_causal_masked` reads the mask on every call
and runs forward and input gradient as a dilation-``d`` conv over the
``(rf_max-1)/d + 1`` live taps only.  The weight gradient covers every
tap while γ trains (the straight-through gradient of Eq. 2 flows through
the dead ones) and only the live taps once the mask is frozen, so
fine-tuning and evaluation cost what the exported layer costs.

During the search the mask changes with γ; after export the layer collapses
into a plain :class:`repro.nn.CausalConv1d` with the learned power-of-two
dilation and a ``(rf_max-1)/d + 1``-tap kernel (see
:mod:`repro.core.export`).

The same layer carries the channel search of paper Sec. III-C: built with
``min_channels=``, it also owns a :class:`repro.core.ChannelMask` and
multiplies its output channels by it::

    y[m, t] = C_m * Σ_i Σ_l x[l, t-i] * (M_i ⊙ W[l, m, i])

Such a layer is exported by :func:`repro.core.export_channel_conv`; the
flows that cannot shrink a consumer's input (``export_network``, stacked
training, the Proxyless supernet) refuse it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, conv1d_causal_masked
from ..nn import init
from ..nn.module import Module, Parameter
from .channel_mask import ChannelMask
from .masks import TimeMask

__all__ = ["PITConv1d"]


class PITConv1d(Module):
    """Searchable causal convolution with learnable time-dilation.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    rf_max:
        Maximum receptive field (number of kernel taps of the seed layer).
        The search explores dilations ``1, 2, 4, ..., 2^(L-1)`` with
        ``L = floor(log2(rf_max-1)) + 1``.
    stride:
        Temporal stride (kept fixed by the search).
    min_channels:
        When set, the output channels are searched too (Sec. III-C): the
        layer owns a :class:`ChannelMask` as ``channel_mask`` that keeps at
        least this many channels alive.  None (default) searches time only.
    """

    def __init__(self, in_channels: int, out_channels: int, rf_max: int,
                 stride: int = 1, bias: bool = True,
                 min_channels: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if rf_max < 2:
            raise ValueError("rf_max must be >= 2 for a searchable layer")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.rf_max = rf_max
        self.stride = stride
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, rf_max), rng),
            name="pitconv.weight")
        self.bias = Parameter(init.uniform_fan_in((out_channels,), rng),
                              name="pitconv.bias") if bias else None
        self.mask = TimeMask(rf_max)
        self.channel_mask = (ChannelMask(out_channels, min_channels)
                             if min_channels is not None else None)
        # Kernel index i corresponds to lag rf_max-1-i; the mask is produced
        # in lag order, so it is flipped before being applied to the kernel.
        self._flip_index = np.arange(rf_max)[::-1].copy()
        self._last_t_out: Optional[int] = None

    def forward(self, x: Tensor) -> Tensor:
        mask_lags = self.mask()                       # (rf_max,) in lag order
        mask_kernel = mask_lags[self._flip_index]     # kernel order
        out = conv1d_causal_masked(x, self.weight, mask_kernel, self.bias,
                                   stride=self.stride)
        self._last_t_out = out.shape[-1]
        if self.channel_mask is not None:
            out = out * self.channel_mask().reshape(1, self.out_channels, 1)
        return out

    # ------------------------------------------------------------------
    # Search bookkeeping
    # ------------------------------------------------------------------
    def current_dilation(self) -> int:
        """Dilation currently encoded by this layer's γ parameters."""
        return self.mask.current_dilation()

    def kept_taps(self) -> int:
        """Number of alive kernel time-slices under the current mask."""
        return int(self.mask.current_mask().sum())

    def alive_channels(self) -> int:
        """Output channels the export keeps (all without a channel mask)."""
        if self.channel_mask is None:
            return self.out_channels
        return self.channel_mask.alive_channels()

    def effective_params(self) -> int:
        """Parameter count after export (masked slices and channels removed)."""
        alive = self.alive_channels()
        count = self.kept_taps() * self.in_channels * alive
        if self.bias is not None:
            count += alive
        return count

    def freeze(self) -> None:
        """Freeze the masks for the fine-tuning phase (Algorithm 1, line 7)."""
        self.mask.freeze()
        if self.channel_mask is not None:
            self.channel_mask.freeze()

    def unfreeze(self) -> None:
        self.mask.unfreeze()
        if self.channel_mask is not None:
            self.channel_mask.unfreeze()

    def set_dilation(self, dilation: int) -> None:
        """Force a dilation (used to replay hand-tuned configurations)."""
        self.mask.set_dilation(dilation)

    def __repr__(self) -> str:
        alive = ("" if self.channel_mask is None else
                 f", alive={self.alive_channels()}/{self.out_channels}")
        return (f"PITConv1d({self.in_channels}, {self.out_channels}, "
                f"rf_max={self.rf_max}, d={self.current_dilation()}, "
                f"s={self.stride}{alive})")
