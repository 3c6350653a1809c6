"""TEMPONet — the bio-signal TCN of Zanghieri et al. [1], used on PPG-Dalia.

Three convolutional blocks (channel widths 32/64/128), each with two
dilated temporal convolutions followed by a block-transition convolution
and average pooling, then a fully-connected regression head producing the
heart-rate estimate in BPM.

The 7 searchable convolutions carry the hand-tuned dilations
``(2, 2, 1, 4, 4, 8, 8)`` (paper Table I) with receptive fields
``(5, 5, 5, 9, 9, 17, 17)``; the PIT seed keeps those receptive fields at
``d = 1``.  The resulting search space is ``3·3·3·4·4·5·5 ≈ 1.1e4`` — the
"~10^4 alternatives" of paper Sec. IV-B.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..nn import (
    AvgPool1d,
    BatchNorm1d,
    Dropout,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from .restcn import _make_conv

__all__ = ["TEMPONet", "TEMPONET_HAND_DILATIONS", "TEMPONET_RECEPTIVE_FIELDS"]

TEMPONET_HAND_DILATIONS: Tuple[int, ...] = (2, 2, 1, 4, 4, 8, 8)
TEMPONET_RECEPTIVE_FIELDS: Tuple[int, ...] = (5, 5, 5, 9, 9, 17, 17)
# Input/output channels of the 7 searchable convolutions (width_mult = 1).
_CONV_CHANNELS: Tuple[Tuple[int, int], ...] = (
    (4, 32), (32, 32),      # block 1 dilated pair
    (32, 64),               # block 1 -> 2 transition
    (64, 64), (64, 64),     # block 2 dilated pair
    (64, 128), (128, 128),  # block 3 dilated pair
)


class TEMPONet(Module):
    """TEMPONet for window-level heart-rate regression.

    Input windows are ``(N, 4, 256)`` (PPG + 3-axis accel, 8 s at 32 Hz);
    output is ``(N, 1)`` — the estimated mean heart rate of the window.

    Parameters
    ----------
    searchable:
        When True the 7 temporal convolutions are :class:`PITConv1d` seed
        layers; otherwise fixed convolutions at ``dilations``.
    dilations:
        Per-conv dilation tuple (len 7); ``TEMPONET_HAND_DILATIONS`` gives
        the hand-engineered network of [1]; all-1 gives the seed.
    width_mult:
        Scales all channel widths and the FC head.
    input_length:
        Window length in samples (256 in the DeepPPG protocol).
    """

    def __init__(self, input_channels: int = 4, input_length: int = 256,
                 searchable: bool = False,
                 dilations: Optional[Sequence[int]] = None,
                 width_mult: float = 1.0, dropout: float = 0.1,
                 output_bias_init: float = 100.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        rfs = TEMPONET_RECEPTIVE_FIELDS
        if dilations is None:
            dils: Tuple[Optional[int], ...] = (None,) * len(rfs)
        else:
            if len(dilations) != len(rfs):
                raise ValueError(f"expected {len(rfs)} dilations, got {len(dilations)}")
            dils = tuple(dilations)

        def scaled(ch: int) -> int:
            return max(2, int(round(ch * width_mult)))

        channels = [(input_channels if i == 0 else scaled(cin), scaled(cout))
                    for i, (cin, cout) in enumerate(_CONV_CHANNELS)]

        convs = []
        for (cin, cout), rf, d in zip(channels, rfs, dils):
            convs.append(_make_conv(cin, cout, rf, d, searchable, rng))

        c1, c2, c3, c4, c5, c6, c7 = convs
        w32, w64, w128 = scaled(32), scaled(64), scaled(128)
        self.features = Sequential(
            c1, BatchNorm1d(w32), ReLU(),
            c2, BatchNorm1d(w32), ReLU(),
            c3, BatchNorm1d(w64), ReLU(), AvgPool1d(2),          # 256 -> 128
            c4, BatchNorm1d(w64), ReLU(),
            c5, BatchNorm1d(w64), ReLU(), AvgPool1d(2),          # 128 -> 64
            c6, BatchNorm1d(w128), ReLU(),
            c7, BatchNorm1d(w128), ReLU(), AvgPool1d(2),         # 64 -> 32
            AvgPool1d(2),                                        # 32 -> 16
        )
        feature_len = input_length // 16
        output = Linear(scaled(128), 1, rng=rng)
        # Start the regressor at the population-mean heart rate: equivalent
        # to the target centering done by the DeepPPG pipeline, and it makes
        # short trainings start from the marginal predictor instead of 0 BPM.
        output.bias.data[...] = output_bias_init
        self.head = Sequential(
            Flatten(),
            Linear(w128 * feature_len, scaled(128), rng=rng), ReLU(),
            Dropout(dropout, rng=rng),
            Linear(scaled(128), scaled(128), rng=rng), ReLU(),
            output,
        )
        self.input_length = input_length

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(N, 4, 256)`` sensor windows to ``(N, 1)`` BPM estimates."""
        if x.shape[-1] != self.input_length:
            raise ValueError(f"expected input length {self.input_length}, "
                             f"got {x.shape[-1]}")
        return self.head(self.features(x))
