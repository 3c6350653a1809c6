"""RNN baseline for the TCN-vs-RNN comparison (paper Sec. I / [6]).

``MusicLSTM`` mirrors the role of ResTCN on Nottingham: an LSTM encoder
over the 88-key piano roll with a per-timestep linear head producing
next-frame logits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..nn import CausalConv1d, Module
from ..nn.recurrent import LSTM

__all__ = ["MusicLSTM"]


class MusicLSTM(Module):
    """LSTM for polyphonic-music next-frame prediction, Bai et al. style."""

    def __init__(self, num_keys: int = 88, hidden: int = 150,
                 head_bias_init: float = -3.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.encoder = LSTM(num_keys, hidden, rng=rng)
        self.head = CausalConv1d(hidden, num_keys, kernel_size=1, rng=rng)
        self.head.bias.data[...] = head_bias_init

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.encoder(x))
