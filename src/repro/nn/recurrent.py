"""Recurrent layer: LSTM.

The paper's premise (Sec. I) is that TCNs match RNN accuracy on time-series
tasks while being cheaper to deploy — the comparison established by Bai et
al. [6], who benchmark TCNs against LSTMs/GRUs on the same datasets
(including Nottingham).  This layer provides that RNN side of the
comparison on our substrate; see ``benchmarks/bench_tcn_vs_rnn.py``.

It consumes the library's channel-first sequence layout ``(N, C, T)``
and returns the full hidden-state sequence ``(N, H, T)``, so
it is a drop-in sequence encoder where a TCN block would be.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, stack
from . import init
from .module import Module, Parameter

__all__ = ["LSTM"]


class LSTM(Module):
    """Single-layer LSTM over ``(N, C, T)`` sequences.

    Gates follow the standard formulation (input/forget/cell/output) with
    a unit forget-gate bias initialization, the common trick for stable
    gradient flow over long sequences.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        gates = 4 * hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((gates, input_size), rng),
                                   name="lstm.weight_ih")
        self.weight_hh = Parameter(init.xavier_uniform((gates, hidden_size), rng),
                                   name="lstm.weight_hh")
        bias = np.zeros(gates)
        bias[hidden_size: 2 * hidden_size] = 1.0  # forget-gate bias = 1
        self.bias = Parameter(bias, name="lstm.bias")

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.input_size:
            raise ValueError(f"expected (N, {self.input_size}, T), got {x.shape}")
        n, _, t = x.shape
        h_dim = self.hidden_size
        if state is None:
            h = Tensor(np.zeros((n, h_dim)))
            c = Tensor(np.zeros((n, h_dim)))
        else:
            h, c = state

        outputs = []
        for step in range(t):
            frame = x[:, :, step]                       # (N, C)
            gates = (frame @ self.weight_ih.transpose()
                     + h @ self.weight_hh.transpose() + self.bias)
            i_gate = gates[:, 0 * h_dim: 1 * h_dim].sigmoid()
            f_gate = gates[:, 1 * h_dim: 2 * h_dim].sigmoid()
            g_gate = gates[:, 2 * h_dim: 3 * h_dim].tanh()
            o_gate = gates[:, 3 * h_dim: 4 * h_dim].sigmoid()
            c = f_gate * c + i_gate * g_gate
            h = o_gate * c.tanh()
            outputs.append(h)
        return stack(outputs, axis=2)                   # (N, H, T)

    def __repr__(self) -> str:
        return f"LSTM(in={self.input_size}, hidden={self.hidden_size})"
