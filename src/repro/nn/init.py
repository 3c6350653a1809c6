"""Weight initialization schemes (Kaiming/Xavier/uniform).

All initializers take an explicit ``numpy.random.Generator`` so that every
experiment in the reproduction is deterministic given its seed — a property
the benchmark harness relies on.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["kaiming_uniform", "xavier_uniform", "uniform_fan_in"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 3:  # Conv1d: (out, in, k)
        receptive = shape[2]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator,
                    gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-uniform init."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot-uniform init, appropriate for tanh/sigmoid networks."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """PyTorch's default Linear/Conv bias-style init: U(-1/sqrt(fan_in), ...)."""
    fan_in, _ = _fan_in_out(shape) if len(shape) > 1 else (shape[0], shape[0])
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
