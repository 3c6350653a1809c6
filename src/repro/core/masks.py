"""PIT's differentiable time-masking machinery (paper Sec. III-A).

The key idea of the paper: a causal convolution with maximal receptive
field ``rf_max`` and dilation 1 can be turned into *any* power-of-two
dilated convolution by zeroing regularly-spaced time slices of its kernel.
The choice of which slices stay alive is controlled by ``L`` binary
parameters γ, where::

    L = floor(log2(rf_max - 1)) + 1,      γ0 ≡ 1 (constant)

combined into cumulative products (Eq. 3)::

    Γ_i = Π_{k=0..L-1-i} γ_k        (so Γ_{L-1} = γ0 = 1 always)

Γ is monotone non-decreasing in ``i``; the effective dilation is
``d = 2^{min{i : Γ_i = 1}}``.  Each *lag* ``j`` (time distance from the
current sample) is alive iff ``d`` divides ``j``; lag 0 is always alive.
The mask element for lag ``j`` is therefore ``Γ_{g(j)}`` with::

    g(0) = L - 1                      (always-on)
    g(j) = min(v2(j), L - 1)          (v2 = number of trailing zero bits)

because ``Γ_{v2(j)} = 1``  ⇔  ``d ≤ 2^{v2(j)}``  ⇔  ``d | j``.

Two equivalent constructions are provided:

* :func:`mask_from_binary_gamma` — the constructive description of Fig. 2,
  pure numpy, used for analysis/tests.
* :class:`TimeMask` — the differentiable module used during training, with
  BinaryConnect-style binarization (Eq. 2, straight-through estimator).
* :func:`mask_eq4` — the tensor-algebra form of paper Eq. 4 built from the
  constant ``T`` and ``K`` matrices, kept as an executable specification and
  cross-checked against the constructive form in the test suite.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import (Tensor, binarize_ste, concatenate,
                        get_default_dtype, no_grad)
from ..nn.module import Module, Parameter

__all__ = [
    "num_gamma",
    "gamma_index_for_lag",
    "lag_gamma_indices",
    "mask_from_binary_gamma",
    "mask_from_dilation",
    "gamma_from_dilation",
    "effective_dilation",
    "kept_lags",
    "build_t_matrix",
    "build_k_matrix",
    "mask_eq4",
    "TimeMask",
]


def num_gamma(rf_max: int) -> int:
    """Number of γ parameters ``L`` for a layer with max receptive field.

    Paper: ``L = floor(log2(rf_max - 1)) + 1``.  Requires ``rf_max >= 2``
    (a 1-tap convolution has no dilation to optimize).
    """
    if rf_max < 2:
        raise ValueError(f"rf_max must be >= 2, got {rf_max}")
    return int(math.floor(math.log2(rf_max - 1))) + 1


def _v2(j: int) -> int:
    """Number of trailing zero bits of ``j > 0`` (2-adic valuation)."""
    return (j & -j).bit_length() - 1


def gamma_index_for_lag(lag: int, length: int) -> int:
    """Index of the Γ element gating time-lag ``lag`` (0 = current sample)."""
    if lag == 0:
        return length - 1
    return min(_v2(lag), length - 1)


def lag_gamma_indices(rf_max: int) -> np.ndarray:
    """Vector of Γ indices for every lag ``0 .. rf_max-1``."""
    length = num_gamma(rf_max)
    return np.array([gamma_index_for_lag(j, length) for j in range(rf_max)], dtype=np.int64)


def mask_from_binary_gamma(gamma: np.ndarray, rf_max: int) -> np.ndarray:
    """Constructive mask of Fig. 2 from a *binary* γ vector of length ``L``.

    ``gamma[0]`` must be 1 (the constant γ0).  Returns a 0/1 vector over
    lags ``0 .. rf_max - 1`` (lag order, *not* kernel order).
    """
    length = num_gamma(rf_max)
    gamma = np.asarray(gamma, dtype=get_default_dtype())
    if gamma.shape != (length,):
        raise ValueError(f"gamma must have shape ({length},), got {gamma.shape}")
    if gamma[0] != 1:
        raise ValueError("gamma[0] is the constant γ0 and must be 1")
    # Γ_i = Π_{k=0..L-1-i} γ_k  — a reversed cumulative product.
    cumulative = np.cumprod(gamma)               # c_j = γ0..γj
    big_gamma = cumulative[::-1].copy()          # Γ_i = c_{L-1-i}
    return big_gamma[lag_gamma_indices(rf_max)]


def effective_dilation(gamma: np.ndarray, rf_max: int) -> int:
    """Power-of-two dilation encoded by a binary γ vector.

    ``d = 2^{min{i : Γ_i = 1}}`` — since Γ_{L-1} = γ0 = 1, the minimum
    always exists and ``d <= 2^{L-1}``.
    """
    length = num_gamma(rf_max)
    gamma = np.asarray(gamma, dtype=get_default_dtype())
    cumulative = np.cumprod(gamma)
    big_gamma = cumulative[::-1]
    alive = np.nonzero(big_gamma >= 0.5)[0]
    return int(2 ** alive[0])


def kept_lags(rf_max: int, dilation: int) -> List[int]:
    """Lags kept alive by a regular dilation pattern: multiples of ``d``."""
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    return list(range(0, rf_max, dilation))


def mask_from_dilation(rf_max: int, dilation: int) -> np.ndarray:
    """Binary lag mask of a regular power-of-two dilation."""
    mask = np.zeros(rf_max)
    mask[kept_lags(rf_max, dilation)] = 1.0
    return mask


def gamma_from_dilation(rf_max: int, dilation: int) -> np.ndarray:
    """Binary γ vector (length L) whose mask realizes ``dilation``.

    Inverse of :func:`effective_dilation`: prune the top ``log2(d)`` γ's.
    ``γ_i = 0`` for ``i > L - 1 - log2(d)`` ... concretely, dilation doubles
    each time the highest still-alive γ is zeroed (Fig. 2).
    """
    length = num_gamma(rf_max)
    exponent = int(math.log2(dilation))
    if 2 ** exponent != dilation:
        raise ValueError(f"dilation must be a power of two, got {dilation}")
    if exponent > length - 1:
        raise ValueError(f"dilation {dilation} exceeds the max 2^{length - 1} "
                         f"supported by rf_max={rf_max}")
    gamma = np.ones(length)
    # Zeroing γ_{L-1} gives d=2, additionally γ_{L-2} gives d=4, etc.
    for step in range(exponent):
        gamma[length - 1 - step] = 0.0
    return gamma


# ----------------------------------------------------------------------
# Paper Eq. 4: tensor-algebra mask construction
# ----------------------------------------------------------------------

def build_t_matrix(length: int) -> np.ndarray:
    """The constant ``T`` of Eq. 4: upper-triangular with inverted columns.

    ``T[k, c] = 1``  iff  γ_k participates in the product Γ_c, i.e.
    ``k <= L - 1 - c``.
    """
    t = np.zeros((length, length))
    for c in range(length):
        t[: length - c, c] = 1.0
    return t


def build_k_matrix(rf_max: int) -> np.ndarray:
    """The constant ``K`` of Eq. 4: one-hot column selector, ``(L, rf_max)``.

    Column ``j`` of ``K`` selects the Γ column gating lag ``j``; the paper
    notes K "can be generated procedurally for any rf_max by repeating a
    pattern of 0s and 1s" — that pattern is exactly the 2-adic valuation of
    the lag index.
    """
    length = num_gamma(rf_max)
    k = np.zeros((length, rf_max))
    for j, idx in enumerate(lag_gamma_indices(rf_max)):
        k[idx, j] = 1.0
    return k


def mask_eq4(gamma: Tensor, rf_max: int) -> Tensor:
    """Differentiable mask via the tensor transformation of paper Eq. 4::

        M = Π_columns { [(γ · 1_{1xL}) ⊙ T + (1_{LxL} - T)] · K }

    ``gamma`` is the full binarized γ vector of length ``L`` (γ0 included).
    Returns the mask over lags, shape ``(rf_max,)``.  This form is the
    executable specification; :class:`TimeMask` uses the equivalent (and
    cheaper) constructive form, and the test suite asserts equality.
    """
    length = num_gamma(rf_max)
    if gamma.shape != (length,):
        raise ValueError(f"gamma must have shape ({length},), got {gamma.shape}")
    t_mat = Tensor(build_t_matrix(length))
    k_mat = Tensor(build_k_matrix(rf_max))
    ones_row = Tensor(np.ones((1, length)))
    # (γ · 1_{1xL}): broadcast γ down the columns -> entry (k, c) = γ_k.
    outer = gamma.reshape(length, 1) @ ones_row
    inner = outer * t_mat + (Tensor(np.ones((length, length))) - t_mat)
    selected = inner @ k_mat  # (L, rf_max); column j = Γ-column for lag j
    mask = selected[0]
    for row in range(1, length):  # Π over each column's L entries
        mask = mask * selected[row]
    return mask


# ----------------------------------------------------------------------
# Differentiable mask module
# ----------------------------------------------------------------------

class TimeMask(Module):
    """Trainable γ vector of one PIT layer, producing the lag mask ``M``.

    Holds the float "shadow" parameters ``γ̂_1 .. γ̂_{L-1}`` (γ0 is the
    constant 1).  The forward pass binarizes them with a Heaviside at the
    paper's δ = 0.5 (straight-through gradient, Eq. 2), forms the Γ products
    (Eq. 3) and scatters them into the lag mask (Fig. 2 / Eq. 4).

    After the pruning phase the trainer calls :meth:`freeze`; the mask then
    becomes a constant and γ̂ no longer receives gradients (Algorithm 1,
    fine-tuning loop).
    """

    threshold = 0.5   # δ of Eq. 2

    def __init__(self, rf_max: int):
        super().__init__()
        self.rf_max = rf_max
        self.length = num_gamma(rf_max)
        dtype = get_default_dtype()
        self.gamma_hat = Parameter(np.ones(max(self.length - 1, 0), dtype),
                                   name="pit.gamma_hat")
        self.register_buffer("frozen_mask", np.zeros(0, dtype))
        self._lag_indices = lag_gamma_indices(rf_max)
        self.frozen = False

    # -- training-time mask -------------------------------------------------
    def forward(self) -> Tensor:
        """Return the differentiable lag mask ``M`` of shape ``(rf_max,)``."""
        if self.frozen:
            return Tensor(self.frozen_mask)
        dtype = get_default_dtype()
        if self.length == 1:
            # rf_max == 2: no trainable γ, mask is all-ones.
            return Tensor(np.ones(self.rf_max, dtype))
        gamma_bin = binarize_ste(self.gamma_hat, self.threshold)   # γ_1..γ_{L-1}
        # Prepend the constant γ0.
        full_gamma = concatenate([Tensor(np.ones(1, dtype)), gamma_bin])
        # Reversed cumulative products: Γ_i = Π_{k<=L-1-i} γ_k.
        cumulative = [full_gamma[0:1]]
        for k in range(1, self.length):
            cumulative.append(cumulative[-1] * full_gamma[k:k + 1])
        big_gamma = concatenate(list(reversed(cumulative)), axis=0)  # (L,)
        return big_gamma[self._lag_indices]

    # -- bookkeeping ----------------------------------------------------------
    def binary_gamma(self) -> np.ndarray:
        """Current binary γ (length ``L``, γ0 included), detached."""
        dtype = get_default_dtype()
        if self.length == 1:
            return np.ones(1, dtype)
        bits = (self.gamma_hat.data >= self.threshold).astype(dtype)
        return np.concatenate([np.ones(1, dtype), bits])

    def current_dilation(self) -> int:
        """Dilation encoded by the current (or frozen) γ values."""
        if self.frozen and self.frozen_mask.size:
            alive = np.nonzero(self.frozen_mask >= 0.5)[0]
            gaps = np.diff(alive)
            return int(gaps[0]) if gaps.size else self.rf_max
        return effective_dilation(self.binary_gamma(), self.rf_max)

    def current_mask(self) -> np.ndarray:
        """Binary lag mask implied by the current γ values, detached."""
        if self.frozen and self.frozen_mask.size:
            return self.frozen_mask.copy()
        return mask_from_binary_gamma(self.binary_gamma(), self.rf_max)

    def freeze(self) -> None:
        """Fix the mask at its current binary value (start of fine-tuning)."""
        self.update_buffer("frozen_mask", self.current_mask())
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def set_dilation(self, dilation: int) -> None:
        """Force γ̂ to encode a given power-of-two dilation (for baselines)."""
        gamma = gamma_from_dilation(self.rf_max, dilation)
        if self.length > 1:
            self.gamma_hat.data[...] = gamma[1:]

    def __repr__(self) -> str:
        return (f"TimeMask(rf_max={self.rf_max}, L={self.length}, "
                f"d={self.current_dilation()}, frozen={self.frozen})")
