"""Dilation regularizers (paper Sec. III-B, Eq. 6).

The pruning phase augments the task loss with a Lasso term on the float
γ̂ parameters, weighted so that each γ̂ pays proportionally to the model
size it keeps alive::

    L_R(γ) = λ Σ_l C_in^l · C_out^l · Σ_{i=1..L-1} round((rf_max-1)/2^{L-i}) |γ̂_i^l|

The coefficient ``round((rf_max-1)/2^{L-i})`` is the number of kernel
time-slices whose aliveness is (marginally) attributed to γ_i — e.g. for
``rf_max = 9`` (L = 4) the coefficients are (1, 2, 4) for (γ1, γ2, γ3),
and together with the always-alive slices they account for all 9 taps.

A FLOPs-weighted variant (paper: "easily extendable to other types of
optimizations, e.g. FLOPs reduction") multiplies each layer's term by its
output sequence length.

The channel search of Sec. III-C adds "further regularization terms":
:func:`channel_regularizer` is the MorphNet-style Lasso on the channel γ̂ᶜ
of every :class:`PITConv1d` built with ``min_channels=``.  The time terms
above cover those layers like any other.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..autograd import Tensor, apply_op
from ..autograd.tensor import _SUM
from ..nn.module import Module
from .masks import num_gamma
from .pit_conv import PITConv1d

__all__ = [
    "gamma_size_coefficients",
    "size_regularizer",
    "flops_regularizer",
    "channel_regularizer",
    "pit_layers",
]


def gamma_size_coefficients(rf_max: int) -> np.ndarray:
    """Eq. 6 coefficients for γ_1 .. γ_{L-1} (index 0 ↔ γ_1).

    ``coeff[i-1] = round((rf_max - 1) / 2^{L-i})``.
    """
    length = num_gamma(rf_max)
    return np.array([round((rf_max - 1) / 2 ** (length - i)) for i in range(1, length)],
                    dtype=np.float64)


def pit_layers(model: Module) -> List[PITConv1d]:
    """All PIT convolutions of a model, in traversal order."""
    return [m for m in model.modules() if isinstance(m, PITConv1d)]


def _sum(terms: List[Tensor], lam: float) -> Tensor:
    """``λ · (t_0 + t_1 + …)``, or a zero scalar without terms."""
    if not terms:
        return Tensor(np.zeros(()))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * lam


def _lasso(model: Module, lam: float, per_output_sample: bool) -> Tensor:
    """λ Σ_l (Eq. 6 term of layer l) · t_out^l over the unfrozen layers.

    ``t_out`` is the output length recorded by the layer's last forward
    pass when ``per_output_sample`` is set (1 for a layer that has not run
    yet), else 1.  Layers whose mask is frozen (or that have no trainable
    γ) contribute nothing.
    """
    terms = []
    for layer in pit_layers(model):
        mask = layer.mask
        if mask.frozen or mask.length <= 1:
            continue
        t_out = (layer._last_t_out or 1) if per_output_sample else 1
        coeffs = Tensor(gamma_size_coefficients(layer.rf_max))
        contribution = (coeffs * mask.gamma_hat.abs()).sum()
        terms.append(contribution
                     * float(layer.in_channels * layer.out_channels * t_out))
    return _sum(terms, lam)


def size_regularizer(model: Module, lam: float) -> Tensor:
    """Model-size Lasso regularizer (Eq. 6), differentiable w.r.t. γ̂.

    Returns a scalar :class:`Tensor`; layers whose mask is frozen (or that
    have no trainable γ) contribute nothing.
    """
    return _lasso(model, lam, per_output_sample=False)


def flops_regularizer(model: Module, lam: float) -> Tensor:
    """FLOPs-weighted variant: each layer's Eq. 6 term × output length.

    Uses the output length recorded during the last forward pass (the
    trainer runs a forward before computing the loss, so it is available);
    a layer that has not run yet counts one output sample.
    """
    return _lasso(model, lam, per_output_sample=True)


def channel_regularizer(model: Module, lam: float) -> Tensor:
    """MorphNet-style Lasso on the channel γ̂ᶜ of every channel-searched layer.

    Each channel's coefficient is its parameter cost ``C_in * kept_taps``
    (analogous to Eq. 6's size weighting, but along the width axis).  The
    kept taps are summed from the time mask inside the graph, detached, so
    a replayed step recomputes the weight as the time mask moves and no
    gradient flows through it.
    """
    terms = []
    for layer in pit_layers(model):
        mask = layer.channel_mask
        if mask is None or mask.frozen:
            continue
        kept_taps = apply_op(_SUM, (layer.mask(),),
                             {"axis": None, "keepdims": False}, detach=True)
        cost = kept_taps * layer.in_channels
        terms.append(mask.gamma_hat.abs().sum() * cost)
    return _sum(terms, lam)
