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
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..autograd import Tensor, concatenate
from ..nn.module import Module
from .masks import num_gamma
from .pit_conv import PITConv1d

__all__ = [
    "gamma_size_coefficients",
    "size_regularizer",
    "flops_regularizer",
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


def _time_masked_layers(model: Module):
    """Yield ``(time_mask, in_ch, out_ch, rf_max, layer)`` for every layer
    carrying a searchable time mask — plain :class:`PITConv1d` and the
    combined :class:`repro.core.channel_mask.PITChannelConv1d`."""
    from .channel_mask import PITChannelConv1d
    for module in model.modules():
        if isinstance(module, PITConv1d):
            yield module.mask, module.in_channels, module.out_channels, \
                module.rf_max, module
        elif isinstance(module, PITChannelConv1d):
            yield module.time_mask, module.in_channels, module.out_channels, \
                module.rf_max, module


def _lasso(model: Module, lam: float, per_output_sample: bool) -> Tensor:
    """λ Σ_l (Eq. 6 term of layer l) · t_out^l over the unfrozen layers.

    ``t_out`` is the output length recorded by the layer's last forward
    pass when ``per_output_sample`` is set (1 for a layer that has not run
    yet), else 1.  Layers whose mask is frozen (or that have no trainable
    γ) contribute nothing.
    """
    terms = []
    for mask, in_ch, out_ch, rf_max, layer in _time_masked_layers(model):
        if mask.frozen or mask.length <= 1:
            continue
        t_out = 1
        if per_output_sample:
            t_out = getattr(layer, "_last_t_out", None) or 1
        coeffs = Tensor(gamma_size_coefficients(rf_max))
        contribution = (coeffs * mask.gamma_hat.abs()).sum()
        terms.append(contribution * float(in_ch * out_ch * t_out))
    if not terms:
        return Tensor(np.zeros(()))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * lam


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
