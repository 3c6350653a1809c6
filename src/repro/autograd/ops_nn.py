"""Neural-network specific differentiable operations.

Contains the numerically-stable softmax, the straight-through
Heaviside binarization used by PIT's γ parameters (paper Eq. 2), a
dropout primitive and training-mode batch normalization.

All ops are expressed as :class:`repro.autograd.tensor.OpDef` kernel pairs
dispatched through :func:`repro.autograd.tensor.apply_op`, so they are
captured by the graph executor like every other primitive.  Dropout is
stateful (as is the supernet path draw of
:func:`repro.autograd.ops_conv.conv1d_causal_path`): its generator is a
static attribute, and every replay of a captured step draws fresh masks
from it in recorded program order — exactly the stream an eager run would
consume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import OpDef, Tensor, apply_op

__all__ = [
    "softmax",
    "batch_norm_stats",
    "batch_norm",
    "binarize_ste",
    "binary_mask",
    "dropout",
    "dropout_stacked",
]


def _softmax_fwd(ins, attrs):
    x = ins[0]
    shifted = x - x.max(axis=attrs["axis"], keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=attrs["axis"], keepdims=True), None


def _softmax_bwd(g, ins, out, ctx, attrs, needs):
    # J^T g = s * (g - sum(g * s))
    dot = (g * out).sum(axis=attrs["axis"], keepdims=True)
    return (out * (g - dot),)


_SOFTMAX = OpDef("softmax", _softmax_fwd, _softmax_bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return apply_op(_SOFTMAX, (x,), {"axis": axis})


def _batch_norm_stats_fwd(ins, attrs):
    x, axes = ins[0], attrs["axes"]
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    return np.stack((mean, (centered * centered).mean(axis=axes,
                                                      keepdims=True))), None


_BATCH_NORM_STATS = OpDef("batch_norm_stats", _batch_norm_stats_fwd, None)


def batch_norm_stats(x: Tensor, axes: tuple) -> Tensor:
    """The batch mean and biased variance of ``x`` over ``axes``, stacked
    as one keepdims ``(mean, var)`` array.

    Detached: :func:`batch_norm`'s closed-form backward already accounts
    for how both depend on ``x``.  A recorded op all the same, so a
    replayed step recomputes them (and the running-statistics update fed
    from them) on every batch.
    """
    return apply_op(_BATCH_NORM_STATS, (x,), {"axes": axes}, detach=True)


def _batch_norm_fwd(ins, attrs):
    x, stats, w, b = ins
    shape = attrs["shape"]
    std = np.sqrt(stats[1] + attrs["eps"])
    x_hat = x - stats[0]
    x_hat /= std
    out = x_hat * w.reshape(shape)
    out += b.reshape(shape)
    return out, (x_hat, std)


def _batch_norm_bwd(g, ins, out, ctx, attrs, needs):
    # Ioffe & Szegedy's closed form.  w is constant over the reduced axes,
    # so mean(g·w) = w·mean(g) and mean(g·w·x̂) = w·mean(g·x̂):
    #   dx = (w/σ)·(g − mean(g) − x̂·mean(g·x̂)),  dw = Σ g·x̂,  db = Σ g.
    w, b = ins[2:]
    x_hat, std = ctx
    axes = attrs["axes"]
    g_sum = g.sum(axis=axes, keepdims=True)
    gx_sum = (g * x_hat).sum(axis=axes, keepdims=True)
    dx = None
    if needs[0]:
        n = g.size // g_sum.size
        dx = g - g_sum / n
        dx -= x_hat * (gx_sum / n)
        dx *= w.reshape(attrs["shape"]) / std
    return (dx, None,
            gx_sum.reshape(w.shape) if needs[2] else None,
            g_sum.reshape(b.shape) if needs[3] else None)


_BATCH_NORM = OpDef("batch_norm", _batch_norm_fwd, _batch_norm_bwd)


def batch_norm(x: Tensor, stats: Tensor, weight: Tensor, bias: Tensor,
               axes: tuple, shape: tuple, eps: float) -> Tensor:
    """Training-mode batch normalization ``x̂·w + b`` as one op.

    ``x̂ = (x − mean) / sqrt(var + eps)`` with ``stats`` from
    :func:`batch_norm_stats` over the same ``axes``; ``weight`` and
    ``bias`` are reshaped to ``shape``, which broadcasts them along the
    reduced axes.  The backward is the closed form (Ioffe & Szegedy,
    arXiv:1502.03167) from the saved x̂ and σ, so ``stats`` gets no
    gradient of its own.
    """
    return apply_op(_BATCH_NORM, (x, stats, weight, bias),
                    {"axes": axes, "shape": shape, "eps": eps})


def binary_mask(x: np.ndarray, threshold: float,
                min_keep: int = 0) -> np.ndarray:
    """``x >= threshold`` as 0/1 in ``x``'s dtype; when fewer than
    ``min_keep`` entries pass, the ``min_keep`` largest entries are set
    to 1 as well."""
    mask = (x >= threshold).astype(x.dtype)
    if min_keep and mask.sum() < min_keep:
        mask[np.argsort(x)[-min_keep:]] = 1.0
    return mask


def _binarize_fwd(ins, attrs):
    return binary_mask(ins[0], attrs["threshold"], attrs["min_keep"]), None


def _binarize_bwd(g, ins, out, ctx, attrs, needs):
    return (g,)


_BINARIZE = OpDef("binarize_ste", _binarize_fwd, _binarize_bwd)


def binarize_ste(x: Tensor, threshold: float = 0.5,
                 min_keep: int = 0) -> Tensor:
    """Heaviside step with a straight-through estimator (paper Eq. 2).

    Forward::

        H(x - threshold) = 1 if x >= threshold else 0

    and, when fewer than ``min_keep`` entries are 1, the ``min_keep``
    largest entries of ``x`` are 1 too (the channel masks' rescue that
    keeps a layer connected).  The rescue is part of the op, so a replayed
    step recomputes it from the current values.

    Backward: the step's true derivative is zero almost everywhere, so —
    following BinaryConnect [19] — the gradient passes through unchanged
    (identity), letting the float "shadow" parameters γ̂ keep learning.
    """
    return apply_op(_BINARIZE, (x,),
                    {"threshold": threshold, "min_keep": min_keep})


def _dropout_fwd(ins, attrs):
    x = ins[0]
    p = attrs["p"]
    # The draw stays float64 (the stream the generator has always given);
    # the mask is built in x's dtype, scaled like dropout_stacked's.
    keep = (attrs["rng"].random(x.shape) >= p).astype(x.dtype)
    keep *= 1.0 / (1.0 - p)
    return x * keep, keep


def _dropout_bwd(g, ins, out, keep, attrs, needs):
    return (g * keep,)


# The "rng" attribute is the generator itself: every replay of a captured
# step draws fresh masks from it in program order.
_DROPOUT = OpDef("dropout", _dropout_fwd, _dropout_bwd)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)``.

    At evaluation time (``training=False``) this is the identity, so no
    rescaling is needed at inference — the convention used by PyTorch and
    assumed by the deployment flow in :mod:`repro.hw`.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng or np.random.default_rng()
    return apply_op(_DROPOUT, (x,), {"p": p, "rng": rng})


def _dropout_stacked_fwd(ins, attrs):
    x = ins[0]                       # (M, N, ...): leading model axis
    p = attrs["p"]
    rngs = attrs["rng"]              # one generator per model slice
    active = attrs["active"]         # live per-model flags (may be None)
    scale = 1.0 / (1.0 - p)
    keep = np.empty_like(x)
    for m, rng in enumerate(rngs):
        if active is None or active[m]:
            # Identical draw shape and stream position as the sequential
            # model would consume: per-model parity depends on it.
            keep[m] = (rng.random(x.shape[1:]) >= p) * scale
        else:
            # A converged model rides along masked: no draw (its stream
            # must not advance past its early-stop point), no scaling.
            keep[m] = 1.0
    return x * keep, keep


def _dropout_stacked_bwd(g, ins, out, keep, attrs, needs):
    return (g * keep,)


# Like _DROPOUT, "rng" holds the per-model generators; the "active" array
# is read live on every (re)play.
_DROPOUT_STACKED = OpDef("dropout_stacked", _dropout_stacked_fwd,
                         _dropout_stacked_bwd)


def dropout_stacked(x: Tensor, p: float, training: bool,
                    rngs, active=None) -> Tensor:
    """Inverted dropout over a stacked ``(M, N, ...)`` activation.

    Each model slice draws its keep-mask from its *own* generator
    ``rngs[m]`` with the per-model shape ``x.shape[1:]`` — the exact stream
    an unstacked model would consume, which is what keeps stacked training
    trajectories aligned with sequential ones.  ``active`` is an optional
    live array of per-model flags: inactive slices (early-stopped models
    riding along in the stack) skip their draw entirely so their stream
    position stays frozen at the stop point.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rngs = tuple(rngs)
    if len(rngs) != x.shape[0]:
        raise ValueError(f"got {len(rngs)} generators for a stack of "
                         f"{x.shape[0]} models")
    return apply_op(_DROPOUT_STACKED, (x,),
                    {"p": p, "rng": rngs, "active": active})
