"""Differentiable 1-D convolution and pooling primitives.

The paper's networks are Temporal Convolutional Networks, whose defining op
is the *causal dilated 1-D convolution* (paper Eq. 1):

    y[m, t] = sum_i sum_l x[l, t - d*i] * W[l, m, i]

Causality is obtained by padding only the left side of the time axis so that
an output sample never reads inputs from the future.  The numerical kernels
(forward and both adjoints) are the im2col / ``as_strided`` single-GEMM
lowering of :mod:`repro.autograd.backends`; this module owns everything
else: validation, causal padding, bias, and the autograd dispatch.  The
ops call the methods of the one :data:`repro.autograd.backends.KERNELS`
instance, so a profiler that wraps them there sees every call.

Shapes follow the PyTorch convention:

* input  ``x``: ``(N, C_in, T)``
* weight ``w``: ``(C_out, C_in, K)``
* bias   ``b``: ``(C_out,)`` or None
* output:      ``(N, C_out, T_out)``
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .backends import KERNELS
from .tensor import OpDef, Tensor, _unbroadcast, apply_op

__all__ = ["conv1d_causal", "conv1d_causal_masked", "conv1d_causal_stacked",
           "avg_pool1d", "max_pool1d", "global_avg_pool1d"]


def _padded(x, pad):
    """``x`` left-padded with ``pad`` zeros along time."""
    xp = np.zeros((x.shape[0], x.shape[1], x.shape[2] + pad), dtype=x.dtype)
    xp[:, :, pad:] = x
    return xp


def _conv_fwd(ins, attrs):
    x, w = ins[0], ins[1]
    dilation, stride = attrs["dilation"], attrs["stride"]
    xp = _padded(x, (w.shape[2] - 1) * dilation)
    out = KERNELS.forward(xp, w, dilation, stride, x.shape[2])
    if len(ins) == 3:
        out += ins[2][None, :, None]  # the kernels return owned buffers
    # The padded input is the forward byproduct both adjoints need.
    return out, xp


def _conv_bwd(g, ins, out, xp, attrs, needs):
    x, w = ins[0], ins[1]
    dilation, stride = attrs["dilation"], attrs["stride"]
    t = x.shape[2]
    gx = gw = gb = None
    if needs[0]:
        gxp = KERNELS.grad_input(g, w, xp.shape, dilation, stride, t)
        gx = gxp[:, :, (w.shape[2] - 1) * dilation:]
    if needs[1]:
        gw = KERNELS.grad_weight(g, xp, w.shape, dilation, stride, t)
    if len(ins) == 3 and needs[2]:
        gb = g.sum(axis=(0, 2))
    return (gx, gw) if len(ins) == 2 else (gx, gw, gb)


_CONV1D = OpDef("conv1d_causal", _conv_fwd, _conv_bwd)


def _check_shapes(x: Tensor, w: Tensor) -> None:
    if x.ndim != 3:
        raise ValueError(f"expected input (N, C_in, T), got shape {x.shape}")
    if w.ndim != 3:
        raise ValueError(f"expected weight (C_out, C_in, K), got shape {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"input channels {x.shape[1]} do not match weight channels {w.shape[1]}")


def conv1d_causal(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
                  dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal dilated 1-D convolution.

    The input is left-padded with ``(K - 1) * dilation`` zeros, so the output
    has the same temporal length as the input (before striding) and
    ``y[:, :, t]`` only depends on ``x[:, :, :t+1]`` — the causality property
    of TCNs (paper Sec. II-A).

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, T)``.
    w:
        Kernel of shape ``(C_out, C_in, K)``.  Kernel index ``K-1``
        corresponds to lag 0 (the current sample), index ``K-1-j`` to lag
        ``j * dilation``.
    b:
        Optional bias of shape ``(C_out,)``.
    dilation:
        Step between the input samples read by consecutive taps (``d`` in
        paper Eq. 1).
    stride:
        Temporal output stride.
    """
    _check_shapes(x, w)
    if dilation < 1 or stride < 1:
        raise ValueError("dilation and stride must be >= 1")

    attrs = {"dilation": dilation, "stride": stride}
    inputs = (x, w) if b is None else (x, w, b)
    return apply_op(_CONV1D, inputs, attrs)


# ----------------------------------------------------------------------
# Tap-masked convolution (PIT layers, paper Eq. 5)
# ----------------------------------------------------------------------

def _live_taps(mask: np.ndarray):
    """``(off, d)`` when the nonzero taps of ``mask`` are exactly
    ``off, off+d, ..., K-1`` — a dilation-``d`` kernel of the last
    ``K - off`` taps — else ``(0, 1)``, which computes every tap."""
    k = mask.shape[0]
    live = np.flatnonzero(mask)
    if live.size == 0 or live[-1] != k - 1:
        return 0, 1
    if live.size == 1:
        return k - 1, 1
    step = np.diff(live)
    if (step != step[0]).any():
        return 0, 1
    return int(live[0]), int(step[0])


def _masked_fwd(ins, attrs):
    """Forward of :func:`conv1d_causal_masked`.

    Pads for the full ``K``-tap kernel, then runs the ordinary
    dilated forward on the live taps only: ``(w*mask)[..., off::d]`` over
    ``xp[..., off:]``.  The padded input and masked weight are the ctx the
    backward reuses, together with the live-tap pattern it must match.
    """
    x, w, mask = ins[0], ins[1], ins[2]
    stride = attrs["stride"]
    xp = _padded(x, w.shape[2] - 1)
    wm = w * mask
    off, d = _live_taps(mask)
    out = KERNELS.forward(xp[:, :, off:], wm[:, :, off::d], d, stride,
                          x.shape[2])
    if len(ins) == 4:
        out += ins[3][None, :, None]
    return out, (xp, wm, off, d)


def _masked_bwd(g, ins, out, ctx, attrs, needs):
    """Adjoints of :func:`conv1d_causal_masked`.

    ``grad_input`` runs over the live taps.  The masked kernel's gradient
    ``G`` covers every tap when the mask needs a gradient — the
    straight-through γ gradient (paper Eq. 2) flows through dead taps —
    and the live taps otherwise.  Then ``gw = G·mask`` and
    ``gmask = Σ G·w``, reduced as the ``mul`` op reduces them.
    """
    x, w, mask = ins[0], ins[1], ins[2]
    xp, wm, off, d = ctx
    stride = attrs["stride"]
    t = x.shape[2]
    live = wm[:, :, off::d]
    gx = gw = gmask = gb = None
    if needs[0]:
        gxp = KERNELS.grad_input(g, live, xp[:, :, off:].shape, d, stride, t)
        gx = gxp[:, :, w.shape[2] - 1 - off:]
    if needs[2]:
        gwm = KERNELS.grad_weight(g, xp, w.shape, 1, stride, t)
        if needs[1]:
            gw = gwm * mask
        gmask = _unbroadcast(gwm * w, mask.shape)
    elif needs[1]:
        gwl = KERNELS.grad_weight(g, xp[:, :, off:], live.shape, d,
                                  stride, t)
        gw = np.zeros(w.shape, wm.dtype)
        np.multiply(gwl, mask[off::d], out=gw[:, :, off::d])
    if len(ins) == 4 and needs[3]:
        gb = g.sum(axis=(0, 2))
    return (gx, gw, gmask) if len(ins) == 3 else (gx, gw, gmask, gb)


_CONV1D_MASKED = OpDef("conv1d_causal_masked", _masked_fwd, _masked_bwd)


def conv1d_causal_masked(x: Tensor, w: Tensor, tap_mask: Tensor,
                         b: Optional[Tensor] = None,
                         stride: int = 1) -> Tensor:
    """``conv1d_causal(x, w * tap_mask, b, dilation=1)`` over live taps only.

    ``tap_mask`` has shape ``(K,)`` in kernel order.  The op reads its
    zero pattern on every call: when the nonzero taps are
    ``off, off+d, ..., K-1`` — always the case for a PIT layer's
    :class:`repro.core.TimeMask` — forward, input gradient and (with a
    gradient-free mask) weight gradient run as a ``d``-dilated conv over
    those taps, so a layer costs what its exported dilated conv costs.
    Any other mask computes every tap.  Dead taps contribute exact zeros,
    so the result equals the full masked conv up to the kernels'
    summation order.  Reading the pattern from an input, not a static
    attribute, keeps graph-captured replay correct while the mask moves.
    """
    _check_shapes(x, w)
    if tap_mask.shape != (w.shape[2],):
        raise ValueError(f"expected tap mask ({w.shape[2]},), "
                         f"got shape {tap_mask.shape}")
    if stride < 1:
        raise ValueError("stride must be >= 1")

    attrs = {"stride": stride}
    inputs = (x, w, tap_mask) if b is None else (x, w, tap_mask, b)
    return apply_op(_CONV1D_MASKED, inputs, attrs)


# ----------------------------------------------------------------------
# Stacked-model convolution (vmap-style leading model axis)
# ----------------------------------------------------------------------

def _conv_stacked_fwd(ins, attrs):
    x, w = ins[0], ins[1]
    dilation, stride = attrs["dilation"], attrs["stride"]
    t = x.shape[3]
    pad = (w.shape[3] - 1) * dilation
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, 0)))
    out = KERNELS.forward_stacked(xp, w, dilation, stride, t)
    if len(ins) == 3:
        out += ins[2][:, None, :, None]  # per-model bias (M, C_out)
    return out, xp


def _conv_stacked_bwd(g, ins, out, xp, attrs, needs):
    x, w = ins[0], ins[1]
    dilation, stride = attrs["dilation"], attrs["stride"]
    t = x.shape[3]
    pad = (w.shape[3] - 1) * dilation
    gx = gw = gb = None
    if needs[0]:
        gxp = KERNELS.grad_input_stacked(g, w, xp.shape, dilation, stride, t)
        gx = gxp[:, :, :, pad:]
    if needs[1]:
        gw = KERNELS.grad_weight_stacked(g, xp, w.shape, dilation, stride, t)
    if len(ins) == 3 and needs[2]:
        gb = g.sum(axis=(1, 3))
    return (gx, gw) if len(ins) == 2 else (gx, gw, gb)


_CONV1D_STACKED = OpDef("conv1d_causal_stacked", _conv_stacked_fwd,
                        _conv_stacked_bwd)


def conv1d_causal_stacked(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
                          dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal dilated conv over a *stack* of M weight-sharing-free models.

    The stacked executor (see :mod:`repro.nn.stacked`) trains M clones of
    one network in lockstep, each with its own weights; this op is
    :func:`conv1d_causal` with a leading model axis everywhere:

    * input  ``x``: ``(M, N, C_in, T)`` — per-model batches;
    * weight ``w``: ``(M, C_out, C_in, K)`` — per-model kernels;
    * bias   ``b``: ``(M, C_out)`` or None;
    * output:      ``(M, N, C_out, T_out)``.

    Model slices never mix: output slice ``m`` depends only on ``x[m]`` /
    ``w[m]`` / ``b[m]``, exactly as if M independent convs had run.  The
    whole stack is a single autograd dispatch; the stacked kernels
    (``forward_stacked`` etc.) run the 2-D kernels model by model, so slice
    ``m`` is bit-identical to :func:`conv1d_causal` on model ``m``'s
    slice.
    """
    if x.ndim != 4:
        raise ValueError(f"expected input (M, N, C_in, T), got shape {x.shape}")
    if w.ndim != 4:
        raise ValueError(
            f"expected weight (M, C_out, C_in, K), got shape {w.shape}")
    if x.shape[0] != w.shape[0]:
        raise ValueError(f"input stack {x.shape[0]} does not match "
                         f"weight stack {w.shape[0]}")
    if x.shape[2] != w.shape[2]:
        raise ValueError(
            f"input channels {x.shape[2]} do not match weight channels "
            f"{w.shape[2]}")
    if dilation < 1 or stride < 1:
        raise ValueError("dilation and stride must be >= 1")

    attrs = {"dilation": dilation, "stride": stride}
    inputs = (x, w) if b is None else (x, w, b)
    return apply_op(_CONV1D_STACKED, inputs, attrs)


def _avg_pool_fwd(ins, attrs):
    x = ins[0]
    kernel_size, stride = attrs["kernel_size"], attrs["stride"]
    n, c, t = x.shape
    t_out = (t - kernel_size) // stride + 1
    out = np.zeros((n, c, t_out))
    for offset in range(kernel_size):
        out += x[:, :, offset: offset + stride * t_out: stride]
    out /= kernel_size
    return out, None


def _avg_pool_bwd(g, ins, out, ctx, attrs, needs):
    x = ins[0]
    kernel_size, stride = attrs["kernel_size"], attrs["stride"]
    t_out = (x.shape[2] - kernel_size) // stride + 1
    gx = np.zeros_like(x)
    scaled = g / kernel_size
    for offset in range(kernel_size):
        gx[:, :, offset: offset + stride * t_out: stride] += scaled
    return (gx,)


_AVG_POOL = OpDef("avg_pool1d", _avg_pool_fwd, _avg_pool_bwd)


def avg_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over the last axis of a ``(N, C, T)`` tensor.

    Incomplete trailing windows are dropped, matching PyTorch's default.
    """
    if x.ndim != 3:
        raise ValueError(f"expected (N, C, T), got {x.shape}")
    stride = stride or kernel_size
    t_out = (x.shape[2] - kernel_size) // stride + 1
    if t_out <= 0:
        raise ValueError(f"pooling window {kernel_size} larger than input length {x.shape[2]}")
    return apply_op(_AVG_POOL, (x,),
                    {"kernel_size": kernel_size, "stride": stride})


def _max_pool_fwd(ins, attrs):
    x = ins[0]
    kernel_size, stride = attrs["kernel_size"], attrs["stride"]
    t_out = (x.shape[2] - kernel_size) // stride + 1
    windows = np.stack(
        [x[:, :, offset: offset + stride * t_out: stride] for offset in range(kernel_size)],
        axis=-1)  # (N, C, T_out, K)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1).squeeze(-1)
    return out, argmax


def _max_pool_bwd(g, ins, out, argmax, attrs, needs):
    x = ins[0]
    stride = attrs["stride"]
    n, c, _ = x.shape
    t_out = argmax.shape[2]
    gx = np.zeros_like(x)
    # Scatter each output gradient back to the argmax input position.
    n_idx, c_idx, t_idx = np.meshgrid(
        np.arange(n), np.arange(c), np.arange(t_out), indexing="ij")
    src_t = t_idx * stride + argmax
    np.add.at(gx, (n_idx, c_idx, src_t), g)
    return (gx,)


_MAX_POOL = OpDef("max_pool1d", _max_pool_fwd, _max_pool_bwd)


def max_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last axis of a ``(N, C, T)`` tensor."""
    if x.ndim != 3:
        raise ValueError(f"expected (N, C, T), got {x.shape}")
    stride = stride or kernel_size
    t_out = (x.shape[2] - kernel_size) // stride + 1
    if t_out <= 0:
        raise ValueError(f"pooling window {kernel_size} larger than input length {x.shape[2]}")
    return apply_op(_MAX_POOL, (x,),
                    {"kernel_size": kernel_size, "stride": stride})


def global_avg_pool1d(x: Tensor) -> Tensor:
    """Mean over the time axis: ``(N, C, T) -> (N, C)``."""
    return x.mean(axis=2)
