"""The causal dilated conv kernels: an im2col / ``as_strided`` GEMM lowering.

The autograd ops in ``ops_conv.py`` own validation, causal padding, bias
and tape wiring; these kernels only answer "given the padded input, what
are the outputs / adjoints?".  Every kernel receives the *left-padded*
input ``xp`` of shape ``(N, C_in, T + (K-1)*dilation)`` together with the
original temporal length ``t``; the output length is ``ceil(t / stride)``.
Tap ``i`` of the kernel reads ``xp[..., i*dilation + j*stride]`` for output
position ``j`` (paper Eq. 1 in kernel order).

Instead of one contraction per kernel tap, the convolution is lowered to a
*single* GEMM:

1. ``as_strided`` builds a zero-copy patch view of the padded input with
   shape ``(N, C_in, K, T_out)`` where
   ``patches[n, c, i, j] = xp[n, c, i*dilation + j*stride]``;
2. the kernel is flattened to ``(C_out, C_in*K)`` and multiplied against
   the ``(N, C_in*K, T_out)`` patch matrix in one ``matmul``.

The backward passes are the transposed GEMMs of the same lowering: the
weight gradient contracts the output gradient with the patch matrix, and
the input gradient is a correlation of the stride-upsampled output
gradient with the tap-flipped kernel — the same patch-view GEMM again.

The patch view never materializes until a GEMM consumes it, so peak extra
memory is the ``(N, C_in*K, T_out)`` im2col buffer — the classic
space-for-speed trade of im2col convolutions.  Every kernel returns the
dtype of its inputs.  The per-tap einsum kernels in
:mod:`repro.autograd.backends.reference` are the oracle the parity tests
hold these kernels to.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["Im2colKernels", "conv_out_length"]


def conv_out_length(t: int, stride: int) -> int:
    """Output length of the causal conv: ``ceil(t / stride)``."""
    return (t + stride - 1) // stride


def _patch_view(xp: np.ndarray, k: int, dilation: int, stride: int,
                t: int) -> np.ndarray:
    """Zero-copy ``(N, C_in, K, T_out)`` sliding-window view of ``xp``."""
    n, c_in, _ = xp.shape
    t_out = conv_out_length(t, stride)
    s_n, s_c, s_t = xp.strides
    return as_strided(
        xp,
        shape=(n, c_in, k, t_out),
        strides=(s_n, s_c, s_t * dilation, s_t * stride),
        writeable=False,
    )


def _forward(xp: np.ndarray, w: np.ndarray,
             dilation: int, stride: int, t: int) -> np.ndarray:
    n, c_in, _ = xp.shape
    c_out, _, k = w.shape
    patches = _patch_view(xp, k, dilation, stride, t)
    t_out = patches.shape[-1]
    # (C_out, C_in*K) @ (N, C_in*K, T_out) -> (N, C_out, T_out)
    wmat = w.reshape(c_out, c_in * k)
    pmat = patches.reshape(n, c_in * k, t_out)
    return np.matmul(wmat, pmat)


def _grad_input(grad: np.ndarray, w: np.ndarray,
                xp_shape: Tuple[int, int, int],
                dilation: int, stride: int, t: int) -> np.ndarray:
    n, c_in, length = xp_shape
    c_out, _, k = w.shape
    pad = (k - 1) * dilation
    # The adjoint of a correlation is a *convolution*: every padded input
    # position p accumulates Σ_{o,i} w[o,c,i]·ĝ[n,o,p - i·d], where ĝ is
    # the stride-upsampled output gradient.  Substituting i → K-1-i turns
    # that into a correlation of the (both-sides zero-padded) ĝ with the
    # tap-flipped kernel — the exact same patch-view + single-GEMM
    # lowering as the forward pass, instead of a K-pass overlapping col2im
    # fold.
    dtype = np.result_type(w, grad)
    gpad = np.zeros((n, c_out, t + 2 * pad), dtype)
    gpad[:, :, pad: pad + t: stride] = grad
    patches = _patch_view(gpad, k, dilation, 1, length)
    wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
    pmat = patches.reshape(n, c_out * k, length)
    return np.matmul(wflip, pmat)


def _grad_weight(grad: np.ndarray, xp: np.ndarray,
                 w_shape: Tuple[int, int, int],
                 dilation: int, stride: int, t: int) -> np.ndarray:
    patches = _patch_view(xp, w_shape[2], dilation, stride, t)
    # One contraction over the strided view (gw[o,c,i] = Σ_{n,t}
    # grad[n,o,t] * patches[n,c,i,t]); tensordot materializes at most one
    # im2col buffer, where an explicit reshape+transpose GEMM would copy
    # it twice.  np.einsum takes this same BLAS route, but re-validates
    # its contraction path on every call.
    return np.tensordot(patches, grad, axes=((0, 3), (0, 2))).transpose(
        2, 0, 1)


def _per_model(kernel, a: np.ndarray, b: np.ndarray, *static) -> np.ndarray:
    """``kernel(a[m], b[m], *static)`` stacked over the leading model axis.

    One model at a time keeps the im2col buffer at one model's size; a
    batched GEMM over all M models measured +9.4% peak RSS on the stacked
    music sweep.  Each slice runs the exact 2-D kernel, so a stacked
    model's outputs and gradients are bit-identical to its 2-D conv.
    """
    first = kernel(a[0], b[0], *static)
    out = np.empty((a.shape[0],) + first.shape, first.dtype)
    out[0] = first
    for m in range(1, a.shape[0]):
        out[m] = kernel(a[m], b[m], *static)
    return out


class Im2colKernels:
    """The conv kernel set every conv op calls.

    A single instance lives in :mod:`repro.autograd.backends`; the ops call
    its methods (not the module functions above), so a profiler may wrap
    them on that instance and see every call.  The stacked methods loop
    the module-level 2-D kernels, so such a wrapper counts a stacked call
    once.
    """

    name = "im2col"

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int) -> np.ndarray:
        """``(N, C_in, L) x (C_out, C_in, K) -> (N, C_out, ceil(t /
        stride))``, no bias; a fresh array the caller may mutate."""
        return _forward(xp, w, dilation, stride, t)

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   xp_shape: Tuple[int, int, int],
                   dilation: int, stride: int, t: int) -> np.ndarray:
        """Adjoint w.r.t. the *padded* input; shape ``xp_shape``."""
        return _grad_input(grad, w, xp_shape, dilation, stride, t)

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int) -> np.ndarray:
        """Adjoint w.r.t. the kernel; shape ``w_shape``."""
        return _grad_weight(grad, xp, w_shape, dilation, stride, t)

    def forward_step(self, window: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Advance the convolution by one tick: ``(N, C_in, K) x
        (C_out, C_in, K) -> (N, C_out, 1)`` (no bias).

        ``window`` holds the ``K`` dilated taps the newest output sample
        reads — ``window[..., i] = x[t - (K-1-i)*dilation]`` — gathered by
        the streaming executor from its per-layer ring buffer, so one new
        sample costs O(K·C_in·C_out) MACs regardless of the receptive
        field.  The gathered window *is* the single im2col column, so the
        tick is one GEMV per stream: per-tick latency is
        call-overhead-bound at serving batch sizes, so one BLAS dispatch
        per layer (not one per tap) is what makes streaming beat
        re-windowing.  BLAS may sum in a different order than the
        full-window kernel, so outputs agree to the last ulp rather than
        bitwise — the streaming parity suite pins the tolerance.
        """
        n, c_in, k = window.shape
        c_out = w.shape[0]
        wmat = w.reshape(c_out, c_in * k)
        cmat = window.reshape(n, c_in * k, 1)
        return np.matmul(wmat, cmat)

    # -- stacked (leading model axis M) kernels: the stacked DSE executor
    # trains M clones of one network in lockstep, so every conv sees a
    # padded input (M, N, C_in, L) and a kernel (M, C_out, C_in, K) -------

    def forward_stacked(self, xp: np.ndarray, w: np.ndarray,
                        dilation: int, stride: int, t: int) -> np.ndarray:
        """``(M, N, C_in, L) x (M, C_out, C_in, K) -> (M, N, C_out,
        ceil(t / stride))``, no bias."""
        return _per_model(_forward, xp, w, dilation, stride, t)

    def grad_input_stacked(self, grad: np.ndarray, w: np.ndarray,
                           xp_shape: Tuple[int, int, int, int],
                           dilation: int, stride: int, t: int) -> np.ndarray:
        """Stacked adjoint w.r.t. the padded input; shape ``xp_shape``."""
        return _per_model(_grad_input, grad, w, tuple(xp_shape[1:]),
                          dilation, stride, t)

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int) -> np.ndarray:
        """Stacked adjoint w.r.t. the kernels; shape ``w_shape``."""
        return _per_model(_grad_weight, grad, xp, tuple(w_shape[1:]),
                          dilation, stride, t)
