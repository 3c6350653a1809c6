"""The causal dilated conv kernels: an im2col / ``as_strided`` GEMM lowering.

The autograd ops in ``ops_conv.py`` own validation, causal padding, bias
and tape wiring; these kernels only answer "given the padded input, what
are the outputs / adjoints?".  The forward and the weight gradient
receive the *left-padded* input ``xp`` of shape
``(N, C_in, T + (K-1)*dilation)`` together with the original temporal
length ``t``; the output length is ``ceil(t / stride)``.  Tap ``i`` of the
kernel reads ``xp[..., i*dilation + j*stride]`` for output position ``j``
(paper Eq. 1 in kernel order).  The input gradient needs no padded input:
it returns the adjoint with respect to the *unpadded* input,
``(N, C_in, t)``.

Every kernel is one GEMM over one im2col matrix, batch included:
:func:`_im2col` copies a zero-copy ``as_strided`` patch view
``patches[n, c, i, j] = src[n, c, i*dilation + j*stride]`` into the
``(C*K, N*T_out)`` matrix whose row ``c*K + i`` holds tap ``i`` of channel
``c`` and whose column ``n*T_out + j`` holds output ``j`` of sample ``n``.

* forward: ``w.reshape(C_out, C_in*K) @ im2col(xp)``;
* weight gradient: ``im2col(xp) @ grad`` with the output gradient laid
  out as ``(N*T_out, C_out)``;
* input gradient: a correlation of the stride-upsampled output gradient
  with the tap-flipped kernel, ``wflip @ im2col(ĝ)`` over the ``t``
  unpadded columns only.

Folding the batch into the GEMM's columns makes one BLAS call per conv,
whatever the batch size.  Peak extra memory is the one im2col matrix —
the classic space-for-speed trade of im2col convolutions.  Every kernel
returns the dtype of its inputs.  The per-tap einsum kernels in
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


def _im2col(src: np.ndarray, k: int, dilation: int, stride: int,
            t_out: int) -> np.ndarray:
    """The ``(C*K, N*t_out)`` im2col matrix of ``src`` ``(N, C, L)``:
    element ``[c*K + i, n*t_out + j]`` is ``src[n, c, i*dilation +
    j*stride]``.  One copy, out of a zero-copy sliding-window view."""
    n, c, _ = src.shape
    s_n, s_c, s_t = src.strides
    patches = as_strided(src, shape=(n, c, k, t_out),
                         strides=(s_n, s_c, s_t * dilation, s_t * stride),
                         writeable=False)
    return patches.transpose(1, 2, 0, 3).reshape(c * k, n * t_out)


def _forward(xp: np.ndarray, w: np.ndarray,
             dilation: int, stride: int, t: int) -> np.ndarray:
    n = xp.shape[0]
    c_out, c_in, k = w.shape
    t_out = conv_out_length(t, stride)
    out = w.reshape(c_out, c_in * k) @ _im2col(xp, k, dilation, stride, t_out)
    return np.ascontiguousarray(
        out.reshape(c_out, n, t_out).transpose(1, 0, 2))


def _grad_input(grad: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int) -> np.ndarray:
    n, c_out, _ = grad.shape
    _, c_in, k = w.shape
    # The adjoint of a correlation is a *convolution*: unpadded input
    # position u accumulates Σ_{o,i} w[o,c,i]·ĝ[n,o,u + (K-1-i)·d], where ĝ
    # is the stride-upsampled output gradient (zero past t).  Substituting
    # i → K-1-i turns that into a correlation of the right-padded ĝ with
    # the tap-flipped kernel over the t unpadded columns: the forward's
    # lowering again.
    gpad = np.zeros((n, c_out, t + (k - 1) * dilation),
                    np.result_type(w, grad))
    gpad[:, :, 0:t:stride] = grad
    wflip = w[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
    gx = wflip @ _im2col(gpad, k, dilation, 1, t)
    return np.ascontiguousarray(gx.reshape(c_in, n, t).transpose(1, 0, 2))


def _grad_weight(grad: np.ndarray, xp: np.ndarray,
                 w_shape: Tuple[int, int, int],
                 dilation: int, stride: int, t: int) -> np.ndarray:
    n, c_out, t_out = grad.shape
    _, c_in, k = w_shape
    # gw[o,c,i] = Σ_{n,j} grad[n,o,j]·xp[n,c,i·d + j·s], contracted over
    # the folded (n, j) columns.
    gmat = grad.transpose(0, 2, 1).reshape(n * t_out, c_out)
    gw = np.dot(_im2col(xp, k, dilation, stride, t_out), gmat)
    return gw.reshape(c_in, k, c_out).transpose(2, 0, 1)


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
                   dilation: int, stride: int, t: int) -> np.ndarray:
        """Adjoint w.r.t. the *unpadded* input: ``(N, C_out, ceil(t /
        stride)) x (C_out, C_in, K) -> (N, C_in, t)``; a fresh array."""
        return _grad_input(grad, w, dilation, stride, t)

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
                           dilation: int, stride: int, t: int) -> np.ndarray:
        """Stacked adjoint w.r.t. the unpadded inputs: ``(M, N, C_in,
        t)``."""
        return _per_model(_grad_input, grad, w, dilation, stride, t)

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int) -> np.ndarray:
        """Stacked adjoint w.r.t. the kernels; shape ``w_shape``."""
        return _per_model(_grad_weight, grad, xp, tuple(w_shape[1:]),
                          dilation, stride, t)
