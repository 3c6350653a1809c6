"""FFT conv backend: frequency-domain causal dilated convolution.

The causal dilated convolution is a cross-correlation of the padded input
with a *dilated* kernel (taps spaced ``dilation`` apart).  By the
correlation theorem it can be evaluated as ``irfft(rfft(xp) · conj(rfft(w_d)))``
with everything batched over channels, which costs
``O(N·C·T·log T + N·C_in·C_out·T)`` instead of the ``O(N·C_in·C_out·K·T)``
of a direct lowering — independent of the kernel's temporal span.  The
win grows with ``K × dilation`` (long receptive fields), which is exactly
where TCN search spaces go; for the small kernels of the seed networks the
GEMM backends stay ahead, so this backend is opt-in like any other
(``repro.set_backend("fft")`` / ``REPRO_CONV_BACKEND=fft`` / per call).

All three kernels pad to the *full padded length* ``T + (K-1)·d``, which
makes every circular product equal its linear counterpart (no wrap-around
terms — see the inline notes), so results match the einsum reference to
floating-point round-off; the differential harness in
``tests/test_backends_parity.py`` covers this backend automatically.

Gradients are the transposed operations of the same lowering: the input
gradient is a frequency-domain *convolution* with the dilated kernel of
the stride-upsampled output gradient, and the weight gradient a
cross-correlation of the padded input with it, sampled at the dilated tap
positions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import ConvBackend

__all__ = ["FFTBackend"]


def _dilated_kernel(w: np.ndarray, dilation: int) -> np.ndarray:
    """Spread kernel taps ``dilation`` apart: ``w_d[..., i*d] = w[..., i]``."""
    if dilation == 1:
        return w
    c_out, c_in, k = w.shape
    span = (k - 1) * dilation + 1
    wd = np.zeros((c_out, c_in, span), dtype=w.dtype)
    wd[:, :, ::dilation] = w
    return wd


def _upsampled_grad(grad: np.ndarray, stride: int, t: int) -> np.ndarray:
    """Insert ``stride - 1`` zeros between output-gradient samples."""
    if stride == 1:
        return grad
    n, c_out, _ = grad.shape
    gu = np.zeros((n, c_out, t), dtype=grad.dtype)
    gu[:, :, ::stride] = grad
    return gu


def _dilated_kernel_stacked(w: np.ndarray, dilation: int) -> np.ndarray:
    """:func:`_dilated_kernel` over ``(M, O, C, K)``: both helpers only
    touch the last axis, so the leading axes fold into one."""
    m, c_out, c_in, k = w.shape
    wd = _dilated_kernel(w.reshape(m * c_out, c_in, k), dilation)
    return wd.reshape(m, c_out, c_in, wd.shape[-1])


def _upsampled_grad_stacked(grad: np.ndarray, stride: int, t: int) -> np.ndarray:
    """:func:`_upsampled_grad` over ``(M, N, O, T_out)`` (same folding)."""
    m, n, c_out, t_out = grad.shape
    gu = _upsampled_grad(grad.reshape(m * n, c_out, t_out), stride, t)
    return gu.reshape(m, n, c_out, gu.shape[-1])


class FFTBackend(ConvBackend):
    """``numpy.fft`` kernels for the causal dilated convolution."""

    name = "fft"

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int) -> np.ndarray:
        length = xp.shape[2]  # t + (k-1)*dilation
        wd = _dilated_kernel(w, dilation)
        # y[n,o,j] = Σ_c Σ_m xp[n,c,j+m] wd[o,c,m]  (cross-correlation):
        # correlation theorem gives Y = X · conj(W).  Padding both to the
        # full length keeps every needed lag j <= t-1 = length - span free
        # of circular wrap.
        xf = np.fft.rfft(xp, n=length, axis=-1)
        wf = np.fft.rfft(wd, n=length, axis=-1)
        yf = np.einsum("ncf,ocf->nof", xf, wf.conj())
        y = np.fft.irfft(yf, n=length, axis=-1)[:, :, :t:stride]
        return np.ascontiguousarray(y)

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   xp_shape: Tuple[int, int, int],
                   dilation: int, stride: int, t: int) -> np.ndarray:
        length = xp_shape[2]
        wd = _dilated_kernel(w, dilation)
        gu = _upsampled_grad(grad, stride, t)
        # gxp[n,c,p] = Σ_o Σ_j gu[n,o,j] wd[o,c,p-j] — a linear convolution
        # of length t + span - 1 == length, so the circular product is
        # exact.
        gf = np.fft.rfft(gu, n=length, axis=-1)
        wf = np.fft.rfft(wd, n=length, axis=-1)
        cf = np.einsum("nof,ocf->ncf", gf, wf)
        return np.fft.irfft(cf, n=length, axis=-1)

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int) -> np.ndarray:
        k = w_shape[2]
        length = xp.shape[2]
        gu = _upsampled_grad(grad, stride, t)
        # gw[o,c,m'] = Σ_n Σ_p xp[n,c,p] gu[n,o,p-m'] (cross-correlation of
        # xp with gu at lags m' = i*dilation).  gu is zero beyond t, and
        # m' <= span-1 = length - t, so wrapped terms all hit zeros.
        xf = np.fft.rfft(xp, n=length, axis=-1)
        gf = np.fft.rfft(gu, n=length, axis=-1)
        cf = np.einsum("ncf,nof->ocf", xf, gf.conj())
        corr = np.fft.irfft(cf, n=length, axis=-1)
        return np.ascontiguousarray(corr[:, :, :(k - 1) * dilation + 1:dilation])

    # -- stacked (leading model axis M) kernels: one batched FFT over all
    # models, one frequency-domain contraction carrying the m index -------

    def forward_stacked(self, xp: np.ndarray, w: np.ndarray,
                        dilation: int, stride: int, t: int) -> np.ndarray:
        length = xp.shape[3]
        wd = _dilated_kernel_stacked(w, dilation)
        xf = np.fft.rfft(xp, n=length, axis=-1)
        wf = np.fft.rfft(wd, n=length, axis=-1)
        yf = np.einsum("mncf,mocf->mnof", xf, wf.conj())
        y = np.fft.irfft(yf, n=length, axis=-1)[:, :, :, :t:stride]
        return np.ascontiguousarray(y)

    def grad_input_stacked(self, grad: np.ndarray, w: np.ndarray,
                           xp_shape: Tuple[int, int, int, int],
                           dilation: int, stride: int, t: int) -> np.ndarray:
        length = xp_shape[3]
        wd = _dilated_kernel_stacked(w, dilation)
        gu = _upsampled_grad_stacked(grad, stride, t)
        gf = np.fft.rfft(gu, n=length, axis=-1)
        wf = np.fft.rfft(wd, n=length, axis=-1)
        cf = np.einsum("mnof,mocf->mncf", gf, wf)
        return np.fft.irfft(cf, n=length, axis=-1)

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int) -> np.ndarray:
        k = w_shape[3]
        length = xp.shape[3]
        gu = _upsampled_grad_stacked(grad, stride, t)
        xf = np.fft.rfft(xp, n=length, axis=-1)
        gf = np.fft.rfft(gu, n=length, axis=-1)
        cf = np.einsum("mncf,mnof->mocf", xf, gf.conj())
        corr = np.fft.irfft(cf, n=length, axis=-1)
        return np.ascontiguousarray(
            corr[:, :, :, :(k - 1) * dilation + 1:dilation])
