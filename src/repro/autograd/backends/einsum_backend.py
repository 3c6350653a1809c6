"""Reference conv backend: one ``einsum`` per kernel tap.

This is the original implementation of :func:`repro.autograd.conv1d_causal`,
kept verbatim as the numerical reference all other backends are checked
against.  It is simple, allocation-light and fast for the small tap counts
TCNs use, but issues ``K`` separate GEMM-shaped contractions per call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import ConvBackend, conv_out_length, einsum_cached

__all__ = ["EinsumBackend"]


class EinsumBackend(ConvBackend):
    """Per-tap einsum kernels (the reference implementation)."""

    name = "einsum"

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int) -> np.ndarray:
        n = xp.shape[0]
        c_out, _, k = w.shape
        shape = (n, c_out, conv_out_length(t, stride))
        out = np.zeros(shape)
        for tap in range(k):
            # Tap `tap` reads xp at offsets tap*dilation .. tap*dilation + t - 1,
            # subsampled by the stride.
            segment = xp[:, :, tap * dilation: tap * dilation + t: stride]
            out += einsum_cached("oc,nct->not", w[:, :, tap], segment)
        return out

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   xp_shape: Tuple[int, int, int],
                   dilation: int, stride: int, t: int) -> np.ndarray:
        k = w.shape[2]
        gxp = np.zeros(xp_shape)
        for tap in range(k):
            gxp[:, :, tap * dilation: tap * dilation + t: stride] += einsum_cached(
                "oc,not->nct", w[:, :, tap], grad)
        return gxp

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int) -> np.ndarray:
        k = w_shape[2]
        gw = np.zeros(w_shape)
        for tap in range(k):
            segment = xp[:, :, tap * dilation: tap * dilation + t: stride]
            gw[:, :, tap] = einsum_cached("not,nct->oc", grad, segment)
        return gw

    # -- stacked (leading model axis M) kernels: same per-tap scheme, one
    # contraction covering all M models at once --------------------------

    def forward_stacked(self, xp: np.ndarray, w: np.ndarray,
                        dilation: int, stride: int, t: int) -> np.ndarray:
        m, n = xp.shape[0], xp.shape[1]
        c_out, k = w.shape[1], w.shape[3]
        shape = (m, n, c_out, conv_out_length(t, stride))
        dtype = np.result_type(xp, w)
        out = np.zeros(shape, dtype)
        for tap in range(k):
            segment = xp[:, :, :, tap * dilation: tap * dilation + t: stride]
            out += einsum_cached("moc,mnct->mnot", w[:, :, :, tap], segment)
        return out

    def grad_input_stacked(self, grad: np.ndarray, w: np.ndarray,
                           xp_shape: Tuple[int, int, int, int],
                           dilation: int, stride: int, t: int) -> np.ndarray:
        k = w.shape[3]
        dtype = np.result_type(grad, w)
        gxp = np.zeros(xp_shape, dtype)
        for tap in range(k):
            gxp[:, :, :, tap * dilation: tap * dilation + t: stride] += \
                einsum_cached("moc,mnot->mnct", w[:, :, :, tap], grad)
        return gxp

    def grad_weight_stacked(self, grad: np.ndarray, xp: np.ndarray,
                            w_shape: Tuple[int, int, int, int],
                            dilation: int, stride: int, t: int) -> np.ndarray:
        k = w_shape[3]
        dtype = np.result_type(grad, xp)
        gw = np.zeros(w_shape, dtype)
        for tap in range(k):
            segment = xp[:, :, :, tap * dilation: tap * dilation + t: stride]
            gw[:, :, :, tap] = einsum_cached("mnot,mnct->moc", grad, segment)
        return gw
