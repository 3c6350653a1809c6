"""Reference conv kernels: one ``einsum`` per kernel tap.

This is the original implementation of :func:`repro.autograd.conv1d_causal`,
kept as the numerical oracle the im2col kernels are tested against
(``tests/test_backends_parity.py``).  No production path calls it: it
issues ``K`` separate GEMM-shaped contractions per call, where im2col
issues one.  The signatures match :class:`~.im2col.Im2colKernels`, and
every kernel returns the dtype of its inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .im2col import conv_out_length

__all__ = ["EinsumReference"]

_EINSUM_PATHS: dict = {}


def einsum_cached(subscripts: str, *operands: np.ndarray):
    """``np.einsum`` with the contraction path memoized per operand shape.

    ``optimize=True`` re-runs the path search on every call — measurable
    pure overhead once shapes are fixed, which for a training loop is
    always.  The search is deterministic, so caching the path per
    ``(subscripts, shapes)`` is bit-identical to ``optimize=True``.
    """
    key = (subscripts, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = _EINSUM_PATHS[key] = np.einsum_path(
            subscripts, *operands, optimize=True)[0]
    return np.einsum(subscripts, *operands, optimize=path)


class EinsumReference:
    """Per-tap einsum forward, input-gradient and weight-gradient kernels."""

    def forward(self, xp: np.ndarray, w: np.ndarray,
                dilation: int, stride: int, t: int) -> np.ndarray:
        n = xp.shape[0]
        c_out, _, k = w.shape
        shape = (n, c_out, conv_out_length(t, stride))
        out = np.zeros(shape, np.result_type(xp, w))
        for tap in range(k):
            # Tap `tap` reads xp at offsets tap*dilation .. tap*dilation + t - 1,
            # subsampled by the stride.
            segment = xp[:, :, tap * dilation: tap * dilation + t: stride]
            out += einsum_cached("oc,nct->not", w[:, :, tap], segment)
        return out

    def grad_input(self, grad: np.ndarray, w: np.ndarray,
                   dilation: int, stride: int, t: int) -> np.ndarray:
        """Adjoint w.r.t. the unpadded input ``(N, C_in, t)``: scattered
        into the padded length, which is then dropped."""
        _, c_in, k = w.shape
        pad = (k - 1) * dilation
        gxp = np.zeros((grad.shape[0], c_in, t + pad),
                       np.result_type(grad, w))
        for tap in range(k):
            gxp[:, :, tap * dilation: tap * dilation + t: stride] += einsum_cached(
                "oc,not->nct", w[:, :, tap], grad)
        return gxp[:, :, pad:]

    def grad_weight(self, grad: np.ndarray, xp: np.ndarray,
                    w_shape: Tuple[int, int, int],
                    dilation: int, stride: int, t: int) -> np.ndarray:
        k = w_shape[2]
        gw = np.zeros(w_shape, np.result_type(grad, xp))
        for tap in range(k):
            segment = xp[:, :, tap * dilation: tap * dilation + t: stride]
            gw[:, :, tap] = einsum_cached("not,nct->oc", grad, segment)
        return gw
