"""Pure update kernels: optimizer steps and training bookkeeping as data.

Each kernel is a module-level function whose entire state is the numpy
arrays passed in (parameter storage, moment buffers, 0-d step counters).
The :class:`~repro.optim.optimizers.Adam` / ``SGD`` steps, gradient
clipping (sequential and stacked) and the early-stopping counter delegate
to them, so the same arithmetic serves every trainer and the state stays
plain arrays a checkpoint can snapshot and restore in place.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "adam_update",
    "sgd_update",
    "clip_grads",
    "clip_grads_stacked",
    "early_stop_update",
]


def adam_update(data: np.ndarray, grad: np.ndarray,
                m: np.ndarray, v: np.ndarray, t: np.ndarray,
                lr: float, beta1: float, beta2: float, eps: float,
                weight_decay: float, decoupled: bool) -> None:
    """One Adam step on one parameter, all state passed in.

    ``t`` is the 0-d int64 step counter, incremented in place; the bias
    corrections use it as a Python int so ``beta ** t`` stays a float and
    never promotes float32 parameters (NEP 50).  The op order replicates
    the historical eager loop exactly — bit-identical trajectories.
    """
    if weight_decay and not decoupled:
        grad = grad + weight_decay * data
    t += 1
    step = int(t)
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1 ** step)
    v_hat = v / (1 - beta2 ** step)
    update = m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay and decoupled:
        update = update + weight_decay * data
    data -= lr * update


def sgd_update(data: np.ndarray, grad: np.ndarray,
               velocity: Optional[np.ndarray],
               lr: float, momentum: float, weight_decay: float,
               nesterov: bool) -> None:
    """One SGD step on one parameter (``velocity`` is None when momentum=0)."""
    if weight_decay:
        grad = grad + weight_decay * data
    if momentum:
        velocity *= momentum
        velocity += grad
        grad = grad + momentum * velocity if nesterov else velocity
    data -= lr * grad


def clip_grads(grads: Sequence[np.ndarray], max_norm: float) -> float:
    """Global-L2 gradient clipping over bare arrays (in place).

    The array-level core of :func:`repro.optim.clip_grad_norm`.
    """
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def clip_grads_stacked(grads: Sequence[np.ndarray], max_norm: float
                       ) -> np.ndarray:
    """Per-model gradient clipping over stacked ``(M, ...)`` arrays.

    Array-level core of :func:`repro.core.clip_grad_norm_stacked`: each
    model slice is clipped on its own global norm, matching M independent
    :func:`clip_grads` calls.
    """
    if not grads:
        return np.zeros(0)
    m = grads[0].shape[0]
    total = np.zeros(m)
    for g in grads:
        total += (g * g).reshape(m, -1).sum(axis=1)
    norms = np.sqrt(total)
    scales = np.where(norms > max_norm, max_norm / np.maximum(norms, 1e-300),
                      1.0)
    if np.any(scales < 1.0):
        for g in grads:
            g *= scales.reshape((m,) + (1,) * (g.ndim - 1))
    return norms


def early_stop_update(best: np.ndarray, stale: np.ndarray, stop: np.ndarray,
                      seen: np.ndarray, metric: float, min_delta: float,
                      patience: int, sign: float) -> bool:
    """Patience-based convergence bookkeeping on 0-d state arrays.

    ``sign`` is ``+1.0`` for ``mode="min"`` and ``-1.0`` for ``"max"``;
    multiplying by it folds both modes into one exact comparison
    (negation is lossless).  Returns True when ``metric`` improved the
    best.  All counters are 0-d arrays: ``best`` (float64), ``stale``
    (int64), ``stop`` / ``seen`` (bool) — the state a checkpoint carries
    across epochs.
    """
    improved = (not bool(seen)
                or sign * metric < sign * float(best) - min_delta)
    if improved:
        best[...] = metric
        stale[...] = 0
        seen[...] = True
    else:
        stale += 1
        if int(stale) >= patience:
            stop[...] = True
    return improved
