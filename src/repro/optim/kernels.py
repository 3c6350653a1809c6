"""Pure update kernels: optimizer steps and training bookkeeping as data.

Each kernel is a module-level function whose entire state is the numpy
arrays passed in (parameter storage, moment buffers, 0-d step counters).
The :class:`~repro.optim.optimizers.Adam` / ``SGD`` steps and the
early-stopping counter delegate to them, so the same arithmetic serves
every trainer and the state stays plain arrays a checkpoint can snapshot
and restore in place.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "adam_update",
    "sgd_update",
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


def early_stop_update(best: np.ndarray, stale: np.ndarray, stop: np.ndarray,
                      seen: np.ndarray, metric: float, patience: int) -> bool:
    """Patience-based convergence bookkeeping on 0-d state arrays.

    Returns True when ``metric`` is lower than the best so far.  All
    counters are 0-d arrays: ``best`` (float64), ``stale`` (int64),
    ``stop`` / ``seen`` (bool) — the state a checkpoint carries across
    epochs.
    """
    improved = not bool(seen) or metric < float(best)
    if improved:
        best[...] = metric
        stale[...] = 0
        seen[...] = True
    else:
        stale += 1
        if int(stale) >= patience:
            stop[...] = True
    return improved
