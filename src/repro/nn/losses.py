"""Loss functions used in the paper's two benchmarks.

* Nottingham (polyphonic music): per-frame multi-label negative
  log-likelihood over the 88 piano keys, i.e. a sum of Bernoulli NLLs —
  the "NLL" metric of paper Fig. 4 / Table III (following Bai et al. [6]).
* PPG-Dalia (heart-rate regression): MAE in beats-per-minute, the metric
  the paper reports.  Mean squared error is also provided.
"""

from __future__ import annotations

from ..autograd import Tensor

__all__ = [
    "bce_with_logits",
    "polyphonic_nll",
    "mae_loss",
    "mse_loss",
]


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Numerically-stable binary cross entropy from logits (mean over all).

    Uses the log-sum-exp form ``max(x,0) - x*y + log(1 + exp(-|x|))`` so the
    loss never overflows for large logits.
    """
    x = logits
    y = targets if isinstance(targets, Tensor) else Tensor(targets)
    relu_x = x.relu()
    abs_x = x.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    return (relu_x - x * y + softplus).mean()


def polyphonic_nll(logits: Tensor, targets: Tensor) -> Tensor:
    """Frame-level NLL for 88-key piano rolls (paper's Nottingham metric).

    ``logits`` and ``targets`` have shape ``(N, 88, T)``.  The NLL of a frame
    is the sum over the 88 independent Bernoulli keys; the reported loss is
    the mean over frames (batch x time), matching Bai et al.'s evaluation.
    """
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch {logits.shape} vs {targets.shape}")
    x = logits
    y = targets if isinstance(targets, Tensor) else Tensor(targets)
    relu_x = x.relu()
    abs_x = x.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    per_element = relu_x - x * y + softplus         # (N, 88, T)
    per_frame = per_element.sum(axis=1)             # (N, T): sum over keys
    return per_frame.mean()


def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error (paper's PPG-Dalia metric, in BPM)."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    return (pred - t).abs().mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - t
    return (diff * diff).mean()

