"""The evaluation loop: mean loss over a loader, in eval mode, under
``no_grad``.  :func:`repro.core.driver.evaluate` is its one caller; the
sequential trainers' validation, the deployment losses and the CLI's
test loss all go through it.
"""

from __future__ import annotations

from typing import Callable

from ..autograd import Tensor, no_grad
from .module import Module

__all__ = ["mean_loss_over_loader"]


def mean_loss_over_loader(model: Module, loader,
                          loss_fn: Callable[[Tensor, Tensor], Tensor],
                          empty_message: str = "loader produced no batches"
                          ) -> float:
    """Mean of ``loss_fn(model(x), y)`` over a loader, without gradients.

    The model is put in evaluation mode for the sweep and restored to its
    previous mode afterwards.  Raises ``ValueError(empty_message)`` when
    the loader yields nothing — callers pass their own message so existing
    error texts stay stable.
    """
    was_training = model.training
    model.eval()
    total, batches = 0.0, 0
    with no_grad():
        for x, y in loader:
            value = loss_fn(model(Tensor(x)), Tensor(y))
            total += value.item()
            batches += 1
    if was_training:
        model.train()
    if batches == 0:
        raise ValueError(empty_message)
    return total / batches
