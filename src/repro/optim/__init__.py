"""Optimizers, LR schedulers, gradient clipping and early stopping."""

from .kernels import (adam_update, sgd_update, clip_grads,
                      clip_grads_stacked, early_stop_update)
from .optimizers import Optimizer, SGD, Adam
from .schedulers import StepLR, CosineAnnealingLR, ReduceLROnPlateau, clip_grad_norm
from .early_stopping import EarlyStopping

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "CosineAnnealingLR",
    "ReduceLROnPlateau",
    "clip_grad_norm",
    "EarlyStopping",
    "adam_update",
    "sgd_update",
    "clip_grads",
    "clip_grads_stacked",
    "early_stop_update",
]
