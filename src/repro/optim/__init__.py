"""Optimizers and early stopping."""

from .kernels import adam_update, sgd_update, early_stop_update
from .optimizers import Optimizer, SGD, Adam
from .early_stopping import EarlyStopping

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "EarlyStopping",
    "adam_update",
    "sgd_update",
    "early_stop_update",
]
