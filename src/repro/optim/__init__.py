"""Optimizers and early stopping: Adam (Algorithm 1's optimizer, with γ̂
as a second parameter group), plain SGD and patience-based convergence."""

from .optimizers import Optimizer, SGD, Adam
from .early_stopping import EarlyStopping

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "EarlyStopping",
]
