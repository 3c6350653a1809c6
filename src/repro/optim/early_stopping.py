"""Early stopping on a validation loss.

The paper uses validation-loss convergence to end PIT's pruning phase
(Algorithm 1, "while not converged") and an early-stop patience of 50
epochs in the ProxylessNAS comparison (Sec. IV-C).  This helper implements
the standard patience-based criterion with best-state checkpointing.

The numeric bookkeeping (best / stale counter / stop flag) lives in 0-d
numpy arrays updated in place by :meth:`EarlyStopping.update`, so
checkpoints can snapshot and restore the convergence state as data; the
Python-level attributes are read-only views over those arrays.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["EarlyStopping"]


class EarlyStopping:
    """Track a loss and signal convergence after ``patience`` stale epochs.

    Parameters
    ----------
    patience:
        Number of consecutive observations that do not lower the best loss
        tolerated before :attr:`should_stop` flips to True.
    """

    def __init__(self, patience: int = 10):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_state: Optional[Dict[str, np.ndarray]] = None
        self._best = np.zeros((), dtype=np.float64)
        self._stale = np.zeros((), dtype=np.int64)
        self._stop = np.zeros((), dtype=bool)
        self._seen = np.zeros((), dtype=bool)

    @property
    def best(self) -> Optional[float]:
        return float(self._best) if bool(self._seen) else None

    @property
    def stale(self) -> int:
        return int(self._stale)

    @property
    def should_stop(self) -> bool:
        return bool(self._stop)

    def carried_state(self) -> Tuple[np.ndarray, ...]:
        """The convergence state arrays ``(best, stale, stop, seen)``."""
        return (self._best, self._stale, self._stop, self._seen)

    def update(self, metric: float, state: Optional[Dict[str, np.ndarray]] = None) -> bool:
        """Record one observation; return True when it improved the best."""
        improved = not bool(self._seen) or metric < float(self._best)
        if improved:
            self._best[...] = metric
            self._stale[...] = 0
            self._seen[...] = True
            if state is not None:
                self.best_state = copy.deepcopy(state)
        else:
            self._stale += 1
            if int(self._stale) >= self.patience:
                self._stop[...] = True
        return improved

    def reset(self) -> None:
        self.best_state = None
        self._best[...] = 0.0
        self._stale[...] = 0
        self._stop[...] = False
        self._seen[...] = False
