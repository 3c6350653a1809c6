"""Dataset / DataLoader abstractions.

A :class:`Dataset` is an indexable collection of ``(input, target)`` numpy
pairs; :class:`DataLoader` batches and (optionally) shuffles it with an
explicit seeded generator so every experiment is reproducible.
"""

from __future__ import annotations

import copy
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import get_default_dtype

__all__ = ["Dataset", "ArrayDataset", "DataLoader", "clone_loader",
           "EpochReplayLoader", "train_val_test_split"]


class Dataset:
    """Minimal dataset protocol: ``__len__`` and ``__getitem__``."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset over pre-materialized input/target arrays (first axis = sample)."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        if len(inputs) != len(targets):
            raise ValueError(f"inputs ({len(inputs)}) and targets ({len(targets)}) "
                             f"must have the same length")
        dtype = get_default_dtype()
        self.inputs = np.asarray(inputs, dtype=dtype)
        self.targets = np.asarray(targets, dtype=dtype)

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.targets[index]


class DataLoader:
    """Batched iteration over a dataset.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Samples per batch; the last batch may be partial.
    shuffle:
        Reshuffle indices at the start of every epoch using ``rng``.
    rng:
        Seeded generator; when None a default (non-deterministic) one is used.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32, shuffle: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng()

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(indices)
        yield from self._iter_batches(indices)

    def _iter_batches(self, indices: np.ndarray
                      ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Emit batches for a fixed index order.

        Shared with :class:`EpochReplayLoader`, whose bit-identical-replay
        contract depends on using *this* assembly code, not a copy.
        """
        for start in range(0, len(indices), self.batch_size):
            batch = indices[start:start + self.batch_size]
            xs, ys = zip(*(self.dataset[int(i)] for i in batch))
            yield np.stack(xs), np.stack(ys)


def clone_loader(loader: DataLoader) -> DataLoader:
    """Deep-copy a loader while sharing its (read-only) sample arrays.

    Every piece of mutable iteration state — the shuffle RNG, augmentation
    RNGs, cursors in loader subclasses — becomes private to the clone, so
    concurrent consumers (parallel DSE grid points, per-point deployment
    evaluators) never thread RNG state through each other.  The
    materialized sample arrays, however, are never mutated by training, so
    they are seeded into the deepcopy memo and stay shared: N clones cost
    O(N) loader state, not N copies of the dataset.
    """
    memo = {}
    dataset = getattr(loader, "dataset", None)
    for name in ("inputs", "targets"):
        array = getattr(dataset, name, None)
        if isinstance(array, np.ndarray):
            memo[id(array)] = array
    return copy.deepcopy(loader, memo)


class EpochReplayLoader:
    """Random-access view over a :class:`DataLoader`'s epoch sequence.

    A plain ``DataLoader`` is a *stream*: epoch ``e``'s batch order depends
    on the shuffle RNG having advanced through epochs ``0 .. e-1``.  The
    stacked DSE trainer needs random access instead — models early-stop at
    different epochs, so during fine-tuning model ``m`` must see exactly
    the batches its sequential run would have seen at *its own* epoch
    index, not the stack's.  This view replays the deterministic shuffle
    sequence from a private clone of the loader and memoizes each epoch's
    index order, so ``epoch(e)`` yields bit-identical batches to the
    ``e``-th iteration of a fresh :func:`clone_loader` copy — in any order,
    any number of times.

    Only exact ``DataLoader`` instances are supported: a subclass may hold
    additional per-batch mutable state (augmentation RNGs) that cannot be
    replayed out of order.  Callers (the stacked trainer) catch the
    ``TypeError`` and fall back to sequential training.
    """

    def __init__(self, loader: DataLoader):
        if type(loader) is not DataLoader:
            raise TypeError(
                f"EpochReplayLoader requires a plain DataLoader, got "
                f"{type(loader).__name__} (subclasses may carry per-batch "
                f"state that cannot be replayed out of order)")
        self._loader = clone_loader(loader)
        self._orders: List[np.ndarray] = []

    @property
    def batch_size(self) -> int:
        return self._loader.batch_size

    def __len__(self) -> int:
        """Batches per epoch (constant across epochs)."""
        return len(self._loader)

    def _order(self, epoch: int) -> np.ndarray:
        while len(self._orders) <= epoch:
            indices = np.arange(len(self._loader.dataset))
            if self._loader.shuffle:
                self._loader.rng.shuffle(indices)
            self._orders.append(indices)
        return self._orders[epoch]

    def epoch(self, epoch: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield epoch ``epoch``'s batches, bit-identical to the stream."""
        return self._loader._iter_batches(self._order(epoch))


def train_val_test_split(dataset: ArrayDataset, val_fraction: float = 0.15,
                         test_fraction: float = 0.15,
                         rng: Optional[np.random.Generator] = None
                         ) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    """Random split into train/val/test ``ArrayDataset`` views."""
    if val_fraction + test_fraction >= 1.0:
        raise ValueError("val + test fractions must leave room for training data")
    rng = rng or np.random.default_rng()
    n = len(dataset)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    n_test = max(1, int(round(n * test_fraction)))
    val_idx = order[:n_val]
    test_idx = order[n_val:n_val + n_test]
    train_idx = order[n_val + n_test:]
    if len(train_idx) == 0:
        raise ValueError("dataset too small for the requested split")

    def subset(idx: np.ndarray) -> ArrayDataset:
        return ArrayDataset(dataset.inputs[idx], dataset.targets[idx])

    return subset(train_idx), subset(val_idx), subset(test_idx)
