"""Bit-exact mid-run training checkpoints.

The DSE sweeps are the expensive part of the reproduction — each grid
point is a full 3-phase PIT training run — so a crashed, preempted or
timed-out run must not cost the whole point.  :class:`TrainerCheckpoint`
snapshots the *complete* training state at epoch boundaries:

* model parameters and buffers (via ``Module.state_dict``),
* optimizer state per ``(group, param, slot)`` — Adam moments and the 0-d
  step counters, written back **in place** on restore so every existing
  reference to those arrays keeps seeing the restored values,
* every RNG stream that advances during training (dropout modules, the
  shuffling loaders), serialized through ``bit_generator.state``,
* early-stop state (best metric, stale counter, ``best_state`` snapshot),
* the current phase, epoch-in-phase and global epoch,
* the default dtype the run trains in: a file written at another dtype
  warns and starts fresh.

A run killed at any epoch boundary and resumed from its checkpoint is
**bit-identical** — losses, params, full Adam state — to the uninterrupted
run.
The phase driver (:mod:`repro.core.driver`) writes one template-shaped
file per lane, so a stack's resume composes with slicing and a
sequential run can adopt any lane's file.

Each checkpoint is one array file of :mod:`repro.nn.serialization`
(a JSON header and the raw array bytes under one CRC32, written
atomically).  A torn, truncated or checksum-failing file, or one of
another format version, is quarantined to ``<path>.corrupt`` with a
warning — like ``DSECache`` — and the run restarts from scratch.

This module only turns live training objects (optimizer, stopper, RNG
maps) into flat array dicts and back; the driver decides what to save.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from ..autograd import get_default_dtype
from ..nn.serialization import (CheckpointError, load_state,
                                 quarantine_file, save_state)
from ..testing import faults

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError", "CheckpointState", "TrainerCheckpoint",
    "checkpoint_file", "key_tag",
    "encode_rng", "decode_rng", "restore_rng",
    "module_rng_map", "loader_rng_map", "capture_rngs", "restore_rngs",
    "fast_forward_loader",
    "optimizer_arrays", "restore_optimizer",
    "stopper_arrays", "restore_stopper",
    "split_group",
]

#: bump when the file layout changes; older formats are quarantined,
#: not migrated — a checkpoint is a cache of epochs, never the only copy.
#: Format 3 records the default dtype the run trained in; format 4 is the
#: flat array file of :mod:`repro.nn.serialization`.
FORMAT_VERSION = 4


def key_tag(key: str) -> str:
    """Filesystem-safe tag for a checkpoint derived from a cache key.

    The DSE engine names each point's checkpoint after its ``DSECache``
    key, so every execution path that trains the same configuration —
    sequential, stacked, a retry after a worker crash, a resubmit after a
    pool death — resolves to the *same* file and resumes each other's
    progress.
    """
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def checkpoint_file(directory: Union[str, Path], tag: str) -> Path:
    """Canonical checkpoint path for ``tag`` under ``directory``."""
    safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in tag)
    return Path(directory) / f"{safe}.ckpt"


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------

def _encode_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"__nd__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _encode_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_jsonable(v) for v in obj]
    return obj


def _decode_jsonable(obj):
    if isinstance(obj, dict):
        if "__nd__" in obj and "dtype" in obj and len(obj) == 2:
            return np.array(obj["__nd__"], dtype=obj["dtype"])
        return {k: _decode_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_jsonable(v) for v in obj]
    return obj


def encode_rng(gen: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's bit-stream position."""
    return _encode_jsonable(gen.bit_generator.state)


def decode_rng(encoded: dict) -> dict:
    """Inverse of :func:`encode_rng` (a ``bit_generator.state`` dict)."""
    return _decode_jsonable(encoded)


def restore_rng(gen: np.random.Generator, encoded: dict) -> None:
    """Rewind ``gen`` to an encoded position; draws are bit-identical after."""
    gen.bit_generator.state = decode_rng(encoded)


def module_rng_map(model, slice_index: Optional[int] = None
                   ) -> Dict[str, np.random.Generator]:
    """Every RNG a model's modules advance during training, by module path.

    Sequential models expose a ``rng`` Generator per stochastic module
    (``Dropout``); stacked models expose per-slice clone lists (``rngs``,
    :class:`repro.nn.stacked.StackedDropout`), selected by ``slice_index``.
    Stacked module paths mirror the template's, so the keys agree across
    both trainers — which is what lets a sequential run resume a stacked
    slice's checkpoint and vice versa.
    """
    out: Dict[str, np.random.Generator] = {}
    for name, mod in model.named_modules():
        if slice_index is None:
            rng = getattr(mod, "rng", None)
            if isinstance(rng, np.random.Generator):
                out[f"mod/{name}"] = rng
        else:
            rngs = getattr(mod, "rngs", None)
            if (isinstance(rngs, (list, tuple)) and len(rngs) > slice_index
                    and isinstance(rngs[slice_index], np.random.Generator)):
                out[f"mod/{name}"] = rngs[slice_index]
    return out


def loader_rng_map(**loaders) -> Dict[str, np.random.Generator]:
    """The shuffle RNGs of the trainer's loaders, keyed ``loader/<role>``.

    Only shuffling loaders advance their generator, so non-shuffling ones
    (typical validation loaders) are omitted — their iteration order is a
    pure function of the dataset.
    """
    out: Dict[str, np.random.Generator] = {}
    for role, loader in loaders.items():
        if loader is None or not getattr(loader, "shuffle", False):
            continue
        rng = getattr(loader, "rng", None)
        if isinstance(rng, np.random.Generator):
            out[f"loader/{role}"] = rng
    return out


def capture_rngs(rng_map: Mapping[str, np.random.Generator]) -> Dict[str, dict]:
    return {name: encode_rng(gen) for name, gen in rng_map.items()}


def restore_rngs(rng_map: Mapping[str, np.random.Generator],
                 encoded: Mapping[str, dict]) -> None:
    """Rewind every generator that has a saved position; skip the rest.

    Keys present on only one side are ignored: a sequential trainer
    resuming a stacked slice's file has loader streams the stack (which
    trains from :class:`EpochReplayLoader` views) never saved — those are
    fast-forwarded positionally instead (:func:`fast_forward_loader`).
    """
    for name, gen in rng_map.items():
        state = encoded.get(name)
        if state is not None:
            restore_rng(gen, state)


def fast_forward_loader(loader, epochs: int) -> None:
    """Advance a stream loader's shuffle RNG past ``epochs`` epochs.

    Replays exactly the per-epoch draw ``DataLoader.__iter__`` makes (one
    ``shuffle`` of the full index range), so the loader lands on the same
    stream position an uninterrupted run would occupy — used when a
    checkpoint records the position only as an epoch count.
    """
    if not getattr(loader, "shuffle", False):
        return
    for _ in range(int(epochs)):
        indices = np.arange(len(loader.dataset))
        loader.rng.shuffle(indices)


# ----------------------------------------------------------------------
# Optimizer / early-stop state
# ----------------------------------------------------------------------

def optimizer_arrays(optimizer, slice_index: Optional[int] = None
                     ) -> Dict[str, np.ndarray]:
    """Copy every optimizer state array, keyed ``opt/g{gi}p{pi}s{si}``.

    State is allocated eagerly via ``ensure_state`` so the snapshot is
    complete even before the first ``step()``.  With ``slice_index`` the
    leading stack axis is sliced off non-scalar arrays, producing
    template-shaped state — the stacked trainer's params are the
    template's stacked along axis 0, and its group/param ordering mirrors
    the sequential trainer's, so the keys line up across both.
    """
    out: Dict[str, np.ndarray] = {}
    for gi, group in enumerate(optimizer.param_groups):
        for pi, p in enumerate(group["params"]):
            for si, arr in enumerate(optimizer.ensure_state(p)):
                if slice_index is not None and arr.ndim > 0:
                    arr = arr[slice_index]
                out[f"opt/g{gi}p{pi}s{si}"] = np.array(arr, copy=True)
    return out


def restore_optimizer(optimizer, arrays: Mapping[str, np.ndarray],
                      slice_index: Optional[int] = None) -> None:
    """Write saved state back **in place** into the optimizer's arrays.

    In-place (``arr[...] = saved``) keeps the optimizer's own array
    objects, which is what lets a stacked run restore one slice at a time
    through ``arr[slice_index]`` views.  Missing keys raise
    :class:`CheckpointError` (the checkpoint belongs to a different
    optimizer layout).
    """
    for gi, group in enumerate(optimizer.param_groups):
        for pi, p in enumerate(group["params"]):
            for si, arr in enumerate(optimizer.ensure_state(p)):
                key = f"opt/g{gi}p{pi}s{si}"
                saved = arrays.get(key)
                if saved is None:
                    raise CheckpointError(
                        f"checkpoint is missing optimizer state {key!r} "
                        "(different optimizer layout?)")
                target = arr[slice_index] if (slice_index is not None
                                              and arr.ndim > 0) else arr
                target[...] = saved


def stopper_arrays(stopper) -> Dict[str, np.ndarray]:
    """Early-stop state as arrays: ``stop/*`` counters + ``best/*`` snapshot."""
    best, stale, stop, seen = stopper.carried_state()
    out = {
        "stop/best": np.array(best, copy=True),
        "stop/stale": np.array(stale, copy=True),
        "stop/stop": np.array(stop, copy=True),
        "stop/seen": np.array(seen, copy=True),
    }
    if stopper.best_state is not None:
        for name, arr in stopper.best_state.items():
            out[f"best/{name}"] = arr
    return out


def restore_stopper(stopper, arrays: Mapping[str, np.ndarray]) -> None:
    """In-place restore of the convergence counters and best snapshot."""
    best, stale, stop, seen = stopper.carried_state()
    try:
        best[...] = arrays["stop/best"]
        stale[...] = arrays["stop/stale"]
        stop[...] = arrays["stop/stop"]
        seen[...] = arrays["stop/seen"]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint is missing early-stop state {exc}") from exc
    best_state = split_group(arrays, "best/")
    stopper.best_state = ({name: np.array(arr, copy=True)
                           for name, arr in best_state.items()}
                          if best_state else None)


def split_group(arrays: Mapping[str, np.ndarray], prefix: str
                ) -> Dict[str, np.ndarray]:
    """The sub-dict under a key prefix, with the prefix stripped."""
    return {key[len(prefix):]: arr for key, arr in arrays.items()
            if key.startswith(prefix)}


# ----------------------------------------------------------------------
# The checkpoint itself
# ----------------------------------------------------------------------

@dataclass
class CheckpointState:
    """One loaded checkpoint: flat arrays + JSON metadata."""
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)

    def group(self, prefix: str) -> Dict[str, np.ndarray]:
        return split_group(self.arrays, prefix)


class TrainerCheckpoint:
    """Rolling epoch-boundary checkpoint at a fixed path.

    Parameters
    ----------
    path:
        File location; each save atomically replaces the previous one
        (a checkpoint is a cursor, not a history).
    every:
        Save cadence in epochs: ``due(e)`` is True when ``e % every == 0``.
    resume:
        When False, :meth:`load` pretends no checkpoint exists (fresh
        start); saves still happen, overwriting the old file as training
        progresses.
    """

    def __init__(self, path: Union[str, Path], every: int = 1,
                 resume: bool = True):
        if int(every) < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.resume = bool(resume)

    @classmethod
    def create(cls, directory: Optional[Union[str, Path]], tag: str,
               every: Optional[int] = None, resume: bool = True
               ) -> Optional["TrainerCheckpoint"]:
        """Build a checkpoint under ``directory``, or None when disabled."""
        if not directory:
            return None
        return cls(checkpoint_file(directory, tag),
                   every=1 if every is None else every, resume=resume)

    def due(self, global_epoch: int) -> bool:
        return int(global_epoch) % self.every == 0

    def save(self, arrays: Mapping[str, np.ndarray], meta: Mapping) -> None:
        """Atomically persist one epoch-boundary snapshot (``meta`` must
        be JSON-serializable)."""
        meta = {**meta, "format": FORMAT_VERSION,
                "dtype": np.dtype(get_default_dtype()).name}
        save_state(arrays, self.path, metadata=meta)
        faults.corrupt_checkpoint_file(str(self.path))

    def load(self) -> Optional[CheckpointState]:
        """The latest valid snapshot, or None (no file / resume off /
        quarantined-corrupt / written at another dtype — training then
        restarts from scratch)."""
        if not self.resume:
            return None
        legacy = self.path.with_name(self.path.name + ".npz")  # format 3
        if legacy.exists():
            quarantine_file(legacy, f"checkpoint {str(legacy)!r} rejected "
                                    "(unsupported format 3)")
        try:
            arrays, meta = load_state(self.path, quarantine=True)
        except (FileNotFoundError, CheckpointError):
            # Absent, or damaged and already quarantined with a warning by
            # load_state: resume degrades to a fresh start.
            return None
        version = meta.get("format") if isinstance(meta, dict) else None
        if version != FORMAT_VERSION:
            quarantine_file(self.path, f"checkpoint {str(self.path)!r} "
                            f"rejected (unsupported format {version!r})")
            return None
        dtype = np.dtype(get_default_dtype()).name
        if meta.get("dtype") != dtype:
            # A valid file of another precision: resuming would mix the
            # two runs' arithmetic, so start fresh (the next save
            # overwrites it).
            warnings.warn(f"checkpoint {str(self.path)!r} was written in "
                          f"{meta.get('dtype')}, this run trains in "
                          f"{dtype}; starting fresh", stacklevel=2)
            return None
        return CheckpointState(arrays=arrays, meta=meta)
