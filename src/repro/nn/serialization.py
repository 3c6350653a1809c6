"""Model checkpointing: save/load state dicts to ``.npz`` archives.

The library's models are plain numpy underneath, so an npz of the
``state_dict`` is a complete, dependency-free checkpoint.  It is written
uncompressed: float weights do not compress, so zlib only cost time.
Metadata (arbitrary JSON-serializable dict) travels alongside, which the
DSE driver uses to record the λ / warmup / dilations that produced a
model.

Writes are torn-write-proof: :func:`atomic_write` assembles the file in a
tempfile in the target directory and moves it into place with
``os.replace`` (:class:`repro.evaluation.DSECache` flushes through it
too), so a crash mid-write can never leave a half-written file under the
final name; :func:`directory_lock` serializes read-merge-write updates
of one file across processes.  Reads raise a typed
:class:`CheckpointError` on truncated/corrupt archives instead of a raw
``zipfile.BadZipFile``; callers with a recovery story (the trainer
checkpoint layer) can additionally ask for the corrupt file to be moved
aside by :func:`quarantine_file` to ``<path>.corrupt`` for post-mortems.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, IO, Optional, Tuple, Union

import numpy as np

from .module import Module

try:
    import fcntl
except ImportError:  # non-POSIX
    fcntl = None

__all__ = ["save_model", "load_model", "save_state", "load_state",
           "CheckpointError", "atomic_write", "directory_lock",
           "quarantine_file"]

_META_KEY = "__repro_metadata__"


class CheckpointError(RuntimeError):
    """A checkpoint archive could not be read (truncated, corrupt, or
    carrying unreadable metadata).

    Typed so callers can tell a damaged file — recoverable by retraining
    or by falling back to an older checkpoint — from programming errors.
    The original low-level exception (``zipfile.BadZipFile``, ``OSError``,
    ``json.JSONDecodeError``, …) rides along as ``__cause__``.
    """


@contextmanager
def atomic_write(path: Union[str, Path], mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` all at once: yield a handle on a tempfile in its
    directory, then ``os.replace`` it over ``path``.

    If the body raises, the tempfile is removed and ``path`` is untouched,
    so readers only ever see a complete file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def directory_lock(path: Union[str, Path]) -> Iterator[None]:
    """Hold an exclusive ``flock`` on the directory of ``path`` (created if
    missing), so processes that read, merge and rewrite ``path`` do it
    one at a time.  The lock is released when the block exits; where
    ``fcntl`` does not exist (non-POSIX) nothing is locked."""
    if fcntl is None:
        yield
        return
    directory = Path(path).absolute().parent
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def quarantine_file(path: Union[str, Path], problem: str, suffix: str = "",
                    stacklevel: int = 2) -> None:
    """Move a damaged file to ``<path>.corrupt`` (replacing an earlier
    one) and warn ``"<problem>; quarantined to '<target>'<suffix>"``.

    The target reads ``'<unmovable>'`` when the move fails.  ``stacklevel``
    counts from the caller, as for :func:`warnings.warn`.
    """
    target = str(path) + ".corrupt"
    try:
        os.replace(path, target)
    except OSError:
        target = "<unmovable>"
    warnings.warn(f"{problem}; quarantined to {target!r}{suffix}",
                  stacklevel=stacklevel + 1)


def save_state(state: Dict[str, np.ndarray], path: Union[str, Path],
               metadata: Optional[dict] = None) -> None:
    """Atomically write a state dict (+ optional metadata) to an npz.

    The payload is staged in a tempfile in the target directory and
    renamed over ``path``, so readers only ever see a complete archive.
    """
    path = Path(path)
    payload = dict(state)
    if _META_KEY in payload:
        raise ValueError(f"state may not contain the reserved key {_META_KEY!r}")
    if metadata is not None:
        payload[_META_KEY] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path) as handle:
        np.savez(handle, **payload)


def load_state(path: Union[str, Path], *, quarantine: bool = False
               ) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Read back a state dict and its metadata (None if absent).

    A file that cannot be parsed — truncated by a crash mid-write, garbage
    bytes, unreadable embedded metadata — raises :class:`CheckpointError`.
    With ``quarantine=True`` the damaged file is first moved to
    ``<path>.corrupt`` (overwriting any previous quarantine) with a
    warning, so the broken state is preserved for post-mortems but can
    never be re-read as a live checkpoint.  A missing file stays a plain
    ``FileNotFoundError`` — absence is not corruption.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            state = {}
            metadata = None
            for key in archive.files:
                if key == _META_KEY:
                    metadata = json.loads(bytes(archive[key]).decode("utf-8"))
                else:
                    state[key] = archive[key]
        return state, metadata
    except FileNotFoundError:
        raise
    except Exception as exc:
        if quarantine:
            quarantine_file(path, f"checkpoint file {str(path)!r} is "
                                  f"corrupt ({exc})")
        raise CheckpointError(
            f"cannot read checkpoint {str(path)!r}: {exc}") from exc


def save_model(model: Module, path: Union[str, Path],
               metadata: Optional[dict] = None) -> None:
    """Checkpoint a model's parameters and buffers."""
    save_state(model.state_dict(), path, metadata=metadata)


def load_model(model: Module, path: Union[str, Path]) -> Optional[dict]:
    """Load a checkpoint into an already-constructed model.

    The model must have the same architecture (strict key/shape matching,
    enforced by :meth:`Module.load_state_dict`).  Returns the metadata.
    Raises :class:`CheckpointError` when the archive is damaged.
    """
    state, metadata = load_state(path)
    model.load_state_dict(state)
    return metadata
