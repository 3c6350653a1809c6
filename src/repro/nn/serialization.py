"""Array files: state dicts and checkpoints as one flat, checksummed file.

Saved models and trainer checkpoints are arrays plus JSON metadata (for
example the λ / warmup / dilations that produced a model), laid out as
``MAGIC``, the header length (little-endian uint64), a JSON header
``{"meta": ..., "arrays": {key: {"dtype", "shape", "offset"}}}``, each
array's raw C-order bytes (64-aligned, offsets counted from the header's
end) and a little-endian CRC32 of every byte before it.  That one CRC
covers the metadata and every array.

Writes are torn-write-proof: :func:`atomic_write` stages the file in the
target directory and moves it into place with ``os.replace``
(:class:`repro.evaluation.DSECache` flushes through it too), and
:func:`directory_lock` serializes read-merge-write updates of one file
across processes.  A read that fails the magic, the CRC, the header or
the offsets raises :class:`CheckpointError`; callers with a recovery
story (the trainer checkpoint layer) can ask for the damaged file to be
moved aside by :func:`quarantine_file` to ``<path>.corrupt``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
import zlib
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

#: first line of every array file
MAGIC = b"REPRO ARRAYS\n"
_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_ALIGN = 64


class CheckpointError(RuntimeError):
    """An array file could not be read (truncated, corrupt, or carrying
    an unreadable header).

    Typed so callers can tell a damaged file — recoverable by retraining
    or by falling back to an older checkpoint — from programming errors.
    The original low-level exception (``ValueError`` for a failed check,
    ``OSError``, ``json.JSONDecodeError``, …) rides along as ``__cause__``.
    """


@contextmanager
def atomic_write(path: Union[str, Path], mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` all at once: yield a handle on a uniquely named
    ``.tmp`` file in its directory, then ``os.replace`` it over ``path``.

    If the body raises, the temporary file is removed and ``path`` is
    untouched, so readers only ever see a complete file.  The file is
    created with mode 0o666 less the umask, as ``open`` would.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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
    """Atomically write a state dict (+ optional metadata) as an array file.

    The file is staged next to ``path`` and renamed over it, so readers
    only ever see a complete file.
    """
    index, chunks, end = {}, [], 0
    for key, value in state.items():
        # asarray, not ascontiguousarray: that one turns 0-d into (1,).
        array = np.asarray(value, order="C")
        if array.dtype.hasobject:
            raise TypeError(f"array {key!r} holds Python objects, "
                            "not raw bytes")
        offset = end + -end % _ALIGN
        index[key] = {"dtype": array.dtype.str, "shape": list(array.shape),
                      "offset": offset}
        chunks += [bytes(offset - end), array.data]
        end = offset + array.nbytes
    header = json.dumps({"meta": metadata, "arrays": index}).encode("utf-8")
    header += b" " * (-(len(MAGIC) + _LENGTH.size + len(header)) % _ALIGN)
    chunks.insert(0, MAGIC + _LENGTH.pack(len(header)) + header)
    with atomic_write(path) as handle:
        crc = 0
        for chunk in chunks:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        handle.write(_CRC.pack(crc))


def load_state(path: Union[str, Path], *, quarantine: bool = False
               ) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Read back a state dict (writable views of one buffer) and its
    metadata (None if absent).

    A damaged file — truncated by a crash mid-write, bit-flipped, garbage
    — raises :class:`CheckpointError`.  With ``quarantine=True`` it is
    first moved to ``<path>.corrupt`` (overwriting any previous
    quarantine) with a warning, so it is kept for post-mortems but never
    re-read as a live checkpoint.  A missing file stays a plain
    ``FileNotFoundError`` — absence is not corruption.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            buf = bytearray(handle.read())
        if not buf.startswith(MAGIC):
            raise ValueError("not an array file (bad magic)")
        head, body = len(MAGIC) + _LENGTH.size, len(buf) - _CRC.size
        if body < head:
            raise ValueError("truncated")
        if zlib.crc32(buf[:body]) != _CRC.unpack_from(buf, body)[0]:
            raise ValueError("checksum mismatch")
        start = head + _LENGTH.unpack_from(buf, len(MAGIC))[0]
        header = json.loads(buf[head:start])
        state, end = {}, start
        for key, entry in header["arrays"].items():
            dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
            offset, count = start + entry["offset"], math.prod(shape)
            if not end <= offset <= offset + count * dtype.itemsize <= body:
                raise ValueError(f"array {key!r} lies outside the data")
            array = np.frombuffer(buf, dtype, count, offset)
            state[key], end = array.reshape(shape), offset + array.nbytes
        if end != body:
            raise ValueError(f"{body - end} bytes after the last array")
        return state, header["meta"]
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
    Raises :class:`CheckpointError` when the file is damaged.
    """
    state, metadata = load_state(path)
    model.load_state_dict(state)
    return metadata
