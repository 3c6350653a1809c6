"""Deterministic fault injection for the reliability test suite.

Production code calls tiny hook functions at well-defined *fault sites*
(grid-point training start, trainer epoch loss, cache write, server tick).
Each hook consults the ``REPRO_FAULTS`` environment variable and fires at
most a bounded number of times, so a test can script an exact failure —
"kill the worker training grid point 3", "make point 5's loss go NaN
twice" — and replay it bit-identically on every run.  With the variable
unset every hook is a cheap no-op, so the sites cost nothing in
production sweeps.

Spec grammar (comma-separated fault tokens)::

    REPRO_FAULTS="worker_crash@point=3,nan_loss@point=5&times=2,cache_corrupt"

    token  := kind [ "@" param "=" value ( "&" param "=" value )* ]
    kind   := worker_crash | nan_loss | cache_corrupt | conn_drop
            | hang | interrupt | transient | crash | ckpt_corrupt

Common params: ``point=N`` restricts a fault to the grid point(s) named by
the enclosing :func:`point_scope`; ``times=N`` fires the fault N times
(default 1) before it goes quiet; ``seconds=X`` is the sleep length of
``hang``; ``tick=N`` matches the serving block whose ticks include ``N``
for ``conn_drop``; ``epoch=K`` matches the trainer's global epoch counter
for ``crash``.

Firing is *once-per-slot*: each fault token owns ``times`` slots, and a
hook claims the next free slot atomically before acting.  In-process the
counter is a lock-guarded dict; across processes (process-pool sweeps,
where ``fork`` duplicates in-memory counters into every worker) set
``REPRO_FAULTS_STATE`` to a shared directory and slots become
``O_CREAT|O_EXCL`` claim files — exactly one process wins each slot, so
"crash the worker once" means once per sweep, not once per worker.

Fault kinds and their sites:

* ``worker_crash`` — at grid-point training start: in a pool worker
  process the process dies abruptly (``os._exit``), producing the real
  ``BrokenProcessPool`` cascade; in-process (serial sweeps) it raises
  :class:`InjectedWorkerCrash`, a retryable :class:`TransientFault`.
* ``nan_loss`` — poisons the trainer's epoch loss to NaN so the real
  non-finite guard raises :class:`repro.core.DivergedError`.
* ``cache_corrupt`` — truncates a DSE cache point file right after
  ``DSECache.put`` writes it, so the next read of that point quarantines
  the file and the point retrains.
* ``conn_drop`` — aborts a live serving connection after the block of
  ticks that includes tick ``tick``.
* ``hang`` — sleeps ``seconds`` (default 30) at grid-point training
  start, for per-point timeout tests.
* ``interrupt`` — raises ``KeyboardInterrupt`` at grid-point training
  start, for interrupted-sweep resume tests.
* ``transient`` — raises a plain :class:`TransientFault` at grid-point
  training start, for retry/backoff tests.
* ``crash`` — at a trainer epoch boundary, *after* the checkpoint for
  that epoch is written: ``crash@epoch=K`` kills the run right after
  global epoch ``K`` completes (abrupt ``os._exit`` in pool workers,
  retryable :class:`InjectedWorkerCrash` in-process), so resume-from-
  checkpoint tests can kill training at any exact epoch.
* ``ckpt_corrupt`` — truncates a trainer checkpoint file right after it
  is written, exercising the checkpoint CRC/quarantine path on the next
  resume.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ENV_FAULTS", "ENV_STATE", "KNOWN_KINDS",
    "Fault", "FaultError", "TransientFault", "InjectedWorkerCrash",
    "parse_faults", "active_faults", "fire", "reset",
    "point_scope", "current_points",
    "inject_point_faults", "corrupt_cache_file",
    "crash_at_epoch", "corrupt_checkpoint_file",
]

#: fault spec environment variable
ENV_FAULTS = "REPRO_FAULTS"
#: shared state directory for cross-process once-only firing
ENV_STATE = "REPRO_FAULTS_STATE"

KNOWN_KINDS = frozenset({
    "worker_crash", "nan_loss", "cache_corrupt", "conn_drop",
    "hang", "interrupt", "transient", "crash", "ckpt_corrupt",
})

#: exit code of an injected worker death (visible in pool diagnostics)
CRASH_EXIT_CODE = 87


class FaultError(RuntimeError):
    """Base class of every injected failure."""


class TransientFault(FaultError):
    """An injected failure the engine is allowed to retry."""


class InjectedWorkerCrash(TransientFault):
    """In-process stand-in for a worker death (a serial sweep has no
    worker process to kill)."""


@dataclass(frozen=True)
class Fault:
    """One parsed fault token."""
    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    times: int = 1
    token: str = ""

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_faults(spec: str) -> List[Fault]:
    """Parse a ``REPRO_FAULTS`` spec string; raises on unknown kinds so a
    typo fails the test loudly instead of silently injecting nothing."""
    faults: List[Fault] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        kind, _, rest = token.partition("@")
        kind = kind.strip()
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {ENV_FAULTS} "
                f"(known: {', '.join(sorted(KNOWN_KINDS))})")
        params: List[Tuple[str, object]] = []
        times = 1
        if rest:
            for pair in rest.split("&"):
                name, sep, raw = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed fault param {pair!r} in token {token!r} "
                        "(expected name=value)")
                value = _coerce(raw.strip())
                if name.strip() == "times":
                    times = int(value)
                else:
                    params.append((name.strip(), value))
        faults.append(Fault(kind=kind, params=tuple(params), times=times,
                            token=token))
    return faults


# one parse per distinct spec string; specs are tiny and stable per test
_PARSE_CACHE: Dict[str, List[Fault]] = {}


def active_faults() -> List[Fault]:
    spec = os.environ.get(ENV_FAULTS, "").strip()
    if not spec:
        return []
    cached = _PARSE_CACHE.get(spec)
    if cached is None:
        cached = _PARSE_CACHE[spec] = parse_faults(spec)
    return cached


# ----------------------------------------------------------------------
# Once-per-slot firing counters
# ----------------------------------------------------------------------

_counter_lock = threading.Lock()
_counters: Dict[str, int] = {}


def reset() -> None:
    """Forget in-process firing history (tests call this between runs).

    Cross-process history lives in the ``REPRO_FAULTS_STATE`` directory;
    tests own that directory (tmp_path) and recreate it per scenario.
    """
    with _counter_lock:
        _counters.clear()


def _claim(fault: Fault) -> bool:
    """Atomically claim the next free firing slot; False when exhausted."""
    state_dir = os.environ.get(ENV_STATE, "").strip()
    if state_dir:
        stem = re.sub(r"[^A-Za-z0-9_.=-]", "_", fault.token)
        for slot in range(fault.times):
            try:
                fd = os.open(os.path.join(state_dir, f"{stem}.{slot}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # state dir vanished: stop firing, not the run
            os.close(fd)
            return True
        return False
    with _counter_lock:
        used = _counters.get(fault.token, 0)
        if used >= fault.times:
            return False
        _counters[fault.token] = used + 1
        return True


# ----------------------------------------------------------------------
# Point scope + matching
# ----------------------------------------------------------------------

_SCOPE = threading.local()


@contextlib.contextmanager
def point_scope(indices: Iterable[int]):
    """Name the grid point(s) the current thread is training, so
    ``@point=N`` faults know whether they apply."""
    previous = getattr(_SCOPE, "points", None)
    _SCOPE.points = tuple(int(i) for i in indices)
    try:
        yield
    finally:
        _SCOPE.points = previous


def current_points() -> Optional[Tuple[int, ...]]:
    return getattr(_SCOPE, "points", None)


def _matches(fault: Fault, ctx: Dict[str, object]) -> bool:
    for name, wanted in fault.params:
        if name == "seconds":
            continue  # behavior param, not a match condition
        if name == "point":
            points = ctx.get("point")
            if points is None:
                points = current_points()
            elif not isinstance(points, (tuple, list, set, frozenset)):
                points = (points,)
            if points is None or wanted not in tuple(points):
                return False
        elif isinstance(ctx.get(name), range):
            if wanted not in ctx[name]:  # a site that spans several values
                return False
        else:
            if name not in ctx or ctx[name] != wanted:
                return False
    return True


def fire(kind: str, **ctx) -> Optional[Fault]:
    """Claim-and-return a matching armed fault, or None.

    The fast path — no ``REPRO_FAULTS`` in the environment — is one dict
    lookup, so fault sites are safe on hot paths (per-epoch, per-tick).
    """
    if not os.environ.get(ENV_FAULTS, "").strip():
        return None
    for fault in active_faults():
        if fault.kind != kind:
            continue
        if not _matches(fault, ctx):
            continue
        if _claim(fault):
            return fault
    return None


# ----------------------------------------------------------------------
# Site helpers (called from production code)
# ----------------------------------------------------------------------

def inject_point_faults() -> None:
    """Grid-point training start: hang / interrupt / crash / transient."""
    fault = fire("hang")
    if fault is not None:
        time.sleep(float(fault.param("seconds", 30.0)))
    if fire("interrupt") is not None:
        raise KeyboardInterrupt("injected fault: interrupt")
    if fire("worker_crash") is not None:
        if multiprocessing.parent_process() is not None:
            # A real abrupt worker death: no cleanup, no exception — the
            # parent sees the BrokenProcessPool cascade, like an OOM kill.
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash(
            "injected fault: worker_crash (in-process)")
    if fire("transient") is not None:
        raise TransientFault("injected fault: transient")


def corrupt_cache_file(path: str) -> bool:
    """Cache-write site: truncate the just-written point file ``path``
    mid-header."""
    if fire("cache_corrupt") is None:
        return False
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:
        pass
    return True


def crash_at_epoch(epoch: int) -> None:
    """Trainer epoch-boundary site: die right after global epoch ``epoch``.

    Called *after* the epoch's checkpoint (if any) is written, so a
    ``crash@epoch=K`` fault simulates preemption at the worst moment that
    still has durable state: the checkpoint exists, the process is gone.
    Pool workers die abruptly (no cleanup — the parent sees the real
    ``BrokenProcessPool`` cascade); in-process the retryable
    :class:`InjectedWorkerCrash` is raised instead.
    """
    if fire("crash", epoch=int(epoch)) is None:
        return
    if multiprocessing.parent_process() is not None:
        os._exit(CRASH_EXIT_CODE)
    raise InjectedWorkerCrash(f"injected fault: crash at epoch {epoch}")


def corrupt_checkpoint_file(path) -> bool:
    """Checkpoint-save site: truncate the just-written file to half its
    length, so its CRC no longer matches."""
    if fire("ckpt_corrupt") is None:
        return False
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:
        pass
    return True
