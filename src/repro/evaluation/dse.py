"""Design-space-exploration engine (paper Sec. IV-B).

The paper obtains the Pareto fronts of Fig. 4 "by tweaking the λ
regularization-strength of PIT and the warmup duration".  This module
drives that sweep: one :class:`repro.core.PITTrainer` run per (λ, warmup)
pair, each from a fresh copy of the seed, collecting ``(params, loss)``
points plus the discovered dilations.

Grid points are independent, so :class:`DSEEngine` dispatches them to a
``concurrent.futures`` worker pool (threads by default, processes on
request) and reassembles the results in deterministic grid order — a
parallel sweep returns exactly the same :class:`DSEResult` as a serial
one.  To make that hold, every grid point trains against *private* loader
state (one pristine clone per worker, rewound per point): a shared
shuffling loader would otherwise thread its RNG state through the points
in submission order.

On top of the worker pool, ``stack=N`` turns on *stacked-model execution*:
up to N same-warmup grid points are grouped into one weight-stacked
program (:class:`repro.core.StackedPITTrainer`) whose parameters carry a
leading model axis, so the whole group trains through a single op graph
with batched conv kernels and per-model λ/early-stopping — amortizing the
per-op Python and BLAS-dispatch overhead N-fold.  Stack width is an
execution knob: it stays out of cache keys, and
unsupported models/loaders fall back to the sequential path per group.

Completed points can be memoized to a JSON cache file (see
:class:`DSECache`), making long sweeps resumable: a re-run with the same
grid and trainer settings skips finished points and only trains the rest.

Sweeps are *fault tolerant*: a failing grid point becomes a
``status="failed"`` :class:`DSEPoint` carrying the error instead of an
exception that kills the run; transient failures retry with exponential
backoff (``retries=``), points exceeding ``point_timeout`` seconds are
cancelled and marked failed, and non-finite losses surface as
:class:`repro.core.DivergedError` with a diagnosis.  Process-pool sweeps
survive worker death: on ``BrokenProcessPool`` the engine rebuilds the
pool and resubmits only unfinished points (shrunk by whatever the dying
worker already flushed to the cache), a poison point that kills workers
twice is quarantined, and after repeated pool deaths the engine degrades
to in-process sequential execution with a warning.  Every recovery path
is exercised deterministically by :mod:`repro.testing.faults`.

Deployment cost is a first-class objective: ``point_evaluators`` run after
each grid point trains (e.g. :func:`repro.hw.gap8_evaluator`, which exports
the discovered network, fake-quantizes it to int8 and prices it on the GAP8
model) and annotate the point's ``metrics`` dict; the cache persists them
(format version 2) and :meth:`DSEResult.pareto` accepts arbitrary objective
tuples such as ``("params", "latency_ms", "loss")``.

It also implements the small/medium/large selection rule of Tables I-III:
*small* = fewest parameters, *large* = most parameters, *medium* = closest
in size to the hand-engineered reference network — optionally along any
other objective (latency, energy, …) via ``objective=``.
"""

from __future__ import annotations

import copy
import json
import os
import random
import tempfile
import threading
import time
import warnings
import weakref
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.checkpoint import (
    checkpoint_dir_default,
    checkpoint_every_default,
    key_tag,
)
from ..core.stacked import StackedPITTrainer
from ..core.trainer import DivergedError, PITResult, PITTrainer
from ..data import DataLoader, clone_loader
from ..nn import Module
from ..nn.stacked import StackingUnsupported
from ..testing import faults
from .pareto import pareto_front

__all__ = ["DSEPoint", "DSEResult", "DSECache", "DSEEngine", "run_dse",
           "objective_value", "evaluator_name", "select_small_medium_large",
           "ENV_STACK", "ENV_WORKERS", "ENV_EXECUTOR",
           "stack_width_default", "workers_default", "executor_default"]

#: pool deaths a poison point may cause before it is quarantined
QUARANTINE_KILLS = 2
#: pool deaths per sweep before degrading to in-process sequential runs
MAX_POOL_DEATHS = 3

#: environment default for DSEEngine(stack=None)
ENV_STACK = "REPRO_DSE_STACK"
#: environment defaults for DSEEngine(workers=None) / (executor=None), so
#: CI legs can run whole suites under pooled execution without editing
#: every engine construction (explicit arguments always win).
ENV_WORKERS = "REPRO_DSE_WORKERS"
ENV_EXECUTOR = "REPRO_DSE_EXECUTOR"


def stack_width_default() -> int:
    """Stack width used when ``DSEEngine(stack=None)``: ``REPRO_DSE_STACK``
    or 1 (sequential).  Read per call so tests can flip it."""
    raw = os.environ.get(ENV_STACK, "").strip()
    if not raw:
        return 1
    width = int(raw)
    if width < 1:
        raise ValueError(f"{ENV_STACK} must be >= 1, got {width}")
    return width


def workers_default() -> int:
    """Pool size used when ``DSEEngine(workers=None)``: ``REPRO_DSE_WORKERS``
    or 0 (serial).  Read per call so tests can flip it."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 0
    workers = int(raw)
    if workers < 0:
        raise ValueError(f"{ENV_WORKERS} must be >= 0, got {workers}")
    return workers


def executor_default() -> str:
    """Pool flavour used when ``DSEEngine(executor=None)``:
    ``REPRO_DSE_EXECUTOR`` (``thread``/``process``) or ``thread``."""
    return os.environ.get(ENV_EXECUTOR, "").strip() or "thread"


@dataclass
class DSEPoint:
    """One trained architecture in the design space.

    ``metrics`` holds post-training evaluator annotations (deployment cost,
    quantized accuracy, …) keyed by objective name; it is empty unless the
    sweep ran with ``point_evaluators``.

    ``status`` is ``"ok"`` for a trained point and ``"failed"`` for a grid
    point whose training raised, timed out or was quarantined — ``error``
    then carries the diagnosis and the numeric fields are placeholders
    (``loss=nan``, ``params=0``, empty dilations).  ``attempts`` counts
    training attempts (> 1 when transient-failure retries were needed).
    Failed points are excluded from every selection helper
    (:meth:`DSEResult.pareto`, :func:`select_small_medium_large`, …).
    """
    lam: float
    warmup_epochs: int
    dilations: Tuple[int, ...]
    params: int
    loss: float
    result: Optional[PITResult] = field(repr=False, default=None)
    metrics: Dict[str, float] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _failed_point(lam: float, warmup: int, error, attempts: int = 1
                  ) -> DSEPoint:
    """The failed-point placeholder per-point isolation records."""
    if isinstance(error, BaseException):
        error = f"{type(error).__name__}: {error}"
    return DSEPoint(lam=float(lam), warmup_epochs=int(warmup), dilations=(),
                    params=0, loss=float("nan"), status="failed",
                    error=str(error), attempts=attempts)


def objective_value(point: DSEPoint, name: str) -> Optional[float]:
    """Resolve an objective by name: a dataclass field (``params``,
    ``loss``, ``lam``, …) or a ``metrics`` entry (``latency_ms``, …).
    Returns None when the point carries no such objective — including
    every objective of a failed point, whose numeric fields are
    placeholders, not measurements."""
    if point.status != "ok":
        return None
    value = getattr(point, name, None)
    if value is None or name in ("result", "metrics", "dilations",
                                 "status", "error"):
        value = point.metrics.get(name)
    return None if value is None else float(value)


@dataclass
class DSEResult:
    """Outcome of a full (λ × warmup) sweep.

    ``points`` covers the whole grid, failed points included (in grid
    order); the selection helpers below only ever consider ``ok`` points.
    """
    points: List[DSEPoint]

    @property
    def ok_points(self) -> List[DSEPoint]:
        return [p for p in self.points if p.ok]

    @property
    def failed_points(self) -> List[DSEPoint]:
        return [p for p in self.points if not p.ok]

    def pareto(self, objectives: Sequence[str] = ("params", "loss")
               ) -> List[DSEPoint]:
        """Non-dominated points along the named objectives (all minimized).

        Objectives resolve against dataclass fields first, then the
        ``metrics`` dict — e.g. ``("params", "latency_ms", "loss")`` for the
        hardware-aware 3-D front.  Points missing any requested objective
        (cached v1 entries, sweeps run without evaluators, failed points)
        are excluded.
        """
        keep: List[DSEPoint] = []
        coords: List[Tuple[float, ...]] = []
        for point in self.points:
            values = [objective_value(point, name) for name in objectives]
            if any(v is None for v in values):
                continue
            keep.append(point)
            coords.append(tuple(values))
        return [keep[i] for i in pareto_front(coords)]

    def best_loss(self) -> DSEPoint:
        ok = self.ok_points
        if not ok:
            raise ValueError("every grid point failed; no best-loss point")
        return min(ok, key=lambda p: p.loss)

    def smallest(self) -> DSEPoint:
        ok = self.ok_points
        if not ok:
            raise ValueError("every grid point failed; no smallest point")
        return min(ok, key=lambda p: p.params)


# ----------------------------------------------------------------------
# Results cache
# ----------------------------------------------------------------------

class DSECache:
    """JSON memo of completed DSE points, for resumable sweeps.

    File format (version 3)::

        {
          "version": 3,
          "points": {
            "<key>": {
              "lam": 0.02, "warmup_epochs": 5,
              "dilations": [1, 2, 4], "params": 1234, "loss": 0.567,
              "metrics": {"latency_ms": 112.6, "energy_mj": 29.5, ...},
              "result": { ... PITResult fields ... },
              "status": "ok", "error": null, "attempts": 1
            }, ...
          }
        }

    Version 2 added the ``metrics`` dict (post-training evaluator
    annotations: deployment latency/energy, quantized loss, …); version 3
    adds the failure fields (``status`` / ``error`` / ``attempts``) so an
    interrupted fault-tolerant sweep keeps its failure provenance on disk.
    Versions 1-2 are still accepted — their entries load with the missing
    fields defaulted (ok, no error) and the file is rewritten as version 3
    on the next recorded point.  Failed entries are *persisted but never
    served*: :meth:`get` treats them as missing, so a resumed sweep
    retries the failed grid points instead of trusting a placeholder.

    A cache file that no longer parses (truncated by a crash mid-write,
    garbage bytes) is never fatal and never silently ignored: the corrupt
    file is quarantined to ``<path>.corrupt`` (for post-mortems; an
    existing quarantine file is overwritten), a warning names both paths,
    and the cache starts fresh.

    Keys encode (tag, λ, warmup, trainer settings, and the point
    evaluators that annotated the entry), so a cache file is never allowed
    to return a point trained under different hyper-parameters.  Keys
    written when the conv kernels were selectable carry a ``backend``
    field; they no longer match any lookup, so those points retrain (their
    kernels' rounding could have led training elsewhere), while the
    entries themselves stay in the file.  λ and warmup are
    normalized to native ``float``/``int`` first: a ``np.linspace`` grid
    (numpy scalars) must key identically to the same values spelled as
    Python floats, or resumed sweeps would silently retrain everything.
    The *tag* is the caller's name for the model/data
    identity (seed factory, dataset, width, …), which the engine cannot
    see into — callers sharing one cache file across different seeds or
    benchmarks must pass distinct ``cache_tag`` values (the CLI and the
    benchmark conftest do).  Writes are atomic (tempfile + rename) and
    guarded by a lock, so a thread-pooled engine can record completions
    concurrently.
    """

    VERSION = 3
    #: formats this reader understands (v1 = pre-metrics entries,
    #: v2 = pre-failure-fields entries)
    READABLE_VERSIONS = (1, 2, 3)

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._points: Dict[str, dict] = {}
        payload = self._load_payload(path)
        if payload is not None:
            self._points = dict(payload.get("points", {}))

    @classmethod
    def _load_payload(cls, path: str) -> Optional[dict]:
        """Read and validate the cache file; None when absent or corrupt.

        Corrupt files (unparseable JSON, non-dict payload) are quarantined
        to ``<path>.corrupt`` with a warning — a half-written file from a
        killed sweep must cost a retrain, not the whole run.  A *valid*
        file with an unsupported version still raises: that is a real
        format mismatch (e.g. a newer writer), not corruption, and
        silently discarding it would throw away good points.
        """
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise json.JSONDecodeError("payload is not an object", "", 0)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            quarantine = path + ".corrupt"
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantine = "<unmovable>"
            warnings.warn(
                f"DSE cache file {path!r} is corrupt ({exc}); quarantined "
                f"to {quarantine!r} and starting fresh", stacklevel=3)
            return None
        if payload.get("version") not in cls.READABLE_VERSIONS:
            raise ValueError(
                f"unsupported DSE cache version in {path!r}: "
                f"{payload.get('version')!r}")
        return payload

    @staticmethod
    def key(lam: float, warmup: int, trainer_kwargs: Dict,
            tag: str = "", evaluators: Sequence[str] = ()) -> str:
        try:
            settings = json.dumps(trainer_kwargs, sort_keys=True)
        except TypeError as exc:
            # Objects would have to be keyed by repr, which either embeds a
            # per-process memory address (cache never hits) or, stripped,
            # collapses differently-configured instances (cache hits
            # falsely).  Refuse loudly instead of being silently wrong.
            raise ValueError(
                "DSE caching requires JSON-serializable trainer settings; "
                f"got {trainer_kwargs!r}") from exc
        # float()/int() so numpy scalars (np.linspace grids) and Python
        # numbers produce one key; !r on the *native* float keeps the full
        # precision the old format relied on.
        key = (f"tag={tag}|lam={float(lam)!r}"
               f"|warmup={int(warmup)}|trainer={settings}")
        if evaluators:
            # Sweeps with different evaluator stacks do not share entries:
            # a point cached without hw metrics cannot satisfy an --hw
            # resume (the trained weights needed to compute them are gone).
            # Evaluator-less keys keep the pre-evaluator format.
            # The name list is JSON-encoded, not bare-joined: names carry
            # arbitrary configuration strings (commas, pipes), and a
            # delimiter collision between different stacks would serve one
            # configuration another's cached metrics.
            key += f"|evaluators={json.dumps(list(evaluators))}"
        return key

    def __len__(self) -> int:
        return len(self._points)

    def get(self, key: str) -> Optional[DSEPoint]:
        """The ok point recorded under ``key``, else None.

        Failed entries are persisted provenance, not reusable results —
        they read as missing so a resumed sweep retries the point.
        """
        entry = self._points.get(key)
        if entry is None or entry.get("status", "ok") != "ok":
            return None
        return _point_from_dict(entry)

    def get_annotated(self, base_key: str) -> Optional[DSEPoint]:
        """An entry recorded under ``base_key`` by *some* evaluator stack.

        Keys are asymmetric on purpose: an entry without metrics can never
        satisfy an evaluator-carrying lookup (the trained weights needed to
        compute the missing metrics are gone).  The reverse is free — the
        same base key means the same training, evaluators only ran
        afterwards — so an evaluator-less resume falls back to any
        ``base_key|evaluators=...`` entry instead of retraining, keeping
        whatever metrics it carries as a bonus.  Deterministic when several
        evaluator stacks recorded the point (lexicographically first key).
        """
        prefix = base_key + "|evaluators="
        for key in sorted(self._points):
            if (key.startswith(prefix)
                    and self._points[key].get("status", "ok") == "ok"):
                return _point_from_dict(self._points[key])
        return None

    def put(self, key: str, point: DSEPoint) -> None:
        with self._lock:
            self._points[key] = _point_to_dict(point)
            self._flush()
        faults.corrupt_cache_file(self.path)

    def _flush(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Merge points other *processes* recorded since our load — a
        # whole-file rewrite from just this process's map would erase them.
        # (The remaining read-merge-write race window is microseconds;
        # within one process the lock serializes flushes entirely.)
        # A corrupt on-disk file takes the same quarantine-and-warn path
        # as the constructor (it used to be swallowed silently here): our
        # own map still flushes, the garbage moves to <path>.corrupt.
        payload = self._load_payload(self.path)
        if payload is not None:
            merged = dict(payload.get("points", {}))
            merged.update(self._points)
            self._points = merged
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump({"version": self.VERSION, "points": self._points},
                          handle, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _to_native(value):
    """Recursively coerce numpy scalars/arrays to JSON-native Python types.

    Grid values, parameter counts and evaluator metrics routinely arrive as
    ``np.float64``/``np.int64`` (anything touched by numpy does); ``json``
    refuses to serialize those, which used to crash :meth:`DSECache.put`.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _to_native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_native(v) for v in value]
    return value


def _point_to_dict(point: DSEPoint) -> dict:
    entry = {
        "lam": point.lam,
        "warmup_epochs": point.warmup_epochs,
        "dilations": list(point.dilations),
        "params": point.params,
        "loss": point.loss,
        "metrics": dict(point.metrics),
        "status": point.status,
        "error": point.error,
        "attempts": point.attempts,
    }
    if point.result is not None:
        entry["result"] = asdict(point.result)
    return _to_native(entry)


def _point_from_dict(entry: dict) -> DSEPoint:
    result = None
    if entry.get("result") is not None:
        fields = dict(entry["result"])
        fields["dilations"] = tuple(fields["dilations"])
        result = PITResult(**fields)
    return DSEPoint(
        lam=entry["lam"], warmup_epochs=entry["warmup_epochs"],
        dilations=tuple(entry["dilations"]), params=entry["params"],
        loss=entry["loss"], result=result,
        metrics=dict(entry.get("metrics") or {}),  # absent in v1 entries
        status=entry.get("status", "ok"),          # absent in v1/v2 entries
        error=entry.get("error"),
        attempts=int(entry.get("attempts", 1)))


# ----------------------------------------------------------------------
# Execution engine
# ----------------------------------------------------------------------

# Every piece of mutable loader state must be private per grid point for
# parallel sweeps to be bit-identical to serial ones; the shared helper
# lives in repro.data (deployment evaluators apply the same discipline).
_private_loader = clone_loader

# Per-worker (thread/process) loader cache for the sequential grid-point
# path.  The engine's template loaders are never iterated, so every grid
# point used to deep-copy them afresh just to start from the same pristine
# RNG state; for plain DataLoaders the only mutable state *is* that RNG,
# so one clone per worker rewound to its pristine bit-state per point is
# bit-identical and skips the repeated deepcopy.  Thread-local so pooled
# workers never share a clone; subclassed loaders (unknown extra state)
# keep the old clone-per-point behaviour.  Entries hold the template by
# *weak* reference: a clone pins the (shared) dataset arrays, so a strong
# key would leak every dataset a long-lived process ever swept over.
_LOADER_CACHE = threading.local()


def _rng_states_equal(a, b) -> bool:
    """Deep-compare bit-generator state trees.

    MT19937/Philox/SFC64 states embed numpy arrays, on which plain dict
    ``==`` raises ("truth value of an array is ambiguous"); PCG64 states
    are int-only.  Handle both.
    """
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_rng_states_equal(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _worker_loader(template, role: str = "train") -> "DataLoader":
    """One pristine clone per (worker, template, role), rewound per point.

    ``role`` keeps aliased loaders independent: a caller passing the *same*
    loader object as both train and val must still get two distinct clones
    (two independent RNG streams), exactly as clone-per-point produced.
    """
    if type(template) is not DataLoader:
        return _private_loader(template)
    cache = getattr(_LOADER_CACHE, "map", None)
    if cache is None:
        cache = _LOADER_CACHE.map = {}
    # Evict entries whose template died: their clones would otherwise pin
    # the dataset arrays for the life of the worker thread.
    for key in [k for k, (ref, _, _) in cache.items() if ref() is None]:
        del cache[key]
    entry = cache.get((id(template), role))
    state = template.rng.bit_generator.state
    # Re-clone when the entry is missing, the id was reused by a different
    # loader object, or the caller advanced the template's RNG since we
    # snapshotted it — a fresh clone must start from the template's
    # *current* state, exactly like clone-per-point did.
    if (entry is None or entry[0]() is not template
            or not _rng_states_equal(entry[2], state)):
        clone = _private_loader(template)
        cache[(id(template), role)] = (
            weakref.ref(template), clone,
            copy.deepcopy(clone.rng.bit_generator.state))
        return clone
    _, clone, pristine = entry
    clone.rng.bit_generator.state = copy.deepcopy(pristine)
    return clone


def _train_grid_point(seed_factory: Callable[[], Module], loss_fn: Callable,
                      train_loader, val_loader, lam: float, warmup: int,
                      trainer_kwargs: Dict,
                      point_evaluators: Optional[Sequence[Callable]] = None,
                      ckpt_dir: Optional[str] = None,
                      ckpt_every: Optional[int] = None,
                      ckpt_tag: Optional[str] = None) -> DSEPoint:
    """Train one (λ, warmup) grid point from a fresh seed.

    Module-level (not a closure) so a ``ProcessPoolExecutor`` can pickle it.
    Each point gets private loader copies so it consumes its own shuffle
    RNG stream — this is what makes parallel sweeps bit-identical to
    serial ones regardless of completion order.
    ``point_evaluators`` run after training, while the trained model is
    still in hand, and merge their returned dicts into ``DSEPoint.metrics``.
    ``ckpt_dir``/``ckpt_every``/
    ``ckpt_tag`` enable mid-run trainer checkpoints: a retried, resubmitted
    or abandoned-and-reswept point resumes bit-exactly from its last epoch
    boundary instead of retraining from scratch (the tag is derived from
    the point's cache key, so every execution strategy addresses the same
    file).
    """
    train_loader = _worker_loader(train_loader, "train")
    val_loader = _worker_loader(val_loader, "val")
    model = seed_factory()
    ckpt_kwargs = {}
    if ckpt_dir and ckpt_tag:
        ckpt_kwargs = dict(checkpoint_dir=ckpt_dir,
                           checkpoint_every=ckpt_every,
                           checkpoint_tag=ckpt_tag)
    trainer = PITTrainer(model, loss_fn, lam=lam, warmup_epochs=warmup,
                         **ckpt_kwargs, **trainer_kwargs)
    result = trainer.fit(train_loader, val_loader)
    point = DSEPoint(
        lam=lam, warmup_epochs=warmup, dilations=result.dilations,
        params=result.effective_params, loss=result.best_val,
        result=result)
    for evaluator in (point_evaluators or ()):
        annotations = evaluator(model, point)
        if annotations:
            point.metrics.update(annotations)
    return point


def _train_grid_stack(seed_factory: Callable[[], Module], loss_fn: Callable,
                      train_loader, val_loader, warmup: int,
                      lams: Sequence[float], trainer_kwargs: Dict,
                      point_evaluators: Optional[Sequence[Callable]] = None,
                      ckpt_dir: Optional[str] = None,
                      ckpt_every: Optional[int] = None,
                      ckpt_tags: Optional[Sequence[str]] = None
                      ) -> List[DSEPoint]:
    """Train a group of same-warmup grid points as one weight-stacked run.

    The whole group shares one seed instantiation, one loader clone (the
    :class:`repro.data.EpochReplayLoader` inside the stacked trainer) and
    one op graph; per-model λ scaling and early stopping keep each point's
    trajectory equivalent to its sequential run.  Models whose structure
    cannot stack (channel masks, unsupported layers, non-plain loaders)
    raise :class:`StackingUnsupported` *before any training*; the caller
    (:func:`_train_grid_chunk`) falls back to the sequential per-point
    path — so stacking is purely an execution-speed knob, never a
    correctness one.  A :class:`DivergedError` mid-stack likewise bubbles
    up for a sequential re-run: one diverged slice poisons the shared
    stacked loss, so only per-point training can isolate the culprit.
    """
    lams = [float(lam) for lam in lams]
    ckpt_kwargs = {}
    if ckpt_dir and ckpt_tags and all(ckpt_tags):
        # Per-slice files named by each point's cache-key tag: the stacked
        # run checkpoints into (and resumes from) the same per-point files
        # a sequential sweep of the group would use.
        ckpt_kwargs = dict(checkpoint_dir=ckpt_dir,
                           checkpoint_every=ckpt_every,
                           checkpoint_tags=list(ckpt_tags))
    template = seed_factory()
    trainer = StackedPITTrainer(
        template, loss_fn, lams=lams, warmup_epochs=warmup,
        **ckpt_kwargs, **trainer_kwargs)
    results = trainer.fit(train_loader, val_loader)
    points = []
    for i, result in enumerate(results):
        point = DSEPoint(
            lam=lams[i], warmup_epochs=warmup, dilations=result.dilations,
            params=result.effective_params, loss=result.best_val,
            result=result)
        if point_evaluators:
            # Materialize this slice into the (sequential-shaped)
            # template so evaluators see a normal trained model.
            model = trainer.model_for(i)
            for evaluator in point_evaluators:
                annotations = evaluator(model, point)
                if annotations:
                    point.metrics.update(annotations)
        points.append(point)
    return points


def _backoff_sleep(index: int, attempt: int, backoff: float) -> None:
    """Exponential backoff with deterministic jitter before a retry.

    The jitter RNG is seeded from (grid index, attempt) so two runs of the
    same faulted sweep sleep identically — reproducibility extends to the
    recovery schedule, not just the results.
    """
    if backoff <= 0:
        return
    jitter = random.Random((index + 1) * 1000003 + attempt).uniform(0.0, 0.5)
    time.sleep(backoff * (2.0 ** (attempt - 1)) * (1.0 + jitter))


def _train_point_isolated(seed_factory, loss_fn, train_loader, val_loader,
                          index: int, warmup: int, lam: float,
                          trainer_kwargs: Dict, point_evaluators,
                          retries: int, retry_backoff: float,
                          ckpt_dir: Optional[str] = None,
                          ckpt_every: Optional[int] = None,
                          ckpt_tag: Optional[str] = None) -> DSEPoint:
    """Per-point failure isolation: always returns a DSEPoint.

    Transient exceptions retry up to ``retries`` times with exponential
    backoff; :class:`DivergedError` is permanent (the same data and seed
    diverge again, so a retry just burns the epochs twice) and fails the
    point immediately.  ``BaseException`` (KeyboardInterrupt, worker
    ``os._exit``) deliberately passes through — interruption is the
    caller's policy, not a point failure.  With checkpointing on, a retry
    resumes from the point's latest epoch-boundary snapshot instead of
    paying the finished epochs again.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            with faults.point_scope((index,)):
                faults.inject_point_faults()
                point = _train_grid_point(
                    seed_factory, loss_fn, train_loader, val_loader, lam,
                    warmup, trainer_kwargs, point_evaluators, ckpt_dir,
                    ckpt_every, ckpt_tag)
            point.attempts = attempt
            return point
        except DivergedError as exc:
            return _failed_point(lam, warmup, exc, attempt)
        except Exception as exc:
            if attempt <= retries:
                _backoff_sleep(index, attempt, retry_backoff)
                continue
            return _failed_point(lam, warmup, exc, attempt)


def _chunk_cache(cache_path: Optional[str]) -> Optional["DSECache"]:
    """The worker-side cache handle for mid-chunk durability, or None.

    Worker flushes make every completed point durable the moment it
    finishes — a later crash (of this worker or the whole pool) can then
    only cost the in-flight point, and the engine's recovery resubmission
    shrinks to whatever is still missing on disk.
    """
    if not cache_path:
        return None
    try:
        return DSECache(cache_path)
    except ValueError:
        return None  # version mismatch: the parent will complain loudly


def _train_grid_chunk(seed_factory: Callable[[], Module], loss_fn: Callable,
                      train_loader, val_loader,
                      chunk: Sequence[Tuple[int, int, float]],
                      trainer_kwargs: Dict,
                      point_evaluators: Optional[Sequence[Callable]] = None,
                      retries: int = 0, retry_backoff: float = 0.0,
                      cache_path: Optional[str] = None,
                      cache_keys: Optional[Dict[int, str]] = None,
                      ckpt_dir: Optional[str] = None,
                      ckpt_every: Optional[int] = None,
                      ckpt_tags: Optional[Dict[int, str]] = None
                      ) -> List[DSEPoint]:
    """One worker task: ``(index, warmup, lam)`` points, all same warmup.

    Singleton chunks take the exact sequential ``_train_grid_point`` path —
    which is why ``stack=1`` is bit-identical to the pre-stacking engine.
    Module-level so a ``ProcessPoolExecutor`` can pickle it.

    Failures never escape as exceptions (except ``BaseException``): each
    point trains through :func:`_train_point_isolated`.  A multi-point
    stacked chunk first attempts the weight-stacked fast path; a
    :class:`StackingUnsupported` model, a mid-stack divergence (one NaN
    slice poisons the shared loss) or any other stacked failure falls
    back to isolated per-point training, which pins the blame on the
    culprit point alone.
    """
    cache = _chunk_cache(cache_path)

    def flush(index: int, point: DSEPoint) -> None:
        if cache is not None and cache_keys and index in cache_keys:
            cache.put(cache_keys[index], point)

    def tag_of(index: int) -> Optional[str]:
        return ckpt_tags.get(index) if ckpt_tags else None

    if len(chunk) > 1:
        indices = [index for index, _, _ in chunk]
        warmup = chunk[0][1]
        try:
            with faults.point_scope(indices):
                faults.inject_point_faults()
                points = _train_grid_stack(
                    seed_factory, loss_fn, train_loader, val_loader, warmup,
                    [lam for _, _, lam in chunk], trainer_kwargs,
                    point_evaluators, ckpt_dir, ckpt_every,
                    [tag_of(index) for index in indices])
        except Exception:
            points = None  # StackingUnsupported, divergence, …: isolate
                           # per point below
        if points is not None:
            for (index, _, _), point in zip(chunk, points):
                flush(index, point)
            return points

    out: List[DSEPoint] = []
    for index, warmup, lam in chunk:
        point = _train_point_isolated(
            seed_factory, loss_fn, train_loader, val_loader, index, warmup,
            lam, trainer_kwargs, point_evaluators,
            retries, retry_backoff, ckpt_dir, ckpt_every, tag_of(index))
        flush(index, point)
        out.append(point)
    return out


def evaluator_name(evaluator: Callable) -> str:
    """Stable cache-key identity of a point evaluator.

    Preference order: an explicit ``cache_name`` attribute (class-based
    evaluators like :func:`repro.hw.gap8_evaluator` derive one from their
    configuration), then the function ``__name__``.  Must not embed
    per-process state (memory addresses) or resumed sweeps would never
    hit.  Anonymous callables — lambdas, ``functools.partial`` — are
    refused: they all render alike (``<lambda>`` / ``partial``), so two
    differently-configured evaluators would silently share cache entries
    and serve each other's metrics.  Give them a ``cache_name``.
    """
    name = getattr(evaluator, "cache_name", None)
    if name:
        return str(name)
    name = getattr(evaluator, "__name__", None)
    if name and name != "<lambda>":
        return name
    raise ValueError(
        f"point evaluator {evaluator!r} has no stable cache identity; "
        "set a cache_name attribute (anonymous callables key "
        "indistinguishably, which would mis-attribute cached metrics)")


class DSEEngine:
    """Dispatches a (λ × warmup) sweep across a worker pool.

    Parameters
    ----------
    seed_factory:
        Zero-argument callable returning a *fresh* searchable seed; runs
        are independent (identical init per the factory's internal seed).
        Must be picklable when ``executor="process"``.
    loss_fn:
        Task loss passed to :class:`repro.core.PITTrainer`.
    train_loader, val_loader:
        Data loaders; each grid point trains on private deep copies.
    workers:
        Pool size.  ``0`` or ``1`` trains the grid serially in-process;
        None (default) defers to ``REPRO_DSE_WORKERS`` (or 0).
    executor:
        ``"thread"`` (numpy releases the GIL inside the GEMM-heavy
        hot path, so threads scale) or ``"process"`` (full isolation, but
        the factory / loss / loaders must pickle — no lambdas or closures);
        None (default) defers to ``REPRO_DSE_EXECUTOR`` (or ``thread``).
    cache_path:
        Optional JSON results cache (see :class:`DSECache`); completed
        points found there are returned without retraining.
    cache_tag:
        Identity string mixed into every cache key, naming what the engine
        cannot introspect: the seed factory and data (benchmark, width,
        seed, …).  Required discipline whenever one cache file serves
        sweeps over different models or datasets.
    trainer_kwargs:
        Extra :class:`PITTrainer` arguments shared by every grid point
        (``lam`` / ``warmup_epochs`` are stripped: the grid owns them).
    stack:
        Stacked-model execution width: up to ``stack`` same-warmup grid
        points train as *one* weight-stacked model
        (:class:`repro.core.StackedPITTrainer`) — one op graph, batched
        conv kernels, per-model λ and early stopping.  ``1`` (the default)
        is the exact sequential path; None defers to ``REPRO_DSE_STACK``.
        This is an execution-speed knob kept *out* of cache keys: stacked results match sequential
        within floating-point reduction-order tolerance, so stacked and
        sequential sweeps resume from and write to the same entries.
        Models or loaders without a stacked path fall back to sequential
        training automatically (per chunk).
    point_evaluators:
        Post-training hooks, each called as ``evaluator(model, point)``
        with the trained (still searchable) model; the returned
        ``Dict[str, float]`` is merged into ``DSEPoint.metrics`` and
        persisted by the cache.  :func:`repro.hw.gap8_evaluator` is the
        canonical one (int8 fake-quantization + GAP8 latency/energy).
        Evaluator identities (``cache_name``) are part of the cache key:
        points cached without hardware metrics cannot satisfy a
        hardware-aware resume, because the weights needed to compute the
        missing metrics are not persisted.  (The reverse resume is free:
        an evaluator-less sweep falls back to annotated entries, which are
        a superset.)  Must be picklable when ``executor="process"``.
    retries:
        Transient-failure retries per grid point (default 0).  A point
        whose training raises retrains up to ``retries`` more times with
        exponential backoff before being marked failed;
        :class:`repro.core.DivergedError` never retries (divergence is
        deterministic — same seed, same data, same NaN).
    retry_backoff:
        Base backoff in seconds before retry N sleeps
        ``retry_backoff * 2**(N-1)`` (plus deterministic jitter).
    point_timeout:
        Wall-clock budget *per grid point* in seconds (pooled execution
        only).  A chunk of K points gets ``K * point_timeout``; on expiry
        its unfinished points are marked failed and the future is
        cancelled/abandoned — a hung point costs its own budget, not the
        sweep.  None (default) disables the deadline.
    checkpoint_dir:
        Optional directory for *mid-run trainer checkpoints* (see
        :class:`repro.core.TrainerCheckpoint`): every grid point snapshots
        its complete training state at epoch boundaries, so a retried,
        pool-resubmitted, timed-out-and-reswept or interrupted-and-rerun
        point resumes bit-exactly from its last finished epoch instead of
        retraining from scratch.  Files are named by each point's cache-key
        tag, so sequential, pooled and stacked execution all address the
        same per-point file; like the stack knob this is an
        execution knob kept *out* of cache keys.  None (default) defers to
        ``REPRO_CKPT_DIR``; unset means no checkpointing.  Checkpoints
        complement the results cache: the cache skips *finished* points,
        checkpoints recover *in-flight* ones.
    checkpoint_every:
        Snapshot cadence in epochs (checkpoint every Nth boundary); None
        defers to ``REPRO_CKPT_EVERY`` (default 1, every epoch).

    After each :meth:`run`, ``last_run_stats`` reports the recovery
    machinery's activity: pool deaths, timeouts, quarantined points,
    failed/retried counts, epochs recovered from checkpoints
    (``resumed_epochs``), and whether the sweep degraded to sequential
    execution.
    """

    def __init__(self, seed_factory: Callable[[], Module], loss_fn: Callable,
                 train_loader, val_loader, *, workers: Optional[int] = None,
                 executor: Optional[str] = None,
                 cache_path: Optional[str] = None,
                 cache_tag: str = "",
                 trainer_kwargs: Optional[Dict] = None,
                 verbose: bool = False,
                 stack: Optional[int] = None,
                 point_evaluators: Optional[Sequence[Callable]] = None,
                 retries: int = 0, retry_backoff: float = 0.1,
                 point_timeout: Optional[float] = None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: Optional[int] = None):
        if workers is None:
            workers = workers_default()
        if executor is None:
            executor = executor_default()
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        self.seed_factory = seed_factory
        self.loss_fn = loss_fn
        self.train_loader = train_loader
        self.val_loader = val_loader
        self.workers = workers
        self.executor = executor
        self.cache = DSECache(cache_path) if cache_path else None
        self.cache_tag = cache_tag
        self.trainer_kwargs = dict(trainer_kwargs or {})
        self.trainer_kwargs.pop("lam", None)
        self.trainer_kwargs.pop("warmup_epochs", None)
        # Stack width: how many same-warmup grid points train as one
        # weight-stacked model (see repro.core.StackedPITTrainer).  An
        # execution-speed knob — results match
        # sequential within fp tolerance and the width never enters cache
        # keys, so stacked and sequential sweeps share entries.  None
        # defers to REPRO_DSE_STACK; 1 is the exact sequential path.
        kwargs_stack = self.trainer_kwargs.pop("stack", None)
        if stack is None:
            stack = kwargs_stack
        self.stack = int(stack) if stack is not None else stack_width_default()
        if self.stack < 1:
            raise ValueError("stack width must be >= 1")
        # Checkpointing is an execution knob like stack: stripped
        # from trainer_kwargs (the engine owns per-point tags and resume)
        # and kept out of cache keys.  Engine kwargs win over trainer_kwargs
        # spellings; both fall back to the REPRO_CKPT_* environment.
        kwargs_ckpt_dir = self.trainer_kwargs.pop("checkpoint_dir", None)
        kwargs_ckpt_every = self.trainer_kwargs.pop("checkpoint_every", None)
        self.trainer_kwargs.pop("checkpoint_tag", None)
        self.trainer_kwargs.pop("checkpoint_tags", None)
        self.trainer_kwargs.pop("checkpoint_resume", None)
        if checkpoint_dir is None:
            checkpoint_dir = kwargs_ckpt_dir
        if checkpoint_dir is None:
            checkpoint_dir = checkpoint_dir_default()
        if checkpoint_every is None:
            checkpoint_every = kwargs_ckpt_every
        self.checkpoint_dir = checkpoint_dir or None
        self.checkpoint_every = (int(checkpoint_every)
                                 if checkpoint_every is not None
                                 else checkpoint_every_default())
        self.point_evaluators = list(point_evaluators or [])
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.point_timeout = (None if point_timeout is None
                              else float(point_timeout))
        self.verbose = verbose
        self.last_run_stats: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[DSE] {message}")

    def _grid(self, lambdas: Sequence[float],
              warmups: Sequence[int]) -> List[Tuple[int, float]]:
        return [(warmup, lam) for warmup in warmups for lam in lambdas]

    def _train_chunk(self, chunk: Sequence[Tuple[int, int, float]]
                     ) -> List[DSEPoint]:
        return _train_grid_chunk(self.seed_factory, self.loss_fn,
                                 self.train_loader, self.val_loader,
                                 list(chunk), self.trainer_kwargs,
                                 self.point_evaluators,
                                 self.retries, self.retry_backoff,
                                 self.cache.path if self.cache else None,
                                 self._chunk_keys(chunk),
                                 self.checkpoint_dir, self.checkpoint_every,
                                 self._chunk_ckpt_tags(chunk))

    def _chunk_keys(self, chunk: Sequence[Tuple[int, int, float]]
                    ) -> Optional[Dict[int, str]]:
        """Parent-computed cache keys, shipped with the chunk so workers
        can flush each completed point immediately (mid-chunk durability)."""
        if self.cache is None:
            return None
        return {index: self._key(lam, warmup)
                for index, warmup, lam in chunk}

    def _chunk_ckpt_tags(self, chunk: Sequence[Tuple[int, int, float]]
                         ) -> Optional[Dict[int, str]]:
        """Per-point checkpoint-file tags, derived from the cache *key*
        (not the cache) so sweeps without a results cache still get stable
        per-point files, and every execution strategy — sequential, pooled,
        stacked — resumes the same point from the same file."""
        if not self.checkpoint_dir:
            return None
        try:
            return {index: key_tag(self._key(lam, warmup))
                    for index, warmup, lam in chunk}
        except ValueError:
            # Unserializable trainer settings: no stable point identity,
            # so no checkpoint files (training still runs).
            return None

    def _chunk_pending(self, pending: Sequence[Tuple[int, int, float]]
                       ) -> List[List[Tuple[int, int, float]]]:
        """Group pending grid points into stack-compatible chunks.

        Compatibility means *same warmup*: every model in a stack must hit
        its phase boundaries on the same epochs (λ is free to differ — it
        only scales the per-model loss).  Within each warmup group, grid
        order is preserved and split into runs of at most ``self.stack``
        points; ``stack=1`` yields singleton chunks, i.e. exactly the
        sequential per-point schedule.
        """
        if self.stack <= 1:
            return [[entry] for entry in pending]
        groups: "OrderedDict[int, List[Tuple[int, int, float]]]" = OrderedDict()
        for entry in pending:
            groups.setdefault(entry[1], []).append(entry)
        chunks: List[List[Tuple[int, int, float]]] = []
        for entries in groups.values():
            for start in range(0, len(entries), self.stack):
                chunks.append(entries[start:start + self.stack])
        return chunks

    def run(self, lambdas: Sequence[float],
            warmups: Sequence[int] = (5,)) -> DSEResult:
        """Sweep the grid; points come back in grid order regardless of
        worker count or completion order.

        Failures stay inside the result: a raising, diverging, timed-out
        or worker-killing grid point becomes a ``status="failed"``
        :class:`DSEPoint` and the sweep keeps going.  The only exceptions
        that escape are ``BaseException`` (KeyboardInterrupt & co.) —
        pending futures are cancelled, already-completed points are in
        the cache, and the interrupted sweep resumes from there.
        """
        grid = self._grid(lambdas, warmups)
        points: List[Optional[DSEPoint]] = [None] * len(grid)
        pending: List[Tuple[int, int, float]] = []
        stats: Dict[str, object] = {
            "pool_deaths": 0, "timeouts": 0, "chunk_failures": 0,
            "quarantined": [], "degraded": False, "failed": 0, "retried": 0,
            "resumed_epochs": 0,
        }
        self.last_run_stats = stats

        for index, (warmup, lam) in enumerate(grid):
            cached = None
            if self.cache is not None:
                key = self._key(lam, warmup)
                cached = self.cache.get(key)
                if cached is None and not self.point_evaluators:
                    # A hardware-annotated sweep trained this exact point;
                    # its entry is a superset of what we need.
                    cached = self.cache.get_annotated(key)
            if cached is not None:
                points[index] = cached
                self._log(f"lam={lam:g} warmup={warmup}: cached "
                          f"({cached.params} params, loss={cached.loss:.4f})")
            else:
                pending.append((index, warmup, lam))

        if pending:
            chunks = self._chunk_pending(pending)
            if self.workers > 1:
                self._run_pooled(chunks, points, stats)
            else:
                self._run_sequential(chunks, points)

        stats["failed"] = sum(1 for p in points if p is not None and not p.ok)
        stats["retried"] = sum(1 for p in points
                               if p is not None and p.attempts > 1)
        return DSEResult(points=list(points))

    def _run_sequential(self, chunks, points) -> None:
        """In-process execution (workers <= 1): chunk by chunk, isolated."""
        for chunk in chunks:
            trained = self._train_chunk(chunk)
            for (index, _, _), point in zip(chunk, trained):
                points[index] = self._record(point)

    def _make_pool(self):
        pool_cls = (ThreadPoolExecutor if self.executor == "thread"
                    else ProcessPoolExecutor)
        return pool_cls(max_workers=self.workers)

    def _deadline(self, chunk_len: int) -> Optional[float]:
        if self.point_timeout is None:
            return None
        return time.monotonic() + self.point_timeout * chunk_len

    def _submit(self, pool, inflight, chunk) -> None:
        future = pool.submit(
            _train_grid_chunk, self.seed_factory, self.loss_fn,
            self.train_loader, self.val_loader, list(chunk),
            self.trainer_kwargs, self.point_evaluators, self.retries, self.retry_backoff,
            self.cache.path if self.cache else None, self._chunk_keys(chunk),
            self.checkpoint_dir, self.checkpoint_every,
            self._chunk_ckpt_tags(chunk))
        inflight[future] = (list(chunk), self._deadline(len(chunk)))

    def _run_pooled(self, chunks, points, stats) -> None:
        """Windowed pool execution with deadlines and crash recovery.

        At most ``workers`` chunks are in flight at once (instead of
        submitting the whole grid up front), so when a process pool dies
        the set of chunks that *could* have been running is small and
        recovery stays precise: suspects are re-probed **one at a time**
        — the only chunk in flight — which makes the next death's blame
        exact.  A point that dies alone ``QUARANTINE_KILLS`` times is a
        poison point and is quarantined as failed; after
        ``MAX_POOL_DEATHS`` the engine stops trusting pools entirely and
        degrades to in-process sequential execution with a warning.
        Cache-backed recovery never re-trains what a dying worker already
        flushed: suspects found on disk are claimed, not resubmitted.
        """
        queue = deque(chunks)        # unsubmitted chunks, grid order
        probing = deque()            # post-death suspects, probed solo
        inflight: Dict = {}          # future -> (entries, deadline)
        kill_counts: Dict[int, int] = {}
        pool = self._make_pool()

        def collect_dead() -> List[Tuple[int, int, float]]:
            dead = []
            for future, (entries, _) in inflight.items():
                future.cancel()
                dead.extend(e for e in entries if points[e[0]] is None)
            inflight.clear()
            return dead

        def on_pool_death(dead) -> None:
            nonlocal pool
            stats["pool_deaths"] += 1
            pool.shutdown(wait=False, cancel_futures=True)
            # Blame is only precise when exactly one entry can have been
            # running — a solo probe.  Group deaths accuse nobody; their
            # members go to the probe queue instead.
            if len(dead) == 1:
                index, warmup, lam = dead[0]
                kills = kill_counts.get(index, 0) + 1
                kill_counts[index] = kills
                if kills >= QUARANTINE_KILLS:
                    stats["quarantined"].append((lam, warmup))
                    points[index] = self._record(_failed_point(
                        lam, warmup,
                        f"quarantined: killed {kills} pool workers",
                        attempts=kills))
                    warnings.warn(
                        f"DSE grid point lam={lam:g} warmup={warmup} killed "
                        f"{kills} pool workers; quarantined as failed")
                    dead = []
            # Shrink by what dying workers already flushed to the cache:
            # our in-memory cache view predates the crash, so re-read disk.
            if self.cache is not None and dead:
                disk = _chunk_cache(self.cache.path)
                for entry in list(dead):
                    found = None
                    if disk is not None:
                        found = disk.get(self._key(entry[2], entry[1]))
                    if found is not None:
                        points[entry[0]] = self._record(found)
                        dead.remove(entry)
            probing.extend(e for e in dead if points[e[0]] is None)
            if stats["pool_deaths"] >= MAX_POOL_DEATHS:
                stats["degraded"] = True
                return
            self._log(f"worker pool died (death #{stats['pool_deaths']}); "
                      "rebuilding and resubmitting unfinished points")
            pool = self._make_pool()

        try:
            while queue or probing or inflight:
                if stats["degraded"]:
                    break
                # Refill the window.  Probing mode serializes: one suspect
                # alone in the pool, so a repeat death blames it exactly.
                try:
                    if probing:
                        if not inflight:
                            self._submit(pool, inflight, [probing[0]])
                            probing.popleft()
                    else:
                        while queue and len(inflight) < self.workers:
                            self._submit(pool, inflight, queue[0])
                            queue.popleft()
                except BrokenExecutor:
                    on_pool_death(collect_dead())
                    continue
                timeout = None
                deadlines = [d for _, d in inflight.values() if d is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken = False
                dead_now: List[Tuple[int, int, float]] = []
                for future in done:
                    entries, _ = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broken = True
                        dead_now.extend(e for e in entries
                                        if points[e[0]] is None)
                        continue
                    except Exception as exc:
                        # Chunk-level infrastructure failure (the chunk
                        # task itself raised: unpicklable results, …) —
                        # per-point isolation already caught everything
                        # training-related.
                        stats["chunk_failures"] += 1
                        for index, warmup, lam in entries:
                            if points[index] is None:
                                points[index] = self._record(
                                    _failed_point(lam, warmup, exc))
                    else:
                        for (index, _, _), point in zip(entries, result):
                            points[index] = self._record(point)
                if broken:
                    on_pool_death(dead_now + collect_dead())
                    continue
                # Deadline sweep: expired chunks are marked failed and
                # abandoned.  Thread futures cannot be killed — the
                # zombie thread finishes into a dropped future; process
                # futures keep their worker busy until the task returns.
                # Either way the sweep moves on.
                now = time.monotonic()
                for future in [f for f, (_, dl) in inflight.items()
                               if dl is not None and now >= dl]:
                    entries, _ = inflight.pop(future)
                    future.cancel()
                    stats["timeouts"] += 1
                    for index, warmup, lam in entries:
                        if points[index] is None:
                            points[index] = self._record(_failed_point(
                                lam, warmup,
                                f"timeout: exceeded {self.point_timeout:g}s "
                                f"per point"))
        except BaseException:
            # KeyboardInterrupt & co.: cancel what never started, abandon
            # the rest, re-raise.  Completed points were flushed to the
            # cache as they finished, so the interrupted sweep resumes.
            for future in inflight:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=False, cancel_futures=True)
        if stats["degraded"]:
            leftovers = [e for e in list(probing)
                         + [e for chunk in queue for e in chunk]
                         if points[e[0]] is None]
            warnings.warn(
                f"DSE worker pool died {stats['pool_deaths']} times; "
                f"degrading to in-process sequential execution for "
                f"{len(leftovers)} remaining grid points")
            self._run_sequential([[entry] for entry in leftovers], points)

    def _key(self, lam: float, warmup: int) -> str:
        return DSECache.key(lam, warmup, self.trainer_kwargs,
                            tag=self.cache_tag,
                            evaluators=[evaluator_name(e)
                                        for e in self.point_evaluators])

    def _record(self, point: DSEPoint) -> DSEPoint:
        if self.cache is not None:
            self.cache.put(self._key(point.lam, point.warmup_epochs), point)
        resumed = getattr(point.result, "resumed_epochs", 0) or 0
        if resumed:
            # Epochs this point recovered from a mid-run checkpoint instead
            # of retraining (pool resubmission, retry, or a prior run).
            self.last_run_stats["resumed_epochs"] = (
                self.last_run_stats.get("resumed_epochs", 0) + int(resumed))
        if not point.ok:
            self._log(f"lam={point.lam:g} warmup={point.warmup_epochs}: "
                      f"FAILED after {point.attempts} attempt(s) — "
                      f"{point.error}")
            return point
        extra = "".join(f", {k}={v:.4g}" for k, v in point.metrics.items())
        self._log(f"lam={point.lam:g} warmup={point.warmup_epochs}: "
                  f"{point.params} params, loss={point.loss:.4f}, "
                  f"d={point.dilations}{extra}")
        return point


def run_dse(seed_factory: Callable[[], Module], loss_fn: Callable,
            train_loader, val_loader,
            lambdas: Sequence[float], warmups: Sequence[int] = (5,),
            trainer_kwargs: Optional[Dict] = None,
            verbose: bool = False, workers: Optional[int] = None,
            executor: Optional[str] = None,
            cache_path: Optional[str] = None,
            cache_tag: str = "",
            stack: Optional[int] = None,
            point_evaluators: Optional[Sequence[Callable]] = None,
            retries: int = 0, retry_backoff: float = 0.1,
            point_timeout: Optional[float] = None,
            checkpoint_dir: Optional[str] = None,
            checkpoint_every: Optional[int] = None
            ) -> DSEResult:
    """Sweep (λ, warmup); one full PIT search per grid point.

    Thin wrapper over :class:`DSEEngine` kept for API compatibility;
    ``workers`` / ``executor`` / ``cache_path`` / ``cache_tag`` /
    ``stack`` / ``point_evaluators`` /
    ``retries`` / ``point_timeout`` / ``checkpoint_dir`` expose the
    engine's parallelism, memoization, stacked-model,
    hardware-in-the-loop, fault-tolerance and mid-run-checkpoint knobs.
    """
    engine = DSEEngine(seed_factory, loss_fn, train_loader, val_loader,
                       workers=workers, executor=executor,
                       cache_path=cache_path, cache_tag=cache_tag,
                       trainer_kwargs=trainer_kwargs,
                       verbose=verbose, stack=stack,
                       point_evaluators=point_evaluators,
                       retries=retries, retry_backoff=retry_backoff,
                       point_timeout=point_timeout,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_every=checkpoint_every)
    return engine.run(lambdas, warmups=warmups)


def select_small_medium_large(points: Sequence[DSEPoint],
                              reference_params: Optional[float] = None,
                              *, objective: str = "params",
                              reference: Optional[float] = None
                              ) -> Dict[str, DSEPoint]:
    """The paper's Table I selection rule over a set of DSE points.

    * ``small``: the cheapest network found;
    * ``large``: the most expensive network found;
    * ``medium``: the closest in cost to the hand-designed reference.

    ``objective`` names the cost axis: ``"params"`` (default, the paper's
    rule) or any metrics key a hardware-aware sweep annotated
    (``"latency_ms"``, ``"energy_mj"``, …), with ``reference`` the
    reference network's value on that axis (``reference_params`` is the
    legacy spelling of the same argument).  Points that do not carry the
    requested objective are ignored.
    """
    if reference is None:
        reference = reference_params
    if reference is None:
        raise TypeError("a reference value is required "
                        "(reference_params= or reference=)")
    scored = [(p, objective_value(p, objective)) for p in points]
    scored = [(p, v) for p, v in scored if v is not None]
    if not scored:
        raise ValueError(
            f"no DSE points carry the {objective!r} objective to select from")
    small = min(scored, key=lambda pv: pv[1])[0]
    large = max(scored, key=lambda pv: pv[1])[0]
    medium = min(scored, key=lambda pv: abs(pv[1] - reference))[0]
    return {"small": small, "medium": medium, "large": large}
