"""Design-space-exploration engine (paper Sec. IV-B).

The paper obtains the Pareto fronts of Fig. 4 "by tweaking the λ
regularization-strength of PIT and the warmup duration".  This module
drives that sweep: one :class:`repro.core.PITTrainer` run per (λ, warmup)
pair, each from a fresh copy of the seed, collecting ``(params, loss)``
points plus the discovered dilations.

Grid points are independent, so :class:`DSEEngine` runs them as tasks of
one scheduler loop, in-process or on a process pool, and reassembles the
results in deterministic grid order — a parallel sweep returns exactly the
same :class:`DSEResult` as a serial one, under the same failure rules.
To make that hold, every grid point trains against *private* loader
clones (:func:`repro.data.clone_loader`): a shared shuffling loader would
otherwise thread its RNG state through the points in submission order.
Each pool worker caps its OpenBLAS thread count at its share of the
cores, so the workers do not oversubscribe them.

On top of the worker pool, ``stack=N`` turns on *stacked-model execution*:
up to N same-warmup grid points are grouped into one weight-stacked
program (:class:`repro.core.StackedPITTrainer`) whose parameters carry a
leading model axis, so the whole group trains through a single op graph
with per-model λ/early-stopping — amortizing the per-op Python dispatch
overhead N-fold (each stacked conv still runs its N GEMMs model by
model).  Stack width is an execution knob: it stays out of cache keys,
and unsupported models/loaders fall back to the sequential path per
group.

Completed points can be memoized to a cache directory, one array file
per point (see :class:`DSECache`), making long sweeps resumable: a re-run
with the same grid and trainer settings skips finished points and only
trains the rest.

Sweeps are *fault tolerant*: a failing grid point becomes a
``status="failed"`` :class:`DSEPoint` carrying the error instead of an
exception that kills the run; transient failures retry with exponential
backoff (``retries=``), a point that trains past ``point_timeout`` seconds
fails with :class:`repro.core.PointTimeout` at its next step, and
non-finite losses surface as :class:`repro.core.DivergedError` with a
diagnosis.  Process-pool sweeps survive worker death: on
``BrokenProcessPool`` the engine rebuilds the pool and resubmits only
unfinished points (shrunk by whatever the dying worker already wrote to
the cache), a poison point that kills workers twice is quarantined, and
after repeated pool deaths the loop carries on with the inline executor,
with a warning.  Every recovery path is exercised deterministically by
:mod:`repro.testing.faults`.

Deployment cost is a first-class objective: ``point_evaluators`` run after
each grid point trains (e.g. :class:`repro.hw.GAP8PointEvaluator`, which
exports the discovered network, fake-quantizes it to int8 and prices it on
the GAP8 model) and annotate the point's ``metrics`` dict; the cache
persists them and :meth:`DSEResult.pareto` accepts arbitrary objective
tuples such as ``("params", "latency_ms", "loss")``.

It also implements the small/medium/large selection rule of Tables I-III:
*small* = fewest parameters, *large* = most parameters, *medium* = closest
in size to the hand-engineered reference network — optionally along any
other objective (latency, energy, …) via ``objective=``.
"""

from __future__ import annotations

import ctypes
import json
import os
import pickle
import random
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import get_default_dtype
from ..core.checkpoint import key_tag
from ..core.driver import point_deadline
from ..core.stacked import StackedPITTrainer
from ..core.trainer import DivergedError, PITResult, PITTrainer, PointTimeout
from ..data import clone_loader
from ..nn import Module
from ..nn.serialization import (CheckpointError, load_state,
                                 quarantine_file, save_state)
from ..nn.stacked import StackingUnsupported
from ..testing import faults
from .pareto import pareto_front

__all__ = ["DSEPoint", "DSEResult", "DSECache", "DSEEngine",
           "objective_value", "evaluator_name", "select_small_medium_large",
           "ENV_STACK", "ENV_WORKERS",
           "stack_width_default", "workers_default"]

#: pool deaths a poison point may cause before it is quarantined
QUARANTINE_KILLS = 2
#: pool deaths per sweep before degrading to in-process sequential runs
MAX_POOL_DEATHS = 3
#: seconds past a chunk's point budgets before the pool abandons it: the
#: step guard fails a timed-out point within one step, so only a point
#: that stops reaching guards (a hang) meets this backstop
BACKSTOP_GRACE = 2.0

#: environment default for DSEEngine(stack=None)
ENV_STACK = "REPRO_DSE_STACK"
#: environment default for DSEEngine(workers=None), so CI legs can run
#: whole suites under pooled execution without editing every engine
#: construction (explicit arguments always win).
ENV_WORKERS = "REPRO_DSE_WORKERS"

#: trainer settings the engine sets per grid point, each with the engine
#: argument that controls it; DSEEngine(trainer_kwargs=...) refuses them
_ENGINE_OWNED = {
    "lam": "the grid (DSEEngine.run lambdas)",
    "warmup_epochs": "the grid (DSEEngine.run warmups)",
    "stack": "DSEEngine(stack=)",
    "checkpoint_dir": "DSEEngine(checkpoint_dir=)",
    "checkpoint_every": "DSEEngine(checkpoint_every=)",
    "checkpoint_tag": "DSEEngine(checkpoint_dir=)",
    "checkpoint_tags": "DSEEngine(checkpoint_dir=)",
    "checkpoint_resume": "DSEEngine(checkpoint_dir=)",
}


def _env_int(name: str, default: int, low: int) -> int:
    """The integer in environment variable ``name`` (``default`` when unset
    or blank); a non-integer or a value below ``low`` raises ValueError
    naming the variable."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {raw!r}")
    return value


def stack_width_default() -> int:
    """Stack width used when ``DSEEngine(stack=None)``: ``REPRO_DSE_STACK``
    or 1 (sequential).  Read per call so tests can flip it."""
    return _env_int(ENV_STACK, 1, 1)


def workers_default() -> int:
    """Pool size used when ``DSEEngine(workers=None)``: ``REPRO_DSE_WORKERS``
    or 0 (serial).  Read per call so tests can flip it."""
    return _env_int(ENV_WORKERS, 0, 0)


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
    """The failed-point placeholder per-point isolation records (a
    :class:`PointTimeout` keeps its bare message, raised on either side)."""
    if (isinstance(error, BaseException)
            and not isinstance(error, PointTimeout)):
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
        (sweeps run without evaluators, failed points) are excluded.
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
    """Directory memo of completed DSE points, for resumable sweeps.

    Every finished grid point is one :mod:`repro.nn.serialization` array
    file, ``<path>/<key_tag(key)>.point``, that holds no arrays.  Its
    metadata is the point's entry plus its full cache key::

        {
          "key": "tag=...|lam=0.02|warmup=5|trainer={...}|dtype=float32",
          "lam": 0.02, "warmup_epochs": 5,
          "dilations": [1, 2, 4], "params": 1234, "loss": 0.567,
          "metrics": {"latency_ms": 112.6, "energy_mj": 29.5, ...},
          "result": { ... PITResult fields ... },
          "status": "ok", "error": null, "attempts": 1
        }

    ``metrics`` holds post-training evaluator annotations (deployment
    latency/energy, quantized loss, …); the failure fields (``status`` /
    ``error`` / ``attempts``) keep an interrupted fault-tolerant sweep's
    failure provenance on disk.  Failed entries are *persisted but never
    served*: :meth:`get` treats them as missing, so a resumed sweep
    retries the failed grid points instead of trusting a placeholder.

    Each file is written once, atomically, by whoever finished the point:
    the task that trained it (in a pool worker, through its own unpickled
    copy of this handle, which holds only the path) or the engine for the
    failures only it assigns.  No process rewrites another's record, so
    workers and the parent share the directory without a lock.  Reads go
    to disk every time; a handle caches nothing.

    A point file that fails its checksum or header (truncated by a crash
    mid-write, garbage bytes), or whose metadata is not a point record,
    is never fatal and never silently ignored: it is quarantined to
    ``<file>.corrupt`` with a warning and reads as missing, so only that
    point retrains.  A file whose stored key differs from the lookup key
    is not served.

    Keys encode (tag, λ, warmup, trainer settings, the default dtype, and
    the point evaluators that annotated the entry), so the cache is never
    allowed to return a point trained under different hyper-parameters or
    at another precision.  λ and warmup are normalized to native
    ``float``/``int`` first: a ``np.linspace`` grid (numpy scalars) must
    key identically to the same values spelled as Python floats, or
    resumed sweeps would silently retrain everything.
    The *tag* is the caller's name for the model/data
    identity (seed factory, dataset, width, …), which the engine cannot
    see into — callers sharing one cache directory across different seeds
    or benchmarks must pass distinct ``cache_tag`` values (the CLI and the
    benchmark conftest do).

    ``path`` names a directory, created on the first write.  A regular
    file there (such as a cache from the single-JSON-file format) raises
    ``ValueError``: it is not read.
    """

    SUFFIX = ".point"

    def __init__(self, path: str):
        if os.path.exists(path) and not os.path.isdir(path):
            raise ValueError(
                f"DSE cache {path!r} is a file; the cache is now a "
                "directory of per-point files, so pass a directory")
        self.path = path

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
               f"|warmup={int(warmup)}|trainer={settings}"
               f"|dtype={np.dtype(get_default_dtype()).name}")
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

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key_tag(key) + self.SUFFIX)

    def _files(self) -> List[str]:
        """Every point file in the directory, in name order."""
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            return []
        return [os.path.join(self.path, name) for name in sorted(names)
                if name.endswith(self.SUFFIX)]

    @staticmethod
    def _read(file: str) -> Optional[dict]:
        """The entry in point file ``file``; None when there is none or it
        is damaged (then quarantined, with a warning)."""
        try:
            _, entry = load_state(file, quarantine=True)
        except (FileNotFoundError, CheckpointError):
            return None
        if not isinstance(entry, dict) or not isinstance(entry.get("key"),
                                                          str):
            quarantine_file(file, f"DSE cache point file {file!r} holds no "
                                  "point record", stacklevel=3)
            return None
        return entry

    def __len__(self) -> int:
        return len(self._files())

    def get(self, key: str) -> Optional[DSEPoint]:
        """The ok point recorded under ``key``, else None.

        Failed entries are persisted provenance, not reusable results —
        they read as missing so a resumed sweep retries the point.
        """
        entry = self._read(self._file(key))
        if entry is None or entry["key"] != key or entry["status"] != "ok":
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
        found = [entry for entry in map(self._read, self._files())
                 if entry is not None and entry["key"].startswith(prefix)
                 and entry["status"] == "ok"]
        if not found:
            return None
        return _point_from_dict(min(found, key=lambda entry: entry["key"]))

    def put(self, key: str, point: DSEPoint) -> None:
        """Write ``point``'s file, replacing an earlier record of ``key``."""
        file = self._file(key)
        save_state({}, file, metadata=dict(_point_to_dict(point), key=key))
        faults.corrupt_cache_file(file)


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
        metrics=dict(entry["metrics"]), status=entry["status"],
        error=entry["error"], attempts=int(entry["attempts"]))


# ----------------------------------------------------------------------
# Execution engine
# ----------------------------------------------------------------------

def _train_grid_point(seed_factory: Callable[[], Module], loss_fn: Callable,
                      train_loader, val_loader, lam: float, warmup: int,
                      trainer_kwargs: Dict,
                      point_evaluators: Optional[Sequence[Callable]] = None,
                      ckpt_dir: Optional[str] = None,
                      ckpt_every: Optional[int] = None,
                      ckpt_tag: Optional[str] = None) -> DSEPoint:
    """Train one (λ, warmup) grid point from a fresh seed.

    Each point gets private loader copies so it consumes its own shuffle
    RNG stream — this is what makes parallel sweeps bit-identical to
    serial ones regardless of completion order.
    ``point_evaluators`` run after training, while the trained model is
    still in hand, and merge their returned dicts into ``DSEPoint.metrics``.
    ``ckpt_dir``/``ckpt_every``/``ckpt_tag`` enable mid-run trainer
    checkpoints: a retried, resubmitted or abandoned-and-reswept point
    resumes bit-exactly from its last epoch boundary instead of retraining
    from scratch.
    """
    train_loader = clone_loader(train_loader)
    val_loader = clone_loader(val_loader)
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
    stacked loss, so only per-point training can isolate the culprit.  A
    :class:`PointTimeout` bubbles up too, but fails the whole group.
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
                          point_timeout: Optional[float] = None,
                          ckpt_dir: Optional[str] = None,
                          ckpt_every: Optional[int] = None,
                          ckpt_tag: Optional[str] = None) -> DSEPoint:
    """Per-point failure isolation: always returns a DSEPoint.

    Transient exceptions retry up to ``retries`` times with exponential
    backoff; :class:`DivergedError` is permanent (the same data and seed
    diverge again, so a retry just burns the epochs twice) and fails the
    point immediately, and so is :class:`PointTimeout`: ``point_timeout``
    seconds cover every attempt, backoff included, so a retry would only
    pay the budget again.  ``BaseException`` (KeyboardInterrupt, worker
    ``os._exit``) deliberately passes through — interruption is the
    caller's policy, not a point failure.  With checkpointing on, a retry
    resumes from the point's latest epoch-boundary snapshot instead of
    paying the finished epochs again.
    """
    attempt = 0
    with point_deadline(point_timeout):
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
            except (DivergedError, PointTimeout) as exc:
                return _failed_point(lam, warmup, exc, attempt)
            except Exception as exc:
                if attempt <= retries:
                    _backoff_sleep(index, attempt, retry_backoff)
                    continue
                return _failed_point(lam, warmup, exc, attempt)


def _train_grid_chunk(seed_factory: Callable[[], Module], loss_fn: Callable,
                      train_loader, val_loader,
                      chunk: Sequence[Tuple[int, int, float]],
                      trainer_kwargs: Dict,
                      point_evaluators: Optional[Sequence[Callable]] = None,
                      retries: int = 0, retry_backoff: float = 0.0,
                      point_timeout: Optional[float] = None,
                      cache=None, keys: Optional[Dict[int, str]] = None,
                      ckpt_dir: Optional[str] = None,
                      ckpt_every: Optional[int] = None) -> List[DSEPoint]:
    """One scheduler task: ``(index, warmup, lam)`` points, all same warmup.

    Singleton chunks take the exact sequential ``_train_grid_point`` path —
    which is why ``stack=1`` is bit-identical to the pre-stacking engine.
    Module-level so a ``ProcessPoolExecutor`` can pickle it.  Each point
    is written to ``cache`` (the engine's :class:`DSECache`, which holds
    only its path and so pickles to pool workers) under, and checkpoints
    to a file named after, its entry in ``keys``, as soon as it finishes.

    Failures never escape as exceptions (except ``BaseException``): each
    point trains through :func:`_train_point_isolated`.  A multi-point
    stacked chunk first attempts the weight-stacked fast path; a
    :class:`StackingUnsupported` model, a mid-stack divergence (one NaN
    slice poisons the shared loss) or any other stacked failure falls
    back to isolated per-point training, which pins the blame on the
    culprit point alone.  A stacked run trains all its points at once, so
    they share one ``point_timeout`` budget, and a :class:`PointTimeout`
    fails them all: per-point retraining would pay the budget again.
    """
    def store(index: int, point: DSEPoint) -> None:
        if cache is not None and keys:
            cache.put(keys[index], point)

    def tag_of(index: int) -> Optional[str]:
        return key_tag(keys[index]) if ckpt_dir and keys else None

    if len(chunk) > 1:
        indices = [index for index, _, _ in chunk]
        warmup = chunk[0][1]
        try:
            with point_deadline(point_timeout), faults.point_scope(indices):
                faults.inject_point_faults()
                points = _train_grid_stack(
                    seed_factory, loss_fn, train_loader, val_loader, warmup,
                    [lam for _, _, lam in chunk], trainer_kwargs,
                    point_evaluators, ckpt_dir, ckpt_every,
                    [tag_of(index) for index in indices])
        except PointTimeout as exc:
            points = [_failed_point(lam, warmup, exc) for _, _, lam in chunk]
        except Exception:
            points = None  # StackingUnsupported, divergence, …: isolate
                           # per point below
        if points is not None:
            for (index, _, _), point in zip(chunk, points):
                store(index, point)
            return points

    out: List[DSEPoint] = []
    for index, warmup, lam in chunk:
        point = _train_point_isolated(
            seed_factory, loss_fn, train_loader, val_loader, index, warmup,
            lam, trainer_kwargs, point_evaluators, retries, retry_backoff,
            point_timeout, ckpt_dir, ckpt_every, tag_of(index))
        store(index, point)
        out.append(point)
    return out


#: spellings of OpenBLAS function ``{}``: numpy's bundled scipy-openblas
#: (64- and 32-bit integer builds), then a system OpenBLAS
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "scipy_openblas_{}",
                     "openblas_{}64_", "openblas_{}")


def _openblas_function(name: str):
    """OpenBLAS function ``name`` (``set_num_threads``, …) of the library
    this process has loaded, or None when there is none to find.

    The library is looked up among the shared objects mapped into the
    process (``/proc/self/maps``), so numpy's bundled OpenBLAS and a
    system one are both found; where that file does not exist (non-Linux)
    nothing is found.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            function = getattr(library, symbol.format(name), None)
            if function is not None:
                return function
    return None


def _pin_blas(threads: int) -> None:
    """Pool-worker initializer: cap this process's OpenBLAS at ``threads``.

    A worker otherwise starts one BLAS thread per core, and ``workers``
    of them oversubscribe the cores (on 2 vCPUs a 2-worker pool ran
    slower than serial).  Without a locatable OpenBLAS the worker keeps
    the library default.
    """
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(threads)


class _InlineExecutor:
    """The executor of in-process sweeps: ``submit`` runs the task and
    returns its completed future.  An exception becomes the future's, as
    in a pool; ``BaseException`` (KeyboardInterrupt) propagates."""

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, **_) -> None:
        pass


def evaluator_name(evaluator: Callable) -> str:
    """Stable cache-key identity of a point evaluator.

    Preference order: an explicit ``cache_name`` attribute (class-based
    evaluators like :class:`repro.hw.GAP8PointEvaluator` derive one from
    their configuration), then the function ``__name__``.  Must not embed
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
    """Runs a (λ × warmup) sweep in-process or across a process pool.

    Parameters
    ----------
    seed_factory:
        Zero-argument callable returning a *fresh* searchable seed; runs
        are independent (identical init per the factory's internal seed).
        Must pickle when ``workers > 1``.
    loss_fn:
        Task loss passed to :class:`repro.core.PITTrainer`.
    train_loader, val_loader:
        Data loaders; each grid point trains on private deep copies.
    workers:
        Pool size.  ``0`` or ``1`` trains the grid serially in-process
        (the scheduler's inline executor); None (default) defers to
        ``REPRO_DSE_WORKERS`` (or 0).  Above 1, chunks train in that many
        worker processes, each with its OpenBLAS capped at
        ``cpu_count // workers`` threads (at least 1).  Results, failure
        rules and the log are the same at every worker count.
        The factory, loss, loaders and evaluators are pickled to the
        workers: one that does not pickle (a lambda, a closure) raises a
        ``ValueError`` naming it here, not a failure per grid point.
    cache_path:
        Optional results cache directory (see :class:`DSECache`), one file
        per finished point; completed points found there are returned
        without retraining.  An existing regular file there raises
        ``ValueError``.
    cache_tag:
        Identity string mixed into every cache key, naming what the engine
        cannot introspect: the seed factory and data (benchmark, width,
        seed, …).  Required discipline whenever one cache directory serves
        sweeps over different models or datasets.
    trainer_kwargs:
        Extra :class:`PITTrainer` arguments shared by every grid point.
        Settings the engine owns (``lam`` / ``warmup_epochs``, ``stack``
        and the ``checkpoint_*`` settings) raise a ``ValueError`` naming
        the engine argument or grid axis that controls them.
    stack:
        Stacked-model execution width: up to ``stack`` same-warmup grid
        points train as *one* weight-stacked model
        (:class:`repro.core.StackedPITTrainer`) — one op graph whose
        stacked convs loop over the models, per-model λ and early
        stopping.  ``1`` (the default) is the exact sequential path; None
        defers to ``REPRO_DSE_STACK``.  This is an execution-speed knob
        kept *out* of cache keys: stacked results are bit-identical to
        sequential ones, so stacked and sequential sweeps resume from and
        write to the same entries.
        Models or loaders without a stacked path fall back to sequential
        training automatically (per chunk).
    point_evaluators:
        Post-training hooks, each called as ``evaluator(model, point)``
        with the trained (still searchable) model; the returned
        ``Dict[str, float]`` is merged into ``DSEPoint.metrics`` and
        persisted by the cache.  :class:`repro.hw.GAP8PointEvaluator` is
        the canonical one (int8 fake-quantization + GAP8 latency/energy).
        Evaluator identities (``cache_name``) are part of the cache key:
        points cached without hardware metrics cannot satisfy a
        hardware-aware resume, because the weights needed to compute the
        missing metrics are not persisted.  (The reverse resume is free:
        an evaluator-less sweep falls back to annotated entries, which are
        a superset.)  Must pickle when ``workers > 1``.
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
        Wall-clock budget *per grid point* in seconds, covering all of its
        attempts (a stacked chunk's points share one), at every worker
        count: the training driver checks it at
        every step, and past it the point fails with "timeout: exceeded
        {t}s per point" (:class:`repro.core.PointTimeout`), never retried.
        A pool also abandons a task ``BACKSTOP_GRACE`` seconds past its
        points' budgets (a hang that never reaches a step), failing its
        unfinished points alike.  None (default) disables the deadline.
    checkpoint_dir:
        Optional directory for *mid-run trainer checkpoints* (see
        :class:`repro.core.TrainerCheckpoint`): every grid point snapshots
        its complete training state at epoch boundaries, so a retried,
        pool-resubmitted, timed-out-and-reswept or interrupted-and-rerun
        point resumes bit-exactly from its last finished epoch instead of
        retraining from scratch.  Files are named by each point's cache-key
        tag, so sequential, pooled and stacked execution all address the
        same per-point file; like the stack knob this is an
        execution knob kept *out* of cache keys.  None (default) means no
        checkpointing.  Checkpoints complement the results cache: the
        cache skips *finished* points, checkpoints recover *in-flight*
        ones.
    checkpoint_every:
        Snapshot cadence in epochs (checkpoint every Nth boundary, N >= 1);
        None means 1, every epoch.

    After each :meth:`run`, ``last_run_stats`` reports the recovery
    machinery's activity: ``pool_deaths``, ``timeouts`` (timed-out
    points), ``chunk_failures`` (tasks that raised), ``quarantined``
    (``(lam, warmup)`` pairs), ``failed`` and ``retried`` (point counts),
    ``resumed_epochs`` (epochs recovered from checkpoints) and
    ``degraded`` (the pool was given up for in-process execution).
    """

    def __init__(self, seed_factory: Callable[[], Module], loss_fn: Callable,
                 train_loader, val_loader, *, workers: Optional[int] = None,
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
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        self.seed_factory = seed_factory
        self.loss_fn = loss_fn
        self.train_loader = train_loader
        self.val_loader = val_loader
        self.workers = workers
        self.cache = DSECache(cache_path) if cache_path else None
        self.cache_tag = cache_tag
        self.trainer_kwargs = dict(trainer_kwargs or {})
        for name in self.trainer_kwargs:
            if name in _ENGINE_OWNED:
                raise ValueError(
                    f"trainer_kwargs[{name!r}] is set by the DSE engine; "
                    f"{_ENGINE_OWNED[name]} controls it")
        self.stack = int(stack) if stack is not None else stack_width_default()
        if self.stack < 1:
            raise ValueError("stack width must be >= 1")
        self.checkpoint_dir = checkpoint_dir or None
        self.checkpoint_every = (int(checkpoint_every)
                                 if checkpoint_every is not None else 1)
        self.point_evaluators = list(point_evaluators or [])
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.point_timeout = (None if point_timeout is None
                              else float(point_timeout))
        self.verbose = verbose
        self.last_run_stats: Dict[str, object] = {}
        self._unlogged: deque = deque()  # grid indices run() has yet to log
        if self.workers > 1:
            self._check_picklable()

    def _check_picklable(self) -> None:
        """Refuse what cannot reach a pool worker: a lambda, a closure or
        an object holding a lock would otherwise fail every grid point
        (and write those failures to the cache)."""
        shipped = [("seed_factory", self.seed_factory),
                   ("loss_fn", self.loss_fn),
                   ("train_loader", self.train_loader),
                   ("val_loader", self.val_loader)]
        shipped += [(f"point_evaluators[{i}]", evaluator)
                    for i, evaluator in enumerate(self.point_evaluators)]
        for name, value in shipped:
            try:
                ForkingPickler.dumps(value)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"DSEEngine(workers={self.workers}) pickles {name} to "
                    f"its worker processes, but {value!r} does not pickle "
                    f"({type(exc).__name__}: {exc}); pass a module-level "
                    "function or class instead, or workers=0") from exc

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[DSE] {message}")

    def _chunk_args(self, chunk: Sequence[Tuple[int, int, float]]) -> tuple:
        """Positional arguments of the :func:`_train_grid_chunk` task for
        ``chunk``.  Keys are computed without a results cache too:
        checkpoint files are named after them."""
        try:
            keys = {index: self._key(lam, warmup)
                    for index, warmup, lam in chunk}
        except ValueError:
            # Unserializable trainer settings: no stable point identity,
            # so no checkpoint files (training still runs).
            keys = None
        return (self.seed_factory, self.loss_fn, self.train_loader,
                self.val_loader, list(chunk), self.trainer_kwargs,
                self.point_evaluators, self.retries, self.retry_backoff,
                self.point_timeout, self.cache, keys, self.checkpoint_dir,
                self.checkpoint_every)

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
        grid = [(warmup, lam) for warmup in warmups for lam in lambdas]
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

        # Trained points are logged in grid order, whatever order the
        # pool finishes them in (see _finish).
        self._unlogged = deque(index for index, _, _ in pending)
        if pending:
            self._execute(self._chunk_pending(pending), points, stats)

        expired = (None if self.point_timeout is None
                   else str(PointTimeout(self.point_timeout)))
        stats["timeouts"] = sum(1 for p in points
                                if not p.ok and p.error == expired)
        stats["failed"] = sum(1 for p in points if p is not None and not p.ok)
        stats["retried"] = sum(1 for p in points
                               if p is not None and p.attempts > 1)
        return DSEResult(points=list(points))

    def _make_pool(self) -> ProcessPoolExecutor:
        threads = max(1, (os.cpu_count() or 1) // self.workers)
        return ProcessPoolExecutor(max_workers=self.workers,
                                   initializer=_pin_blas,
                                   initargs=(threads,))

    def _execute(self, chunks, points, stats) -> None:
        """The scheduler loop: every chunk runs as one task of an executor,
        an :class:`_InlineExecutor` at ``workers <= 1`` and a process pool
        above that, with at most ``workers`` chunks in flight (instead of
        the whole grid up front).

        When a pool dies, the set of chunks that *could* have been running
        is small, so recovery stays precise: suspects are re-probed **one
        at a time** — the only chunk in flight — which makes the next
        death's blame exact.  A point that dies alone ``QUARANTINE_KILLS``
        times is a poison point and is quarantined as failed; after
        ``MAX_POOL_DEATHS`` the loop swaps in the inline executor, with a
        warning.  Recovery never re-trains what a dying worker already
        wrote: suspects found in the cache are claimed, not resubmitted.
        """
        queue = deque(chunks)        # unsubmitted chunks, grid order
        probing = deque()            # post-death suspects, probed solo
        inflight: Dict = {}          # future -> (entries, backstop)
        kill_counts: Dict[int, int] = {}
        executor = (self._make_pool() if self.workers > 1
                    else _InlineExecutor())

        def submit(chunk) -> None:
            # Tasks write each point as it finishes, so a crash costs only
            # the in-flight point, and recovery resubmits only what is
            # missing on disk.
            backstop = None
            if self.point_timeout is not None:
                backstop = (time.monotonic() + BACKSTOP_GRACE
                            + len(chunk) * self.point_timeout)
            future = executor.submit(_train_grid_chunk,
                                     *self._chunk_args(chunk))
            inflight[future] = (list(chunk), backstop)

        def fail(entries, error) -> None:
            """Fail the unfinished ``entries`` of a task that returned
            none of them; the parent records these points itself."""
            for index, warmup, lam in entries:
                if points[index] is None:
                    self._finish(points, index,
                                 _failed_point(lam, warmup, error),
                                 write=True)

        def on_pool_death() -> None:
            """Every task still in flight died with the pool."""
            nonlocal executor
            stats["pool_deaths"] += 1
            executor.shutdown(wait=False, cancel_futures=True)
            dead = [e for entries, _ in inflight.values() for e in entries
                    if points[e[0]] is None]
            inflight.clear()
            # Blame is only precise when exactly one entry can have been
            # running — a solo probe.  Group deaths accuse nobody; their
            # members go to the probe queue instead.
            if len(dead) == 1:
                index, warmup, lam = dead[0]
                kills = kill_counts.get(index, 0) + 1
                kill_counts[index] = kills
                if kills >= QUARANTINE_KILLS:
                    stats["quarantined"].append((lam, warmup))
                    self._finish(points, index, _failed_point(
                        lam, warmup,
                        f"quarantined: killed {kills} pool workers",
                        attempts=kills), write=True)
                    warnings.warn(
                        f"DSE grid point lam={lam:g} warmup={warmup} killed "
                        f"{kills} pool workers; quarantined as failed")
                    dead = []
            # Shrink by what dying workers already wrote to the cache.
            if self.cache is not None:
                for index, warmup, lam in dead:
                    found = self.cache.get(self._key(lam, warmup))
                    if found is not None:
                        self._finish(points, index, found)
            probing.extend(e for e in dead if points[e[0]] is None)
            if stats["pool_deaths"] >= MAX_POOL_DEATHS:
                stats["degraded"] = True
                remaining = len(probing) + sum(len(c) for c in queue)
                warnings.warn(
                    f"DSE worker pool died {stats['pool_deaths']} times; "
                    f"degrading to in-process sequential execution for "
                    f"{remaining} remaining grid points")
                executor = _InlineExecutor()
                return
            self._log(f"worker pool died (death #{stats['pool_deaths']}); "
                      "rebuilding and resubmitting unfinished points")
            executor = self._make_pool()

        try:
            while queue or probing or inflight:
                # Refill the window.  Probing mode serializes: one suspect
                # alone in the pool, so a repeat death blames it exactly.
                try:
                    if probing:
                        if not inflight:
                            submit([probing[0]])
                            probing.popleft()
                    else:
                        while queue and len(inflight) < max(1, self.workers):
                            submit(queue[0])
                            queue.popleft()
                except BrokenExecutor:
                    on_pool_death()
                    continue
                backstops = [b for _, b in inflight.values() if b is not None]
                timeout = (max(0.0, min(backstops) - time.monotonic())
                           if backstops else None)
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    entries, _ = inflight[future]
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broken = True  # on_pool_death collects it
                        continue
                    except Exception as exc:
                        # Chunk-level infrastructure failure (the chunk
                        # task itself raised: unpicklable results, …) —
                        # per-point isolation already caught everything
                        # training-related.
                        stats["chunk_failures"] += 1
                        fail(entries, exc)
                    else:
                        for (index, _, _), point in zip(entries, result):
                            self._finish(points, index, point)
                    del inflight[future]
                if broken:
                    on_pool_death()
                    continue
                # Backstop: a task past its points' budgets and the grace
                # is abandoned.  Its worker stays busy until the task
                # returns; the sweep moves on.
                now = time.monotonic()
                for future in [f for f, (_, b) in inflight.items()
                               if b is not None and now >= b]:
                    entries, _ = inflight.pop(future)
                    future.cancel()
                    fail(entries, PointTimeout(self.point_timeout))
        finally:
            # On KeyboardInterrupt & co.: cancel what never started and
            # abandon the rest.  Completed points were written to the
            # cache as they finished, so the interrupted sweep resumes.
            for future in inflight:
                future.cancel()
            executor.shutdown(wait=False, cancel_futures=True)

    def _key(self, lam: float, warmup: int) -> str:
        return DSECache.key(lam, warmup, self.trainer_kwargs,
                            tag=self.cache_tag,
                            evaluators=[evaluator_name(e)
                                        for e in self.point_evaluators])

    def _finish(self, points: List[Optional[DSEPoint]], index: int,
                point: DSEPoint, write: bool = False) -> None:
        """Record ``point`` as grid point ``index``.  A task already wrote
        the points it returned to the cache; ``write`` points (failures no
        task returned) are written here.  Then log every point that is now
        finished in grid order, so the log reads the same at any worker
        count."""
        points[index] = point
        if write and self.cache is not None:
            self.cache.put(self._key(point.lam, point.warmup_epochs), point)
        resumed = getattr(point.result, "resumed_epochs", 0) or 0
        if resumed:
            # Epochs this point recovered from a mid-run checkpoint instead
            # of retraining (pool resubmission, retry, or a prior run).
            self.last_run_stats["resumed_epochs"] = (
                self.last_run_stats.get("resumed_epochs", 0) + int(resumed))
        while self._unlogged and points[self._unlogged[0]] is not None:
            self._log_point(points[self._unlogged.popleft()])

    def _log_point(self, point: DSEPoint) -> None:
        if not point.ok:
            self._log(f"lam={point.lam:g} warmup={point.warmup_epochs}: "
                      f"FAILED after {point.attempts} attempt(s) — "
                      f"{point.error}")
            return
        extra = "".join(f", {k}={v:.4g}" for k, v in point.metrics.items())
        self._log(f"lam={point.lam:g} warmup={point.warmup_epochs}: "
                  f"{point.params} params, loss={point.loss:.4f}, "
                  f"d={point.dilations}{extra}")


def select_small_medium_large(points: Sequence[DSEPoint], reference: float,
                              *, objective: str = "params"
                              ) -> Dict[str, DSEPoint]:
    """The paper's Table I selection rule over a set of DSE points.

    * ``small``: the cheapest network found;
    * ``large``: the most expensive network found;
    * ``medium``: the closest in cost to the hand-designed reference.

    ``objective`` names the cost axis: ``"params"`` (default, the paper's
    rule) or any metrics key a hardware-aware sweep annotated
    (``"latency_ms"``, ``"energy_mj"``, …), with ``reference`` the
    reference network's value on that axis.  Points that do not carry the
    requested objective are ignored.
    """
    scored = [(p, objective_value(p, objective)) for p in points]
    scored = [(p, v) for p, v in scored if v is not None]
    if not scored:
        raise ValueError(
            f"no DSE points carry the {objective!r} objective to select from")
    small = min(scored, key=lambda pv: pv[1])[0]
    large = max(scored, key=lambda pv: pv[1])[0]
    medium = min(scored, key=lambda pv: abs(pv[1] - reference))[0]
    return {"small": small, "medium": medium, "large": large}
