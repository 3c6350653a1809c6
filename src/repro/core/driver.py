"""One driver for every training schedule: phases run over 1 or M lanes.

Paper Algorithm 1 is one schedule — warmup, prune until convergence,
freeze the masks and fine-tune — and plain training is a one-phase
schedule.  A :class:`Phase` declares only what differs between phases;
:func:`run_phases` runs a phase list over *lanes*.  One lane is a model
on its streaming ``DataLoader`` (:class:`SingleLane`, used by
:class:`repro.core.PITTrainer` and :func:`repro.core.train_plain`); M
lanes are a :class:`repro.nn.StackedModel` on per-lane epoch-replay
views (:class:`repro.core.stacked.StackLanes`).

The driver alone owns what every schedule repeats: the optimizer, the
per-batch ``zero_grad → step → clip → Adam.step`` loop, the non-finite
guards, per-lane early stopping, checkpoint load / adopt / save with the
``crash@epoch`` fault site, and the phase seconds, histories and
``compile_stats``.  A lane that stops early is masked out (``active``),
keeps its stop-epoch snapshot and gets it back at the phase end; its
checkpoint file stores that snapshot, so every lane file holds exactly
the state its sequential run would — a one-lane run adopts any lane's
file of a stack.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import Tensor
from ..autograd.graph import CompiledStep
from ..nn.eval_utils import mean_loss_over_loader
from ..nn.module import Module
from ..optim import Adam, EarlyStopping, clip_grad_norm
from ..testing import faults
from .checkpoint import (
    TrainerCheckpoint,
    capture_rngs,
    fast_forward_loader,
    loader_rng_map,
    module_rng_map,
    optimizer_arrays,
    restore_optimizer,
    restore_rngs,
    restore_stopper,
    stopper_arrays,
)
from .export import effective_parameters

__all__ = ["DivergedError", "Phase", "Outcome", "SingleLane", "run_phases",
           "evaluate", "make_training_step"]

LossFn = Callable[[Tensor, Tensor], Tensor]


class DivergedError(RuntimeError):
    """Training produced a non-finite loss (NaN/Inf) — the run is lost.

    Raised by the epoch guards of :func:`run_phases`.  Typed so callers
    with a recovery story (the DSE engine's per-point isolation turns it
    into a failed ``DSEPoint``) can tell divergence — permanent, never
    worth a retry — from transient infrastructure failures, which are.
    """


def _guard_finite(values: np.ndarray, active: Sequence[bool],
                  what: str) -> None:
    """Raise :class:`DivergedError` when an active lane's loss is NaN/Inf.

    Early stopping treats NaN as "no improvement" and would keep burning
    epochs on garbage gradients, so the run stops *now* with a diagnosis.
    """
    bad = [i for i, flag in enumerate(active)
           if flag and not np.isfinite(values[i])]
    if bad:
        lanes = ", ".join(f"lane {i}: {float(values[i])!r}" for i in bad)
        raise DivergedError(
            f"{what} is non-finite ({lanes}); training diverged")


def evaluate(model: Module, loss_fn: LossFn, loader) -> float:
    """Mean task loss over a data loader, in evaluation mode, no gradients."""
    return mean_loss_over_loader(
        model, loader, loss_fn,
        empty_message="evaluation loader produced no batches")


def _step_function(model: Module, loss_fn: LossFn,
                   extra_loss: Optional[Callable[[], Tensor]] = None):
    """The canonical training-step graph: loss first, task loss second."""
    def step_fn(x: Tensor, y: Tensor):
        task_loss = loss_fn(model(x), y)
        loss = task_loss if extra_loss is None else task_loss + extra_loss()
        return loss, task_loss
    return step_fn


def make_training_step(model: Module, loss_fn: LossFn,
                       extra_loss: Optional[Callable[[], Tensor]] = None
                       ) -> CompiledStep:
    """Build the per-batch step runner: ``step(x, y) -> (loss, task_loss)``.

    The runner computes the (optionally regularized) loss, backpropagates
    it into the parameters' ``.grad``, and returns both loss values as
    floats.  The step is traced on first use and replayed through the
    :mod:`repro.autograd.graph` executor: results bit-identical to eager
    autograd, no per-batch graph construction.
    """
    return CompiledStep(_step_function(model, loss_fn, extra_loss))


@dataclass(frozen=True)
class Phase:
    """One phase of a schedule.

    ``params`` is ``"weights"`` (every parameter but the γ̂ masks) or
    ``"all"`` (one group of every parameter); ``gamma_lr`` adds the γ̂
    masks to ``"weights"`` as a second group at that rate, without weight
    decay.  ``regularized`` adds the lanes' regularizer to the loss;
    ``freeze`` fixes the masks before the phase starts.  ``patience``
    turns on per-lane early stopping; ``keep_best`` restores each lane's
    best-validation state at the phase end.  Histories record
    ``<name>_val`` every epoch, plus ``<name>_params`` (effective
    parameters) when regularized and ``<name>_train`` with ``log_train``.
    """
    name: str
    epochs: int
    lr: float
    params: str = "weights"
    gamma_lr: Optional[float] = None
    weight_decay: float = 0.0
    regularized: bool = False
    freeze: bool = False
    patience: Optional[int] = None
    keep_best: bool = False
    log_train: bool = False

    def history_keys(self) -> List[str]:
        keys = [f"{self.name}_train"] if self.log_train else []
        keys.append(f"{self.name}_val")
        if self.regularized:
            keys.append(f"{self.name}_params")
        return keys


@dataclass
class Outcome:
    """What a schedule produced: per lane ``histories``, epochs run per
    phase (``ran[phase][lane]``) and ``best`` (the last phase's best
    validation loss, else one evaluation); shared wall-clock ``seconds``
    and ``compile_stats`` per phase, and the global epochs resumed past."""
    histories: List[Dict[str, List[float]]]
    ran: Dict[str, List[int]]
    best: List[float]
    seconds: Dict[str, float] = field(default_factory=dict)
    compile_stats: Dict[str, Dict] = field(default_factory=dict)
    resumed_epochs: int = 0


class SingleLane:
    """One model on its streaming loaders — the sequential lane.

    Every lane set exposes ``m``, ``net`` (the trained module), ``active``
    (the per-lane training mask, written by the driver), ``loaders`` (its
    streaming loaders by role), ``sliced`` (optimizer state carries the
    lane axis), ``searchable`` (the layers a freezing phase freezes),
    ``clip`` and the per-lane methods below.
    ``regularizer`` is the extra loss term of regularized phases.
    """
    m = 1
    sliced = False
    clip = staticmethod(clip_grad_norm)

    def __init__(self, model: Module, loss_fn: LossFn, train_loader,
                 val_loader,
                 regularizer: Optional[Callable[[], Tensor]] = None,
                 searchable: Sequence[Module] = ()):
        self.net = model
        self.loss_fn = loss_fn
        self.loaders = {"train": train_loader, "val": val_loader}
        self.regularizer = regularizer
        self.searchable = list(searchable)
        self.active = np.ones(1)

    def make_step(self, regularized: bool):
        return make_training_step(
            self.net, self.loss_fn,
            self.regularizer if regularized else None)

    def batches(self, cursors, active):
        return self.loaders["train"]

    def validate(self, cursors, active) -> np.ndarray:
        return np.array([evaluate(self.net, self.loss_fn,
                                  self.loaders["val"])])

    def state(self, i: int) -> Dict[str, np.ndarray]:
        return self.net.state_dict()

    def load_state(self, i: int, state: Dict[str, np.ndarray]) -> None:
        self.net.load_state_dict(state)

    def rng_map(self, i: int) -> Dict[str, np.random.Generator]:
        return {**module_rng_map(self.net), **loader_rng_map(**self.loaders)}

    def effective_params(self, i: int) -> int:
        return effective_parameters(self.net)


def phase_end(ran: int, cap: int) -> str:
    """How an early-stopping phase ended after ``ran`` of its ``cap``
    epochs, for the trainers' logs: only a stop before the cap is
    convergence."""
    return (f"converged after {ran} epochs" if ran < cap
            else f"reached the {cap}-epoch cap")


def _optimizer(lanes, phase: Phase) -> Adam:
    named = list(lanes.net.named_parameters())
    if phase.params == "all":
        return Adam([p for _, p in named], lr=phase.lr,
                    weight_decay=phase.weight_decay)
    weights = [p for name, p in named if not name.endswith("gamma_hat")]
    gammas = [p for name, p in named if name.endswith("gamma_hat")]
    if phase.gamma_lr is None or not gammas:
        return Adam(weights, lr=phase.lr, weight_decay=phase.weight_decay)
    return Adam([{"params": weights, "lr": phase.lr},
                 {"params": gammas, "lr": phase.gamma_lr,
                  "weight_decay": 0.0}],
                lr=phase.lr, weight_decay=phase.weight_decay)


def _load(checkpoints: Optional[Sequence[TrainerCheckpoint]], kind: str,
          m: int, phases: Sequence[str]):
    """Every lane's snapshot, or None for a fresh start.

    A missing or foreign file starts fresh; a stack additionally needs
    each file to be its own lane's.  Every lane must agree on (phase,
    global epoch): a crash *between* per-lane writes leaves a torn set,
    which warns and starts fresh rather than resuming lanes at different
    epochs.  A single lane adopts any lane's file of a stack.
    """
    if not checkpoints:
        return None
    states = [ckpt.load() for ckpt in checkpoints]
    if any(s is None or s.meta.get("trainer") != kind
           or s.meta.get("phase") not in phases
           or (m > 1 and s.meta.get("lane") != {"m": m, "index": i})
           for i, s in enumerate(states)):
        return None
    if len({(s.meta.get("phase"), s.meta.get("global_epoch"))
            for s in states}) != 1:
        warnings.warn("checkpoint set is torn (lanes disagree on "
                      "phase/epoch); starting fresh")
        return None
    return states


def run_phases(lanes, phases: Sequence[Phase], *, kind: str,
               checkpoints: Optional[Sequence[TrainerCheckpoint]] = None,
               grad_clip: Optional[float] = None,
               log: Callable[[str], None] = lambda message: None,
               on_phase_end: Callable[[str, Outcome], None]
               = lambda name, outcome: None) -> Outcome:
    """Run ``phases`` over ``lanes``; resume from ``checkpoints`` if valid.

    ``checkpoints`` holds one file per lane, written at global-epoch
    boundaries when due and tagged ``kind`` so a schedule never adopts
    another schedule's file.  A resumed run replays the remaining epochs
    bit-identically to the uninterrupted run, given the same schedule and
    data.  A phase with no epochs only freezes (if it does).
    ``on_phase_end`` follows every phase that ran in this process.
    """
    m = lanes.m
    names = [phase.name for phase in phases]
    states = _load(checkpoints, kind, m, names)
    meta = states[0].meta if states else {}
    start = names.index(meta["phase"]) if states else 0
    ge = int(meta.get("global_epoch", 0))
    out = Outcome(
        histories=([s.meta["history"] for s in states] if states else
                   [{key: [] for phase in phases
                     for key in phase.history_keys()} for _ in range(m)]),
        ran={name: [int(s.meta["ran"].get(name, 0)) for s in states]
             if states else [0] * m for name in names},
        best=[],
        seconds={k: float(v) for k, v in meta.get("seconds", {}).items()},
        resumed_epochs=ge)
    cursors = [int(s.meta["cursor"]) for s in states] if states else [0] * m
    if states:
        where = checkpoints[0].path if m == 1 else f"{m} lane files"
        log(f"resumed from {where} at phase {meta['phase']!r}, "
            f"global epoch {ge}")

    for index, phase in enumerate(phases):
        stoppers: Optional[List[EarlyStopping]] = None
        if phase.freeze:   # before any restore: the files carry the masks
            for layer in lanes.searchable:
                layer.freeze()
        if index < start or phase.epochs <= 0:
            continue
        t0 = time.perf_counter()
        base = out.seconds.get(phase.name, 0.0)
        optimizer = _optimizer(lanes, phase)
        if phase.patience is not None:
            stoppers = [EarlyStopping(patience=phase.patience, mode="min")
                        for _ in range(m)]
        active = lanes.active
        active[...] = 1.0
        snapshots: List[Optional[Dict[str, np.ndarray]]] = [None] * m
        if states and index == start:
            for i, state in enumerate(states):
                lanes.load_state(i, state.group("model/"))
                restore_optimizer(optimizer, state.arrays,
                                  slice_index=i if lanes.sliced else None)
                rngs = state.meta.get("rngs", {})
                restore_rngs(lanes.rng_map(i), rngs)
                # A stack lane's file has no loader streams (stacks train
                # from replay views): advance those positionally instead.
                for role, loader in lanes.loaders.items():
                    if f"loader/{role}" not in rngs:
                        fast_forward_loader(loader, cursors[i])
                if stoppers is not None:
                    restore_stopper(stoppers[i], state.arrays)
                    if stoppers[i].should_stop:
                        active[i] = 0.0
                        snapshots[i] = state.group("model/")
        step = lanes.make_step(phase.regularized)
        ran = out.ran[phase.name]
        epoch = max(ran)   # the lanes that never stopped ran every epoch
        while epoch < phase.epochs and active.any():
            lanes.net.train()
            totals, batches = np.zeros(m), 0
            for x, y in lanes.batches(cursors, active):
                optimizer.zero_grad()
                _, task = step(x, y)
                if grad_clip is not None:
                    lanes.clip(optimizer.params, grad_clip)
                optimizer.step()
                totals += np.asarray(task, dtype=np.float64)
                batches += 1
            if batches == 0:
                raise ValueError("training loader produced no batches")
            train = totals / batches
            if faults.fire("nan_loss") is not None:
                train[:] = np.nan
            _guard_finite(train, active, "epoch training loss")
            val = lanes.validate(cursors, active)
            _guard_finite(val, active, f"{phase.name} validation loss")
            for i in range(m):
                if not active[i]:
                    continue
                history = out.histories[i]
                if phase.log_train:
                    history[f"{phase.name}_train"].append(float(train[i]))
                history[f"{phase.name}_val"].append(float(val[i]))
                if phase.regularized:
                    history[f"{phase.name}_params"].append(
                        float(lanes.effective_params(i)))
                ran[i] += 1
                cursors[i] += 1
                if stoppers is None:
                    continue
                stoppers[i].update(
                    float(val[i]),
                    state=lanes.state(i) if phase.keep_best else None)
                if stoppers[i].should_stop:
                    active[i] = 0.0
                    snapshots[i] = lanes.state(i)
            epoch += 1
            ge += 1
            if checkpoints and checkpoints[0].due(ge):
                seconds = {**out.seconds,
                           phase.name: base + (time.perf_counter() - t0)}
                for i, ckpt in enumerate(checkpoints):
                    state = (snapshots[i] if snapshots[i] is not None
                             else lanes.state(i))
                    arrays = {f"model/{k}": v for k, v in state.items()}
                    arrays.update(optimizer_arrays(
                        optimizer, slice_index=i if lanes.sliced else None))
                    if stoppers is not None:
                        arrays.update(stopper_arrays(stoppers[i]))
                    ckpt.save(arrays, {
                        "trainer": kind, "phase": phase.name,
                        "global_epoch": ge,
                        "ran": {name: r[i] for name, r in out.ran.items()},
                        "history": out.histories[i], "seconds": seconds,
                        "rngs": capture_rngs(lanes.rng_map(i)),
                        "cursor": cursors[i],
                        "lane": {"m": m, "index": i},
                    })
            # After the save: an injected kill leaves durable state behind.
            faults.crash_at_epoch(ge)
        for i in range(m):
            if (phase.keep_best and stoppers is not None
                    and stoppers[i].best_state is not None):
                lanes.load_state(i, stoppers[i].best_state)
            elif snapshots[i] is not None:
                lanes.load_state(i, snapshots[i])
        active[...] = 1.0
        out.compile_stats[phase.name] = step.diagnostics()
        out.seconds[phase.name] = base + (time.perf_counter() - t0)
        on_phase_end(phase.name, out)

    if stoppers is None:   # the last phase tracked no best: evaluate once
        out.best = [float(v) for v in lanes.validate(cursors, [True] * m)]
    else:
        out.best = [float(stopper.best) for stopper in stoppers]
    return out
