"""PIT's three-phase training procedure (paper Algorithm 1).

Phase 1 — *warmup*: γ̂ initialized to 1 (all masks fully on); only the
weights train, on the plain task loss, for ``warmup_epochs``.

Phase 2 — *pruning*: weights and γ̂ train concurrently on
``L_PIT = L_perf(W) + L_R(γ)`` (Eq. 7); the loop runs until the validation
task loss stops improving (patience-based convergence) or a hard epoch cap.

Phase 3 — *fine-tuning*: γ are frozen at their latest binarized values and
the resulting dilated network fine-tunes on the task loss alone; the best
validation state is restored at the end.

The paper notes both warmup and fine-tuning "significantly improve the
final accuracy" — the ablation bench exercises exactly that claim.

The module also provides :func:`train_plain` / :func:`evaluate`, the
vanilla loops used by the No-NAS reference of Fig. 5 and by the
ProxylessNAS baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.graph import CompileConfig, CompiledStep, EagerStep
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
from .export import effective_parameters, network_dilations
from .regularizer import flops_regularizer, pit_layers, size_regularizer

__all__ = ["PITResult", "PITTrainer", "train_plain", "evaluate",
           "TrainResult", "DivergedError", "make_training_step"]

LossFn = Callable[[Tensor, Tensor], Tensor]


class DivergedError(RuntimeError):
    """Training produced a non-finite loss (NaN/Inf) — the run is lost.

    Raised by the epoch/validation guards in this module and in
    :mod:`repro.core.stacked`.  Typed so callers with a recovery story
    (the DSE engine's per-point isolation turns it into a failed
    ``DSEPoint``) can tell divergence — permanent, never worth a retry —
    from transient infrastructure failures, which are.
    """


def _guard_finite(value: float, what: str) -> float:
    """Raise :class:`DivergedError` when a loss went NaN/Inf.

    A non-finite loss silently poisons everything downstream — early
    stopping treats NaN as "no improvement" and keeps training, gradients
    are already garbage — so the loop that produced it must stop *now*
    with a diagnosis instead of burning the remaining epochs.
    """
    if not np.isfinite(value):
        raise DivergedError(
            f"{what} is non-finite ({value!r}); training diverged")
    return value


def evaluate(model: Module, loss_fn: LossFn, loader) -> float:
    """Mean task loss over a data loader, in evaluation mode, no gradients."""
    return mean_loss_over_loader(
        model, loader, loss_fn,
        empty_message="evaluation loader produced no batches")


def _step_function(model: Module, loss_fn: LossFn,
                   extra_loss: Optional[Callable[[], Tensor]] = None):
    """The canonical training-step graph: loss first, task loss second."""
    def step_fn(x: Tensor, y: Tensor):
        pred = model(x)
        task_loss = loss_fn(pred, y)
        loss = task_loss if extra_loss is None else task_loss + extra_loss()
        return loss, task_loss
    return step_fn


def make_training_step(model: Module, loss_fn: LossFn,
                       extra_loss: Optional[Callable[[], Tensor]] = None,
                       compile_config: Optional[CompileConfig] = None):
    """Build the per-batch step runner: ``step(x, y) -> (loss, task_loss)``.

    The runner computes the (optionally regularized) loss, backpropagates
    it into the parameters' ``.grad``, and returns both loss values as
    floats.  ``compile_config`` (:class:`repro.autograd.graph.CompileConfig`)
    selects the execution path: with compilation on, the step is traced on
    first use and replayed through the optimized
    :mod:`repro.autograd.graph` executor — bit-identical results, no
    per-batch graph construction; unset, it defers to
    ``REPRO_COMPILE_STEP``.
    """
    step_fn = _step_function(model, loss_fn, extra_loss)
    if CompileConfig.resolve(compile_config).want_compile():
        return CompiledStep(step_fn)
    return EagerStep(step_fn)


def _train_epoch(model: Module, loss_fn: LossFn, optimizer, loader,
                 extra_loss: Optional[Callable[[], Tensor]] = None,
                 grad_clip: Optional[float] = None, step=None) -> float:
    """One optimization epoch; returns the mean (task-only) training loss.

    ``step`` is a runner from :func:`make_training_step`; passing one in
    lets a compiled step persist across the epochs of a training phase.
    When None, a fresh *eager* runner is built from the other arguments —
    a per-epoch temporary would re-trace every call, so compilation is
    only worthwhile through an explicit ``step``.
    """
    model.train()
    if step is None:
        step = make_training_step(model, loss_fn, extra_loss,
                                  compile_config=CompileConfig(
                                      compile_step=False))
    total, batches = 0.0, 0
    for x, y in loader:
        optimizer.zero_grad()
        _, task_value = step(x, y)
        if grad_clip is not None:
            clip_grad_norm(optimizer.params, grad_clip)
        optimizer.step()
        total += task_value
        batches += 1
    if batches == 0:
        raise ValueError("training loader produced no batches")
    # A NaN/Inf in any batch propagates into the epoch mean, so one guard
    # here covers both execution paths (eager and compiled).
    return _guard_finite(faults.poison_loss(total / batches),
                         "epoch training loss")


@dataclass
class TrainResult:
    """Outcome of a plain (no-NAS) training run.

    ``compile_stats`` holds :meth:`CompiledStep.diagnostics` for the run's
    step when the step was compiled (None for eager runs) — a plain dict so
    results stay picklable across DSE worker processes.
    ``resumed_epochs`` counts the epochs this run *skipped* by resuming a
    mid-run checkpoint (0 for an uninterrupted run).
    """
    best_val: float
    epochs: int
    seconds: float
    history: List[Tuple[float, float]] = field(default_factory=list)
    compile_stats: Optional[Dict] = None
    resumed_epochs: int = 0


def train_plain(model: Module, loss_fn: LossFn, train_loader, val_loader,
                epochs: int = 50, lr: float = 1e-3, patience: int = 10,
                grad_clip: Optional[float] = None,
                weight_decay: float = 0.0,
                compile_config: Optional[CompileConfig] = None,
                checkpoint_dir: Optional[str] = None,
                checkpoint_every: Optional[int] = None,
                checkpoint_tag: str = "train",
                checkpoint_resume: bool = True) -> TrainResult:
    """Standard training with early stopping and best-state restore.

    ``compile_config`` (:class:`repro.autograd.graph.CompileConfig`) turns
    on step compilation: the training step is traced once and replayed
    via the graph executor (bit-identical, faster); unset, it defers to
    ``REPRO_COMPILE_STEP``.

    With ``checkpoint_dir`` set, the complete training state (model,
    Adam moments/counters, RNG streams, early-stop state) is snapshotted
    every ``checkpoint_every`` epochs under ``<dir>/<tag>.ckpt.npz``; a
    run killed at an epoch boundary and restarted resumes from there
    bit-identically (see :mod:`repro.core.checkpoint`).
    """
    ckpt = TrainerCheckpoint.create(checkpoint_dir, checkpoint_tag,
                                    every=checkpoint_every,
                                    resume=checkpoint_resume)
    resume = ckpt.load() if ckpt is not None else None
    meta = resume.meta if resume is not None else {}
    if resume is not None and meta.get("trainer") != "plain":
        resume, meta = None, {}
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    stopper = EarlyStopping(patience=patience, mode="min")
    start = time.perf_counter()
    base_seconds = float(meta.get("seconds", {}).get("train", 0.0))
    history: List[Tuple[float, float]] = [
        (float(t), float(v)) for t, v in meta.get("history", [])]
    ran = int(meta.get("counters", {}).get("ran", 0))
    resumed = ran
    rng_map = {**module_rng_map(model),
               **loader_rng_map(train=train_loader, val=val_loader)}
    if resume is not None:
        model.load_state_dict(resume.group("model/"))
        restore_optimizer(optimizer, resume.arrays)
        restore_stopper(stopper, resume.arrays)
        restore_rngs(rng_map, meta.get("rngs", {}))
    step = make_training_step(model, loss_fn, compile_config=compile_config)
    for _ in range(ran, epochs):
        if stopper.should_stop:
            break  # checkpoint was taken on the converged epoch
        train_loss = _train_epoch(model, loss_fn, optimizer, train_loader,
                                  grad_clip=grad_clip, step=step)
        val_loss = _guard_finite(evaluate(model, loss_fn, val_loader),
                                 "validation loss")
        history.append((train_loss, val_loss))
        ran += 1
        stopper.update(val_loss, state=model.state_dict())
        if ckpt is not None and ckpt.due(ran):
            arrays = {f"model/{k}": v for k, v in model.state_dict().items()}
            arrays.update(optimizer_arrays(optimizer))
            arrays.update(stopper_arrays(stopper))
            ckpt.save(arrays, {
                "trainer": "plain", "phase": "train", "global_epoch": ran,
                "counters": {"ran": ran}, "history": history,
                "seconds": {"train": base_seconds
                            + (time.perf_counter() - start)},
                "rngs": capture_rngs(rng_map),
                "loader_epochs": {"train": ran, "val": ran},
            })
        faults.crash_at_epoch(ran)
        if stopper.should_stop:
            break
    if stopper.best_state is not None:
        model.load_state_dict(stopper.best_state)
    best = (float(stopper.best) if stopper.best is not None
            else evaluate(model, loss_fn, val_loader))
    return TrainResult(best_val=best, epochs=ran,
                       seconds=base_seconds + (time.perf_counter() - start),
                       history=history,
                       compile_stats=_compile_stats(step),
                       resumed_epochs=resumed)


def _compile_stats(step) -> Optional[Dict]:
    """Diagnostics dict for a compiled step, None otherwise (picklable)."""
    if not isinstance(step, CompiledStep):
        return None
    return step.diagnostics()


@dataclass
class PITResult:
    """Everything the benchmarks need from one PIT run.

    ``resumed_epochs`` counts the (global) epochs this run skipped by
    resuming a mid-run checkpoint — 0 for an uninterrupted run; the DSE
    engine sums it into ``last_run_stats["resumed_epochs"]``.
    """
    dilations: Tuple[int, ...]
    best_val: float
    effective_params: int
    warmup_seconds: float
    prune_seconds: float
    finetune_seconds: float
    warmup_epochs: int
    prune_epochs: int
    finetune_epochs: int
    history: Dict[str, List[float]] = field(default_factory=dict)
    compile_stats: Dict[str, Dict] = field(default_factory=dict)
    resumed_epochs: int = 0

    @property
    def total_seconds(self) -> float:
        return self.warmup_seconds + self.prune_seconds + self.finetune_seconds


class PITTrainer:
    """Runs Algorithm 1 on a model containing :class:`PITConv1d` layers.

    Parameters
    ----------
    model:
        Seed network with PIT layers (γ̂ initialized to 1, i.e. d=1).
    loss_fn:
        Task loss ``L_perf`` (e.g. :func:`repro.nn.polyphonic_nll`).
    lam:
        Regularization strength λ of Eq. 6.  The λ sweep is what produces
        the Pareto front of Fig. 4.
    warmup_epochs:
        Length of phase 1 ("Steps_wu"; shorter warmup biases the search
        toward simpler models, paper Sec. III-C).
    prune_patience / max_prune_epochs:
        Convergence criterion of the pruning loop.
    finetune_epochs / finetune_patience:
        Length / early stop of phase 3.
    regularizer:
        ``"size"`` (Eq. 6, the paper's choice) or ``"flops"``.
    compile_config:
        A :class:`repro.autograd.graph.CompileConfig`.  With
        ``compile_step=True`` each phase's training step is traced once and
        replayed through the optimized graph executor
        (:mod:`repro.autograd.graph`) — bit-identical losses/gradients/
        masks, no per-batch graph construction.  Each phase compiles its
        own step (the pruning phase adds the regularizer; fine-tuning
        freezes the masks, which constant folding collapses).  None defers
        to the ``REPRO_COMPILE_STEP`` environment default.
    checkpoint_dir / checkpoint_every / checkpoint_tag / checkpoint_resume:
        With ``checkpoint_dir`` set, :meth:`fit` snapshots the complete
        training state every ``checkpoint_every`` epochs (counting
        globally across all three phases) to
        ``<dir>/<tag>.ckpt.npz`` and — unless ``checkpoint_resume`` is
        False — resumes from that file when it exists, bit-identically
        to the uninterrupted run (see :mod:`repro.core.checkpoint`).
    """

    def __init__(self, model: Module, loss_fn: LossFn, lam: float,
                 lr: float = 1e-3, gamma_lr: Optional[float] = None,
                 warmup_epochs: int = 5, prune_patience: int = 5,
                 max_prune_epochs: int = 50, finetune_epochs: int = 30,
                 finetune_patience: int = 10, regularizer: str = "size",
                 channel_lam: float = 0.0,
                 grad_clip: Optional[float] = None, verbose: bool = False,
                 compile_config: Optional[CompileConfig] = None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_tag: str = "pit",
                 checkpoint_resume: bool = True):
        if regularizer not in ("size", "flops"):
            raise ValueError("regularizer must be 'size' or 'flops'")
        self.model = model
        self.loss_fn = loss_fn
        self.lam = lam
        self.lr = lr
        self.gamma_lr = gamma_lr if gamma_lr is not None else lr
        self.warmup_epochs = warmup_epochs
        self.prune_patience = prune_patience
        self.max_prune_epochs = max_prune_epochs
        self.finetune_epochs = finetune_epochs
        self.finetune_patience = finetune_patience
        self.regularizer = regularizer
        self.channel_lam = channel_lam
        self.grad_clip = grad_clip
        self.verbose = verbose
        # The environment default resolves at construction, so fit()
        # ignores later env flips.
        self.compile_step = CompileConfig.resolve(
            compile_config).want_compile()
        self.compile_config = CompileConfig(compile_step=self.compile_step)
        self._checkpoint = TrainerCheckpoint.create(
            checkpoint_dir, checkpoint_tag, every=checkpoint_every,
            resume=checkpoint_resume)
        if not self._searchable_layers():
            raise ValueError("model contains no searchable (PITConv1d / "
                             "PITChannelConv1d) layers")

    def _searchable_layers(self):
        from .channel_mask import channel_layers
        return pit_layers(self.model) + channel_layers(self.model)

    # ------------------------------------------------------------------
    def _split_params(self):
        gamma_params, weight_params = [], []
        for name, p in self.model.named_parameters():
            (gamma_params if name.endswith("gamma_hat") else weight_params).append(p)
        return weight_params, gamma_params

    def _regularizer_term(self) -> Tensor:
        if self.regularizer == "size":
            term = size_regularizer(self.model, self.lam)
        else:
            term = flops_regularizer(self.model, self.lam)
        if self.channel_lam:
            from .channel_mask import channel_regularizer
            term = term + channel_regularizer(self.model, self.channel_lam)
        return term

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[PIT] {message}")

    # ------------------------------------------------------------------
    _PHASES = ("warmup", "prune", "finetune")

    def _restore_into(self, resume, optimizer, stopper) -> None:
        """In-place restore of model / optimizer / stopper state.

        Parameters and the optimizer's moment arrays are written in place
        (``arr[...] =``), so anything aliasing them — a compiled step's
        captured leaves — keeps seeing the same storage.
        """
        self.model.load_state_dict(resume.group("model/"))
        restore_optimizer(optimizer, resume.arrays)
        if stopper is not None:
            restore_stopper(stopper, resume.arrays)

    def _save_boundary(self, phase: str, optimizer, stopper,
                       history: Dict, counters: Dict, seconds: Dict,
                       rng_map: Dict) -> None:
        """One global-epoch boundary: persist the snapshot (when due),
        then hit the ``crash@epoch=K`` fault site — after the save, so an
        injected kill simulates preemption with durable state on disk."""
        self._global_epoch += 1
        ge = self._global_epoch
        ckpt = self._checkpoint
        if ckpt is not None and ckpt.due(ge):
            arrays = {f"model/{name}": arr
                      for name, arr in self.model.state_dict().items()}
            arrays.update(optimizer_arrays(optimizer))
            if stopper is not None:
                arrays.update(stopper_arrays(stopper))
            ckpt.save(arrays, {
                "trainer": "pit", "phase": phase, "global_epoch": ge,
                "counters": {k: int(v) for k, v in counters.items()},
                "history": history, "seconds": seconds,
                "rngs": capture_rngs(rng_map),
                "loader_epochs": {"train": ge, "val": ge},
            })
        faults.crash_at_epoch(ge)

    def fit(self, train_loader, val_loader) -> PITResult:
        """Run warmup → pruning → fine-tuning; return the search outcome.

        With checkpointing configured (``checkpoint_dir=``), the complete
        training state is snapshotted at (global) epoch boundaries and an
        existing snapshot is resumed: the remaining epochs replay
        bit-identically — losses, params, full Adam state — to the run
        that was never interrupted.  Resume assumes the same trainer
        configuration and data as the run that wrote the snapshot.
        """
        ckpt = self._checkpoint
        resume = ckpt.load() if ckpt is not None else None
        meta = resume.meta if resume is not None else {}
        if resume is not None and meta.get("trainer") != "pit":
            resume, meta = None, {}
        phase_at = (self._PHASES.index(meta["phase"])
                    if meta.get("phase") in self._PHASES else -1)
        counters: Dict[str, int] = {
            k: int(v) for k, v in meta.get("counters", {}).items()}
        seconds: Dict[str, float] = {
            k: float(v) for k, v in meta.get("seconds", {}).items()}
        history: Dict[str, List[float]] = meta.get("history") or {
            "warmup_val": [], "prune_val": [], "finetune_val": [],
            "prune_params": [],
        }
        self._global_epoch = int(meta.get("global_epoch", 0))
        resumed_epochs = self._global_epoch
        compile_stats: Dict[str, Dict] = {}
        weight_params, gamma_params = self._split_params()
        rng_map = {**module_rng_map(self.model),
                   **loader_rng_map(train=train_loader, val=val_loader)}
        if resume is not None:
            saved_rngs = meta.get("rngs", {})
            restore_rngs(rng_map, saved_rngs)
            # Shuffling streams the snapshot has no RNG state for (a
            # stacked slice's file: the stack trains from replay views,
            # not these streams) advance positionally instead.
            loader_epochs = meta.get("loader_epochs", {})
            for role, loader in (("train", train_loader),
                                 ("val", val_loader)):
                if (getattr(loader, "shuffle", False)
                        and f"loader/{role}" not in saved_rngs):
                    fast_forward_loader(
                        loader, int(loader_epochs.get(role, 0)))
            self._log(f"resumed from {ckpt.path} at phase "
                      f"{meta.get('phase')!r}, global epoch "
                      f"{self._global_epoch}")

        # ---------------- Phase 1: warmup (weights only) ----------------
        start = time.perf_counter()
        warmup_base = seconds.get("warmup", 0.0)
        warmup_ran = counters.get("warmup_ran", 0)
        warmup_seconds = warmup_base
        if self.warmup_epochs > 0 and phase_at <= 0:
            optimizer = Adam(weight_params, lr=self.lr)
            if resume is not None and phase_at == 0:
                self._restore_into(resume, optimizer, None)
            step = make_training_step(self.model, self.loss_fn,
                                      compile_config=self.compile_config)
            for _ in range(warmup_ran, self.warmup_epochs):
                _train_epoch(self.model, self.loss_fn, optimizer, train_loader,
                             grad_clip=self.grad_clip, step=step)
                history["warmup_val"].append(_guard_finite(
                    evaluate(self.model, self.loss_fn, val_loader),
                    "warmup validation loss"))
                warmup_ran += 1
                counters["warmup_ran"] = warmup_ran
                self._save_boundary(
                    "warmup", optimizer, None, history, counters,
                    {**seconds, "warmup": warmup_base
                     + (time.perf_counter() - start)}, rng_map)
            stats = _compile_stats(step)
            if stats is not None:
                compile_stats["warmup"] = stats
            self._log(f"warmup done, val={history['warmup_val'][-1]:.4f}")
            warmup_seconds = warmup_base + (time.perf_counter() - start)
        seconds["warmup"] = warmup_seconds

        # ---------------- Phase 2: pruning (weights + γ) ----------------
        start = time.perf_counter()
        prune_base = seconds.get("prune", 0.0)
        prune_ran = counters.get("prune_ran", 0)
        prune_seconds = prune_base
        if phase_at <= 1:
            groups = [{"params": weight_params, "lr": self.lr}]
            if gamma_params:
                groups.append({"params": gamma_params, "lr": self.gamma_lr,
                               "weight_decay": 0.0})
            optimizer = Adam(groups, lr=self.lr)
            stopper = EarlyStopping(patience=self.prune_patience, mode="min")
            if resume is not None and phase_at == 1:
                self._restore_into(resume, optimizer, stopper)
            step = make_training_step(self.model, self.loss_fn,
                                      extra_loss=self._regularizer_term,
                                      compile_config=self.compile_config)
            for _ in range(prune_ran, self.max_prune_epochs):
                if stopper.should_stop:
                    break  # resumed from the converged epoch's snapshot
                _train_epoch(self.model, self.loss_fn, optimizer, train_loader,
                             extra_loss=self._regularizer_term,
                             grad_clip=self.grad_clip, step=step)
                val_loss = _guard_finite(
                    evaluate(self.model, self.loss_fn, val_loader),
                    "pruning validation loss")
                history["prune_val"].append(val_loss)
                history["prune_params"].append(
                    float(effective_parameters(self.model)))
                prune_ran += 1
                counters["prune_ran"] = prune_ran
                stopper.update(val_loss)
                self._save_boundary(
                    "prune", optimizer, stopper, history, counters,
                    {**seconds, "prune": prune_base
                     + (time.perf_counter() - start)}, rng_map)
                if stopper.should_stop:
                    break
            stats = _compile_stats(step)
            if stats is not None:
                compile_stats["prune"] = stats
            prune_seconds = prune_base + (time.perf_counter() - start)
        seconds["prune"] = prune_seconds
        self._log(f"pruning converged after {prune_ran} epochs, "
                  f"dilations={network_dilations(self.model)}")

        # ---------------- Phase 3: freeze + fine-tune --------------------
        start = time.perf_counter()
        finetune_base = seconds.get("finetune", 0.0)
        finetune_ran = counters.get("finetune_ran", 0)
        for layer in self._searchable_layers():
            layer.freeze()
        optimizer = Adam(weight_params, lr=self.lr)
        stopper = EarlyStopping(patience=self.finetune_patience, mode="min")
        if resume is not None and phase_at == 2:
            # freeze() first (it sets the frozen *flags*), restore second:
            # the snapshot's buffers carry the exact masks of the original
            # pruning outcome, overwriting what freeze() just computed
            # from this process's never-pruned γ̂.
            self._restore_into(resume, optimizer, stopper)
        # Fresh step: freezing changed the graph (masks became constants,
        # which the graph optimizer folds away entirely).
        step = make_training_step(self.model, self.loss_fn,
                                  compile_config=self.compile_config)
        for _ in range(finetune_ran, self.finetune_epochs):
            if stopper.should_stop:
                break  # resumed from the converged epoch's snapshot
            _train_epoch(self.model, self.loss_fn, optimizer, train_loader,
                         grad_clip=self.grad_clip, step=step)
            val_loss = _guard_finite(
                evaluate(self.model, self.loss_fn, val_loader),
                "fine-tuning validation loss")
            history["finetune_val"].append(val_loss)
            finetune_ran += 1
            counters["finetune_ran"] = finetune_ran
            stopper.update(val_loss, state=self.model.state_dict())
            self._save_boundary(
                "finetune", optimizer, stopper, history, counters,
                {**seconds, "finetune": finetune_base
                 + (time.perf_counter() - start)}, rng_map)
            if stopper.should_stop:
                break
        stats = _compile_stats(step)
        if stats is not None:
            compile_stats["finetune"] = stats
        if stopper.best_state is not None:
            self.model.load_state_dict(stopper.best_state)
        finetune_seconds = finetune_base + (time.perf_counter() - start)

        best_val = (float(stopper.best) if stopper.best is not None
                    else evaluate(self.model, self.loss_fn, val_loader))
        self._log(f"fine-tuning done, best val={best_val:.4f}")

        return PITResult(
            dilations=network_dilations(self.model),
            best_val=best_val,
            effective_params=effective_parameters(self.model),
            warmup_seconds=warmup_seconds,
            prune_seconds=prune_seconds,
            finetune_seconds=finetune_seconds,
            warmup_epochs=warmup_ran,
            prune_epochs=prune_ran,
            finetune_epochs=finetune_ran,
            history=history,
            compile_stats=compile_stats,
            resumed_epochs=resumed_epochs,
        )
