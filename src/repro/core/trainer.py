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

The schedule is written once, as the phase list of :func:`pit_phases`;
:func:`repro.core.driver.run_phases` runs it over one lane here and over
M lanes in :class:`repro.core.StackedPITTrainer`.  :func:`train_plain`
(the No-NAS reference of Fig. 5 and the ProxylessNAS fine-tune) is the
same driver over a one-phase list; :func:`evaluate` is its eval loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..autograd import Tensor
from ..nn.module import Module
from .checkpoint import TrainerCheckpoint
from .driver import (
    DivergedError,
    LossFn,
    Outcome,
    Phase,
    SingleLane,
    evaluate,
    make_training_step,
    PointTimeout,
    phase_end,
    run_phases,
)
from .export import effective_parameters, network_dilations
from .regularizer import (channel_regularizer, flops_regularizer, pit_layers,
                          size_regularizer)

__all__ = ["PITResult", "PITTrainer", "train_plain", "evaluate",
           "TrainResult", "DivergedError", "PointTimeout",
           "make_training_step"]


@dataclass
class TrainResult:
    """Outcome of a plain (no-NAS) training run.

    ``resumed_epochs`` counts the epochs this run *skipped* by resuming a
    mid-run checkpoint (0 for an uninterrupted run).
    """
    best_val: float
    epochs: int
    seconds: float
    history: List[Tuple[float, float]] = field(default_factory=list)
    resumed_epochs: int = 0


def train_plain(model: Module, loss_fn: LossFn, train_loader, val_loader,
                epochs: int = 50, lr: float = 1e-3, patience: int = 10,
                checkpoint_dir: Optional[str] = None,
                checkpoint_every: Optional[int] = None,
                checkpoint_tag: str = "train",
                checkpoint_resume: bool = True) -> TrainResult:
    """Standard training with early stopping and best-state restore.

    With ``checkpoint_dir`` set, the complete training state (model,
    Adam moments/counters, RNG streams, early-stop state) is snapshotted
    every ``checkpoint_every`` epochs under ``<dir>/<tag>.ckpt``; a
    run killed at an epoch boundary and restarted resumes from there
    bit-identically (see :mod:`repro.core.checkpoint`).
    """
    ckpt = TrainerCheckpoint.create(checkpoint_dir, checkpoint_tag,
                                    every=checkpoint_every,
                                    resume=checkpoint_resume)
    out = run_phases(
        SingleLane(model, loss_fn, train_loader, val_loader),
        [Phase("plain", epochs, lr, params="all", patience=patience,
               keep_best=True, log_train=True)],
        kind="plain", checkpoints=[ckpt] if ckpt else None)
    history = out.histories[0]
    return TrainResult(best_val=out.best[0], epochs=out.ran["plain"][0],
                       seconds=out.seconds.get("plain", 0.0),
                       history=list(zip(history["plain_train"],
                                        history["plain_val"])),
                       resumed_epochs=out.resumed_epochs)


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
    resumed_epochs: int = 0

    @property
    def total_seconds(self) -> float:
        return self.warmup_seconds + self.prune_seconds + self.finetune_seconds


def pit_phases(trainer) -> List[Phase]:
    """Algorithm 1 as a phase list, from a PIT trainer's schedule."""
    return [
        Phase("warmup", trainer.warmup_epochs, trainer.lr),
        Phase("prune", trainer.max_prune_epochs, trainer.lr,
              gamma_lr=trainer.gamma_lr, regularized=True,
              patience=trainer.prune_patience),
        Phase("finetune", trainer.finetune_epochs, trainer.lr, freeze=True,
              patience=trainer.finetune_patience, keep_best=True),
    ]


def pit_result(out: Outcome, lane: int, model: Module) -> PITResult:
    """One lane's :class:`PITResult`; ``model`` holds that lane's state."""
    seconds, ran = out.seconds, out.ran
    return PITResult(
        dilations=network_dilations(model),
        best_val=out.best[lane],
        effective_params=effective_parameters(model),
        warmup_seconds=seconds.get("warmup", 0.0),
        prune_seconds=seconds.get("prune", 0.0),
        finetune_seconds=seconds.get("finetune", 0.0),
        warmup_epochs=ran["warmup"][lane],
        prune_epochs=ran["prune"][lane],
        finetune_epochs=ran["finetune"][lane],
        history=out.histories[lane],
        resumed_epochs=out.resumed_epochs,
    )


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
    checkpoint_dir / checkpoint_every / checkpoint_tag / checkpoint_resume:
        With ``checkpoint_dir`` set, :meth:`fit` snapshots the complete
        training state every ``checkpoint_every`` epochs (counting
        globally across all three phases) to
        ``<dir>/<tag>.ckpt`` and — unless ``checkpoint_resume`` is
        False — resumes from that file when it exists, bit-identically
        to the uninterrupted run (see :mod:`repro.core.checkpoint`).
    """

    def __init__(self, model: Module, loss_fn: LossFn, lam: float,
                 lr: float = 1e-3, gamma_lr: Optional[float] = None,
                 warmup_epochs: int = 5, prune_patience: int = 5,
                 max_prune_epochs: int = 50, finetune_epochs: int = 30,
                 finetune_patience: int = 10, regularizer: str = "size",
                 channel_lam: float = 0.0, verbose: bool = False,
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
        self.verbose = verbose
        self._checkpoint = TrainerCheckpoint.create(
            checkpoint_dir, checkpoint_tag, every=checkpoint_every,
            resume=checkpoint_resume)
        if not pit_layers(model):
            raise ValueError("model contains no searchable (PITConv1d) layers")

    def _regularizer_term(self) -> Tensor:
        if self.regularizer == "size":
            term = size_regularizer(self.model, self.lam)
        else:
            term = flops_regularizer(self.model, self.lam)
        if self.channel_lam:
            term = term + channel_regularizer(self.model, self.channel_lam)
        return term

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[PIT] {message}")

    def _phase_done(self, name: str, out: Outcome) -> None:
        if name == "warmup":
            val = out.histories[0]["warmup_val"][-1]
            self._log(f"warmup done, val={val:.4f}")
        elif name == "prune":
            ended = phase_end(out.ran["prune"][0], self.max_prune_epochs)
            self._log(f"pruning {ended}, "
                      f"dilations={network_dilations(self.model)}")

    def fit(self, train_loader, val_loader) -> PITResult:
        """Run warmup → pruning → fine-tuning; return the search outcome.

        With checkpointing configured (``checkpoint_dir=``), the complete
        training state is snapshotted at (global) epoch boundaries and an
        existing snapshot is resumed: the remaining epochs replay
        bit-identically — losses, params, full Adam state — to the run
        that was never interrupted.  A stacked lane's file is adopted too,
        bit for bit (a stopped lane's file holds its stop-epoch state).
        Resume assumes the same trainer configuration and data as the run
        that wrote the snapshot.
        """
        lanes = SingleLane(self.model, self.loss_fn, train_loader,
                           val_loader, self._regularizer_term, pit_layers(self.model))
        out = run_phases(
            lanes, pit_phases(self), kind="pit",
            checkpoints=[self._checkpoint] if self._checkpoint else None,
            log=self._log,
            on_phase_end=self._phase_done)
        self._log(f"fine-tuning done, best val={out.best[0]:.4f}")
        return pit_result(out, 0, self.model)
