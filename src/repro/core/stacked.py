"""Stacked PIT search: M (λ, warmup) grid points trained in lockstep.

The DSE sweep of paper Fig. 4 trains the *same* seed architecture once per
λ value; only the loss scaling differs.  :class:`StackedPITTrainer` runs
Algorithm 1 on a whole group of grid points at once through a
:class:`repro.nn.StackedModel`: every parameter carries a leading model
axis ``(M, ...)``, every batch is stacked to ``(M, N, ...)``, and the
per-model losses are combined as::

    L = Σ_m  active_m · (L_perf(W_m) + λ_m · L_R(γ_m))

Model slices are mathematically independent, so the gradient of ``L``
w.r.t. slice ``m`` equals the gradient the sequential trainer would
compute for that grid point; the stack just executes all M of them per op
dispatch.  The schedule itself is the sequential trainer's phase list run
by :func:`repro.core.driver.run_phases` over M lanes (:class:`StackLanes`)
instead of one, which reproduces sequential *semantics* exactly (up to
floating-point reduction order — see ``tests/test_dse_stacked.py`` for the
locked tolerance): per-lane early stopping masks a converged model out of
the loss (``active_m = 0``) and freezes its dropout streams; each model
consumes its *own* epoch sequence of the loaders (via
:class:`repro.data.EpochReplayLoader`), so a model entering fine-tuning
after an early prune stop sees exactly the batches its sequential run
would have; Adam, gradient clipping and BatchNorm statistics are all
per-model on the stacked axis.

Stacking requires the model to be built from layers with registered
stacked counterparts and plain :class:`repro.data.DataLoader` loaders;
anything else raises :class:`repro.nn.StackingUnsupported` *before
training starts* and the DSE engine falls back to the sequential path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import (
    CompiledStep,
    Tensor,
    binarize_ste,
    concatenate,
    conv1d_causal_stacked,
    get_default_dtype,
    no_grad,
    where,
)
from ..data import EpochReplayLoader
from ..nn.losses import (
    bce_with_logits,
    huber_loss,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from ..nn.module import Module, Parameter
from ..nn.stacked import (
    StackContext,
    StackedModel,
    StackingUnsupported,
    register_slice_sync,
    register_stacked,
    stack_parameter,
)
from ..optim import clip_grads_stacked
from .checkpoint import TrainerCheckpoint, module_rng_map
from .driver import Outcome, phase_end, run_phases
from .masks import TimeMask, lag_gamma_indices
from .pit_conv import PITConv1d
from .regularizer import gamma_size_coefficients
from .trainer import PITResult, pit_phases, pit_result

__all__ = [
    "StackedTimeMask",
    "StackedPITConv1d",
    "stacked_regularizer_vector",
    "per_model_loss",
    "register_stacked_loss",
    "clip_grad_norm_stacked",
    "StackedPITTrainer",
]


# ----------------------------------------------------------------------
# Stacked searchable layers
# ----------------------------------------------------------------------

class StackedTimeMask(Module):
    """M independent :class:`TimeMask` instances on one ``(M, L-1)`` γ̂.

    ``forward`` returns the stacked lag mask ``(M, rf_max)``; binarization,
    the reversed cumulative Γ products and the lag scatter all act
    per-model along the leading axis.
    """

    def __init__(self, template: TimeMask, ctx: StackContext):
        super().__init__()
        self.m = ctx.m
        self.rf_max = template.rf_max
        self.length = template.length
        self.threshold = template.threshold
        self.gamma_hat = Parameter(
            stack_parameter(template.gamma_hat.data, ctx.m),
            name="stacked.pit.gamma_hat")
        self.register_buffer(
            "frozen_mask", stack_parameter(template.frozen_mask, ctx.m))
        self._lag_indices = lag_gamma_indices(template.rf_max)
        self.frozen = template.frozen

    # -- training-time mask -------------------------------------------------
    def forward(self) -> Tensor:
        if self.frozen:
            return Tensor(self.frozen_mask)
        if self.length == 1:
            return Tensor(np.ones((self.m, self.rf_max)))
        gamma_bin = binarize_ste(self.gamma_hat, self.threshold)  # (M, L-1)
        full_gamma = concatenate(
            [Tensor(np.ones((self.m, 1))), gamma_bin], axis=1)    # (M, L)
        cumulative = [full_gamma[:, 0:1]]
        for k in range(1, self.length):
            cumulative.append(cumulative[-1] * full_gamma[:, k:k + 1])
        big_gamma = concatenate(list(reversed(cumulative)), axis=1)  # (M, L)
        return big_gamma[:, self._lag_indices]                       # (M, rf)

    # -- per-model bookkeeping ----------------------------------------------
    def binary_gamma(self, index: int) -> np.ndarray:
        if self.length == 1:
            return np.ones(1)
        bits = (self.gamma_hat.data[index] >= self.threshold).astype(np.float64)
        return np.concatenate([[1.0], bits])

    def current_mask(self, index: int) -> np.ndarray:
        from .masks import mask_from_binary_gamma
        if self.frozen and self.frozen_mask.shape[1]:
            return self.frozen_mask[index].copy()
        return mask_from_binary_gamma(self.binary_gamma(index), self.rf_max)

    def current_dilation(self, index: int) -> int:
        from .masks import effective_dilation
        if self.frozen and self.frozen_mask.shape[1]:
            # Mirror TimeMask.current_dilation: a frozen mask is the
            # authority, even if γ̂ was restored out of sync with it.
            alive = np.nonzero(self.frozen_mask[index] >= 0.5)[0]
            gaps = np.diff(alive)
            return int(gaps[0]) if gaps.size else self.rf_max
        return effective_dilation(self.binary_gamma(index), self.rf_max)

    def freeze(self) -> None:
        """Fix all M masks at their current binary values."""
        masks = np.stack([self.current_mask(i) for i in range(self.m)])
        self.update_buffer("frozen_mask", masks)
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def __repr__(self) -> str:
        return (f"StackedTimeMask(M={self.m}, rf_max={self.rf_max}, "
                f"L={self.length}, frozen={self.frozen})")


class StackedPITConv1d(Module):
    """M searchable PIT convolutions sharing one stacked dispatch."""

    def __init__(self, template: PITConv1d, ctx: StackContext):
        super().__init__()
        self.m = ctx.m
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.rf_max = template.rf_max
        self.stride = template.stride
        self.weight = Parameter(stack_parameter(template.weight.data, ctx.m),
                                name="stacked.pitconv.weight")
        self.bias = (Parameter(stack_parameter(template.bias.data, ctx.m),
                               name="stacked.pitconv.bias")
                     if template.bias is not None else None)
        self.mask = StackedTimeMask(template.mask, ctx)
        self._flip_index = template._flip_index.copy()
        self._last_t_out: Optional[int] = None

    def forward(self, x: Tensor) -> Tensor:
        mask_lags = self.mask()                        # (M, rf_max), lag order
        mask_kernel = mask_lags[:, self._flip_index]   # kernel order
        masked_weight = self.weight * mask_kernel.reshape(
            self.m, 1, 1, self.rf_max)
        out = conv1d_causal_stacked(x, masked_weight, self.bias, dilation=1,
                                    stride=self.stride)
        self._last_t_out = out.shape[-1]
        return out

    def effective_params(self, index: int) -> int:
        """Post-export parameter count of model slice ``index`` (mirrors
        :meth:`PITConv1d.effective_params`)."""
        kept = int(self.mask.current_mask(index).sum())
        count = kept * self.in_channels * self.out_channels
        if self.bias is not None:
            count += self.out_channels
        return count

    def freeze(self) -> None:
        self.mask.freeze()

    def unfreeze(self) -> None:
        self.mask.unfreeze()

    def __repr__(self) -> str:
        return (f"StackedPITConv1d(M={self.m}, {self.in_channels}, "
                f"{self.out_channels}, rf_max={self.rf_max}, "
                f"s={self.stride})")


@register_stacked(PITConv1d)
def _stack_pit_conv(template: PITConv1d, ctx: StackContext) -> StackedPITConv1d:
    return StackedPITConv1d(template, ctx)


def _sync_mask_flags(stacked_net: Module, template: Module) -> None:
    """Mirror per-stack freeze flags onto the template's masks.

    Parameters and the ``frozen_mask`` buffers travel through the generic
    name-aligned slice sync; the boolean ``frozen`` flag is a plain
    attribute and needs this hook so a synced template reports the right
    dilations/params.
    """
    stacked_masks = [m for m in stacked_net.modules()
                     if isinstance(m, StackedTimeMask)]
    template_masks = [m for m in template.modules() if isinstance(m, TimeMask)]
    for source, target in zip(stacked_masks, template_masks):
        target.frozen = source.frozen


register_slice_sync(_sync_mask_flags)


# ----------------------------------------------------------------------
# Stacked regularizer (Eq. 6 with a per-model axis, λ applied by caller)
# ----------------------------------------------------------------------

def stacked_regularizer_vector(stacked: StackedModel,
                               kind: str = "size") -> Tensor:
    """Per-model regularizer values ``(M,)`` — Eq. 6 *without* the λ factor.

    ``kind="size"`` is the paper's model-size Lasso; ``"flops"`` multiplies
    each layer's term by its last recorded output length, mirroring
    :func:`repro.core.flops_regularizer`.  The caller applies its per-model
    λ vector (``λ ⊙ reg``), which is exactly where stacked grid points
    differ from each other.
    """
    terms: List[Tensor] = []
    for layer in stacked.net.modules():
        if not isinstance(layer, StackedPITConv1d):
            continue
        mask = layer.mask
        if mask.frozen or mask.length <= 1:
            continue
        coeffs = Tensor(gamma_size_coefficients(layer.rf_max))     # (L-1,)
        contribution = (coeffs * mask.gamma_hat.abs()).sum(axis=1)  # (M,)
        factor = float(layer.in_channels * layer.out_channels)
        if kind == "flops":
            factor *= float(layer._last_t_out or 1)
        terms.append(contribution * factor)
    if not terms:
        return Tensor(np.zeros(stacked.stack_size))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


# ----------------------------------------------------------------------
# Per-model losses
# ----------------------------------------------------------------------

def _tail_axes(t: Tensor) -> tuple:
    return tuple(range(1, t.ndim))


def _stacked_mse(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean(axis=_tail_axes(pred))


def _stacked_mae(pred: Tensor, target: Tensor) -> Tensor:
    return (pred - target).abs().mean(axis=_tail_axes(pred))


def _stacked_bce(logits: Tensor, targets: Tensor) -> Tensor:
    softplus = ((-logits.abs()).exp() + 1.0).log()
    per_element = logits.relu() - logits * targets + softplus
    return per_element.mean(axis=_tail_axes(logits))


def _stacked_polyphonic_nll(logits: Tensor, targets: Tensor) -> Tensor:
    softplus = ((-logits.abs()).exp() + 1.0).log()
    per_element = logits.relu() - logits * targets + softplus  # (M, N, 88, T)
    per_frame = per_element.sum(axis=2)                        # (M, N, T)
    return per_frame.mean(axis=(1, 2))


def _stacked_huber(pred: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    diff = (pred - target).abs()
    quadratic = 0.5 * diff * diff
    linear = delta * diff - 0.5 * delta * delta
    return where(diff <= delta, quadratic, linear).mean(axis=_tail_axes(pred))


#: loss_fn -> vectorized per-model variant returning an (M,) tensor.
_STACKED_LOSSES: Dict[Callable, Callable] = {
    mse_loss: _stacked_mse,
    mae_loss: _stacked_mae,
    bce_with_logits: _stacked_bce,
    polyphonic_nll: _stacked_polyphonic_nll,
    huber_loss: _stacked_huber,
}


def register_stacked_loss(loss_fn: Callable, stacked_fn: Callable) -> None:
    """Register a vectorized per-model variant of ``loss_fn``.

    ``stacked_fn(pred, target)`` receives stacked ``(M, N, ...)`` tensors
    and must return the ``(M,)`` vector of per-model losses.  Unregistered
    losses still work through a generic per-slice fallback — correct, just
    M small graphs instead of one vectorized reduction.
    """
    _STACKED_LOSSES[loss_fn] = stacked_fn


def per_model_loss(loss_fn: Callable, pred: Tensor, target: Tensor) -> Tensor:
    """``(M,)`` tensor of per-model task losses for stacked predictions."""
    fast = _STACKED_LOSSES.get(loss_fn)
    if fast is not None:
        return fast(pred, target)
    parts = [loss_fn(pred[i], target[i]).reshape(1)
             for i in range(pred.shape[0])]
    return concatenate(parts, axis=0)


def clip_grad_norm_stacked(params: Sequence[Parameter], max_norm: float
                           ) -> np.ndarray:
    """Per-model gradient clipping over stacked parameters.

    The sequential trainer clips each model's *global* gradient norm; on a
    stack that norm lives per slice: ``norm_m = ||(g_p[m])_p||_2``.  Slices
    are scaled independently, so no model's clipping decision leaks into
    another's — matching M separate :func:`repro.optim.clip_grad_norm`
    calls.  Returns the per-model pre-clipping norms.
    """
    return clip_grads_stacked([p.grad for p in params if p.grad is not None],
                              max_norm)


# ----------------------------------------------------------------------
# The lockstep trainer
# ----------------------------------------------------------------------

class StackedPITTrainer:
    """Algorithm 1 over M grid points at once (same warmup, per-model λ).

    Mirrors :class:`repro.core.PITTrainer`'s parameters with ``lams`` (a
    sequence) replacing ``lam``; :meth:`fit` returns one
    :class:`PITResult` per λ, index-aligned, semantically equivalent to M
    sequential ``PITTrainer(model_i, lam=lams[i], ...)`` runs (up to
    floating-point reduction order — batched kernels sum in different
    orders than per-model ones).

    Phase seconds in the results are the *stack's* wall clock (all models
    share it); per-model epoch counts, histories and early-stop points are
    exact.

    Raises :class:`repro.nn.StackingUnsupported` before any training when
    the model contains layers without stacked counterparts (channel masks,
    recurrent baselines, Proxyless value-dependent supernets) — callers
    fall back to the sequential path.
    """

    def __init__(self, model: Module, loss_fn, lams: Sequence[float],
                 lr: float = 1e-3, gamma_lr: Optional[float] = None,
                 warmup_epochs: int = 5, prune_patience: int = 5,
                 max_prune_epochs: int = 50, finetune_epochs: int = 30,
                 finetune_patience: int = 10, regularizer: str = "size",
                 channel_lam: float = 0.0,
                 grad_clip: Optional[float] = None, verbose: bool = False,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_tags: Optional[Sequence[str]] = None,
                 checkpoint_resume: bool = True):
        if regularizer not in ("size", "flops"):
            raise ValueError("regularizer must be 'size' or 'flops'")
        if len(lams) < 1:
            raise ValueError("lams must name at least one grid point")
        if channel_lam:
            raise StackingUnsupported(
                "channel-mask search (channel_lam != 0) has no stacked path")
        self.model = model
        self.loss_fn = loss_fn
        self.lams = [float(lam) for lam in lams]
        self.m = len(self.lams)
        self.lr = lr
        self.gamma_lr = gamma_lr if gamma_lr is not None else lr
        self.warmup_epochs = warmup_epochs
        self.prune_patience = prune_patience
        self.max_prune_epochs = max_prune_epochs
        self.finetune_epochs = finetune_epochs
        self.finetune_patience = finetune_patience
        self.regularizer = regularizer
        self.grad_clip = grad_clip
        self.verbose = verbose

        # Per-slice checkpoint files: each slice writes a self-contained,
        # template-shaped snapshot, so a stack's resume composes with
        # slicing (and a sequential trainer can adopt a slice's file).
        self._checkpoints: Optional[List[TrainerCheckpoint]] = None
        if checkpoint_dir:
            tags = (list(checkpoint_tags) if checkpoint_tags
                    else [f"stack{i}" for i in range(self.m)])
            if len(tags) != self.m:
                raise ValueError(
                    f"checkpoint_tags names {len(tags)} slices, "
                    f"trainer has {self.m}")
            self._checkpoints = [
                TrainerCheckpoint.create(checkpoint_dir, tag,
                                         every=checkpoint_every,
                                         resume=checkpoint_resume)
                for tag in tags]

        self.stacked = StackedModel(model, self.m)  # may raise StackingUnsupported
        self._pit_layers = [layer for layer in self.stacked.net.modules()
                            if isinstance(layer, StackedPITConv1d)]
        if not self._pit_layers:
            raise ValueError("model contains no searchable (PITConv1d) layers")
        # The non-searchable remainder of the effective-parameter count
        # (everything except PIT-layer params) is mask-independent and
        # identical across slices: count it once from the template.
        searchable_param_ids = set()
        for module in model.modules():
            if isinstance(module, PITConv1d):
                for _, p in module.named_parameters():
                    searchable_param_ids.add(id(p))
        self._fixed_param_count = sum(
            p.data.size for _, p in model.named_parameters()
            if id(p) not in searchable_param_ids)
        dtype = get_default_dtype()
        # Both live arrays are shared storage with their tensors: the λ
        # vector is a per-stack constant, the active mask is flipped by the
        # early-stopping bookkeeping and read by every (re)played step.
        self._lam_t = Tensor(np.asarray(self.lams, dtype=dtype))
        self._active_t = Tensor(self.stacked.active)

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[StackedPIT] {message}")

    def _phase_done(self, name: str, out: Outcome) -> None:
        if name == "warmup":
            self._log("warmup done, val="
                      f"{[h['warmup_val'][-1] for h in out.histories]}")
        elif name == "prune":
            self._log("pruning: " + "; ".join(
                f"lane {i} {phase_end(ran, self.max_prune_epochs)}"
                for i, ran in enumerate(out.ran["prune"])))

    def _make_step(self, with_reg: bool):
        stacked = self.stacked
        lam_t = self._lam_t
        active_t = self._active_t
        loss_fn = self.loss_fn
        regularizer = self.regularizer

        def step_fn(x: Tensor, y: Tensor):
            pred = stacked(x)
            task_vec = per_model_loss(loss_fn, pred, y)        # (M,)
            per_total = task_vec
            if with_reg:
                reg = stacked_regularizer_vector(stacked, regularizer)
                per_total = task_vec + lam_t * reg
            # Masked (early-stopped) models contribute zero gradient; their
            # parameters only drift through optimizer momentum, which the
            # phase-end snapshot restore discards.
            loss = (per_total * active_t).sum()
            return loss, task_vec

        return CompiledStep(step_fn)

    def _run_validation(self, val_view: EpochReplayLoader,
                        cursors: Sequence[int], active) -> np.ndarray:
        stacked = self.stacked
        was_training = stacked.net.training
        stacked.eval()
        totals = np.zeros(self.m)
        batches = 0
        with no_grad():
            for x, y in _stacked_epoch(val_view, cursors, active):
                vec = per_model_loss(self.loss_fn, stacked(Tensor(x)),
                                     Tensor(y))
                totals += np.asarray(vec.data, dtype=np.float64)
                batches += 1
        if was_training:
            stacked.train()
        if batches == 0:
            raise ValueError("evaluation loader produced no batches")
        return totals / batches

    def _effective_params(self, index: int) -> int:
        """Per-slice :func:`repro.core.effective_parameters`, counted from
        the stacked masks plus the constant non-searchable remainder — a
        ``sync_template`` copy per epoch per model would cost far more."""
        return self._fixed_param_count + sum(
            layer.effective_params(index) for layer in self._pit_layers)

    def model_for(self, index: int) -> Module:
        """The template materialized as trained model ``index``.

        One shared template instance serves all slices — use the returned
        model (export, deploy, evaluate) before asking for the next index.
        """
        return self.stacked.sync_template(index)

    def fit(self, train_loader, val_loader) -> List[PITResult]:
        """Run warmup → pruning → fine-tuning for all M grid points.

        With checkpointing configured (``checkpoint_dir=``), every shared
        epoch boundary writes one template-shaped file per slice and a
        complete, consistent set is resumed bit-identically to the
        uninterrupted stacked run.  Slice files use the same format the
        sequential trainer writes, so a sequential run adopts a slice's
        file (within the established stacked-vs-sequential tolerance).
        """
        out = run_phases(
            StackLanes(self, train_loader, val_loader), pit_phases(self),
            kind="pit", checkpoints=self._checkpoints,
            grad_clip=self.grad_clip, log=self._log,
            on_phase_end=self._phase_done)
        self._log(f"fine-tuning done, best val={out.best}")
        return [pit_result(out, i, self.stacked.sync_template(i))
                for i in range(self.m)]


def _stacked_epoch(view: EpochReplayLoader, cursors: Sequence[int],
                   active):
    """One epoch of every lane's own stream, stacked to ``(M, N, ...)``.

    A stopped lane re-reads its last epoch (its results are discarded), so
    the zip over per-lane iterators stays rectangular without advancing
    its stream position.
    """
    iters = [view.epoch(cursor if flag else max(cursor - 1, 0))
             for cursor, flag in zip(cursors, active)]
    for parts in zip(*iters):
        yield (np.stack([part[0] for part in parts]),
               np.stack([part[1] for part in parts]))


class StackLanes:
    """The M lanes of a :class:`StackedPITTrainer` for
    :func:`repro.core.driver.run_phases`: its :class:`StackedModel` on
    per-lane :class:`EpochReplayLoader` views of the loaders."""
    sliced = True
    loaders: Dict = {}   # the views replay any epoch: no stream to restore
    clip = staticmethod(clip_grad_norm_stacked)

    def __init__(self, trainer: StackedPITTrainer, train_loader, val_loader):
        try:
            self.train_view = EpochReplayLoader(train_loader)
            self.val_view = EpochReplayLoader(val_loader)
        except TypeError as exc:
            raise StackingUnsupported(str(exc)) from exc
        self.trainer = trainer
        self.stacked = trainer.stacked
        self.net = trainer.stacked.net
        self.active = trainer.stacked.active
        self.m = trainer.m
        self.searchable = trainer._pit_layers

    def make_step(self, regularized: bool):
        return self.trainer._make_step(regularized)

    def batches(self, cursors, active):
        return _stacked_epoch(self.train_view, cursors, active)

    def validate(self, cursors, active) -> np.ndarray:
        return self.trainer._run_validation(self.val_view, cursors, active)

    def state(self, i: int) -> Dict[str, np.ndarray]:
        return self.stacked.slice_state(i)

    def load_state(self, i: int, state: Dict[str, np.ndarray]) -> None:
        self.stacked.load_slice_state(i, state)

    def rng_map(self, i: int) -> Dict[str, np.random.Generator]:
        return module_rng_map(self.net, slice_index=i)

    def effective_params(self, i: int) -> int:
        return self.trainer._effective_params(i)
