"""Stacked-model execution: vmap-style batched training of M model clones.

The DSE sweep trains the *same* architecture once per (λ, warmup) grid
point; per-model work is dominated by tiny GEMMs and per-op Python
dispatch.  :class:`StackedModel` removes that overhead M-fold by cloning a
template network M times into parameters with a leading **model axis**
``(M, ...)`` and running all M clones through one op graph:

* activations carry the model axis too — ``(M, N, C, T)`` instead of
  ``(N, C, T)`` — so one dispatch covers the whole stack;
* convolutions run through :func:`repro.autograd.conv1d_causal_stacked`
  (PIT convs through :func:`repro.autograd.conv1d_causal_masked_stacked`),
  one dispatch whose kernels run the M GEMMs model by model;
* elementwise ops, pooling (via an M·N batch merge) and losses are
  shape-generic and need no new kernels;
* model slices never mix: slice ``m`` of every activation, gradient and
  optimizer update depends only on model ``m``'s parameters and data, so
  stacked training is M independent trainings in lockstep, bit for bit.

The transform walks the template's module tree and replaces each known
leaf layer with its stacked counterpart (registered via
:func:`register_stacked`); container modules keep their own ``forward``
code, which is shape-agnostic.  Unknown parameterized layers raise
:class:`StackingUnsupported` — callers (the DSE engine) then fall back to
sequential per-model training, which is always available.

Per-model bookkeeping (``slice_state`` / ``load_slice_state`` /
``sync_template``) lets a trainer snapshot, restore and export individual
models out of the stack — the machinery behind per-model early stopping
and cache-compatible :class:`repro.evaluation.DSEPoint` results.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Callable, Dict, List, Type

import numpy as np

from ..autograd import (
    Tensor,
    avg_pool1d,
    batch_norm,
    batch_norm_stats,
    conv1d_causal_stacked,
    dropout_stacked,
    get_default_dtype,
    record_side_effect,
)
from .layers import (
    AvgPool1d,
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    Identity,
    Linear,
    ReLU,
)
from .module import Module, Parameter

__all__ = [
    "StackingUnsupported",
    "StackContext",
    "register_stacked",
    "stack_module",
    "stack_parameter",
    "StackedModel",
    "StackedLinear",
    "StackedCausalConv1d",
    "StackedBatchNorm1d",
    "StackedDropout",
]


class StackingUnsupported(RuntimeError):
    """The template contains a layer with no stacked counterpart.

    Raised *before* any training happens, so callers can fall back to the
    sequential per-model path (the DSE engine does exactly that).
    """


def stack_parameter(data: np.ndarray, m: int) -> np.ndarray:
    """Broadcast one model's parameter array to ``(M,) + shape`` (owned).

    Every clone starts from the identical template values — the same init
    each sequential grid point would get from a deterministic seed factory.
    """
    return np.broadcast_to(data, (m,) + data.shape).copy()


class StackContext:
    """Shared state threaded through one :func:`stack_module` walk.

    * ``m`` — stack width;
    * ``active`` — live per-model flags (1.0 = training, 0.0 = masked);
      owned here so every stacked layer and the trainer mutate *one* array;
    * per-RNG clone lists — a template whose layers share one generator
      (the usual seed-model construction) gets M clones of that generator,
      shared by all stacked layers of the same model slice, reproducing
      each sequential model's private stream exactly.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("stack width must be >= 1")
        self.m = m
        self.active = np.ones(m, dtype=get_default_dtype())
        self._rng_clones: Dict[int, List[np.random.Generator]] = {}
        self._rng_refs: List[np.random.Generator] = []  # keep ids alive

    def clone_rng(self, rng: np.random.Generator) -> List[np.random.Generator]:
        """Per-model clones of ``rng`` (memoized by generator identity)."""
        clones = self._rng_clones.get(id(rng))
        if clones is None:
            clones = [copy.deepcopy(rng) for _ in range(self.m)]
            self._rng_clones[id(rng)] = clones
            self._rng_refs.append(rng)
        return clones


# Registered leaf transforms: exact type -> factory(template, ctx).
_STACK_FACTORIES: Dict[Type[Module], Callable] = {}

# Stateless activations are reused as-is: their ops are elementwise and
# shape-agnostic, so a fresh copy works on (M, N, ...) unchanged.
_PASSTHROUGH: tuple = (ReLU, Identity)


def register_stacked(*types: Type[Module]):
    """Register a stacked factory for one or more template layer types.

    The factory is called as ``factory(template, ctx)`` and must return a
    :class:`Module` whose parameters/buffers carry the template's names
    with a leading ``(M,)`` axis — the name alignment is what makes
    per-model state slicing work.  Matching is by *exact* type: a subclass
    with custom behaviour must register itself explicitly or it (safely)
    falls back to sequential training.
    """
    def decorator(factory):
        for cls in types:
            _STACK_FACTORIES[cls] = factory
        return factory
    return decorator


def stack_module(module: Module, ctx: StackContext) -> Module:
    """Recursively mirror ``module`` with stacked leaves (see module doc)."""
    factory = _STACK_FACTORIES.get(type(module))
    if factory is not None:
        return factory(module, ctx)
    if type(module) in _PASSTHROUGH:
        return type(module)()   # stateless; fresh instance, fresh registries
    # Container: keep its forward code, restack its children.  A container
    # with parameters or buffers of its own is a custom layer in disguise.
    if module._parameters or module._buffers:
        raise StackingUnsupported(
            f"no stacked counterpart registered for {type(module).__name__}")
    clone = copy.copy(module)
    object.__setattr__(clone, "_parameters", OrderedDict())
    object.__setattr__(clone, "_buffers", OrderedDict())
    object.__setattr__(clone, "_modules", OrderedDict())
    for name, child in module._modules.items():
        setattr(clone, name, stack_module(child, ctx))
    return clone


# ----------------------------------------------------------------------
# Stacked leaf layers
# ----------------------------------------------------------------------

class StackedLinear(Module):
    """M affine maps in one batched matmul: ``(M, N, in) -> (M, N, out)``."""

    def __init__(self, template: Linear, ctx: StackContext):
        super().__init__()
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.weight = Parameter(stack_parameter(template.weight.data, ctx.m),
                                name="stacked.linear.weight")
        self.bias = (Parameter(stack_parameter(template.bias.data, ctx.m),
                               name="stacked.linear.bias")
                     if template.bias is not None else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose(0, 2, 1)
        if self.bias is not None:
            out = out + self.bias.reshape(self.bias.shape[0], 1,
                                          self.out_features)
        return out

    def __repr__(self) -> str:
        return (f"StackedLinear(M={self.weight.shape[0]}, "
                f"in={self.in_features}, out={self.out_features})")


@register_stacked(Linear)
def _stack_linear(template: Linear, ctx: StackContext) -> StackedLinear:
    return StackedLinear(template, ctx)


class StackedCausalConv1d(Module):
    """M causal convolutions in one stacked dispatch."""

    def __init__(self, template: CausalConv1d, ctx: StackContext):
        super().__init__()
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.dilation = template.dilation
        self.stride = template.stride
        self.weight = Parameter(stack_parameter(template.weight.data, ctx.m),
                                name="stacked.conv.weight")
        self.bias = (Parameter(stack_parameter(template.bias.data, ctx.m),
                               name="stacked.conv.bias")
                     if template.bias is not None else None)

    def forward(self, x: Tensor) -> Tensor:
        return conv1d_causal_stacked(x, self.weight, self.bias,
                                     dilation=self.dilation,
                                     stride=self.stride)

    def __repr__(self) -> str:
        return (f"StackedCausalConv1d(M={self.weight.shape[0]}, "
                f"{self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, d={self.dilation}, s={self.stride})")


@register_stacked(CausalConv1d)
def _stack_conv(template: CausalConv1d, ctx: StackContext) -> StackedCausalConv1d:
    return StackedCausalConv1d(template, ctx)


class StackedBatchNorm1d(Module):
    """Per-model batch normalization with per-model running statistics.

    Normalizes slice ``m`` over its own batch/time axes, exactly as M
    independent :class:`BatchNorm1d` layers would; ``running_mean`` /
    ``running_var`` carry the model axis ``(M, C)`` so every clone tracks
    its own evaluation statistics.
    """

    def __init__(self, template: BatchNorm1d, ctx: StackContext):
        super().__init__()
        self.num_features = template.num_features
        self.eps = template.eps
        self.momentum = template.momentum
        self.weight = Parameter(stack_parameter(template.weight.data, ctx.m),
                                name="stacked.bn.weight")
        self.bias = Parameter(stack_parameter(template.bias.data, ctx.m),
                              name="stacked.bn.bias")
        self.register_buffer("running_mean",
                             stack_parameter(template.running_mean, ctx.m))
        self.register_buffer("running_var",
                             stack_parameter(template.running_var, ctx.m))

    def forward(self, x: Tensor) -> Tensor:
        m = self.weight.shape[0]
        if x.ndim == 4:            # stacked (M, N, C, T)
            axes, shape = (1, 3), (m, 1, self.num_features, 1)
        elif x.ndim == 3:          # stacked (M, N, C)
            axes, shape = (1,), (m, 1, self.num_features)
        else:
            raise ValueError(
                f"StackedBatchNorm1d expects (M, N, C[, T]) input, got {x.shape}")

        if self.training:
            # The two ops BatchNorm1d trains with: stacked and sequential
            # training share one normalization and one backward.
            stats = batch_norm_stats(x, axes)
            record_side_effect((stats,), self._update_running_stats)
            return batch_norm(x, stats, self.weight, self.bias, axes, shape,
                              self.eps)

        mean = Tensor(self.running_mean.reshape(shape))
        var = Tensor(self.running_var.reshape(shape))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        return x_hat * self.weight.reshape(shape) + self.bias.reshape(shape)

    def _update_running_stats(self, stats: np.ndarray) -> None:
        mean, var = stats
        m = self.weight.shape[0]
        self.update_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean
            + self.momentum * mean.reshape(m, self.num_features))
        self.update_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var
            + self.momentum * var.reshape(m, self.num_features))

    def __repr__(self) -> str:
        return (f"StackedBatchNorm1d(M={self.weight.shape[0]}, "
                f"{self.num_features})")


@register_stacked(BatchNorm1d)
def _stack_bn(template: BatchNorm1d, ctx: StackContext) -> StackedBatchNorm1d:
    return StackedBatchNorm1d(template, ctx)


class StackedDropout(Module):
    """Per-model dropout streams (see :func:`repro.autograd.dropout_stacked`).

    Each model slice draws from its own clone of the template's generator,
    so stacked and sequential trainings consume identical mask streams;
    the shared ``active`` array lets early-stopped models skip draws.
    """

    def __init__(self, template: Dropout, ctx: StackContext):
        super().__init__()
        self.p = template.p
        self.rngs = ctx.clone_rng(template.rng)
        self.active = ctx.active

    def forward(self, x: Tensor) -> Tensor:
        return dropout_stacked(x, self.p, self.training, self.rngs,
                               active=self.active)

    def __repr__(self) -> str:
        return f"StackedDropout(M={len(self.rngs)}, p={self.p})"


@register_stacked(Dropout)
def _stack_dropout(template: Dropout, ctx: StackContext) -> StackedDropout:
    return StackedDropout(template, ctx)


class _StackedPool(Module):
    """Average pooling over stacked input by merging the (M, N) axes.

    Pooling has no parameters and acts per sample, so running it on the
    merged ``(M·N, C, T)`` batch is elementwise-identical to M separate
    calls — one dispatch instead of M.
    """

    def __init__(self, kernel_size: int, stride: int):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        m, n, c, t = x.shape
        out = avg_pool1d(x.reshape(m * n, c, t), self.kernel_size,
                         self.stride)
        return out.reshape(m, n, c, out.shape[-1])

    def __repr__(self) -> str:
        return f"StackedPool(avg, k={self.kernel_size}, s={self.stride})"


@register_stacked(AvgPool1d)
def _stack_avg_pool(template: AvgPool1d, ctx: StackContext) -> _StackedPool:
    return _StackedPool(template.kernel_size, template.stride)


class _StackedGlobalAvgPool(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=3)      # (M, N, C, T) -> (M, N, C)

    def __repr__(self) -> str:
        return "StackedGlobalAvgPool1d()"


@register_stacked(GlobalAvgPool1d)
def _stack_gap(template: GlobalAvgPool1d, ctx: StackContext) -> Module:
    return _StackedGlobalAvgPool()


class _StackedFlatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], x.shape[1], -1)

    def __repr__(self) -> str:
        return "StackedFlatten()"


@register_stacked(Flatten)
def _stack_flatten(template: Flatten, ctx: StackContext) -> Module:
    return _StackedFlatten()


# ----------------------------------------------------------------------
# The stacked model wrapper
# ----------------------------------------------------------------------

class StackedModel(Module):
    """M lockstep clones of ``template`` with a leading model axis.

    ``forward`` maps a stacked input ``(M, N, ...)`` — per-model batches —
    to stacked outputs; :meth:`tile_input` lifts a shared batch.  The
    template is kept (unregistered, so its parameters stay out of this
    module's) as the slice target for :meth:`sync_template`.  ``active``
    is the per-model training mask (1.0 trains, 0.0 masks): masked models
    ride along at zero gradient cost — the trainer multiplies their loss
    contribution by it and stacked dropout skips their draws.
    """

    def __init__(self, template: Module, m: int):
        super().__init__()
        ctx = StackContext(m)
        self.stack_size = m
        self.net = stack_module(template, ctx)
        self.active = ctx.active
        object.__setattr__(self, "template", template)

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def tile_input(self, x: np.ndarray) -> np.ndarray:
        """Broadcast one shared batch to the stack: ``(N, ...) -> (M, N, ...)``."""
        return np.broadcast_to(x, (self.stack_size,) + x.shape).copy()

    # ------------------------------------------------------------------
    # Per-model state slicing
    # ------------------------------------------------------------------
    def slice_state(self, index: int) -> Dict[str, np.ndarray]:
        """Template-shaped state of model ``index`` (array copies)."""
        state = {name: p.data[index].copy()
                 for name, p in self.net.named_parameters()}
        state.update({name: np.array(buf[index], copy=True)
                      for name, buf in self.net.named_buffers()})
        return state

    def load_slice_state(self, index: int, state: Dict[str, np.ndarray]) -> None:
        """Write a :meth:`slice_state` snapshot back into slice ``index``."""
        for name, p in self.net.named_parameters():
            p.data[index] = state[name]
        for name, buf in self.net.named_buffers():
            buf[index] = state[name]

    def sync_template(self, index: int) -> Module:
        """Materialize model ``index`` into the template network.

        Copies the slice's parameters and buffers (and searchable-mask
        freeze flags, via :meth:`repro.core.stacked.StackedTimeMask`'s
        registration hook) into the template, which then behaves exactly
        like the sequentially-trained model — ready for export, deployment
        evaluators or metric sweeps.  Returns the template for chaining.
        """
        template = self.template
        tparams = dict(template.named_parameters())
        for name, p in self.net.named_parameters():
            tparams[name].data[...] = p.data[index]
        tbuffers = dict(template.named_buffers())
        for name, buf in self.net.named_buffers():
            if name not in tbuffers:
                raise KeyError(f"stacked buffer {name!r} missing on template")
            module, leaf = template._resolve_buffer(name)
            module.update_buffer(leaf, np.array(buf[index], copy=True))
        for sync in _SLICE_SYNC_HOOKS:
            sync(self.net, template)
        return template


# Extra per-slice sync steps contributed by stacked layer providers (the
# PIT mask registers one to mirror its frozen flag onto the template).
_SLICE_SYNC_HOOKS: List[Callable[[Module, Module], None]] = []


def register_slice_sync(hook: Callable[[Module, Module], None]) -> None:
    """Add a ``hook(stacked_net, template)`` run by :meth:`sync_template`."""
    _SLICE_SYNC_HOOKS.append(hook)
