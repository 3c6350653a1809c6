"""Streaming execution of exported causal TCNs: O(K) MACs per tick.

The training/evaluation path of this repo runs a whole window through the
network for every prediction — a ``CausalConv1d`` left-pads ``(K-1)*d``
zeros and convolves the full receptive field again even though only one
new sample arrived.  :class:`StreamingExecutor` converts a fixed-dilation
network (anything :func:`repro.core.export.deployable_network` accepts)
into *per-layer ring-buffer state*:

* every convolution keeps its last ``(K-1)*d + 1`` input samples in a
  circular buffer; one new sample gathers the ``K`` dilated taps and runs
  a single ``(C_out, C_in*K)`` contraction
  (:meth:`repro.autograd.backends.Im2colKernels.forward_step`);
* pools keep their last ``k`` frames and emit on the valid-window
  schedule (``count >= k``, every ``stride`` thereafter);
* ``Flatten``/``GlobalAvgPool1d`` keep a sliding window of the temporal
  extent they saw in the full-window network (measured by a one-shot
  shape probe);
* ``BatchNorm1d``, activations, ``Dropout`` (eval) and calibrated
  ``FakeQuant`` nodes are stateless per time step and are reused as-is;
* ``Linear`` heads are applied per emitted frame.

Because a zero-initialized ring is indistinguishable from the causal zero
padding of the full forward, a *fresh* stream's outputs are exactly the
full-window forward of the samples seen so far.  Numerically the match is
last-ulp rather than bitwise: the per-tick kernel issues a different GEMM
shape than the full-window kernel, so BLAS may sum the same products in a
different order (observed ~1e-14 in float64, often exactly 0).
``tests/test_serving_streaming.py`` pins the tolerance per dtype.

All streaming modules map ``(N, C, T)`` input chunks to ``(N, C', T')``
output chunks with ``T' <= T`` (possibly 0 while downstream layers
accumulate), so container modules with custom ``forward`` code — residual
blocks, ``Sequential`` — run unchanged on the converted children.  The
batch axis ``N`` is the multi-tenant axis: :mod:`repro.serving.server`
parks one client per row and advances all of them with one batched kernel
call per tick.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from ..autograd import Tensor, get_default_dtype, no_grad
from ..autograd.backends import KERNELS
from ..core.channel_mask import PITChannelConv1d
from ..core.export import deployable_network
from ..core.pit_conv import PITConv1d
from ..hw.quantization import FakeQuant
from ..nn.layers import (
    AvgPool1d,
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    Identity,
    Linear,
    MaxPool1d,
    ReLU,
    Sigmoid,
    Tanh,
)
from ..nn.module import Module

__all__ = [
    "StreamingUnsupported",
    "StreamingExecutor",
    "register_streaming",
    "stream_module",
]


class StreamingUnsupported(RuntimeError):
    """Raised when a module has no streaming conversion rule."""


class StreamContext:
    """Bookkeeping threaded through one conversion pass.

    Accumulates the composed receptive field / total stride with the same
    jump recursion as :func:`repro.core.export.network_receptive_field`
    (window layers included, since the probe gives their extents), and
    carries the batch width and the probed per-module shapes.
    """

    def __init__(self, batch: int,
                 shapes: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]):
        self.batch = batch
        self.shapes = shapes
        self.rf = 1
        self.jump = 1

    def add_layer(self, span: int, stride: int) -> None:
        self.rf += (span - 1) * self.jump
        self.jump *= stride

    def _probed_in_shape(self, module: Module) -> Tuple[int, ...]:
        shapes = self.shapes.get(id(module))
        if shapes is None:
            raise StreamingUnsupported(
                f"{type(module).__name__} was never reached by the shape "
                "probe; cannot size its streaming window")
        in_shape = shapes[0]
        if len(in_shape) != 3:
            raise StreamingUnsupported(
                f"{type(module).__name__} consumed a {len(in_shape)}-D "
                "tensor in the full-window network; streaming needs a "
                "(N, C, T) input to window over")
        return in_shape

    def probed_extent(self, module: Module) -> int:
        """Temporal extent of ``module``'s input in the full-window run."""
        return self._probed_in_shape(module)[2]

    def probed_channels(self, module: Module) -> int:
        """Channel count of ``module``'s input in the full-window run."""
        return self._probed_in_shape(module)[1]


# ----------------------------------------------------------------------
# Conversion registry
# ----------------------------------------------------------------------

_STREAM_FACTORIES: Dict[Type[Module],
                        Callable[[Module, StreamContext], Module]] = {}


def register_streaming(*types: Type[Module]):
    """Register a streaming conversion factory for exact module types.

    Mirrors ``repro.nn.stacked.register_stacked``: the factory receives
    ``(module, ctx)`` and returns the streaming replacement.  Matching is
    exact (no subclass dispatch) so a subclass with different semantics
    fails loudly instead of inheriting the wrong conversion.
    """
    def decorator(factory):
        for t in types:
            _STREAM_FACTORIES[t] = factory
        return factory
    return decorator


def stream_module(module: Module, ctx: StreamContext) -> Module:
    """Convert one module (recursively) into its streaming form."""
    factory = _STREAM_FACTORIES.get(type(module))
    if factory is not None:
        return factory(module, ctx)
    if module._parameters or module._buffers:
        raise StreamingUnsupported(
            f"{type(module).__name__} owns parameters/buffers but has no "
            "registered streaming conversion (register_streaming)")
    # Container with only child modules: shallow-clone it, keep its
    # forward() logic, convert the children in declaration order — the
    # same generic-clone idiom as repro.nn.stacked.stack_module.
    clone = copy.copy(module)
    object.__setattr__(clone, "_parameters", OrderedDict())
    object.__setattr__(clone, "_buffers", OrderedDict())
    object.__setattr__(clone, "_modules", OrderedDict())
    for name, child in module._modules.items():
        setattr(clone, name, stream_module(child, ctx))
    return clone


# ----------------------------------------------------------------------
# Streaming layers
# ----------------------------------------------------------------------

def _ring_indices(length: int, taps: int, dilation: int) -> np.ndarray:
    """``(length, taps)`` gather table: row ``p`` holds the ring positions
    of the ``taps`` dilated samples ending at write position ``p``."""
    pos = np.arange(length)[:, None]
    lag = (taps - 1 - np.arange(taps))[None, :] * dilation
    return (pos - lag) % length


class _RingState:
    """A circular ``(N, C, L)`` buffer shared by the windowed layers."""

    def __init__(self, batch: int, channels: int, length: int, taps: int,
                 dilation: int = 1):
        self.length = length
        self.ring = np.zeros((batch, channels, length),
                             dtype=get_default_dtype())
        self.indices = _ring_indices(length, taps, dilation)
        self.pos = 0
        self.count = 0

    def push(self, frame: np.ndarray) -> np.ndarray:
        """Write one ``(N, C)`` frame; return the ``(N, C, taps)`` window
        ending at it (oldest tap first)."""
        self.ring[:, :, self.pos] = frame
        self.count += 1
        window = self.ring[:, :, self.indices[self.pos]]
        self.pos = (self.pos + 1) % self.length
        return window

    def reset(self) -> None:
        self.ring[...] = 0
        self.pos = 0
        self.count = 0

    def reset_slots(self, rows) -> None:
        self.ring[rows] = 0

    @property
    def nbytes(self) -> int:
        return self.ring.nbytes


class StreamingConv1d(Module):
    """Ring-buffered :class:`CausalConv1d`: one O(K·C_in·C_out) kernel
    call per input sample (per emitted sample when ``stride > 1``)."""

    def __init__(self, conv: CausalConv1d, ctx: StreamContext):
        super().__init__()
        self.conv = conv  # owns weight/bias; registered as a child
        self.stride = conv.stride
        self.out_channels = conv.out_channels
        self.state = _RingState(ctx.batch, conv.in_channels,
                                conv.receptive_field, conv.kernel_size,
                                conv.dilation)

    def forward(self, x: Tensor) -> Tensor:
        frames = x.data
        n, _, t = frames.shape
        outs: List[np.ndarray] = []
        w = self.conv.weight.data
        b = self.conv.bias.data if self.conv.bias is not None else None
        for i in range(t):
            window = self.state.push(frames[:, :, i])
            if (self.state.count - 1) % self.stride == 0:
                y = KERNELS.forward_step(window, w)
                if b is not None:
                    y += b[None, :, None]
                outs.append(y)
        if not outs:
            return Tensor(np.zeros((n, self.out_channels, 0)))
        return Tensor(np.concatenate(outs, axis=2))

    def __repr__(self) -> str:
        return f"StreamingConv1d({self.conv!r})"


class StreamingLinear(Module):
    """A :class:`Linear` head applied to each frame of a chunk."""

    def __init__(self, linear: Linear):
        super().__init__()
        self.linear = linear

    def forward(self, x: Tensor) -> Tensor:
        frames = x.data
        n, _, t = frames.shape
        if t == 0:
            return Tensor(np.zeros((n, self.linear.out_features, 0)))
        outs = [self.linear(Tensor(frames[:, :, i])).data[:, :, None]
                for i in range(t)]
        return Tensor(np.concatenate(outs, axis=2))

    def __repr__(self) -> str:
        return f"StreamingLinear({self.linear!r})"


class _StatelessStreaming(Module):
    """Reuses a per-timestep module (activation, eval BatchNorm,
    calibrated FakeQuant, eval Dropout) on streaming chunks unchanged —
    the module's own ops run column-wise, so values match the full-window
    forward bit for bit."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return self.inner(x)

    def __repr__(self) -> str:
        return f"Streaming({self.inner!r})"


class _WindowedStreaming(Module):
    """Base for layers that emit a function of their last ``k`` frames on
    the valid-window schedule: first output at ``count == k``, then every
    ``stride`` frames."""

    def __init__(self, ctx: StreamContext, channels: int, window: int,
                 stride: int):
        super().__init__()
        self.window = window
        self.stride = stride
        self.state = _RingState(ctx.batch, channels, window, window)

    def _emit(self, window: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _out_channels(self, in_channels: int) -> int:
        return in_channels

    def forward(self, x: Tensor) -> Tensor:
        frames = x.data
        n, c, t = frames.shape
        outs: List[np.ndarray] = []
        for i in range(t):
            win = self.state.push(frames[:, :, i])
            if (self.state.count >= self.window
                    and (self.state.count - self.window) % self.stride == 0):
                outs.append(self._emit(win)[:, :, None])
        if not outs:
            return Tensor(np.zeros((n, self._out_channels(c), 0)))
        return Tensor(np.concatenate(outs, axis=2))


class StreamingAvgPool1d(_WindowedStreaming):
    """Valid-window average pool, replicating the sequential per-offset
    accumulation of the full-window op (float64 accumulator, then /= k)."""

    def _emit(self, window: np.ndarray) -> np.ndarray:
        acc = np.zeros(window.shape[:2])
        for offset in range(self.window):
            acc += window[:, :, offset]
        acc /= self.window
        return acc


class StreamingMaxPool1d(_WindowedStreaming):
    def _emit(self, window: np.ndarray) -> np.ndarray:
        return window.max(axis=2)


class StreamingFlatten(_WindowedStreaming):
    """Sliding ``Flatten``: emits the channel-major flattening of the last
    ``F`` frames, where ``F`` is the temporal extent the probe saw at this
    point of the full-window network."""

    def _emit(self, window: np.ndarray) -> np.ndarray:
        return window.reshape(window.shape[0], -1)

    def _out_channels(self, in_channels: int) -> int:
        return in_channels * self.window


class StreamingGlobalAvgPool1d(_WindowedStreaming):
    """Sliding mean over the probed full-window extent."""

    def _emit(self, window: np.ndarray) -> np.ndarray:
        return window.mean(axis=2)


# ----------------------------------------------------------------------
# Registered conversions
# ----------------------------------------------------------------------

@register_streaming(CausalConv1d)
def _stream_conv(conv: CausalConv1d, ctx: StreamContext) -> Module:
    layer = StreamingConv1d(conv, ctx)
    ctx.add_layer(conv.receptive_field, conv.stride)
    return layer


@register_streaming(Linear)
def _stream_linear(linear: Linear, ctx: StreamContext) -> Module:
    return StreamingLinear(linear)


@register_streaming(ReLU, Sigmoid, Tanh, Identity, Dropout, BatchNorm1d)
def _stream_stateless(module: Module, ctx: StreamContext) -> Module:
    return _StatelessStreaming(module)


@register_streaming(FakeQuant)
def _stream_fakequant(module: FakeQuant, ctx: StreamContext) -> Module:
    if module.calibrating:
        raise StreamingUnsupported(
            "FakeQuant is still calibrating; finish quantize_network "
            "before streaming (a calibrating node would mutate its range "
            "on live traffic and pass floats through)")
    return _StatelessStreaming(module)


@register_streaming(AvgPool1d)
def _stream_avg_pool(pool: AvgPool1d, ctx: StreamContext) -> Module:
    layer = StreamingAvgPool1d(ctx, channels=ctx.probed_channels(pool),
                               window=pool.kernel_size, stride=pool.stride)
    ctx.add_layer(pool.kernel_size, pool.stride)
    return layer


@register_streaming(MaxPool1d)
def _stream_max_pool(pool: MaxPool1d, ctx: StreamContext) -> Module:
    layer = StreamingMaxPool1d(ctx, channels=ctx.probed_channels(pool),
                               window=pool.kernel_size, stride=pool.stride)
    ctx.add_layer(pool.kernel_size, pool.stride)
    return layer


@register_streaming(Flatten)
def _stream_flatten(module: Flatten, ctx: StreamContext) -> Module:
    extent = ctx.probed_extent(module)
    layer = StreamingFlatten(ctx, channels=ctx.probed_channels(module),
                             window=extent, stride=1)
    ctx.add_layer(extent, 1)
    return layer


@register_streaming(GlobalAvgPool1d)
def _stream_gap(module: GlobalAvgPool1d, ctx: StreamContext) -> Module:
    extent = ctx.probed_extent(module)
    layer = StreamingGlobalAvgPool1d(
        ctx, channels=ctx.probed_channels(module),
        window=extent, stride=1)
    ctx.add_layer(extent, 1)
    return layer


@register_streaming(PITConv1d, PITChannelConv1d)
def _stream_pit(module: Module, ctx: StreamContext) -> Module:
    raise StreamingUnsupported(
        f"{type(module).__name__} is a searchable supernet layer; export "
        "the network first (StreamingExecutor does this via "
        "deployable_network, so reaching this means the export missed it)")


def _stream_temponet(model, ctx: StreamContext) -> Module:
    # TEMPONet.forward asserts the full window length; stream its two
    # sequential stages directly instead.
    from ..nn.layers import Sequential
    return Sequential(stream_module(model.features, ctx),
                      stream_module(model.head, ctx))


def _register_model_factories() -> None:
    from ..models.temponet import TEMPONet
    _STREAM_FACTORIES.setdefault(TEMPONet, _stream_temponet)


# ----------------------------------------------------------------------
# Shape probe
# ----------------------------------------------------------------------

def _probe_shapes(net: Module, x_shape: Tuple[int, ...]
                  ) -> Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Run one full-window forward recording every module's (in, out)
    shapes, via a temporarily instrumented ``Module.__call__``."""
    shapes: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    original = Module.__call__

    def recording(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if (len(args) == 1 and not kwargs and isinstance(args[0], Tensor)
                and isinstance(out, Tensor)):
            shapes[id(self)] = (args[0].shape, out.shape)
        return out

    Module.__call__ = recording
    try:
        with no_grad():
            net(Tensor(np.zeros(x_shape)))
    finally:
        Module.__call__ = original
    return shapes


def _input_channels(net: Module) -> int:
    for module in net.modules():
        if isinstance(module, CausalConv1d):
            return module.in_channels
        if isinstance(module, Linear):
            return module.in_features
    raise StreamingUnsupported("no conv/linear layer found to infer the "
                               "input channel count from")


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

class StreamingExecutor:
    """Per-tick inference over a fixed-dilation network.

    Parameters
    ----------
    model:
        A fixed network, or a searched supernet (exported automatically
        via :func:`repro.core.export.deployable_network`).  The executor
        deep-copies it, so later mutation of ``model`` does not affect
        the stream (and vice versa), and forces eval mode.
    batch:
        Number of independent streams advanced in lockstep — the
        multi-tenant axis of :class:`repro.serving.StreamingPool`.
    input_length:
        Temporal extent for the one-shot shape probe that sizes
        ``Flatten``/``GlobalAvgPool1d`` windows.  Defaults to
        ``model.input_length`` when present, else the composed receptive
        field.

    Attributes
    ----------
    warmup_ticks:
        Ticks from reset until the first output frame of a fresh stream
        (measured by a dry run at build time).  Outputs of a mid-stream
        attached slot are fresh-stream-equal only from this age on.
    period:
        Ticks between consecutive output frames once warmed up (the
        product of all temporal strides).
    receptive_field:
        Composed input span of one output frame, window layers included —
        outputs additionally stop depending on the zero initial state
        after this many ticks.
    """

    def __init__(self, model: Module, batch: int = 1,
                 input_length: Optional[int] = None):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        _register_model_factories()
        net = copy.deepcopy(deployable_network(model))
        net.eval()
        self.batch = batch
        self.channels = _input_channels(net)
        self.input_length = input_length or getattr(model, "input_length",
                                                    None)
        from ..core.export import network_receptive_field
        probe_len = self.input_length or max(network_receptive_field(net), 1)
        shapes = _probe_shapes(net, (1, self.channels, probe_len))
        ctx = StreamContext(batch=batch, shapes=shapes)
        self.net = stream_module(net, ctx)
        self.net.eval()
        self.receptive_field = ctx.rf
        self.total_stride = ctx.jump
        self._states = [m.state for m in self.net.modules()
                        if isinstance(m, (StreamingConv1d,
                                          _WindowedStreaming))]
        self.out_channels, self.warmup_ticks, self.period = self._dry_run()

    def _dry_run(self) -> Tuple[int, int, int]:
        """Measure first-emission tick, period and output width by
        streaming zeros from reset; leaves the executor reset."""
        cap = 4 * max(self.receptive_field,
                      self.input_length or 1) + 64
        zeros = np.zeros((self.batch, self.channels, 1))
        first = second = None
        out_channels = 0
        for tick in range(1, cap + 1):
            out = self.push(zeros)
            if out.shape[2]:
                out_channels = out.shape[1]
                if first is None:
                    first = tick
                else:
                    second = tick
                    break
        self.reset()
        if first is None:
            raise StreamingUnsupported(
                f"network emitted no output within {cap} ticks; it does "
                "not look like a causal streaming network")
        return out_channels, first, (second - first) if second else \
            self.total_stride

    def push(self, frames) -> np.ndarray:
        """Advance every stream by the ``(batch, channels, T)`` chunk;
        returns the ``(batch, out_channels, T_out)`` frames emitted
        (``T_out`` may be 0 while downstream windows fill)."""
        frames = np.asarray(frames)
        if frames.ndim != 3 or frames.shape[0] != self.batch \
                or frames.shape[1] != self.channels:
            raise ValueError(
                f"expected ({self.batch}, {self.channels}, T) frames, got "
                f"{frames.shape}")
        with no_grad():
            return self.net(Tensor(frames)).data

    @property
    def ticks(self) -> int:
        """Input samples consumed since the last full reset."""
        return self._states[0].count if self._states else 0

    def reset(self) -> None:
        """Zero all ring state: every stream starts fresh."""
        for state in self._states:
            state.reset()

    def reset_slots(self, rows) -> None:
        """Zero the ring rows of selected streams only.

        The shared phase counters keep running, so a reset row behaves
        exactly like a fresh stream only when this is called at a tick
        that is a multiple of ``total_stride`` — the alignment
        :class:`repro.serving.StreamingPool` enforces on attach.
        """
        for state in self._states:
            state.reset_slots(rows)

    def state_bytes(self) -> int:
        """Total ring-buffer footprint (all streams)."""
        return sum(state.nbytes for state in self._states)

    def __repr__(self) -> str:
        return (f"StreamingExecutor(batch={self.batch}, "
                f"channels={self.channels}->{self.out_channels}, "
                f"warmup={self.warmup_ticks}, period={self.period}, "
                f"state={self.state_bytes()}B)")
