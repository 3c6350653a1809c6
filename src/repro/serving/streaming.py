"""Streaming execution of exported causal TCNs: O(K) MACs per tick.

The training/evaluation path of this repo runs a whole window through the
network for every prediction — a ``CausalConv1d`` left-pads ``(K-1)*d``
zeros and convolves the full receptive field again even though only one
new sample arrived.  :class:`StreamingExecutor` converts a fixed-dilation
network (anything :func:`repro.core.export.deployable_network` accepts)
into *per-layer history state*, and advances it by whole chunks:

* every convolution keeps a tail of its last ``(K-1)*d`` input samples;
  a chunk of ``T`` samples is appended to it, the ``K`` dilated taps of
  each of the ``T'`` frames it emits are strided views of
  ``[tail | chunk]``, and one
  :meth:`repro.autograd.backends.Im2colKernels.forward_step` call on the
  ``(N·T', C_in, K)`` windows computes them all;
* pools keep their last ``k - 1`` frames and emit on the valid-window
  schedule (``count >= k``, every ``stride`` thereafter);
* ``Flatten``/``GlobalAvgPool1d`` keep a sliding window of the temporal
  extent they saw in the full-window network (measured by one
  :func:`repro.nn.module.probe_shapes` forward);
* ``BatchNorm1d``, activations, ``Dropout`` (eval) and calibrated
  ``FakeQuant`` nodes are stateless per time step and are reused as-is;
* ``Linear`` heads are applied to all of a chunk's frames at once.

So a chunk costs one kernel call (or one array operation) per layer,
whatever its length, and the output does not depend on how a stream is
cut into chunks, bit for bit: every emitted frame gets the same per-frame
BLAS call at any chunk length.

The conversion is one table, ``_STREAM_FACTORIES`` (exact type →
factory).  The executor's geometry and schedule are not tracked by the
conversion, nor measured by streaming anything: ``receptive_field``,
``warmup_ticks`` and ``period`` are
:func:`repro.core.export.network_receptive_field`,
:func:`~repro.core.export.network_warmup` and
:func:`~repro.core.export.network_total_stride` over the probed network,
and ``out_channels`` is the probe's output width, so deployment and
streaming share one receptive-field walk.  A causal layer emits from its
first input frame; only the valid windows (pools, ``Flatten``,
``GlobalAvgPool1d``) delay the first frame, by ``(window - 1)`` frames of
their input.

Because a zero-initialized tail is indistinguishable from the causal zero
padding of the full forward, a *fresh* stream's outputs are exactly the
full-window forward of the samples seen so far.  Numerically the match is
last-ulp rather than bitwise: the streaming kernel issues a different
GEMM shape than the full-window kernel, so BLAS may sum the same products
in a different order (observed ~1e-14 in float64, often exactly 0).
``tests/test_serving_streaming.py`` pins the tolerance per dtype.

All streaming modules map ``(N, C, T)`` input chunks to ``(N, C', T')``
output chunks with ``T' <= T`` (possibly 0 while downstream layers
accumulate), so container modules with custom ``forward`` code — residual
blocks, ``Sequential`` — run unchanged on the converted children.  The
batch axis ``N`` is the multi-tenant axis: :mod:`repro.serving.pool`
parks one client per row and advances all of them by a block of samples
with one batched kernel call per layer.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..autograd import Tensor, get_default_dtype, no_grad
from ..autograd.backends import KERNELS
from ..core.export import (
    deployable_network,
    network_receptive_field,
    network_total_stride,
    network_warmup,
)
from ..core.pit_conv import PITConv1d
from ..hw.quantization import FakeQuant
from ..models.temponet import TEMPONet
from ..nn.layers import (
    AvgPool1d,
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    Identity,
    Linear,
    ReLU,
    Sequential,
)
from ..nn.module import Module, Shapes, probe_shapes

__all__ = [
    "StreamingUnsupported",
    "StreamingExecutor",
    "stream_module",
]


class StreamingUnsupported(RuntimeError):
    """Raised when a module has no streaming conversion rule."""


class StreamContext:
    """What one conversion pass needs: the batch width (state rows) and the
    per-module shapes of :func:`repro.nn.module.probe_shapes`."""

    def __init__(self, batch: int, shapes: Shapes):
        self.batch = batch
        self.shapes = shapes

    def _probed_in_shape(self, module: Module) -> Tuple[int, ...]:
        shapes = self.shapes.get(module)
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


def stream_module(module: Module, ctx: StreamContext) -> Module:
    """Convert one module (recursively) into its streaming form."""
    factory = _STREAM_FACTORIES.get(type(module))
    if factory is not None:
        return factory(module, ctx)
    if module._parameters or module._buffers:
        raise StreamingUnsupported(
            f"{type(module).__name__} owns parameters/buffers but has no "
            "streaming conversion")
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

class _History:
    """Per-layer streaming state: the last ``(taps - 1) * dilation``
    input frames of every stream (zeros at reset, the causal zero padding
    of the full-window forward) and the frame count since reset.

    A layer emits on the frames whose 1-based count ``c`` has
    ``c >= start`` and ``(c - start) % stride == 0``; :meth:`push` returns
    the ``taps`` dilated inputs of each of them as strided views of one
    ``[tail | chunk]`` buffer.
    """

    def __init__(self, batch: int, channels: int, taps: int,
                 dilation: int = 1, start: int = 1, stride: int = 1):
        self.taps = taps
        self.dilation = dilation
        self.start = start
        self.stride = stride
        self.tail = np.zeros((batch, channels, (taps - 1) * dilation),
                             dtype=get_default_dtype())
        self.count = 0

    def push(self, frames: np.ndarray) -> np.ndarray:
        """Consume an ``(N, C, T)`` chunk; return the read-only
        ``(N, C, T', taps)`` windows (oldest tap first) of the ``T'``
        frames of the chunk that emit."""
        n, c, t = frames.shape
        length = self.tail.shape[2]
        buf = np.empty((n, c, length + t), self.tail.dtype)
        buf[:, :, :length] = self.tail
        buf[:, :, length:] = frames
        self.tail = buf[:, :, t:].copy()
        # Chunk frame j is frame count + j + 1; the first that emits:
        first = max(self.start - self.count - 1, 0)
        first += (self.start - self.count - first - 1) % self.stride
        self.count += t
        emitted = len(range(first, t, self.stride))
        if not emitted:
            return np.empty((n, c, 0, self.taps), buf.dtype)
        s_n, s_c, s_t = buf.strides
        return as_strided(buf[:, :, first:],
                          shape=(n, c, emitted, self.taps),
                          strides=(s_n, s_c, self.stride * s_t,
                                   self.dilation * s_t),
                          writeable=False)

    def reset(self) -> None:
        self.tail[...] = 0
        self.count = 0

    def reset_slots(self, rows) -> None:
        self.tail[rows] = 0

    @property
    def nbytes(self) -> int:
        return self.tail.nbytes


def _no_frames(n: int, channels: int) -> Tensor:
    return Tensor(np.zeros((n, channels, 0), dtype=get_default_dtype()))


class StreamingConv1d(Module):
    """:class:`CausalConv1d` over a ``(K-1)·d`` history tail: one
    ``forward_step`` kernel call per chunk covers every emitted frame
    (one per input sample, one per ``stride`` samples when strided)."""

    def __init__(self, conv: CausalConv1d, ctx: StreamContext):
        super().__init__()
        self.conv = conv  # owns weight/bias; registered as a child
        self.out_channels = conv.out_channels
        self.state = _History(ctx.batch, conv.in_channels, conv.kernel_size,
                              conv.dilation, stride=conv.stride)

    def forward(self, x: Tensor) -> Tensor:
        windows = self.state.push(x.data)
        n, c_in, t, taps = windows.shape
        if t == 0:
            return _no_frames(n, self.out_channels)
        cols = windows.transpose(0, 2, 1, 3).reshape(n * t, c_in, taps)
        y = KERNELS.forward_step(cols, self.conv.weight.data)
        y = y.reshape(n, t, self.out_channels).transpose(0, 2, 1)
        if self.conv.bias is not None:
            y += self.conv.bias.data[None, :, None]
        return Tensor(y)

    def __repr__(self) -> str:
        return f"StreamingConv1d({self.conv!r})"


class StreamingLinear(Module):
    """A :class:`Linear` head applied to every frame of a chunk at once.

    Each frame is its own contiguous ``(1, in)`` row of one batched
    product, so every frame gets the same BLAS call whatever the chunk
    length (one ``(N·T, in)`` GEMM would not: BLAS picks its kernel, and
    with it the summation order, by the row count)."""

    def __init__(self, linear: Linear):
        super().__init__()
        self.linear = linear

    def forward(self, x: Tensor) -> Tensor:
        n, c, t = x.shape
        if t == 0:
            return _no_frames(n, self.linear.out_features)
        rows = np.ascontiguousarray(x.data.transpose(0, 2, 1))
        y = self.linear(Tensor(rows.reshape(n * t, 1, c))).data
        return Tensor(y.reshape(n, t, -1).transpose(0, 2, 1))

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
        if x.shape[2] == 0:  # nothing emitted upstream: nothing to map
            return x
        return self.inner(x)

    def __repr__(self) -> str:
        return f"Streaming({self.inner!r})"


class _WindowedStreaming(Module):
    """Base for layers that emit a function of their last ``k`` frames on
    the valid-window schedule: first output at ``count == k``, then every
    ``stride`` frames.  ``_emit`` maps the ``(N, C, T', k)`` windows of
    a chunk to its ``(N, C', T')`` output frames in one array operation."""

    def __init__(self, ctx: StreamContext, channels: int, window: int,
                 stride: int):
        super().__init__()
        self.window = window
        self.state = _History(ctx.batch, channels, window, start=window,
                              stride=stride)

    def _emit(self, windows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _out_channels(self, in_channels: int) -> int:
        return in_channels

    def forward(self, x: Tensor) -> Tensor:
        windows = self.state.push(x.data)
        n, c, t, _ = windows.shape
        if t == 0:
            return _no_frames(n, self._out_channels(c))
        return Tensor(self._emit(windows))


class StreamingAvgPool1d(_WindowedStreaming):
    """Valid-window average pool, replicating the sequential per-offset
    accumulation of the full-window op (float64 accumulator, then /= k)."""

    def _emit(self, windows: np.ndarray) -> np.ndarray:
        acc = np.zeros(windows.shape[:3])
        for offset in range(self.window):
            acc += windows[..., offset]
        acc /= self.window
        return acc


class StreamingFlatten(_WindowedStreaming):
    """Sliding ``Flatten``: emits the channel-major flattening of the last
    ``F`` frames, where ``F`` is the temporal extent the probe saw at this
    point of the full-window network."""

    def _emit(self, windows: np.ndarray) -> np.ndarray:
        n, c, t, f = windows.shape
        return windows.transpose(0, 1, 3, 2).reshape(n, c * f, t)

    def _out_channels(self, in_channels: int) -> int:
        return in_channels * self.window


class StreamingGlobalAvgPool1d(_WindowedStreaming):
    """Sliding mean over the probed full-window extent."""

    def _emit(self, windows: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(windows).mean(axis=3)


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------

def _stream_linear(linear: Linear, ctx: StreamContext) -> Module:
    return StreamingLinear(linear)


def _stream_stateless(module: Module, ctx: StreamContext) -> Module:
    return _StatelessStreaming(module)


def _stream_fakequant(module: FakeQuant, ctx: StreamContext) -> Module:
    if module.calibrating:
        raise StreamingUnsupported(
            "FakeQuant is still calibrating; finish quantize_network "
            "before streaming (a calibrating node would mutate its range "
            "on live traffic and pass floats through)")
    return _StatelessStreaming(module)


def _stream_avg_pool(pool: AvgPool1d, ctx: StreamContext) -> Module:
    return StreamingAvgPool1d(ctx, channels=ctx.probed_channels(pool),
                              window=pool.kernel_size, stride=pool.stride)


def _stream_flatten(module: Flatten, ctx: StreamContext) -> Module:
    return StreamingFlatten(ctx, channels=ctx.probed_channels(module),
                            window=ctx.probed_extent(module), stride=1)


def _stream_gap(module: GlobalAvgPool1d, ctx: StreamContext) -> Module:
    return StreamingGlobalAvgPool1d(ctx, channels=ctx.probed_channels(module),
                                    window=ctx.probed_extent(module), stride=1)


def _stream_pit(module: PITConv1d, ctx: StreamContext) -> Module:
    raise StreamingUnsupported(
        f"{type(module).__name__} is a searchable supernet layer; export "
        "the network first (StreamingExecutor does this via "
        "deployable_network, so reaching this means the export missed it)")


def _stream_temponet(model: TEMPONet, ctx: StreamContext) -> Module:
    # TEMPONet.forward asserts the full window length; stream its two
    # sequential stages directly instead.
    return Sequential(stream_module(model.features, ctx),
                      stream_module(model.head, ctx))


# ``(module, ctx) -> streaming module`` per exact type: a subclass with
# different semantics fails loudly instead of inheriting the wrong
# conversion.  A type not listed here is converted as a container of its
# children (stream_module).
_STREAM_FACTORIES = {
    CausalConv1d: StreamingConv1d,
    Linear: _stream_linear,
    ReLU: _stream_stateless,
    Identity: _stream_stateless,
    Dropout: _stream_stateless,
    BatchNorm1d: _stream_stateless,
    FakeQuant: _stream_fakequant,
    AvgPool1d: _stream_avg_pool,
    Flatten: _stream_flatten,
    GlobalAvgPool1d: _stream_gap,
    PITConv1d: _stream_pit,
    TEMPONet: _stream_temponet,
}


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
    """Chunked streaming inference over a fixed-dilation network.

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
        Temporal extent of the one shape probe that sizes
        ``Flatten``/``GlobalAvgPool1d`` windows.  Defaults to
        ``model.input_length`` when present, else the composed receptive
        field.

    Attributes
    ----------
    out_channels:
        Width of one output frame: the channel count of the probed
        full-window output.
    warmup_ticks:
        Ticks from reset until the first output frame of a fresh stream,
        derived from the layer walk
        (:func:`repro.core.export.network_warmup` over the probed
        network): causal layers add nothing, each valid window adds its
        fill time.  Outputs of a mid-stream attached slot are
        fresh-stream-equal only from this age on.
    period:
        Ticks between consecutive output frames once warmed up (the
        product of all temporal strides, ``total_stride``).
    receptive_field:
        Composed input span of one output frame, window layers included
        (:func:`repro.core.export.network_receptive_field` over the probed
        network) — outputs additionally stop depending on the zero initial
        state after this many ticks.
    total_stride:
        :func:`repro.core.export.network_total_stride` of the network.
    """

    def __init__(self, model: Module, batch: int = 1,
                 input_length: Optional[int] = None):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        net = copy.deepcopy(deployable_network(model))
        net.eval()
        self.batch = batch
        self.channels = _input_channels(net)
        self.input_length = input_length or getattr(model, "input_length",
                                                    None)
        probe_len = self.input_length or max(network_receptive_field(net), 1)
        shapes = probe_shapes(net, (1, self.channels, probe_len))
        self.net = stream_module(net, StreamContext(batch=batch, shapes=shapes))
        self.net.eval()
        self.receptive_field = network_receptive_field(net, shapes)
        self.total_stride = self.period = network_total_stride(net)
        self.warmup_ticks = network_warmup(net, shapes)
        self.out_channels = shapes[net][1][1]
        self._states = [m.state for m in self.net.modules()
                        if isinstance(m, (StreamingConv1d,
                                          _WindowedStreaming))]

    def push(self, frames) -> np.ndarray:
        """Advance every stream by the ``(batch, channels, T)`` chunk, one
        kernel call per layer; returns the ``(batch, out_channels,
        T_out)`` frames emitted (``T_out`` may be 0 while downstream
        windows fill), the same bits for any split of a stream into
        chunks."""
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
        """Zero all history state: every stream starts fresh."""
        for state in self._states:
            state.reset()

    def reset_slots(self, rows) -> None:
        """Zero the history rows of selected streams only.

        The shared phase counters keep running, so a reset row behaves
        exactly like a fresh stream only when this is called at a tick
        that is a multiple of ``total_stride`` — the alignment
        :class:`repro.serving.StreamingPool` enforces on attach.
        """
        for state in self._states:
            state.reset_slots(rows)

    def state_bytes(self) -> int:
        """Total history-state footprint (all streams)."""
        return sum(state.nbytes for state in self._states)

    def __repr__(self) -> str:
        return (f"StreamingExecutor(batch={self.batch}, "
                f"channels={self.channels}->{self.out_channels}, "
                f"warmup={self.warmup_ticks}, period={self.period}, "
                f"state={self.state_bytes()}B)")
