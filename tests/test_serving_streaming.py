"""Streaming executor vs full-window inference — the serving parity lock.

The guarantee under test: a *fresh* stream that has consumed samples
``1..t`` emits, at tick ``t``, exactly what full-window inference produces
on those ``t`` samples (zero ring state == causal left zero-padding).  The
grid runs over two conv kernel sets (the production im2col kernels and
the per-tap einsum test oracle, see ``tests/conftest.py``) × {float64,
float32} × dilation/stride/pool topologies.

Tolerances follow the substrate: per-tick kernels issue different GEMM
shapes than the full forward, so BLAS may sum in a different order —
observed differences are last-ulp (~1e-14 in float64), not semantic.
Int8-quantized streams are bounded by one activation quantization step
(a half-ulp landing on a rounding boundary can flip one code).
"""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    default_dtype_scope,
    no_grad,
)
from repro.core.export import network_receptive_field, network_total_stride
from repro.data import ArrayDataset, DataLoader
from repro.hw import FakeQuant, quantize_network
from repro.models import ResTCN, TEMPONet, temponet_fixed
from repro.models.temponet import TEMPONET_HAND_DILATIONS
from repro.nn import (
    AvgPool1d,
    BatchNorm1d,
    CausalConv1d,
    Flatten,
    GlobalAvgPool1d,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.serving import StreamingExecutor, StreamingUnsupported, stream_module

RNG = np.random.default_rng(123)

TOLS = {
    "float64": dict(atol=1e-12),
    "float32": dict(atol=1e-4, rtol=1e-4),
}

# Tests that do not force a dtype run on the ambient default (CI also runs
# this file under REPRO_DTYPE=float64), so they pick the matching tolerance.
from repro.autograd import get_default_dtype

AMBIENT_TOL = TOLS[np.dtype(get_default_dtype()).name]


def _bn(features, rng):
    """An eval-mode BatchNorm with non-trivial statistics and affine."""
    bn = BatchNorm1d(features)
    bn.running_mean = rng.standard_normal(features) * 0.3
    bn.running_var = 1.0 + np.abs(rng.standard_normal(features))
    bn.weight.data[...] = 1.0 + 0.1 * rng.standard_normal(features)
    bn.bias.data[...] = 0.1 * rng.standard_normal(features)
    return bn


def make_net(topology, seed=0):
    """Small nets covering the temporal-layer zoo; returns (net, channels)."""
    rng = np.random.default_rng(seed)
    conv = lambda ci, co, k, **kw: CausalConv1d(ci, co, k, rng=rng, **kw)
    if topology == "dilated":
        net = Sequential(conv(2, 5, 3, dilation=2), ReLU(),
                         conv(5, 4, 3, dilation=4))
    elif topology == "strided":
        net = Sequential(conv(2, 6, 3, stride=2), _bn(6, rng), ReLU(),
                         conv(6, 4, 3, dilation=2), ReLU(),
                         conv(4, 3, 2, stride=2))
    elif topology == "pooled":
        net = Sequential(conv(2, 6, 5, dilation=2), ReLU(),
                         AvgPool1d(2, 2),
                         conv(6, 4, 3), _bn(4, rng),
                         AvgPool1d(3, 2))
    else:
        raise ValueError(topology)
    net.eval()
    return net, 2


TOPOLOGIES = ("dilated", "strided", "pooled")


def full_forward(net, x):
    with no_grad():
        return net(Tensor(x)).data


def stream_all(executor, x, chunk=1):
    """Push ``(N, C, T)`` through in chunks; concat every emitted frame."""
    outs = []
    for start in range(0, x.shape[2], chunk):
        out = executor.push(x[:, :, start: start + chunk])
        if out.shape[2]:
            outs.append(out)
    if not outs:
        return np.empty((x.shape[0], executor.out_channels, 0))
    return np.concatenate(outs, axis=2)


class TestParityGrid:
    """Full grid: kernel sets × dtypes × topologies."""

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_stream_matches_full_window(self, backend, dtype, topology,
                                        use_kernels):
        with default_dtype_scope(dtype), use_kernels(backend):
            net, channels = make_net(topology)
            x = RNG.standard_normal((2, channels, 23))
            full = full_forward(net, x)
            executor = StreamingExecutor(net, batch=2)
            streamed = stream_all(executor, x)
        assert streamed.shape == full.shape
        assert np.allclose(streamed, full, **TOLS[dtype])

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    def test_quantized_stream_within_one_level(self, backend, use_kernels):
        with use_kernels(backend):
            net, channels = make_net("dilated")
            data = ArrayDataset(RNG.standard_normal((8, channels, 23)),
                                RNG.standard_normal((8, 1)))
            quantized = quantize_network(net, DataLoader(data, 4))
            x = RNG.standard_normal((2, channels, 23))
            full = full_forward(quantized, x)
            streamed = stream_all(StreamingExecutor(quantized, batch=2), x)
        # A last-ulp difference on a rounding boundary can flip one int8
        # code; bound the error by one quantization step of the output
        # fake-quant grid.
        fqs = [m for m in quantized.modules() if isinstance(m, FakeQuant)]
        step = max((float(m.hi) - float(m.lo)) / (2 ** m.bits - 1)
                   for m in fqs)
        assert streamed.shape == full.shape
        assert np.abs(streamed - full).max() <= step + 1e-9

    def test_chunked_push_is_bitwise_identical(self):
        """Chunk length never changes a bit of the output: the server's
        blocks follow queue depth, so its frames must not depend on
        timing.  TEMPONet covers the strided pools, Flatten and the Linear
        head at the paper's float32 serving configuration."""
        net, channels = make_net("pooled")
        x = RNG.standard_normal((2, channels, 24))
        per_sample = stream_all(StreamingExecutor(net, batch=2), x, chunk=1)
        for chunk in (3, 7, 24):
            chunked = stream_all(StreamingExecutor(net, batch=2), x,
                                 chunk=chunk)
            assert np.array_equal(per_sample, chunked)
        with default_dtype_scope("float32"):
            model = temponet_fixed([4, 4, 4, 8, 8, 16, 16], width_mult=0.5,
                                   seed=3)
            x = RNG.standard_normal((2, 4, 256 + 4 * 64))
            streams = [stream_all(StreamingExecutor(model, batch=2), x,
                                  chunk=chunk) for chunk in (1, 16, 64)]
        assert streams[0].shape == (2, 1, 17)
        for chunked in streams[1:]:
            assert np.array_equal(streams[0], chunked)

    def test_reset_makes_streams_repeatable(self):
        net, channels = make_net("strided")
        executor = StreamingExecutor(net, batch=1)
        x = RNG.standard_normal((1, channels, 17))
        first = stream_all(executor, x)
        executor.reset()
        assert executor.ticks == 0
        again = stream_all(executor, x)
        assert np.array_equal(first, again)


class TestModels:
    """The paper's exported networks stream."""

    def test_temponet_first_window(self):
        model = TEMPONet(width_mult=0.5, dropout=0.0,
                         rng=np.random.default_rng(5)).eval()
        executor = StreamingExecutor(model, batch=2)
        assert executor.warmup_ticks == model.input_length == 256
        assert executor.period == network_total_stride(model) == 16
        x = RNG.standard_normal((2, 4, 256))
        full = full_forward(model, x)
        streamed = stream_all(executor, x, chunk=16)
        # Exactly one frame inside the first window; it equals full-window
        # inference on the 256 samples seen so far.
        assert streamed.shape == (2, full.shape[1], 1)
        assert np.allclose(streamed[:, :, 0], full, **AMBIENT_TOL)

    def test_temponet_keeps_emitting_every_period(self):
        model = TEMPONet(width_mult=0.25, dropout=0.0,
                         rng=np.random.default_rng(6)).eval()
        executor = StreamingExecutor(model, batch=1)
        x = RNG.standard_normal((1, 4, 256 + 3 * 16))
        streamed = stream_all(executor, x, chunk=16)
        assert streamed.shape[2] == 4  # tick 256, 272, 288, 304

    @pytest.mark.parametrize("make, geometry", [
        (lambda: TEMPONet(width_mult=0.5, dilations=TEMPONET_HAND_DILATIONS,
                          rng=np.random.default_rng(0)), (428, 16, 256, 16)),
        (lambda: ResTCN(width_mult=0.25, rng=np.random.default_rng(0)),
         (121, 1, 1, 1)),
    ], ids=["temponet-w0.5-hand", "restcn-w0.25"])
    def test_geometry(self, make, geometry):
        executor = StreamingExecutor(make())
        assert (executor.receptive_field, executor.total_stride,
                executor.warmup_ticks, executor.period) == geometry

    def test_restcn_every_tick(self):
        model = ResTCN(width_mult=0.1, dropout=0.0,
                       rng=np.random.default_rng(7)).eval()
        executor = StreamingExecutor(model, batch=1)
        assert executor.warmup_ticks == 1
        assert executor.period == 1
        assert executor.receptive_field == model.receptive_field
        x = RNG.standard_normal((1, 88, 40))
        full = full_forward(model, x)
        streamed = stream_all(executor, x, chunk=5)
        assert streamed.shape == full.shape
        assert np.allclose(streamed, full, **AMBIENT_TOL)


class TestWindowHeads:
    """GlobalAvgPool / Flatten heads stream as sliding windows sized by the
    shape probe."""

    def test_gap_head(self):
        rng = np.random.default_rng(8)
        net = Sequential(CausalConv1d(2, 5, 3, dilation=2, rng=rng), ReLU(),
                         GlobalAvgPool1d(), Linear(5, 3, rng=rng)).eval()
        executor = StreamingExecutor(net, input_length=12)
        assert executor.warmup_ticks == 12
        x = RNG.standard_normal((1, 2, 12))
        full = full_forward(net, x)
        streamed = stream_all(executor, x)
        assert streamed.shape[2] == 1
        assert np.allclose(streamed[:, :, 0], full, **AMBIENT_TOL)

    def test_flatten_head(self):
        rng = np.random.default_rng(9)
        net = Sequential(CausalConv1d(2, 3, 3, rng=rng), ReLU(),
                         AvgPool1d(2, 2), Flatten(),
                         Linear(3 * 4, 4, rng=rng)).eval()
        executor = StreamingExecutor(net, input_length=8)
        assert executor.warmup_ticks == 8
        assert executor.period == 2  # pool stride
        x = RNG.standard_normal((1, 2, 8))
        full = full_forward(net, x)
        streamed = stream_all(executor, x)
        assert streamed.shape[2] == 1
        assert np.allclose(streamed[:, :, 0], full, **AMBIENT_TOL)


def dry_run_schedule(executor):
    """The per-tick oracle of the derived schedule: stream zeros from
    reset one tick at a time until the second frame.  Returns
    ``(warmup_ticks, period, out_channels)`` and leaves the executor
    reset."""
    cap = 4 * max(executor.receptive_field, executor.input_length or 1) + 64
    zeros = np.zeros((executor.batch, executor.channels, 1))
    emitted = []  # (tick, output channels) of the first two frames
    for tick in range(1, cap + 1):
        out = executor.push(zeros)
        if out.shape[2]:
            emitted.append((tick, out.shape[1]))
            if len(emitted) == 2:
                break
    executor.reset()
    assert len(emitted) == 2, f"fewer than two frames within {cap} ticks"
    (first, channels), (second, _) = emitted
    return first, second - first, channels


def _quantized(net, channels, length):
    data = ArrayDataset(np.random.default_rng(4).standard_normal(
        (8, channels, length)), np.zeros((8, 1)))
    return quantize_network(net, DataLoader(data, 4))


def _pit_net(rng):
    from repro.core import PITConv1d
    return Sequential(PITConv1d(2, 3, rf_max=5, rng=rng), ReLU())


# Every network an executor is built on in this file, plus an int8 TEMPONet
# and a stride-2 conv stack: id -> rng -> (net, executor kwargs).
SCHEDULE_NETS = {
    **{t: (lambda rng, t=t: (make_net(t)[0], {})) for t in TOPOLOGIES},
    "dilated-int8": lambda rng: (
        _quantized(make_net("dilated")[0], 2, 23), {}),
    "temponet-w0.5": lambda rng: (
        TEMPONet(width_mult=0.5, dropout=0.0, rng=rng), {}),
    "temponet-w0.25": lambda rng: (
        TEMPONet(width_mult=0.25, dropout=0.0, rng=rng), {}),
    "temponet-w0.5-hand": lambda rng: (TEMPONet(
        width_mult=0.5, dilations=TEMPONET_HAND_DILATIONS, rng=rng), {}),
    "temponet-w0.5-4-16": lambda rng: (temponet_fixed(
        [4, 4, 4, 8, 8, 16, 16], width_mult=0.5, seed=3), {}),
    "temponet-w0.25-int8": lambda rng: (_quantized(
        TEMPONet(width_mult=0.25, dropout=0.0, rng=rng).eval(), 4, 256), {}),
    "restcn-w0.25": lambda rng: (ResTCN(width_mult=0.25, rng=rng), {}),
    "restcn-w0.1": lambda rng: (
        ResTCN(width_mult=0.1, dropout=0.0, rng=rng), {}),
    "gap-head": lambda rng: (Sequential(
        CausalConv1d(2, 5, 3, dilation=2, rng=rng), ReLU(),
        GlobalAvgPool1d(), Linear(5, 3, rng=rng)), dict(input_length=12)),
    "flatten-head": lambda rng: (Sequential(
        CausalConv1d(2, 3, 3, rng=rng), ReLU(), AvgPool1d(2, 2), Flatten(),
        Linear(3 * 4, 4, rng=rng)), dict(input_length=8)),
    "pit-searchable": lambda rng: (_pit_net(rng), dict(input_length=11)),
    "stride2-stack": lambda rng: (Sequential(
        CausalConv1d(2, 4, 3, stride=2, rng=rng), ReLU(),
        CausalConv1d(4, 4, 3, dilation=2, stride=2, rng=rng),
        AvgPool1d(3, 1),
        CausalConv1d(4, 3, 2, stride=2, rng=rng)), {}),
}


class TestExecutorContract:
    @pytest.mark.parametrize("name", SCHEDULE_NETS)
    def test_derived_schedule_matches_dry_run(self, name):
        """``warmup_ticks``/``period``/``out_channels`` come from the layer
        walk and the shape probe, never from streaming; a per-tick dry run
        from reset must see the same schedule."""
        net, kwargs = SCHEDULE_NETS[name](np.random.default_rng(10))
        executor = StreamingExecutor(net.eval(), batch=2, **kwargs)
        assert (executor.warmup_ticks, executor.period,
                executor.out_channels) == dry_run_schedule(executor)
        assert executor.ticks == 0

    def test_metadata_matches_export_helpers(self):
        net, _ = make_net("pooled")
        executor = StreamingExecutor(net)
        assert executor.receptive_field == network_receptive_field(net)
        assert executor.total_stride == network_total_stride(net)

    def test_state_bytes_positive_and_scales_with_batch(self):
        net, _ = make_net("dilated")
        one = StreamingExecutor(net, batch=1).state_bytes()
        four = StreamingExecutor(net, batch=4).state_bytes()
        assert one > 0
        assert four == 4 * one

    def test_push_validates_shape(self):
        net, channels = make_net("dilated")
        executor = StreamingExecutor(net, batch=2)
        with pytest.raises(ValueError, match="expected"):
            executor.push(np.zeros((1, channels, 1)))
        with pytest.raises(ValueError, match="expected"):
            executor.push(np.zeros((2, channels + 1, 1)))
        with pytest.raises(ValueError):
            executor.push(np.zeros((2, channels)))

    def test_batch_validation(self):
        net, _ = make_net("dilated")
        with pytest.raises(ValueError, match="batch"):
            StreamingExecutor(net, batch=0)

    def test_reset_slots_equals_fresh_stream_when_aligned(self):
        net, channels = make_net("strided")
        stride = network_total_stride(net)
        executor = StreamingExecutor(net, batch=3)
        warm = RNG.standard_normal((3, channels, 4 * stride))
        stream_all(executor, warm)  # aligned: ticks % stride == 0
        executor.reset_slots([1])
        fresh = StreamingExecutor(net, batch=1)
        x = RNG.standard_normal((1, channels, 3 * stride))
        batch = np.concatenate([warm[:1, :, : x.shape[2]], x,
                                warm[2:, :, : x.shape[2]]], axis=0)
        got = stream_all(executor, batch)[1]
        want = stream_all(fresh, x)[0]
        assert np.allclose(got, want, **AMBIENT_TOL)

    def test_original_model_is_not_mutated(self):
        net, channels = make_net("dilated")
        before = net[0].weight.data.copy()
        executor = StreamingExecutor(net)
        stream_all(executor, RNG.standard_normal((1, channels, 9)))
        assert np.array_equal(net[0].weight.data, before)
        assert net[0].weight.data is not None


class TestUnsupported:
    def test_calibrating_fakequant_rejected(self):
        rng = np.random.default_rng(0)
        net = Sequential(CausalConv1d(2, 3, 3, rng=rng), FakeQuant())
        with pytest.raises(StreamingUnsupported, match="calibrat"):
            StreamingExecutor(net, input_length=8)

    def test_unknown_parametric_module_rejected(self):
        class Mystery(Module):
            def __init__(self):
                super().__init__()
                from repro.nn.module import Parameter
                self.weight = Parameter(np.ones(3))

            def forward(self, x):
                return x

        net = Sequential(CausalConv1d(2, 3, 3,
                                      rng=np.random.default_rng(0)),
                         Mystery())
        with pytest.raises(StreamingUnsupported):
            StreamingExecutor(net, input_length=8)

    def test_pit_conv_without_export_rejected(self):
        # Reaching the factory with a live supernet layer is a bug; the
        # executor avoids it by auto-exporting (next test).
        from repro.core import PITConv1d
        from repro.serving.streaming import StreamContext
        layer = PITConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        with pytest.raises(StreamingUnsupported, match="export"):
            stream_module(layer, StreamContext(batch=1, shapes={}))

    def test_searchable_model_is_auto_exported(self):
        from repro.core import PITConv1d
        from repro.core.export import export_network
        net = Sequential(PITConv1d(2, 3, rf_max=5,
                                   rng=np.random.default_rng(0)),
                         ReLU()).eval()
        x = RNG.standard_normal((1, 2, 11))
        full = full_forward(export_network(net).eval(), x)
        streamed = stream_all(StreamingExecutor(net, input_length=11), x)
        assert streamed.shape == full.shape
        assert np.allclose(streamed, full, **AMBIENT_TOL)
