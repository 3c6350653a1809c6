"""Tests for int8 post-training quantization."""

import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.data import ArrayDataset, DataLoader
from repro.hw import (
    FakeQuant,
    QuantWrapper,
    fake_quantize,
    quantize_array,
    quantize_network,
)
from repro.nn import CausalConv1d, Linear, ReLU, Sequential

RNG = np.random.default_rng(77)


def relative_output_error(model, quantized, loader):
    """Mean relative L2 distance of the quantized outputs from the float
    ones, over a loader's batches."""
    model.eval()
    quantized.eval()
    errors = []
    with no_grad():
        for x, _ in loader:
            ref = model(Tensor(x)).data
            out = quantized(Tensor(x)).data
            errors.append(np.linalg.norm(out - ref)
                          / (np.linalg.norm(ref) + 1e-12))
    return float(np.mean(errors))


class TestQuantizeArray:
    """The symmetric per-output-channel int8 weight grid."""

    def test_symmetric_codes_in_range(self):
        qa = quantize_array(RNG.standard_normal((8, 125)), bits=8)
        assert qa.q.min() >= -128
        assert qa.q.max() <= 127

    def test_symmetric_never_emits_minus_128(self):
        # 255 live levels: the symmetric grid is [-127, 127]; -128 exists
        # in int8 but must never be produced, or the grid loses symmetry.
        x = np.array([[-1.0, -0.999999, 1.0, 0.5]])
        qa = quantize_array(x, bits=8)
        assert qa.q.min() == -127
        assert qa.q.max() == 127

    def test_symmetric_scale_uses_127_levels(self):
        qa = quantize_array(np.array([[-2.54, 2.54]]), bits=8)
        assert np.allclose(qa.scale, 2.54 / 127)

    def test_symmetric_zero_point_is_zero(self):
        # Zero sits on the grid: 0.0 encodes to code 0 and decodes exactly.
        x = RNG.standard_normal((2, 5))
        x[:, 2] = 0.0
        qa = quantize_array(x)
        assert np.all(qa.q[:, 2] == 0)
        assert np.all(qa.dequantize()[:, 2] == 0.0)

    def test_round_trip_error_bounded_by_half_step(self):
        x = RNG.standard_normal((4, 125))
        qa = quantize_array(x, bits=8)
        err = np.abs(qa.dequantize() - x)
        assert np.all(err <= qa.scale / 2 + 1e-12)

    def test_more_bits_less_error(self):
        x = RNG.standard_normal((4, 125))
        e8 = np.abs(fake_quantize(x, bits=8) - x).max()
        e4 = np.abs(fake_quantize(x, bits=4) - x).max()
        assert e8 < e4

    def test_per_channel_scales(self):
        x = np.stack([np.ones(10) * 0.01, np.ones(10) * 100.0])
        qa = quantize_array(x)
        assert qa.scale.reshape(-1).shape == (2,)
        # Per-channel keeps the small channel accurate.
        assert np.allclose(qa.dequantize()[0], 0.01, rtol=0.01)

    def test_all_zero_input(self):
        qa = quantize_array(np.zeros((2, 5)))
        assert np.allclose(qa.dequantize(), 0.0)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize_array(np.zeros(3), bits=1)
        with pytest.raises(ValueError):
            quantize_array(np.zeros(3), bits=17)


class TestFakeQuant:
    def test_calibration_records_range(self):
        fq = FakeQuant()
        fq(Tensor(np.array([-2.0, 3.0])))
        fq(Tensor(np.array([-5.0, 1.0])))
        assert fq.lo == -5.0
        assert fq.hi == 3.0

    def test_calibrating_is_identity(self):
        fq = FakeQuant()
        x = Tensor(RNG.standard_normal(10))
        assert fq(x) is x

    def test_quantizes_after_calibration(self):
        fq = FakeQuant(bits=2)  # 4 levels: quantization visible
        fq(Tensor(np.linspace(-1, 1, 100)))
        fq.calibrating = False
        out = fq(Tensor(np.linspace(-1, 1, 100)))
        assert len(np.unique(out.data)) <= 4

    def test_clamps_outliers(self):
        fq = FakeQuant()
        fq(Tensor(np.array([0.0, 1.0])))
        fq.calibrating = False
        out = fq(Tensor(np.array([10.0])))
        assert out.data[0] <= 1.0

    def test_uncalibrated_use_raises(self):
        # Regression: used to silently pass floats through, making a
        # never-calibrated "quantized" network indistinguishable from the
        # float one.
        fq = FakeQuant()
        fq.calibrating = False
        with pytest.raises(RuntimeError, match="without calibration"):
            fq(Tensor(np.array([1.0, 2.0])))

    def test_empty_calibration_batch_does_not_poison_range(self):
        fq = FakeQuant()
        fq(Tensor(np.zeros((0, 3))))  # empty batch: min/max undefined
        assert not fq.calibrated
        fq(Tensor(np.array([-1.0, 2.0])))
        assert fq.lo == -1.0 and fq.hi == 2.0

    def test_degenerate_range_collapses_to_constant(self):
        fq = FakeQuant()
        fq(Tensor(np.full(5, 3.0)))  # constant calibration -> hi == lo
        fq.calibrating = False
        assert fq.degenerate
        out = fq(Tensor(np.array([-10.0, 0.0, 99.0])))
        assert np.array_equal(out.data, np.full(3, 3.0))

    def calibrated(self, x, bits=8):
        fq = FakeQuant(bits=bits)
        fq(Tensor(x))
        fq.calibrating = False
        return fq, (float(fq.hi) - float(fq.lo)) / (2 ** bits - 1)

    def test_affine_codes_in_range(self):
        # Clamped to the calibrated range: at most 256 levels, none
        # outside [lo, hi] by more than half a step.
        from repro.autograd import default_dtype_scope
        with default_dtype_scope("float64"):
            x = RNG.standard_normal(1000)
            fq, scale = self.calibrated(x)
            out = fq(Tensor(3.0 * x)).data
        assert len(np.unique(out)) <= 256
        assert out.min() >= float(fq.lo) - scale / 2
        assert out.max() <= float(fq.hi) + scale / 2

    def test_affine_uses_all_256_levels(self):
        # A full-scale ramp hits every code 0..255.
        from repro.autograd import default_dtype_scope
        with default_dtype_scope("float64"):
            ramp = np.linspace(-1, 1, 1000)
            fq, _ = self.calibrated(ramp)
            assert len(np.unique(fq(Tensor(ramp)).data)) == 256

    def test_affine_zero_point_is_integer(self):
        # An integer zero-point puts 0.0 on the grid: every decoded value
        # is a whole number of steps away from zero.
        from repro.autograd import default_dtype_scope
        with default_dtype_scope("float64"):
            x = RNG.standard_normal(100)
            fq, scale = self.calibrated(x)
            steps = fq(Tensor(x)).data / scale
        assert np.allclose(steps, np.round(steps), atol=1e-6)

    def test_locked_affine_values(self):
        # Pin the integer-zero-point scheme: range [-1, 1], bits=8 gives
        # scale = 2/255 and zero_point = round(127.5) = 128, so 0.0 maps
        # to code 128 and decodes to exactly 0.0 (not the 0.0039-off value
        # the 256-level symmetric-midpoint variant would produce).  Forced
        # to float64: the endpoint codes sit on a round-half boundary that
        # float32 arithmetic resolves differently.
        from repro.autograd import default_dtype_scope
        with default_dtype_scope("float64"):
            fq = FakeQuant(bits=8)
            fq(Tensor(np.array([-1.0, 1.0])))
            fq.calibrating = False
            scale = 2.0 / 255.0
            out = fq(Tensor(np.array([-1.0, 0.0, 1.0, -2.0, 2.0]))).data
        assert out[1] == 0.0
        assert np.allclose(out, [(0 - 128) * scale, 0.0, (255 - 128) * scale,
                                 (0 - 128) * scale, (255 - 128) * scale])

    def test_zero_in_range_decodes_exactly(self):
        fq = FakeQuant(bits=8)
        fq(Tensor(np.array([-0.37, 1.73])))
        fq.calibrating = False
        assert fq(Tensor(np.array([0.0]))).data[0] == 0.0


class TestFakeQuantSerialization:
    """Calibrated ranges must survive save/load (they are buffers, not
    plain attributes — a reloaded quantized model used to silently run in
    float because lo/hi/calibrating were dropped by state_dict)."""

    def make_quantized(self, scale=1.0):
        rng = np.random.default_rng(0)
        net = Sequential(CausalConv1d(2, 4, 3, rng=rng), ReLU(),
                         CausalConv1d(4, 2, 3, rng=rng))
        data = ArrayDataset(scale * RNG.standard_normal((8, 2, 10)),
                            RNG.standard_normal((8, 2, 10)))
        return quantize_network(net, DataLoader(data, 4))

    def test_ranges_are_registered_buffers(self):
        quantized = self.make_quantized()
        state = quantized.state_dict()
        for name, module in quantized.named_modules():
            if isinstance(module, FakeQuant):
                assert f"{name}.lo" in state
                assert f"{name}.hi" in state
                assert f"{name}.calibrating" in state

    def test_state_dict_round_trip_restores_ranges(self):
        source = self.make_quantized(scale=1.0)
        target = self.make_quantized(scale=100.0)  # different calibration
        target.load_state_dict(source.state_dict())
        src_fq = [m for m in source.modules() if isinstance(m, FakeQuant)]
        dst_fq = [m for m in target.modules() if isinstance(m, FakeQuant)]
        for a, b in zip(src_fq, dst_fq):
            assert float(a.lo) == float(b.lo)
            assert float(a.hi) == float(b.hi)
            assert bool(a.calibrating) == bool(b.calibrating) is False

    def test_npz_round_trip_preserves_quantized_forward(self, tmp_path):
        from repro.nn.serialization import load_model, save_model
        source = self.make_quantized(scale=1.0)
        path = tmp_path / "quantized.npz"
        save_model(source, path)
        target = self.make_quantized(scale=100.0)
        load_model(target, path)
        x = Tensor(RNG.standard_normal((2, 2, 10)))
        assert np.array_equal(source(x).data, target(x).data)

    def test_assigning_calibrating_updates_the_buffer(self):
        fq = FakeQuant()
        fq(Tensor(np.array([0.0, 1.0])))
        fq.calibrating = False  # the quantize_network idiom
        assert not fq.state_dict()["calibrating"]


class TestQuantizeNetwork:
    def make_net_and_loader(self):
        rng = np.random.default_rng(0)
        net = Sequential(
            CausalConv1d(2, 4, 3, rng=rng), ReLU(),
            CausalConv1d(4, 2, 3, rng=rng))
        data = ArrayDataset(RNG.standard_normal((8, 2, 10)),
                            RNG.standard_normal((8, 2, 10)))
        return net, DataLoader(data, 4)

    def test_wraps_all_conv_and_linear(self):
        net, loader = self.make_net_and_loader()
        quantized = quantize_network(net, loader)
        wrappers = [m for m in quantized.modules() if isinstance(m, QuantWrapper)]
        assert len(wrappers) == 2

    def test_original_untouched(self):
        net, loader = self.make_net_and_loader()
        before = net[0].weight.data.copy()
        quantize_network(net, loader)
        assert np.allclose(net[0].weight.data, before)

    def test_calibration_completed(self):
        net, loader = self.make_net_and_loader()
        quantized = quantize_network(net, loader)
        for module in quantized.modules():
            if isinstance(module, FakeQuant):
                assert not module.calibrating
                assert np.isfinite(module.lo)

    def test_outputs_close_to_float(self):
        net, loader = self.make_net_and_loader()
        net.eval()
        quantized = quantize_network(net, loader)
        err = relative_output_error(net, quantized, loader)
        assert err < 0.05  # int8 should be within a few percent

    def test_weights_are_quantized(self):
        net, loader = self.make_net_and_loader()
        quantized = quantize_network(net, loader, bits=4)
        conv = [m for m in quantized.modules() if isinstance(m, CausalConv1d)][0]
        # 4-bit weights: at most 16 distinct values per output channel.
        for ch in range(conv.weight.data.shape[0]):
            assert len(np.unique(conv.weight.data[ch])) <= 16

    def test_quantizes_linear_layers(self):
        rng = np.random.default_rng(0)
        net = Sequential(Linear(4, 3, rng=rng))
        data = ArrayDataset(RNG.standard_normal((6, 4)), RNG.standard_normal((6, 3)))
        quantized = quantize_network(net, DataLoader(data, 3))
        assert isinstance(quantized[0], QuantWrapper)

    def test_empty_calibration_loader_raises(self):
        # Regression: an empty loader used to yield a float network
        # masquerading as quantized (every FakeQuant passed through).
        net, _ = self.make_net_and_loader()
        with pytest.raises(ValueError, match="no batches"):
            quantize_network(net, [])

    def test_degenerate_calibration_warns(self):
        rng = np.random.default_rng(0)
        net = Sequential(CausalConv1d(2, 4, 3, rng=rng))
        net[0].weight.data[...] = 0.0  # constant (zero) output everywhere
        net[0].bias.data[...] = 0.0
        data = ArrayDataset(RNG.standard_normal((8, 2, 10)),
                            RNG.standard_normal((8, 2, 10)))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            quantize_network(net, DataLoader(data, 4))

    def test_healthy_calibration_does_not_warn(self):
        net, loader = self.make_net_and_loader()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantize_network(net, loader)

    def test_lower_bits_higher_error(self):
        net, loader = self.make_net_and_loader()
        net.eval()
        e8 = relative_output_error(net, quantize_network(net, loader, bits=8), loader)
        e3 = relative_output_error(net, quantize_network(net, loader, bits=3), loader)
        assert e3 > e8
