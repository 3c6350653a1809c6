"""Tests for PITConv1d (paper Eq. 5) and its export equivalences."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import PITConv1d, export_conv, kept_lags, num_gamma
from repro.nn import CausalConv1d

RNG = np.random.default_rng(99)


def make_layer(rf_max=9, in_ch=3, out_ch=4, **kwargs):
    return PITConv1d(in_ch, out_ch, rf_max=rf_max,
                     rng=np.random.default_rng(0), **kwargs)


class TestConstruction:
    def test_rejects_rf_below_2(self):
        with pytest.raises(ValueError):
            PITConv1d(2, 2, rf_max=1)

    def test_weight_shape(self):
        layer = make_layer(rf_max=9, in_ch=3, out_ch=4)
        assert layer.weight.data.shape == (4, 3, 9)

    def test_initial_dilation_is_1(self):
        assert make_layer().current_dilation() == 1

    def test_gamma_parameters_present(self):
        layer = make_layer(rf_max=17)
        names = [name for name, _ in layer.named_parameters()]
        assert any(name.endswith("gamma_hat") for name in names)

    def test_no_bias_option(self):
        layer = PITConv1d(2, 2, rf_max=5, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None


class TestForward:
    def test_initial_forward_equals_full_conv(self):
        """With all masks on, PITConv1d is a plain conv with k = rf_max."""
        layer = make_layer()
        conv = CausalConv1d(3, 4, kernel_size=9, rng=np.random.default_rng(1))
        conv.weight.data[...] = layer.weight.data
        conv.bias.data[...] = layer.bias.data
        x = Tensor(RNG.standard_normal((2, 3, 15)))
        assert np.allclose(layer(x).data, conv(x).data)

    @pytest.mark.parametrize("rf_max", [5, 9, 17, 6, 12])
    def test_masked_forward_equals_dilated_conv(self, rf_max):
        """Paper Eq. 5 == Eq. 1: masking time slices == dilated convolution."""
        for d in (2 ** i for i in range(num_gamma(rf_max))):
            layer = make_layer(rf_max=rf_max)
            layer.set_dilation(d)
            x = Tensor(RNG.standard_normal((2, 3, 20)))
            masked_out = layer(x)

            lags = kept_lags(rf_max, d)
            ref = CausalConv1d(3, 4, kernel_size=len(lags), dilation=d,
                               rng=np.random.default_rng(2))
            for j in range(len(lags)):
                lag = (len(lags) - 1 - j) * d
                ref.weight.data[:, :, j] = layer.weight.data[:, :, rf_max - 1 - lag]
            ref.bias.data[...] = layer.bias.data
            assert np.allclose(masked_out.data, ref(x).data), d

    def test_output_shape(self):
        layer = make_layer()
        assert layer(Tensor(RNG.standard_normal((2, 3, 11)))).shape == (2, 4, 11)

    def test_stride(self):
        layer = PITConv1d(2, 2, rf_max=5, stride=2, rng=np.random.default_rng(0))
        assert layer(Tensor(RNG.standard_normal((1, 2, 10)))).shape[-1] == 5

    def test_causality_preserved_under_masking(self):
        layer = make_layer()
        layer.set_dilation(4)
        x = RNG.standard_normal((1, 3, 12))
        base = layer(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, -1] += 3.0
        out = layer(Tensor(x2)).data
        assert np.allclose(out[:, :, :-1], base[:, :, :-1])


class TestGradients:
    def test_weight_receives_grad_only_on_alive_taps(self):
        layer = make_layer()
        layer.set_dilation(4)  # alive lags {0, 4, 8} -> kernel indices {8, 4, 0}
        out = layer(Tensor(RNG.standard_normal((1, 3, 10))))
        out.sum().backward()
        grads_per_tap = np.abs(layer.weight.grad).sum(axis=(0, 1))
        alive_kernel = {8, 4, 0}
        for tap in range(9):
            if tap in alive_kernel:
                assert grads_per_tap[tap] > 0
            else:
                assert grads_per_tap[tap] == 0

    def test_gamma_hat_receives_grad(self):
        layer = make_layer()
        out = layer(Tensor(RNG.standard_normal((1, 3, 10))))
        out.sum().backward()
        assert layer.mask.gamma_hat.grad is not None
        assert np.any(layer.mask.gamma_hat.grad != 0)

    def test_frozen_layer_gamma_gets_no_grad(self):
        layer = make_layer()
        layer.freeze()
        out = layer(Tensor(RNG.standard_normal((1, 3, 10))))
        out.sum().backward()
        assert layer.mask.gamma_hat.grad is None

    def test_bias_grad(self):
        layer = make_layer()
        layer(Tensor(RNG.standard_normal((1, 3, 10)))).sum().backward()
        assert np.allclose(layer.bias.grad, 10.0)


class TestAccounting:
    def test_kept_taps(self):
        layer = make_layer(rf_max=9)
        assert layer.kept_taps() == 9
        layer.set_dilation(4)
        assert layer.kept_taps() == 3
        layer.set_dilation(8)
        assert layer.kept_taps() == 2

    def test_effective_params(self):
        layer = make_layer(rf_max=9, in_ch=3, out_ch=4)
        layer.set_dilation(4)
        assert layer.effective_params() == 3 * 3 * 4 + 4  # taps*Cin*Cout + bias

    def test_effective_params_no_bias(self):
        layer = PITConv1d(3, 4, rf_max=9, bias=False, rng=np.random.default_rng(0))
        layer.set_dilation(8)
        assert layer.effective_params() == 2 * 3 * 4

    def test_repr_shows_dilation(self):
        layer = make_layer()
        layer.set_dilation(2)
        assert "d=2" in repr(layer)


class TestExportConv:
    @pytest.mark.parametrize("rf_max", [5, 9, 17, 6])
    def test_export_forward_identical(self, rf_max):
        for d in (2 ** i for i in range(num_gamma(rf_max))):
            layer = make_layer(rf_max=rf_max)
            layer.set_dilation(d)
            conv = export_conv(layer)
            x = Tensor(RNG.standard_normal((2, 3, 18)))
            assert np.allclose(layer(x).data, conv(x).data), d

    def test_export_kernel_size_and_dilation(self):
        layer = make_layer(rf_max=9)
        layer.set_dilation(4)
        conv = export_conv(layer)
        assert conv.kernel_size == 3
        assert conv.dilation == 4
        assert conv.receptive_field == 9

    def test_export_param_count_matches_effective(self):
        layer = make_layer(rf_max=17)
        layer.set_dilation(8)
        conv = export_conv(layer)
        assert conv.count_parameters() == layer.effective_params()

    def test_export_respects_stride_and_bias(self):
        layer = PITConv1d(2, 3, rf_max=5, stride=2, bias=False,
                          rng=np.random.default_rng(0))
        layer.set_dilation(2)
        conv = export_conv(layer)
        assert conv.stride == 2
        assert conv.bias is None

    def test_export_of_frozen_layer(self):
        layer = make_layer()
        layer.set_dilation(2)
        layer.freeze()
        conv = export_conv(layer)
        assert conv.dilation == 2
