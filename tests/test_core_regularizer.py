"""Tests for the dilation regularizers (paper Eq. 6)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    PITConv1d,
    flops_regularizer,
    gamma_size_coefficients,
    mask_from_binary_gamma,
    num_gamma,
    pit_layers,
    size_regularizer,
)
from repro.nn import Module, ReLU, Sequential

RNG = np.random.default_rng(5)


class TwoLayerModel(Module):
    def __init__(self, rf1=9, rf2=17):
        super().__init__()
        self.conv1 = PITConv1d(2, 4, rf_max=rf1, rng=np.random.default_rng(0))
        self.relu = ReLU()
        self.conv2 = PITConv1d(4, 3, rf_max=rf2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.conv2(self.relu(self.conv1(x)))


class TestCoefficients:
    def test_rf9_values(self):
        """Paper example: rf=9, L=4 -> round(8/2^{4-i}) = (1, 2, 4)."""
        assert gamma_size_coefficients(9).tolist() == [1.0, 2.0, 4.0]

    def test_rf17_values(self):
        assert gamma_size_coefficients(17).tolist() == [1.0, 2.0, 4.0, 8.0]

    def test_rf5_values(self):
        assert gamma_size_coefficients(5).tolist() == [1.0, 2.0]

    def test_rf2_empty(self):
        assert gamma_size_coefficients(2).size == 0

    @pytest.mark.parametrize("rf", [3, 5, 9, 17, 33])
    def test_accounting_identity_power_of_two(self, rf):
        """Σ coeffs + always-alive slices == rf_max for rf-1 a power of two.

        Coefficient i counts the slices γ_i marginally keeps alive; with the
        2 endpoint slices always alive (lag 0 and lag rf-1), everything sums
        to the full kernel.
        """
        coeffs = gamma_size_coefficients(rf)
        assert coeffs.sum() + 2 == rf

    @pytest.mark.parametrize("rf", [5, 9, 17])
    def test_marginal_slice_counts(self, rf):
        """coeff[i-1] equals the slices lost when γ_i is zeroed from full."""
        length = num_gamma(rf)
        full = mask_from_binary_gamma(np.ones(length), rf).sum()
        for i in range(1, length):
            gamma = np.ones(length)
            # Zeroing γ_i (others 1) collapses all Γ_j containing γ_i; the
            # resulting dilation is determined by the Γ structure.
            gamma[i] = 0.0
            kept = mask_from_binary_gamma(gamma, rf).sum()
            # The regularizer attributes round((rf-1)/2^{L-i}) slices to γ_i;
            # zeroing γ_i removes *at least* that many (it also removes the
            # contribution of the γ_j above it).
            coeff = gamma_size_coefficients(rf)[i - 1]
            assert full - kept >= coeff


class TestSizeRegularizer:
    def test_value_at_gamma_one(self):
        """At γ̂=1, L_R = λ Σ_l Cin·Cout·Σ coeffs (|γ̂| = 1)."""
        model = TwoLayerModel()
        lam = 0.5
        expected = lam * (2 * 4 * sum(gamma_size_coefficients(9))
                          + 4 * 3 * sum(gamma_size_coefficients(17)))
        assert size_regularizer(model, lam).item() == pytest.approx(expected)

    def test_scales_linearly_with_lambda(self):
        model = TwoLayerModel()
        r1 = size_regularizer(model, 1.0).item()
        r2 = size_regularizer(model, 2.0).item()
        assert r2 == pytest.approx(2 * r1)

    def test_uses_absolute_value(self):
        model = TwoLayerModel()
        base = size_regularizer(model, 1.0).item()
        for layer in pit_layers(model):
            layer.mask.gamma_hat.data *= -1.0
        assert size_regularizer(model, 1.0).item() == pytest.approx(base)

    def test_gradient_is_signed_coefficients(self):
        model = TwoLayerModel()
        lam = 0.1
        reg = size_regularizer(model, lam)
        reg.backward()
        conv1 = model.conv1
        expected = lam * 2 * 4 * gamma_size_coefficients(9)
        assert np.allclose(conv1.mask.gamma_hat.grad, expected)

    def test_frozen_layers_excluded(self):
        model = TwoLayerModel()
        model.conv1.freeze()
        lam = 1.0
        expected = lam * 4 * 3 * sum(gamma_size_coefficients(17))
        assert size_regularizer(model, lam).item() == pytest.approx(expected)

    def test_all_frozen_returns_zero(self):
        model = TwoLayerModel()
        for layer in pit_layers(model):
            layer.freeze()
        reg = size_regularizer(model, 1.0)
        assert reg.item() == 0.0

    def test_no_pit_layers_returns_zero(self):
        assert size_regularizer(Sequential(ReLU()), 1.0).item() == 0.0

    def test_rf2_layer_contributes_nothing(self):
        layer = PITConv1d(2, 2, rf_max=2, rng=np.random.default_rng(0))
        model = Sequential(layer)
        assert size_regularizer(model, 1.0).item() == 0.0


class TestFlopsRegularizer:
    def test_weighted_by_output_length(self):
        model = TwoLayerModel()
        model(Tensor(RNG.standard_normal((1, 2, 16))))  # trace t_out = 16
        size_val = size_regularizer(model, 1.0).item()
        flops_val = flops_regularizer(model, 1.0).item()
        assert flops_val == pytest.approx(16 * size_val)

    def test_default_t_out_before_trace(self):
        # A layer that has not run yet counts one output sample.
        model = TwoLayerModel()
        flops_val = flops_regularizer(model, 1.0).item()
        assert flops_val == pytest.approx(size_regularizer(model, 1.0).item())

    def test_gradient_flows(self):
        model = TwoLayerModel()
        model(Tensor(RNG.standard_normal((1, 2, 8))))
        flops_regularizer(model, 0.5).backward()
        assert model.conv1.mask.gamma_hat.grad is not None


class TestPitLayers:
    def test_discovery_order(self):
        model = TwoLayerModel()
        layers = pit_layers(model)
        assert len(layers) == 2
        assert layers[0].rf_max == 9
        assert layers[1].rf_max == 17

    def test_empty_for_plain_model(self):
        assert pit_layers(Sequential(ReLU())) == []
