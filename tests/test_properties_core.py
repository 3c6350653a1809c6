"""Property-based tests (hypothesis) for PIT's core invariants."""

import numpy as np
from hypothesis import given, strategies as st

from repro.autograd import Tensor
from repro.core import (
    PITConv1d,
    effective_dilation,
    export_conv,
    gamma_size_coefficients,
    kept_lags,
    mask_eq4,
    mask_from_binary_gamma,
    mask_from_dilation,
    num_gamma,
)

rf_values = st.sampled_from([3, 4, 5, 6, 8, 9, 12, 17, 24, 33])


@st.composite
def gamma_vectors(draw):
    rf = draw(rf_values)
    length = num_gamma(rf)
    bits = draw(st.lists(st.sampled_from([0.0, 1.0]),
                         min_size=length - 1, max_size=length - 1))
    return rf, np.array([1.0] + bits)


class TestMaskInvariants:
    @given(gamma_vectors())
    def test_mask_is_regular_dilation(self, case):
        """Any binary γ collapses to a regular power-of-two dilation mask."""
        rf, gamma = case
        mask = mask_from_binary_gamma(gamma, rf)
        d = effective_dilation(gamma, rf)
        assert d & (d - 1) == 0  # power of two
        assert np.allclose(mask, mask_from_dilation(rf, d))

    @given(gamma_vectors())
    def test_lag_zero_always_alive(self, case):
        rf, gamma = case
        assert mask_from_binary_gamma(gamma, rf)[0] == 1.0

    @given(gamma_vectors())
    def test_alive_lags_are_multiples_of_dilation(self, case):
        rf, gamma = case
        mask = mask_from_binary_gamma(gamma, rf)
        d = effective_dilation(gamma, rf)
        for lag in np.nonzero(mask)[0]:
            assert lag % d == 0

    @given(gamma_vectors())
    def test_eq4_equals_constructive(self, case):
        rf, gamma = case
        constructive = mask_from_binary_gamma(gamma, rf)
        tensor_form = mask_eq4(Tensor(gamma), rf).data
        assert np.allclose(constructive, tensor_form)

    @given(gamma_vectors())
    def test_pruning_a_gamma_never_grows_the_mask(self, case):
        """Zeroing any γ_i is monotone: the kept-tap count cannot increase."""
        rf, gamma = case
        base = mask_from_binary_gamma(gamma, rf).sum()
        for i in range(1, len(gamma)):
            if gamma[i] == 1.0:
                pruned = gamma.copy()
                pruned[i] = 0.0
                assert mask_from_binary_gamma(pruned, rf).sum() <= base

    @given(rf_values)
    def test_dilation_doubles_roughly_halve_taps(self, rf):
        length = num_gamma(rf)
        taps = [len(kept_lags(rf, 2 ** i)) for i in range(length)]
        for a, b in zip(taps, taps[1:]):
            assert b == (a + 1) // 2 or b == a // 2 + 1


class TestRegularizerInvariants:
    @given(rf_values)
    def test_coefficients_positive_and_doubling(self, rf):
        coeffs = gamma_size_coefficients(rf)
        assert np.all(coeffs >= 1)
        # Coefficients grow geometrically (round() may perturb by ±1).
        for a, b in zip(coeffs, coeffs[1:]):
            assert b >= a

    @given(rf_values)
    def test_power_of_two_accounting(self, rf):
        if (rf - 1) & (rf - 2) == 0:  # rf-1 is a power of two
            assert gamma_size_coefficients(rf).sum() + 2 == rf


class TestExportInvariants:
    @given(st.sampled_from([5, 6, 9, 12, 17]),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 4),
           st.integers(0, 1000))
    def test_export_forward_equivalence(self, rf, c_in, c_out, d_exp, seed):
        """Masked supernet forward == exported compact conv forward."""
        length = num_gamma(rf)
        d = 2 ** min(d_exp, length - 1)
        layer = PITConv1d(c_in, c_out, rf_max=rf, rng=np.random.default_rng(seed))
        layer.set_dilation(d)
        conv = export_conv(layer)
        x = Tensor(np.random.default_rng(seed + 1).standard_normal((1, c_in, rf + 4)))
        assert np.allclose(layer(x).data, conv(x).data, atol=1e-12)

    @given(st.sampled_from([5, 9, 17]), st.integers(0, 3))
    def test_export_param_accounting(self, rf, d_exp):
        length = num_gamma(rf)
        d = 2 ** min(d_exp, length - 1)
        layer = PITConv1d(2, 3, rf_max=rf, rng=np.random.default_rng(0))
        layer.set_dilation(d)
        conv = export_conv(layer)
        assert conv.count_parameters() == layer.effective_params()
        assert conv.receptive_field <= rf
