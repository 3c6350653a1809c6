"""Tests for PIT's mask algebra (paper Eq. 2-4, Fig. 2)."""

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    TimeMask,
    build_k_matrix,
    build_t_matrix,
    effective_dilation,
    gamma_from_dilation,
    gamma_index_for_lag,
    kept_lags,
    lag_gamma_indices,
    mask_eq4,
    mask_from_binary_gamma,
    mask_from_dilation,
    num_gamma,
)


class TestNumGamma:
    @pytest.mark.parametrize("rf,expected", [
        (2, 1), (3, 2), (5, 3), (9, 4), (17, 5), (33, 6),
        (4, 2), (6, 3), (8, 3), (10, 4), (16, 4), (32, 5),
    ])
    def test_values(self, rf, expected):
        # L = floor(log2(rf-1)) + 1 (paper Sec. III-A).
        assert num_gamma(rf) == expected

    def test_rejects_rf_below_2(self):
        with pytest.raises(ValueError):
            num_gamma(1)


class TestLagIndexing:
    def test_lag_zero_always_on(self):
        for rf in (3, 5, 9, 17):
            length = num_gamma(rf)
            assert gamma_index_for_lag(0, length) == length - 1

    def test_rf9_mapping(self):
        """Fig. 2 example: rf_max = 9, L = 4."""
        idx = lag_gamma_indices(9)
        #            lag: 0  1  2  3  4  5  6  7  8
        assert idx.tolist() == [3, 0, 1, 0, 2, 0, 1, 0, 3]

    def test_v2_structure(self):
        # Odd lags always map to Γ0 (alive only at d=1).
        idx = lag_gamma_indices(33)
        for lag in range(1, 33, 2):
            assert idx[lag] == 0


class TestConstructiveMask:
    def test_all_ones_gamma_gives_full_mask(self):
        for rf in (2, 5, 9, 17):
            gamma = np.ones(num_gamma(rf))
            assert np.allclose(mask_from_binary_gamma(gamma, rf), 1.0)

    def test_fig2_dilation_2(self):
        """Fig. 2: γ3 = 0 (others 1) encodes d = 2 for rf_max = 9."""
        gamma = np.array([1.0, 1, 1, 0])
        mask = mask_from_binary_gamma(gamma, 9)
        assert mask.tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_fig2_dilation_4(self):
        gamma = np.array([1.0, 1, 0, 0])
        mask = mask_from_binary_gamma(gamma, 9)
        assert mask.tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_fig2_dilation_8(self):
        """Fig. 2: γ1 = 0 forces d = 8 regardless of γ2, γ3."""
        for g2, g3 in itertools.product([0.0, 1.0], repeat=2):
            gamma = np.array([1.0, 0, g2, g3])
            mask = mask_from_binary_gamma(gamma, 9)
            assert mask.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_gamma0_must_be_one(self):
        with pytest.raises(ValueError):
            mask_from_binary_gamma(np.array([0.0, 1, 1, 1]), 9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            mask_from_binary_gamma(np.ones(3), 9)

    @pytest.mark.parametrize("rf", [3, 5, 6, 9, 12, 17, 33])
    def test_every_gamma_produces_regular_dilation(self, rf):
        """Any binary γ maps to some regular power-of-two pattern.

        This is the key search-space property of Sec. III-A: the Γ products
        collapse arbitrary γ assignments to regular dilation masks.
        """
        length = num_gamma(rf)
        for bits in itertools.product([0.0, 1.0], repeat=length - 1):
            gamma = np.array([1.0] + list(bits))
            mask = mask_from_binary_gamma(gamma, rf)
            d = effective_dilation(gamma, rf)
            assert np.allclose(mask, mask_from_dilation(rf, d)), (gamma, d)

    def test_gamma_monotone_products(self):
        """Γ_i is non-decreasing in i and Γ_{L-1} = 1."""
        for bits in itertools.product([0.0, 1.0], repeat=3):
            gamma = np.array([1.0] + list(bits))
            cumulative = np.cumprod(gamma)
            big_gamma = cumulative[::-1]
            assert all(a <= b for a, b in zip(big_gamma, big_gamma[1:]))
            assert big_gamma[-1] == 1.0


class TestDilationRoundTrip:
    @pytest.mark.parametrize("rf", [3, 5, 9, 17, 33, 6, 12])
    def test_gamma_from_dilation_inverts(self, rf):
        for d in (2 ** i for i in range(num_gamma(rf))):
            gamma = gamma_from_dilation(rf, d)
            assert effective_dilation(gamma, rf) == d

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            gamma_from_dilation(9, 3)

    def test_rejects_oversized_dilation(self):
        with pytest.raises(ValueError):
            gamma_from_dilation(9, 16)

    def test_kept_lags(self):
        assert kept_lags(9, 1) == list(range(9))
        assert kept_lags(9, 4) == [0, 4, 8]
        assert kept_lags(9, 8) == [0, 8]
        assert kept_lags(6, 4) == [0, 4]

    def test_kept_lags_invalid(self):
        with pytest.raises(ValueError):
            kept_lags(9, 0)

    def test_mask_from_dilation_includes_lag0(self):
        for rf in (5, 9, 17):
            for d in (1, 2, 4):
                assert mask_from_dilation(rf, d)[0] == 1.0


class TestEq4TensorForm:
    def test_t_matrix_structure(self):
        t = build_t_matrix(4)
        # Column c has ones in rows 0..L-1-c (γ_k participates in Γ_c).
        expected = np.array([
            [1, 1, 1, 1],
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [1, 0, 0, 0],
        ], dtype=float)
        assert np.allclose(t, expected)

    def test_k_matrix_one_hot_columns(self):
        k = build_k_matrix(9)
        assert k.shape == (4, 9)
        assert np.allclose(k.sum(axis=0), 1.0)

    def test_k_matrix_repeating_pattern(self):
        """Paper: K is generated by repeating a 0/1 pattern (2-adic)."""
        k = build_k_matrix(17)
        # Odd lags select row 0 in a strict alternation.
        assert np.allclose(k[0, 1::2], 1.0)
        assert np.allclose(k[0, 0::2], 0.0)

    @pytest.mark.parametrize("rf", [3, 5, 9, 17, 6])
    def test_matches_constructive_for_all_gammas(self, rf):
        length = num_gamma(rf)
        for bits in itertools.product([0.0, 1.0], repeat=length - 1):
            gamma = np.array([1.0] + list(bits))
            constructive = mask_from_binary_gamma(gamma, rf)
            tensor_form = mask_eq4(Tensor(gamma), rf)
            assert np.allclose(constructive, tensor_form.data), (rf, gamma)

    def test_eq4_differentiable(self):
        gamma = Tensor(np.array([1.0, 1, 1, 1]), requires_grad=True)
        mask = mask_eq4(gamma, 9)
        mask.sum().backward()
        assert gamma.grad is not None

    def test_eq4_shape_validation(self):
        with pytest.raises(ValueError):
            mask_eq4(Tensor(np.ones(3)), 9)


class TestTimeMask:
    def test_initial_mask_all_ones(self):
        mask = TimeMask(9)
        assert np.allclose(mask().data, 1.0)
        assert mask.current_dilation() == 1

    def test_parameter_count(self):
        assert TimeMask(9).gamma_hat.data.shape == (3,)
        assert TimeMask(2).gamma_hat.data.shape == (0,)

    def test_rf2_has_no_search(self):
        mask = TimeMask(2)
        assert np.allclose(mask().data, 1.0)
        assert mask.current_dilation() == 1

    def test_set_dilation_roundtrip(self):
        mask = TimeMask(17)
        for d in (1, 2, 4, 8, 16):
            mask.set_dilation(d)
            assert mask.current_dilation() == d
            assert np.allclose(mask().data, mask_from_dilation(17, d))

    def test_threshold_binarization(self):
        mask = TimeMask(9)
        mask.gamma_hat.data[...] = [0.6, 0.4, 0.7]
        # γ = (1, 1, 0, 1): Γ products kill everything above Γ2 -> d = 4.
        assert mask.current_dilation() == 4

    def test_forward_matches_current_mask(self):
        mask = TimeMask(9)
        mask.gamma_hat.data[...] = [0.9, 0.2, 0.8]
        assert np.allclose(mask().data, mask.current_mask())

    def test_gradient_flows_to_gamma_hat(self):
        mask = TimeMask(9)
        out = mask() * Tensor(np.arange(9, dtype=float))
        out.sum().backward()
        assert mask.gamma_hat.grad is not None
        assert not np.allclose(mask.gamma_hat.grad, 0.0)

    def test_freeze_makes_mask_constant(self):
        mask = TimeMask(9)
        mask.set_dilation(2)
        mask.freeze()
        frozen = mask()
        assert not frozen.requires_grad
        assert np.allclose(frozen.data, mask_from_dilation(9, 2))

    def test_freeze_survives_gamma_changes(self):
        mask = TimeMask(9)
        mask.set_dilation(2)
        mask.freeze()
        mask.gamma_hat.data[...] = 0.0  # would mean d=8 if unfrozen
        assert mask.current_dilation() == 2

    def test_unfreeze_restores_gamma_control(self):
        mask = TimeMask(9)
        mask.set_dilation(2)
        mask.freeze()
        mask.unfreeze()
        mask.set_dilation(4)
        assert mask.current_dilation() == 4

    def test_repr(self):
        assert "d=1" in repr(TimeMask(9))
