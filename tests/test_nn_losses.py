"""Tests for loss functions against closed-form references."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import (
    bce_with_logits,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)

RNG = np.random.default_rng(33)


def reference_bce(logits, targets):
    p = 1.0 / (1.0 + np.exp(-logits))
    eps = 1e-12
    return -(targets * np.log(p + eps) + (1 - targets) * np.log(1 - p + eps))


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = RNG.standard_normal((4, 5))
        targets = (RNG.random((4, 5)) > 0.5).astype(float)
        out = bce_with_logits(Tensor(logits), Tensor(targets))
        assert out.item() == pytest.approx(reference_bce(logits, targets).mean(), rel=1e-6)

    def test_stable_for_huge_logits(self):
        out = bce_with_logits(Tensor([1e4, -1e4]), Tensor([1.0, 0.0]))
        assert np.isfinite(out.item())
        assert out.item() == pytest.approx(0.0, abs=1e-8)

    def test_worst_case_value(self):
        # Confidently wrong: loss ≈ |logit|.
        out = bce_with_logits(Tensor([100.0]), Tensor([0.0]))
        assert out.item() == pytest.approx(100.0, rel=1e-6)

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        targets = Tensor((RNG.random((3, 4)) > 0.5).astype(float))
        check_gradients(lambda x: bce_with_logits(x, targets), [logits])

class TestPolyphonicNLL:
    def test_reduction_structure(self):
        """NLL = mean over (batch, time) of the sum over the 88 keys."""
        logits = RNG.standard_normal((2, 88, 6))
        targets = (RNG.random((2, 88, 6)) > 0.9).astype(float)
        out = polyphonic_nll(Tensor(logits), Tensor(targets))
        per_element = reference_bce(logits, targets)
        expected = per_element.sum(axis=1).mean()
        assert out.item() == pytest.approx(expected, rel=1e-6)

    def test_scale_is_88x_bce(self):
        logits = RNG.standard_normal((2, 88, 6))
        targets = (RNG.random((2, 88, 6)) > 0.5).astype(float)
        nll = polyphonic_nll(Tensor(logits), Tensor(targets)).item()
        bce = bce_with_logits(Tensor(logits), Tensor(targets)).item()
        assert nll == pytest.approx(88 * bce, rel=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            polyphonic_nll(Tensor(np.zeros((1, 88, 4))), Tensor(np.zeros((1, 88, 5))))

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal((2, 5, 4)), requires_grad=True)
        targets = Tensor((RNG.random((2, 5, 4)) > 0.5).astype(float))
        check_gradients(lambda x: polyphonic_nll(x, targets), [logits])

class TestRegressionLosses:
    def test_mae_value(self):
        out = mae_loss(Tensor([1.0, 3.0]), Tensor([2.0, 1.0]))
        assert out.item() == pytest.approx(1.5)

    def test_mae_accepts_numpy_target(self):
        assert mae_loss(Tensor([1.0]), np.array([3.0])).item() == pytest.approx(2.0)

    def test_mse_value(self):
        out = mse_loss(Tensor([1.0, 3.0]), Tensor([2.0, 1.0]))
        assert out.item() == pytest.approx((1 + 4) / 2)

    @pytest.mark.parametrize("loss", [mae_loss, mse_loss])
    def test_gradcheck(self, loss):
        pred = Tensor(RNG.standard_normal(6) * 2, requires_grad=True)
        target = Tensor(RNG.standard_normal(6))
        check_gradients(lambda p: loss(p, target), [pred])
