"""Tests for the additional tensor shape ops (squeeze/split)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients

RNG = np.random.default_rng(77)


class TestSqueezeUnsqueeze:
    def test_squeeze_shape(self):
        assert Tensor(np.zeros((2, 1, 3))).squeeze(1).shape == (2, 3)

    def test_squeeze_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))).squeeze(0)

    def test_gradients(self):
        a = Tensor(RNG.standard_normal((2, 1, 3)), requires_grad=True)
        check_gradients(lambda x: x.squeeze(1) * 2.0, [a])


class TestSplit:
    def test_even_split(self):
        a = Tensor(np.arange(6.0))
        parts = a.split(3)
        assert len(parts) == 3
        assert parts[1].data.tolist() == [2, 3]

    def test_axis_split(self):
        a = Tensor(np.arange(12.0).reshape(2, 6))
        parts = a.split(2, axis=1)
        assert parts[0].shape == (2, 3)

    def test_uneven_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(5)).split(2)

    def test_gradients_route_to_sections(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        left, right = a.split(2)
        (left * 2.0 + right * 3.0).sum().backward()
        assert a.grad.tolist() == [2, 2, 3, 3]
