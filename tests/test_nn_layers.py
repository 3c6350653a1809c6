"""Tests for the nn layers: Linear, CausalConv1d, BatchNorm1d, etc."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    AvgPool1d,
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    Identity,
    Linear,
    ReLU,
)

RNG = np.random.default_rng(21)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(RNG.standard_normal((7, 5)))).shape == (7, 3)

    def test_matches_manual_affine(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        x = RNG.standard_normal((3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        layer(Tensor(RNG.standard_normal((3, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_deterministic_init_per_seed(self):
        a = Linear(4, 2, rng=np.random.default_rng(5))
        b = Linear(4, 2, rng=np.random.default_rng(5))
        assert np.allclose(a.weight.data, b.weight.data)


class TestCausalConv1d:
    def test_output_shape_preserved(self):
        conv = CausalConv1d(3, 6, kernel_size=5, dilation=2, rng=np.random.default_rng(0))
        assert conv(Tensor(RNG.standard_normal((2, 3, 11)))).shape == (2, 6, 11)

    def test_receptive_field(self):
        conv = CausalConv1d(1, 1, kernel_size=5, dilation=4)
        assert conv.receptive_field == 17

    def test_strided_output_length(self):
        conv = CausalConv1d(2, 2, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        assert conv(Tensor(RNG.standard_normal((1, 2, 9)))).shape[-1] == 5

    def test_causality(self):
        conv = CausalConv1d(2, 2, kernel_size=3, dilation=2, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, 2, 12))
        base = conv(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, -1] += 5.0
        out = conv(Tensor(x2)).data
        assert np.allclose(out[:, :, :-1], base[:, :, :-1])

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            CausalConv1d(2, 2, kernel_size=0)

    def test_records_trace_shapes(self):
        conv = CausalConv1d(2, 2, kernel_size=3, rng=np.random.default_rng(0))
        conv(Tensor(RNG.standard_normal((1, 2, 10))))
        assert conv.last_t_in == 10
        assert conv.last_t_out == 10


class TestBatchNorm1d:
    def test_normalizes_training_batch_3d(self):
        bn = BatchNorm1d(4)
        x = Tensor(RNG.standard_normal((8, 4, 16)) * 3.0 + 5.0)
        out = bn(x)
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=(0, 2)), 1.0, atol=1e-3)

    def test_normalizes_training_batch_2d(self):
        bn = BatchNorm1d(4)
        out = bn(Tensor(RNG.standard_normal((64, 4)) * 2.0 - 1.0))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-7)

    def test_running_stats_updated(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.ones((4, 2, 8)) * 10.0)
        bn(x)
        assert np.all(bn.running_mean > 0.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2, momentum=1.0)  # running stats = last batch
        x = Tensor(RNG.standard_normal((16, 2, 8)) * 2.0 + 3.0)
        train_out = bn(x)
        bn.eval()
        eval_out = bn(x)
        # With momentum=1 the running stats equal the batch stats, so the
        # outputs agree (up to the biased/unbiased variance convention).
        assert np.allclose(train_out.data, eval_out.data, atol=1e-6)

    def test_affine_parameters_trainable(self):
        bn = BatchNorm1d(3)
        bn(Tensor(RNG.standard_normal((4, 3, 5)))).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4, 5))))

    def test_gradient_flows_to_input(self):
        bn = BatchNorm1d(3)
        x = Tensor(RNG.standard_normal((4, 3, 5)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None


class TestActivationsAndUtility:
    def test_relu(self):
        assert np.allclose(ReLU()(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_identity(self):
        x = Tensor([1.0])
        assert Identity()(x) is x

    def test_flatten(self):
        assert Flatten()(Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)

    def test_dropout_train_vs_eval(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((10, 10)))
        assert (drop(x).data == 0).any()
        drop.eval()
        assert np.allclose(drop(x).data, 1.0)

    def test_avg_pool_module(self):
        out = AvgPool1d(2)(Tensor(np.arange(8, dtype=float).reshape(1, 1, 8)))
        assert out.shape == (1, 1, 4)

    def test_global_avg_pool_module(self):
        out = GlobalAvgPool1d()(Tensor(np.ones((2, 3, 7))))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, 1.0)
