"""Tests for the nn layers: Linear, CausalConv1d, BatchNorm1d, etc."""

import numpy as np
import pytest

from repro.autograd import CompiledStep, Tensor, default_dtype_scope
from repro.autograd.graph import capture
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
from repro.nn.module import probe_shapes
from repro.nn.stacked import StackContext, stack_module

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
        out = conv(Tensor(RNG.standard_normal((1, 2, 10))))
        assert out.shape == (1, 2, 10)
        assert probe_shapes(conv, (1, 2, 10)) == {
            conv: ((1, 2, 10), out.shape)}


class TestBatchNorm1d:
    def test_normalizes_training_batch_3d(self):
        bn = BatchNorm1d(4)
        x = Tensor(RNG.standard_normal((8, 4, 16)) * 3.0 + 5.0)
        out = bn(x)
        # A few rounding steps of the output dtype, not a fixed 1e-7 (about
        # one float32 eps, which only some random draws meet).
        atol = 8 * np.finfo(out.data.dtype).eps
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=atol)
        assert np.allclose(out.data.std(axis=(0, 2)), 1.0, atol=1e-3)

    def test_normalizes_training_batch_2d(self):
        bn = BatchNorm1d(4)
        out = bn(Tensor(RNG.standard_normal((64, 4)) * 2.0 - 1.0))
        atol = 8 * np.finfo(out.data.dtype).eps
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=atol)

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


def composite_batch_norm(x, weight, bias, axes, shape, eps):
    """Training-mode BatchNorm composed from Tensor primitives (mean, sub,
    mul, add, sqrt, div, reshape), each with its own VJP: the oracle of the
    closed-form ``batch_norm`` op, as ``EinsumReference`` is of the conv
    kernels.  Returns the output and the batch mean and variance."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    x_hat = centered / (var + eps).sqrt()
    return x_hat * weight.reshape(shape) + bias.reshape(shape), mean, var


def assert_close(actual, expected, rel=1e-12):
    """Max abs error at most ``rel`` of the reference's largest entry."""
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


# Stack width (None: the plain layer), input shape, reduced axes and the
# shape weight and bias broadcast as.
BN_LAYOUTS = {"NCT": (None, (4, 3, 5), (0, 2), (1, 3, 1)),
              "NC": (None, (6, 3), (0,), (1, 3)),
              "stacked-MNCT": (2, (2, 4, 3, 5), (1, 3), (2, 1, 3, 1))}


def bn_layer(stack):
    layer = BatchNorm1d(3, momentum=0.3)
    return layer if stack is None else stack_module(layer, StackContext(stack))


class TestBatchNormOracle:
    """BatchNorm1d and StackedBatchNorm1d train through the closed-form
    ``batch_norm`` op; the composite reference must agree at float64."""

    @pytest.mark.parametrize("layout", BN_LAYOUTS)
    def test_training_dispatches_two_ops(self, layout):
        stack, x_shape, _, _ = BN_LAYOUTS[layout]
        layer = bn_layer(stack)
        with capture() as tracer:
            layer(Tensor(RNG.standard_normal(x_shape)))
        assert [node.op.name for node in tracer.records
                if hasattr(node, "op")] == ["batch_norm_stats", "batch_norm"]

    @pytest.mark.parametrize("layout", BN_LAYOUTS)
    def test_matches_composite_reference(self, layout):
        """Output, dx, dw, db and the running statistics over a traced
        step and three replays, each on a fresh batch."""
        stack, x_shape, axes, shape = BN_LAYOUTS[layout]
        rng = np.random.default_rng(5)
        with default_dtype_scope("float64"):
            layer = bn_layer(stack)
            layer.weight.data[...] = 1.0 + rng.standard_normal(layer.weight.shape)
            layer.bias.data[...] = rng.standard_normal(layer.bias.shape)
            running_mean = layer.running_mean.copy()
            running_var = layer.running_var.copy()
            x = Tensor(np.zeros(x_shape), requires_grad=True)

            def step_fn(_, y):
                out = layer(x)
                return (out * y).sum(), out
            step = CompiledStep(step_fn)
            for _ in range(4):
                x.data[...] = 2.0 * rng.standard_normal(x_shape) + 1.0
                y = rng.standard_normal(x_shape)
                x.grad = layer.weight.grad = layer.bias.grad = None
                _, out = step(np.zeros(1), y)

                xr = Tensor(x.data.copy(), requires_grad=True)
                wr = Tensor(layer.weight.data.copy(), requires_grad=True)
                br = Tensor(layer.bias.data.copy(), requires_grad=True)
                out_r, mean, var = composite_batch_norm(xr, wr, br, axes,
                                                        shape, layer.eps)
                (out_r * Tensor(y)).sum().backward()
                m = layer.momentum
                running_mean = ((1 - m) * running_mean
                                + m * mean.data.reshape(running_mean.shape))
                running_var = ((1 - m) * running_var
                               + m * var.data.reshape(running_var.shape))

                assert_close(out, out_r.data)
                assert_close(x.grad, xr.grad)
                assert_close(layer.weight.grad, wr.grad)
                assert_close(layer.bias.grad, br.grad)
                assert_close(layer.running_mean, running_mean)
                assert_close(layer.running_var, running_var)
        assert step.compiled_shapes


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
