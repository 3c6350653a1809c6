"""Tests for causal dilated conv1d and pooling ops."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool1d,
    check_gradients,
    conv1d_causal,
    conv1d_causal_path,
    global_avg_pool1d,
)

RNG = np.random.default_rng(7)


def naive_conv1d_causal(x, w, b=None, dilation=1, stride=1):
    """Direct implementation of paper Eq. 1 (lag form) for cross-checking."""
    n, c_in, t = x.shape
    c_out, _, k = w.shape
    t_out = (t + stride - 1) // stride
    out = np.zeros((n, c_out, t_out))
    for sample in range(n):
        for m in range(c_out):
            for idx, t_pos in enumerate(range(0, t, stride)):
                acc = 0.0
                for i in range(k):
                    lag = (k - 1 - i) * dilation
                    src = t_pos - lag
                    if src >= 0:
                        acc += float(x[sample, :, src] @ w[m, :, i])
                out[sample, m, idx] = acc
            if b is not None:
                out[sample, m, :] += b[m]
    return out


class TestConvForward:
    @pytest.mark.parametrize("dilation", [1, 2, 3, 4])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_matches_naive(self, dilation, kernel):
        x = RNG.standard_normal((2, 3, 12))
        w = RNG.standard_normal((4, 3, kernel))
        b = RNG.standard_normal(4)
        out = conv1d_causal(Tensor(x), Tensor(w), Tensor(b), dilation=dilation)
        assert np.allclose(out.data, naive_conv1d_causal(x, w, b, dilation))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_stride_matches_naive(self, stride):
        x = RNG.standard_normal((2, 3, 13))
        w = RNG.standard_normal((4, 3, 3))
        out = conv1d_causal(Tensor(x), Tensor(w), dilation=2, stride=stride)
        assert np.allclose(out.data, naive_conv1d_causal(x, w, None, 2, stride))

    def test_output_length_preserved(self):
        out = conv1d_causal(Tensor(np.zeros((1, 2, 10))),
                            Tensor(np.zeros((3, 2, 5))), dilation=2)
        assert out.shape == (1, 3, 10)

    def test_causality(self):
        """Changing a future input must not affect past outputs."""
        x = RNG.standard_normal((1, 2, 10))
        w = RNG.standard_normal((3, 2, 4))
        base = conv1d_causal(Tensor(x), Tensor(w), dilation=2).data
        perturbed = x.copy()
        perturbed[:, :, 7] += 10.0
        out = conv1d_causal(Tensor(perturbed), Tensor(w), dilation=2).data
        assert np.allclose(out[:, :, :7], base[:, :, :7])
        assert not np.allclose(out[:, :, 7], base[:, :, 7])

    def test_receptive_field_extent(self):
        """Output at t only sees (k-1)*d + 1 samples back."""
        k, d = 3, 4
        rf = (k - 1) * d + 1
        x = np.zeros((1, 1, 20))
        w = np.ones((1, 1, k))
        t_probe = 15
        far_past = t_probe - rf  # just outside the receptive field
        x[0, 0, far_past] = 1.0
        out = conv1d_causal(Tensor(x), Tensor(w), dilation=d).data
        assert out[0, 0, t_probe] == 0.0
        x[0, 0, far_past + 1] = 1.0  # oldest in-field sample
        out = conv1d_causal(Tensor(x), Tensor(w), dilation=d).data
        assert out[0, 0, t_probe] == 1.0

    def test_kernel_size_one_is_pointwise(self):
        x = RNG.standard_normal((2, 3, 8))
        w = RNG.standard_normal((4, 3, 1))
        out = conv1d_causal(Tensor(x), Tensor(w))
        expected = np.einsum("oc,nct->not", w[:, :, 0], x)
        # atol for the float32 default, where the conv computes in
        # single precision against this float64 reference.
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            conv1d_causal(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3, 3))))
        with pytest.raises(ValueError):
            conv1d_causal(Tensor(np.zeros((1, 3, 5))), Tensor(np.zeros((4, 3))))
        with pytest.raises(ValueError):
            conv1d_causal(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((4, 3, 3))))
        with pytest.raises(ValueError):
            conv1d_causal(Tensor(np.zeros((1, 3, 5))), Tensor(np.zeros((4, 3, 3))),
                          dilation=0)

    def test_path_input_validation(self):
        x = Tensor(np.zeros((1, 3, 5)))
        branches = [(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros(4))),
                    (Tensor(np.zeros((4, 3, 2))), Tensor(np.zeros(4)))]
        alpha = Tensor(np.zeros(2))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="per dilation"):
            conv1d_causal_path(x, alpha, branches[:1], (1, 2), rng=rng)
        with pytest.raises(ValueError, match="per dilation"):
            conv1d_causal_path(x, Tensor(np.zeros(3)), branches, (1, 2),
                               rng=rng)
        with pytest.raises(ValueError, match="channels"):
            conv1d_causal_path(Tensor(np.zeros((1, 2, 5))), alpha, branches,
                               (1, 2), rng=rng)
        with pytest.raises(ValueError, match="generator"):
            conv1d_causal_path(x, alpha, branches, (1, 2))
        with pytest.raises(ValueError, match="stride"):
            conv1d_causal_path(x, alpha, branches, (1, 2), stride=0, rng=rng)
        # Without sampling the argmax branch needs no generator.
        out = conv1d_causal_path(x, alpha, branches, (1, 2), sample=False)
        assert out.shape == (1, 4, 5)


class TestConvBackward:
    @pytest.mark.parametrize("dilation,stride", [(1, 1), (2, 1), (3, 2), (1, 3)])
    def test_gradcheck_all_inputs(self, dilation, stride):
        x = Tensor(RNG.standard_normal((2, 2, 9)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        check_gradients(
            lambda x, w, b: conv1d_causal(x, w, b, dilation=dilation, stride=stride),
            [x, w, b])

    def test_gradcheck_no_bias(self):
        x = Tensor(RNG.standard_normal((1, 2, 7)), requires_grad=True)
        w = Tensor(RNG.standard_normal((2, 2, 3)), requires_grad=True)
        check_gradients(lambda x, w: conv1d_causal(x, w, dilation=2), [x, w])

    def test_weight_only_grad(self):
        x = Tensor(RNG.standard_normal((1, 2, 7)))
        w = Tensor(RNG.standard_normal((2, 2, 3)), requires_grad=True)
        out = conv1d_causal(x, w)
        out.sum().backward()
        assert w.grad is not None
        assert x.grad is None


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(8, dtype=float).reshape(1, 1, 8))
        out = avg_pool1d(x, 2)
        assert out.data.reshape(-1).tolist() == [0.5, 2.5, 4.5, 6.5]

    def test_avg_pool_stride(self):
        x = Tensor(np.arange(8, dtype=float).reshape(1, 1, 8))
        out = avg_pool1d(x, 2, stride=3)
        assert out.data.reshape(-1).tolist() == [0.5, 3.5, 6.5]

    def test_avg_pool_drops_trailing(self):
        x = Tensor(np.arange(7, dtype=float).reshape(1, 1, 7))
        assert avg_pool1d(x, 2).shape == (1, 1, 3)

    def test_avg_pool_gradcheck(self):
        x = Tensor(RNG.standard_normal((2, 3, 9)), requires_grad=True)
        check_gradients(lambda x: avg_pool1d(x, 3, stride=2), [x])

    def test_avg_pool_window_too_large(self):
        with pytest.raises(ValueError):
            avg_pool1d(Tensor(np.zeros((1, 1, 3))), 5)

    def test_pool_rejects_2d(self):
        with pytest.raises(ValueError):
            avg_pool1d(Tensor(np.zeros((2, 3))), 2)

    def test_global_avg_pool(self):
        x = Tensor(RNG.standard_normal((2, 3, 5)), requires_grad=True)
        out = global_avg_pool1d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.data.mean(axis=2))
        check_gradients(global_avg_pool1d, [x])
