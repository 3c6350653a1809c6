"""Property-based tests (hypothesis) for the autograd engine: linearity
of the backward pass and of the causal convolution.  Per-op checks live in
the op table of ``tests/test_ops.py``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, conv1d_causal

# The suite's hypothesis profile (tests/conftest.py) draws 30 derandomized
# examples; these tests draw 25.
EXAMPLES = settings(max_examples=25)


class TestGradientProperties:
    @EXAMPLES
    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=6))
    def test_linearity_of_backward(self, values):
        """grad(2*f) == 2*grad(f)."""
        x1 = Tensor(np.array(values), requires_grad=True)
        (x1 * x1).sum().backward()
        g1 = x1.grad.copy()
        x2 = Tensor(np.array(values), requires_grad=True)
        ((x2 * x2) * 2.0).sum().backward()
        assert np.allclose(x2.grad, 2 * g1)


class TestConvProperties:
    @EXAMPLES
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.integers(5, 12))
    def test_conv_linearity_in_input(self, n, c_in, c_out, k, t):
        rng = np.random.default_rng(n * 100 + c_in * 10 + k)
        x = rng.standard_normal((n, c_in, t))
        w = Tensor(rng.standard_normal((c_out, c_in, k)))
        y1 = conv1d_causal(Tensor(x), w).data
        y2 = conv1d_causal(Tensor(2 * x), w).data
        assert np.allclose(y2, 2 * y1)

    @EXAMPLES
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(6, 14))
    def test_conv_additivity_in_weights(self, c, k, t):
        rng = np.random.default_rng(c * 31 + k * 7 + t)
        x = Tensor(rng.standard_normal((1, c, t)))
        w1 = rng.standard_normal((2, c, k))
        w2 = rng.standard_normal((2, c, k))
        lhs = conv1d_causal(x, Tensor(w1 + w2)).data
        rhs = conv1d_causal(x, Tensor(w1)).data + conv1d_causal(x, Tensor(w2)).data
        # The two sides round differently: float32 round-off on these O(10)
        # sums reaches 2e-6 over the whole strategy space, float64's 1e-15.
        atol = 1e-5 if lhs.dtype == np.float32 else 1e-8
        assert np.allclose(lhs, rhs, atol=atol)

    @EXAMPLES
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(6, 12))
    def test_conv_time_shift_equivariance(self, d, c, t):
        """Causal conv commutes with right-shift (zero boundary effects aside)."""
        rng = np.random.default_rng(d * 17 + c + t)
        x = np.zeros((1, c, t))
        x[:, :, : t - 1] = rng.standard_normal((1, c, t - 1))
        w = Tensor(rng.standard_normal((2, c, 2)))
        y = conv1d_causal(Tensor(x), w, dilation=d).data
        shifted = np.concatenate([np.zeros((1, c, 1)), x[:, :, :-1]], axis=2)
        y_shifted = conv1d_causal(Tensor(shifted), w, dilation=d).data
        assert np.allclose(y_shifted[:, :, 1:], y[:, :, :-1], atol=1e-10)
