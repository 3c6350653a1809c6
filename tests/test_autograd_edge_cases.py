"""Edge-case tests for the autograd engine discovered during integration."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    concatenate,
    conv1d_causal,
    no_grad,
    stack,
)

RNG = np.random.default_rng(555)


class TestGraphTopology:
    def test_shared_subexpression_single_backward(self):
        """A node used by two consumers propagates exactly once."""
        a = Tensor(2.0, requires_grad=True)
        shared = a * 3          # used twice below
        out = shared * shared   # d/da = 2 * 3a * 3 = 18a = 36
        out.backward()
        assert a.grad == pytest.approx(36.0)

    def test_backward_twice_accumulates(self):
        a = Tensor(1.0, requires_grad=True)
        out = a * 5
        out.backward()
        out2 = a * 5
        out2.backward()
        assert a.grad == pytest.approx(10.0)

    def test_detached_branch_blocks_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3).detach()
        out = (a + b).sum()
        out.backward()
        assert np.allclose(a.grad, [1.0])  # only the direct path

    def test_mixed_grad_and_nograd_inputs(self):
        a = Tensor(RNG.standard_normal((3,)), requires_grad=True)
        b = Tensor(RNG.standard_normal((3,)))  # constant
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)
        assert b.grad is None

    def test_grad_inside_no_grad_composes(self):
        a = Tensor(2.0, requires_grad=True)
        b = a * 3
        with no_grad():
            frozen = b * 10  # not recorded
        out = b + Tensor(frozen.data)
        out.backward()
        assert a.grad == pytest.approx(3.0)

    def test_scalar_times_empty_like_shapes(self):
        a = Tensor(np.zeros((0, 3)), requires_grad=True)
        out = (a * 2).sum()
        out.backward()
        assert a.grad.shape == (0, 3)


class TestIndexingEdgeCases:
    def test_negative_step_slice(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        out = a[::-1]
        assert out.data.tolist() == [4, 3, 2, 1, 0]
        (out * Tensor(np.arange(5.0))).sum().backward()
        # grad[i] = weight of reversed position = 4 - i
        assert a.grad.tolist() == [4, 3, 2, 1, 0]

    def test_boolean_mask_indexing(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        out = a[mask]
        out.sum().backward()
        assert a.grad.tolist() == [1, 0, 1, 0]

    def test_index_array_flip_used_by_pitconv(self):
        """The mask flip in PITConv1d relies on fancy-index gradients."""
        a = Tensor(np.arange(6.0), requires_grad=True)
        flip = np.arange(6)[::-1].copy()
        out = a[flip] * Tensor(np.array([1.0, 0, 0, 0, 0, 0]))
        out.sum().backward()
        # Only position 5 (flipped to 0) gets gradient.
        assert a.grad.tolist() == [0, 0, 0, 0, 0, 1]

    def test_scalar_index(self):
        a = Tensor(np.arange(3.0), requires_grad=True)
        a[1].backward(np.array(2.0))
        assert a.grad.tolist() == [0, 2, 0]


class TestBroadcastingEdgeCases:
    def test_scalar_broadcast_against_3d(self):
        a = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        s = Tensor(2.5, requires_grad=True)
        check_gradients(lambda x, y: x * y, [a, s])

    def test_double_broadcast(self):
        a = Tensor(RNG.standard_normal((1, 3, 1)), requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 1, 4)), requires_grad=True)
        check_gradients(lambda x, y: x + y, [a, b])


class TestConvEdgeCases:
    def test_single_timestep_input(self):
        x = Tensor(RNG.standard_normal((1, 2, 1)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, 4)), requires_grad=True)
        out = conv1d_causal(x, w, dilation=2)
        assert out.shape == (1, 3, 1)
        check_gradients(lambda x, w: conv1d_causal(x, w, dilation=2), [x, w])

    def test_kernel_longer_than_input(self):
        """Causal padding makes any kernel length valid."""
        x = Tensor(RNG.standard_normal((1, 1, 3)))
        w = Tensor(RNG.standard_normal((1, 1, 10)))
        out = conv1d_causal(x, w)
        assert out.shape == (1, 1, 3)

    def test_dilation_larger_than_input(self):
        x = Tensor(np.ones((1, 1, 4)))
        w = Tensor(np.ones((1, 1, 2)))
        out = conv1d_causal(x, w, dilation=8)
        # Lag-8 tap always reads padding: output equals the lag-0 tap alone.
        assert np.allclose(out.data, 1.0)

    def test_batch_of_one_and_many_match(self):
        x = RNG.standard_normal((4, 2, 10))
        w = Tensor(RNG.standard_normal((3, 2, 3)))
        full = conv1d_causal(Tensor(x), w, dilation=2).data
        singles = [conv1d_causal(Tensor(x[i:i + 1]), w, dilation=2).data
                   for i in range(4)]
        assert np.allclose(full, np.concatenate(singles))


class TestStackConcatEdgeCases:
    def test_concat_single_tensor(self):
        a = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        out = concatenate([a], axis=0)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_stack_negative_axis(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        out = stack([a, b], axis=-1)
        assert out.shape == (2, 3, 2)

    def test_concat_mixed_grad_flags(self):
        a = Tensor(RNG.standard_normal((2,)), requires_grad=True)
        b = Tensor(RNG.standard_normal((3,)))
        out = concatenate([a, b])
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert b.grad is None
