"""Tests for the core autograd engine: ops, broadcasting, backward."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    concatenate,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)

RNG = np.random.default_rng(1234)


def make(shape, requires_grad=True):
    return Tensor(RNG.standard_normal(shape), requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Construction and introspection
# ----------------------------------------------------------------------

class TestConstruction:
    def test_from_list(self):
        from repro.autograd import get_default_dtype
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == get_default_dtype()

    def test_from_int_array_upcasts(self):
        from repro.autograd import get_default_dtype
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.dtype == get_default_dtype()

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_item_rejects_multi_element(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_detach_severs_graph(self):
        a = make((3,))
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_copy_is_deep(self):
        a = Tensor([1.0, 2.0])
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0


# ----------------------------------------------------------------------
# Backward engine mechanics
# ----------------------------------------------------------------------

class TestBackwardEngine:
    def test_scalar_backward_default_grad(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a).backward()
        assert a.grad == pytest.approx(4.0)

    def test_backward_requires_scalar_without_grad(self):
        a = make((3,))
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = make((3,))
        out = a * 3
        out.backward(np.ones(3))
        assert np.allclose(a.grad, 3.0)

    def test_backward_grad_shape_mismatch(self):
        a = make((3,))
        out = a * 3
        with pytest.raises(ValueError):
            out.backward(np.ones(4))

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_across_uses(self):
        a = Tensor(3.0, requires_grad=True)
        out = a * a + a  # d/da = 2a + 1 = 7
        out.backward()
        assert a.grad == pytest.approx(7.0)

    def test_diamond_graph(self):
        a = Tensor(2.0, requires_grad=True)
        b = a * 3
        c = a * 5
        (b + c).backward()
        assert a.grad == pytest.approx(8.0)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(1.0, requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.backward()
        assert a.grad == pytest.approx(1.0)

    def test_zero_grad(self):
        a = Tensor(1.0, requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_blocks_recording(self):
        a = Tensor(1.0, requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()


# ----------------------------------------------------------------------
# Elementwise arithmetic + gradcheck
# ----------------------------------------------------------------------

class TestArithmetic:
    def test_add_values(self):
        assert np.allclose((Tensor([1.0, 2]) + Tensor([3.0, 4])).data, [4, 6])

    def test_radd_scalar(self):
        assert np.allclose((1.0 + Tensor([1.0])).data, [2.0])

    def test_sub_rsub(self):
        assert (5.0 - Tensor(2.0)).item() == 3.0
        assert (Tensor(5.0) - 2.0).item() == 3.0

    def test_mul_rmul(self):
        assert (3.0 * Tensor(2.0)).item() == 6.0

    def test_div_rdiv(self):
        assert (Tensor(6.0) / 2.0).item() == 3.0
        assert (6.0 / Tensor(2.0)).item() == 3.0

    def test_neg(self):
        assert (-Tensor(2.0)).item() == -2.0

    def test_pow_scalar_only(self):
        with pytest.raises(TypeError):
            Tensor(2.0) ** Tensor(2.0)

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
    ])
    def test_binary_gradcheck(self, op):
        a = Tensor(RNG.standard_normal((3, 4)) + 3.0, requires_grad=True)
        b = Tensor(RNG.standard_normal((3, 4)) + 3.0, requires_grad=True)
        check_gradients(op, [a, b])

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((3, 4), (4,)),
        ((3, 4), (1, 4)),
        ((3, 1), (1, 4)),
        ((2, 3, 4), (3, 4)),
        ((2, 3, 4), (1,)),
        ((5,), ()),
    ])
    def test_broadcast_gradcheck(self, shape_a, shape_b):
        a = Tensor(RNG.standard_normal(shape_a) + 2.0, requires_grad=True)
        b = Tensor(RNG.standard_normal(shape_b) + 2.0, requires_grad=True)
        check_gradients(lambda x, y: x * y + x / y, [a, b])

    @pytest.mark.parametrize("func", [
        lambda a: a.exp(),
        lambda a: (a + 5.0).log(),
        lambda a: (a + 5.0).sqrt(),
        lambda a: a.sigmoid(),
        lambda a: a.tanh(),
        lambda a: a ** 3,
        lambda a: a.relu(),
    ])
    def test_unary_gradcheck(self, func):
        a = Tensor(RNG.standard_normal((4, 3)) * 0.8 + 0.1, requires_grad=True)
        check_gradients(func, [a])

    def test_abs_gradient_sign(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])

    def test_clip_gradient_mask(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_clip_values(self):
        assert np.allclose(Tensor([-2.0, 0.5, 2.0]).clip(-1, 1).data, [-1, 0.5, 1])

    def test_comparisons_are_detached(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        mask = a > 1.5
        assert not mask.requires_grad
        assert mask.data.tolist() == [False, True]
        assert (a < 1.5).data.tolist() == [True, False]
        assert (a >= 2.0).data.tolist() == [False, True]
        assert (a <= 1.0).data.tolist() == [True, False]


# ----------------------------------------------------------------------
# Matmul
# ----------------------------------------------------------------------

class TestMatmul:
    def test_2d_values(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        b = np.arange(12, dtype=float).reshape(3, 4)
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b)

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((2, 3), (3, 4)),
        ((3,), (3, 4)),
        ((2, 3), (3,)),
        ((3,), (3,)),
        ((5, 2, 3), (3, 4)),
        ((5, 2, 3), (5, 3, 4)),
    ])
    def test_gradcheck(self, shape_a, shape_b):
        a = make(shape_a)
        b = make(shape_b)
        check_gradients(lambda x, y: x @ y, [a, b])


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, False), (0, True),
        ((0, 1), False), ((0, 2), True), (-1, False),
    ])
    def test_sum_gradcheck(self, axis, keepdims):
        a = make((2, 3, 4))
        check_gradients(lambda x: x.sum(axis=axis, keepdims=keepdims), [a])

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (1, False), ((0, 2), True), (2, True),
    ])
    def test_mean_gradcheck(self, axis, keepdims):
        a = make((2, 3, 4))
        check_gradients(lambda x: x.mean(axis=axis, keepdims=keepdims), [a])

    def test_sum_matches_numpy(self):
        a = RNG.standard_normal((3, 4))
        assert np.allclose(Tensor(a).sum(axis=1).data, a.sum(axis=1))

    def test_mean_matches_numpy(self):
        a = RNG.standard_normal((3, 4))
        assert np.allclose(Tensor(a).mean(axis=0).data, a.mean(axis=0))

    def test_var_matches_numpy(self):
        a = RNG.standard_normal((3, 4))
        assert np.allclose(Tensor(a).var(axis=0).data, a.var(axis=0))

    def test_var_gradcheck(self):
        a = make((3, 4))
        check_gradients(lambda x: x.var(axis=0), [a], atol=1e-4)

    def test_max_values(self):
        a = RNG.standard_normal((3, 4))
        assert np.allclose(Tensor(a).max(axis=1).data, a.max(axis=1))

    def test_max_gradient_unique(self):
        a = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_gradient_splits_ties(self):
        a = Tensor([3.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.5, 0.5])

    def test_min(self):
        a = Tensor([[4.0, -1.0, 2.0]], requires_grad=True)
        out = a.min(axis=1)
        assert out.data.tolist() == [-1.0]
        out.sum().backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_prod_values(self):
        a = Tensor([2.0, 3.0, 4.0])
        assert a.prod().item() == pytest.approx(24.0)

    def test_prod_gradcheck_nonzero(self):
        a = Tensor(RNG.standard_normal(5) + 3.0, requires_grad=True)
        check_gradients(lambda x: x.prod(), [a])

    def test_prod_gradient_with_single_zero(self):
        # d(prod)/dx_i at a single zero entry = product of the others.
        a = Tensor([2.0, 0.0, 3.0], requires_grad=True)
        a.prod().backward()
        assert np.allclose(a.grad, [0.0, 6.0, 0.0])

    def test_prod_gradient_with_two_zeros_is_zero(self):
        a = Tensor([0.0, 0.0, 3.0], requires_grad=True)
        a.prod().backward()
        assert np.allclose(a.grad, [0.0, 0.0, 0.0])


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

class TestShapeOps:
    def test_reshape_values_and_grad(self):
        a = make((2, 6))
        check_gradients(lambda x: x.reshape(3, 4) * 2.0, [a])

    def test_reshape_minus_one(self):
        assert Tensor(np.zeros((2, 6))).reshape(4, -1).shape == (4, 3)

    def test_reshape_tuple_arg(self):
        assert Tensor(np.zeros((6,))).reshape((2, 3)).shape == (2, 3)

    def test_transpose_default_reverses(self):
        assert Tensor(np.zeros((2, 3, 4))).transpose().shape == (4, 3, 2)

    def test_transpose_axes_gradcheck(self):
        a = make((2, 3, 4))
        check_gradients(lambda x: x.transpose(1, 0, 2) * 3.0, [a])

    def test_t_property(self):
        assert Tensor(np.zeros((2, 3))).T.shape == (3, 2)

    def test_getitem_slice_gradcheck(self):
        a = make((4, 5))
        check_gradients(lambda x: x[1:3, ::2], [a])

    def test_getitem_int_index(self):
        a = make((4, 5))
        check_gradients(lambda x: x[2], [a])

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = a[np.array([0, 0, 2])]
        out.sum().backward()
        assert np.allclose(a.grad, [2.0, 0.0, 1.0])

    def test_concatenate_gradcheck(self):
        a, b = make((2, 3)), make((2, 2))
        check_gradients(lambda x, y: concatenate([x, y], axis=1), [a, b])

    def test_concatenate_values(self):
        out = concatenate([Tensor([1.0]), Tensor([2.0, 3.0])])
        assert out.data.tolist() == [1.0, 2.0, 3.0]

    def test_stack_gradcheck(self):
        a, b = make((2, 3)), make((2, 3))
        check_gradients(lambda x, y: stack([x, y], axis=1), [a, b])

    def test_stack_shape(self):
        parts = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))]
        assert stack(parts, axis=0).shape == (2, 2, 3)


# ----------------------------------------------------------------------
# Selection ops
# ----------------------------------------------------------------------

class TestSelectionOps:
    def test_where_values(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert out.data.tolist() == [1.0, 2.0]

    def test_where_gradcheck(self):
        cond = RNG.random((3, 4)) > 0.5
        a, b = make((3, 4)), make((3, 4))
        check_gradients(lambda x, y: where(cond, x, y), [a, b])
