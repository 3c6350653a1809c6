"""Tests for the core autograd engine: construction, the backward pass
and no_grad.  Every op has its entry in the op table of
``tests/test_ops.py``."""

import numpy as np
import pytest

from repro.autograd import Tensor, is_grad_enabled, no_grad

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
