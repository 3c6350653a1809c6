"""Tests for optimizers and early stopping."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Parameter
from repro.optim import SGD, Adam, EarlyStopping


def quadratic_step(param, optimizer, target=0.0):
    """One optimization step on f(p) = 0.5 * ||p - target||^2."""
    optimizer.zero_grad()
    param.grad = param.data - target
    optimizer.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([10.0, -10.0]))
        opt = SGD([p], lr=0.5)
        for _ in range(50):
            quadratic_step(p, opt)
        assert np.allclose(p.data, 0.0, atol=1e-6)

    def test_plain_sgd_update_rule(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.8)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            quadratic_step(p, opt)
        assert np.allclose(p.data, 0.0, atol=1e-4)

    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-4)

    def test_param_groups_have_own_lr(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        opt = Adam([{"params": [p1], "lr": 0.1}, {"params": [p2], "lr": 0.0}])
        for p in (p1, p2):
            p.grad = np.array([1.0])
        opt.step()
        assert p1.data[0] < 1.0
        assert p2.data[0] == 1.0

    def test_zero_grad_clears_all(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p])
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        stopper.update(1.1)
        assert not stopper.should_stop
        stopper.update(1.2)
        assert stopper.should_stop

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0)
        stopper.update(1.5)
        stopper.update(0.5)
        stopper.update(0.9)
        assert not stopper.should_stop

    def test_best_state_checkpoint(self):
        stopper = EarlyStopping(patience=5)
        stopper.update(1.0, state={"w": np.array([1.0])})
        stopper.update(2.0, state={"w": np.array([2.0])})
        assert stopper.best_state["w"][0] == 1.0

    def test_state_is_deep_copied(self):
        stopper = EarlyStopping(patience=5)
        state = {"w": np.array([1.0])}
        stopper.update(1.0, state=state)
        state["w"][0] = 99.0
        assert stopper.best_state["w"][0] == 1.0

    def test_reset(self):
        stopper = EarlyStopping(patience=1)
        stopper.update(1.0)
        stopper.update(2.0)
        stopper.reset()
        assert not stopper.should_stop
        assert stopper.best is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
