"""Tests for the Module/Parameter system."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    Flatten,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.module import probe_shapes


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones(3))

    def forward(self, x):
        return x * self.weight


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.left = Leaf()
        self.right = Leaf()
        self.own = Parameter(np.zeros(2))

    def forward(self, x):
        return self.left(x) + self.right(x)


class TestRegistration:
    def test_parameters_registered_on_setattr(self):
        leaf = Leaf()
        assert len(leaf.parameters()) == 1

    def test_nested_parameters_found(self):
        tree = Tree()
        assert len(tree.parameters()) == 3

    def test_named_parameters_use_dotted_paths(self):
        names = dict(Tree().named_parameters())
        assert set(names) == {"own", "left.weight", "right.weight"}

    def test_modules_iteration(self):
        tree = Tree()
        assert len(tree.modules()) == 3
        assert len(tree.children()) == 2

    def test_named_modules(self):
        names = [name for name, _ in Tree().named_modules()]
        assert "" in names and "left" in names and "right" in names

    def test_parameter_requires_grad(self):
        assert Parameter(np.ones(2)).requires_grad

    def test_count_parameters(self):
        assert Tree().count_parameters() == 8  # 3 + 3 + 2


class TestBuffers:
    def test_register_and_update(self):
        m = Module()
        m.register_buffer("stats", np.zeros(3))
        assert np.allclose(m.stats, 0.0)
        m.update_buffer("stats", np.ones(3))
        assert np.allclose(m.stats, 1.0)

    def test_update_unknown_buffer_raises(self):
        m = Module()
        with pytest.raises(KeyError):
            m.update_buffer("nope", np.ones(1))

    def test_buffers_in_state_dict(self):
        m = Module()
        m.register_buffer("stats", np.arange(3.0))
        assert "stats" in m.state_dict()

    def test_named_buffers_nested(self):
        outer = Module()
        inner = Module()
        inner.register_buffer("b", np.zeros(1))
        outer.inner = inner
        assert dict(outer.named_buffers()).keys() == {"inner.b"}


class TestModes:
    def test_train_eval_propagate(self):
        tree = Tree()
        tree.eval()
        assert not tree.training
        assert not tree.left.training
        tree.train()
        assert tree.right.training

    def test_zero_grad(self):
        leaf = Leaf()
        leaf(Tensor(np.ones(3))).sum().backward()
        assert leaf.weight.grad is not None
        leaf.zero_grad()
        assert leaf.weight.grad is None


class TestStateDict:
    def test_round_trip(self):
        a, b = Tree(), Tree()
        for p in a.parameters():
            p.data[...] = np.random.default_rng(0).standard_normal(p.shape)
        b.load_state_dict(a.state_dict())
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_state_dict_is_a_copy(self):
        leaf = Leaf()
        state = leaf.state_dict()
        state["weight"][0] = 42.0
        assert leaf.weight.data[0] == 1.0

    def test_missing_key_raises(self):
        tree = Tree()
        state = tree.state_dict()
        del state["own"]
        with pytest.raises(KeyError):
            tree.load_state_dict(state)

    def test_unexpected_key_raises(self):
        tree = Tree()
        state = tree.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            tree.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        tree = Tree()
        state = tree.state_dict()
        state["own"] = np.zeros(5)
        with pytest.raises(ValueError):
            tree.load_state_dict(state)

    def test_failed_load_leaves_model_unchanged(self):
        """Every shape is checked before any array is assigned: a state
        whose last parameter does not fit changes nothing."""
        tree = Tree()
        before = tree.state_dict()
        state = {name: value + 1.0 for name, value in before.items()}
        last = list(dict(tree.named_parameters()))[-1]
        state[last] = np.zeros(state[last].size + 1)
        with pytest.raises(ValueError, match="shape mismatch"):
            tree.load_state_dict(state)
        for name, value in tree.state_dict().items():
            assert np.array_equal(value, before[name]), name

    def test_buffer_round_trip(self):
        a, b = Module(), Module()
        a.register_buffer("s", np.arange(3.0))
        b.register_buffer("s", np.zeros(3))
        b.load_state_dict(a.state_dict())
        assert np.allclose(b.s, [0, 1, 2])


class TestSequential:
    def test_applies_in_order(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        out = seq(Tensor(rng.standard_normal((3, 4))))
        assert out.shape == (3, 2)

    def test_len_getitem_iter(self):
        seq = Sequential(ReLU(), ReLU())
        assert len(seq) == 2
        assert isinstance(seq[0], ReLU)
        assert len(list(seq)) == 2

    def test_append(self):
        seq = Sequential(ReLU())
        seq.append(ReLU())
        assert len(seq) == 2

    def test_parameters_collected(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
        assert len(seq.parameters()) == 4

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_repr_contains_children(self):
        assert "ReLU" in repr(Sequential(ReLU()))


class TestProbeShapes:
    def make(self):
        rng = np.random.default_rng(0)
        return Sequential(CausalConv1d(2, 3, 3, stride=2, rng=rng),
                          BatchNorm1d(3), ReLU(), Flatten(),
                          Linear(3 * 4, 2, rng=rng))

    def test_every_module_in_and_out_shape(self):
        net = self.make()
        conv, bn, relu, flatten, linear = net
        assert probe_shapes(net, (1, 2, 8)) == {
            net: ((1, 2, 8), (1, 2)),
            conv: ((1, 2, 8), (1, 3, 4)),
            bn: ((1, 3, 4), (1, 3, 4)),
            relu: ((1, 3, 4), (1, 3, 4)),
            flatten: ((1, 3, 4), (1, 12)),
            linear: ((1, 12), (1, 2)),
        }

    def test_leaves_modes_and_running_stats_unchanged(self):
        net = self.make()
        net[2].eval()  # a mixed-mode net keeps each module's own mode
        bn = net[1]
        before = {name: np.array(buf, copy=True)
                  for name, buf in bn.named_buffers()}
        probe_shapes(net, (1, 2, 8))
        assert [m.training for m in net.modules()] == [
            True, True, True, False, True, True]
        for name, buf in bn.named_buffers():
            assert np.array_equal(buf, before[name])

    def test_restores_call_when_the_forward_raises(self):
        net = self.make()
        with pytest.raises(ValueError):
            probe_shapes(net, (1, 5, 8))  # wrong channel count
        assert Module.__call__ is Module.__dict__["__call__"]
        assert net.training
        out = net(Tensor(np.zeros((2, 2, 8))))
        assert out.shape == (2, 2)
