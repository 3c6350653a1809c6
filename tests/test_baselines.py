"""Tests for the ProxylessNAS and random-search baselines."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.baselines import (
    ProxylessDilatedConv1d,
    ProxylessTrainer,
    expected_size,
    export_proxyless,
    proxyless_layers,
    proxylessify,
    random_configurations,
    random_search,
)
from repro.core import layer_choices, pit_layers, search_space_size
from repro.data import ArrayDataset, DataLoader
from repro.models import temponet_seed
from repro.nn import CausalConv1d, Module, ReLU, Sequential, mse_loss

RNG = np.random.default_rng(55)


class TinySeed(Module):
    def __init__(self, seed=0):
        super().__init__()
        from repro.core import PITConv1d
        rng = np.random.default_rng(seed)
        self.c1 = PITConv1d(1, 3, rf_max=9, rng=rng)
        self.r = ReLU()
        self.c2 = PITConv1d(3, 1, rf_max=5, rng=rng)

    def forward(self, x):
        return self.c2(self.r(self.c1(x)))


def make_loaders(n=16, t=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, t))
    y = np.concatenate([np.zeros((n, 1, 1)), x[:, :, :-1]], axis=2)
    train = ArrayDataset(x[: n // 2], y[: n // 2])
    val = ArrayDataset(x[n // 2:], y[n // 2:])
    return (DataLoader(train, 8, shuffle=True, rng=np.random.default_rng(1)),
            DataLoader(val, 8))


class TestProxylessLayer:
    def test_branch_count_matches_pit_choices(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        assert layer.dilations == (1, 2, 4, 8)
        assert len(layer.branches) == 4

    def test_branches_keep_receptive_field(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=17, rng=np.random.default_rng(0))
        for branch in layer.branches:
            assert branch.receptive_field == 17

    def test_initial_probabilities_uniform(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        assert np.allclose(layer.probabilities(), 0.25)

    def test_forward_shape(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        out = layer(Tensor(RNG.standard_normal((2, 2, 10))))
        assert out.shape == (2, 3, 10)

    def test_eval_mode_uses_argmax(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        layer.alpha.data[...] = [0.0, 5.0, 0.0, 0.0]
        layer.eval()
        x = Tensor(RNG.standard_normal((1, 2, 8)))
        expected = layer.branches[1](x)
        assert np.allclose(layer(x).data, expected.data)
        assert layer.chosen_dilation() == 2

    def test_sampling_disabled_uses_argmax(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        layer.alpha.data[...] = [0.0, 0.0, 3.0, 0.0]
        layer.set_sampling(False)
        x = Tensor(RNG.standard_normal((1, 2, 8)))
        for _ in range(3):
            assert np.array_equal(layer(x).data, layer.branches[2](x).data)

    def test_alpha_receives_gradient(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        out = layer(Tensor(RNG.standard_normal((1, 2, 8))))
        out.sum().backward()
        assert layer.alpha.grad is not None
        assert np.any(layer.alpha.grad != 0)

    def test_sampled_branch_weights_receive_gradient(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(3))
        x = Tensor(RNG.standard_normal((1, 2, 8)))
        out = layer(x)
        out.sum().backward()
        graded = [i for i, branch in enumerate(layer.branches)
                  if branch.weight.grad is not None]
        assert len(graded) == 1
        sampled, = graded
        branch = layer.branches[sampled]
        assert branch.bias.grad is not None
        # The branch that was trained is the one whose output was returned.
        assert np.array_equal(out.data, branch(x).data)
        for i, other in enumerate(layer.branches):
            if i != sampled:
                assert other.bias.grad is None

    def test_branch_sizes_decrease_with_dilation(self):
        layer = ProxylessDilatedConv1d(2, 3, rf_max=9, rng=np.random.default_rng(0))
        sizes = layer.branch_sizes()
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestProxylessify:
    def test_replaces_all_pit_layers(self):
        seed = TinySeed()
        supernet = proxylessify(seed, rng=np.random.default_rng(0))
        assert len(proxyless_layers(supernet)) == 2
        assert pit_layers(supernet) == []
        # Original untouched.
        assert len(pit_layers(seed)) == 2

    def test_same_search_space_as_pit(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        supernet = proxylessify(seed, rng=np.random.default_rng(0))
        pit_space = search_space_size(seed)
        proxyless_space = 1
        for layer in proxyless_layers(supernet):
            proxyless_space *= len(layer.dilations)
        assert proxyless_space == pit_space

    def test_per_layer_choices_match(self):
        seed = TinySeed()
        supernet = proxylessify(seed, rng=np.random.default_rng(0))
        for pit_layer, px_layer in zip(pit_layers(seed), proxyless_layers(supernet)):
            assert list(px_layer.dilations) == layer_choices(pit_layer)


class TestExpectedSize:
    def test_uniform_alpha_is_mean_size(self):
        seed = TinySeed()
        supernet = proxylessify(seed, rng=np.random.default_rng(0))
        total = expected_size(supernet).item()
        manual = sum(layer.branch_sizes().mean() for layer in proxyless_layers(supernet))
        assert total == pytest.approx(manual)

    def test_differentiable_wrt_alpha(self):
        supernet = proxylessify(TinySeed(), rng=np.random.default_rng(0))
        expected_size(supernet).backward()
        for layer in proxyless_layers(supernet):
            assert layer.alpha.grad is not None

    def test_peaked_alpha_approaches_branch_size(self):
        supernet = proxylessify(TinySeed(), rng=np.random.default_rng(0))
        for layer in proxyless_layers(supernet):
            layer.alpha.data[...] = 0.0
            layer.alpha.data[-1] = 50.0  # max dilation branch
        total = expected_size(supernet).item()
        manual = sum(layer.branch_sizes()[-1] for layer in proxyless_layers(supernet))
        assert total == pytest.approx(manual, rel=1e-6)


class TestExportProxyless:
    def test_export_extracts_argmax_branches(self):
        supernet = proxylessify(TinySeed(), rng=np.random.default_rng(0))
        for layer in proxyless_layers(supernet):
            layer.alpha.data[...] = 0.0
            layer.alpha.data[1] = 5.0
        exported = export_proxyless(supernet)
        assert proxyless_layers(exported) == []
        convs = [m for m in exported.modules()
                 if isinstance(m, CausalConv1d) and m.kernel_size > 1]
        assert all(c.dilation == 2 for c in convs)

    def test_export_forward_matches_argmax_path(self):
        supernet = proxylessify(TinySeed(), rng=np.random.default_rng(0))
        supernet.eval()
        exported = export_proxyless(supernet)
        exported.eval()
        x = Tensor(RNG.standard_normal((1, 1, 10)))
        assert np.allclose(supernet(x).data, exported(x).data)


class TestProxylessTrainer:
    def test_requires_supernet(self):
        with pytest.raises(ValueError):
            ProxylessTrainer(Sequential(ReLU()), mse_loss, lam=0.0)

    def test_full_search_runs(self):
        train, val = make_loaders()
        supernet = proxylessify(TinySeed(), rng=np.random.default_rng(2))
        trainer = ProxylessTrainer(supernet, mse_loss, lam=0.0, warmup_epochs=1,
                                   max_search_epochs=2, search_patience=5,
                                   finetune_epochs=2, finetune_patience=5)
        result = trainer.fit(train, val)
        assert len(result.dilations) == 2
        assert result.params > 0
        assert result.search_seconds > 0
        assert result.finetune_seconds > 0
        assert trainer.derived is not None

    def test_size_pressure_shrinks_architecture(self):
        train, val = make_loaders()
        supernet = proxylessify(TinySeed(seed=1), rng=np.random.default_rng(2))
        trainer = ProxylessTrainer(supernet, mse_loss, lam=10.0, alpha_lr=0.5,
                                   warmup_epochs=0, max_search_epochs=10,
                                   search_patience=10, finetune_epochs=0,
                                   finetune_patience=1)
        result = trainer.fit(train, val)
        # Overwhelming size pressure: every layer picks its max dilation.
        assert result.dilations == (8, 4)

    def test_replayed_fit_equals_eager(self, eager_steps):
        """Both passes replay compiled steps that redraw each batch's paths,
        so a fit equals its eager run bit for bit: derived dilations, best
        validation loss, the search history and every layer's final α."""
        def fit():
            train, val = make_loaders(n=32)
            supernet = proxylessify(TinySeed(seed=1),
                                    rng=np.random.default_rng(2))
            trainer = ProxylessTrainer(supernet, mse_loss, lam=1e-2,
                                       alpha_lr=0.1, warmup_epochs=1,
                                       max_search_epochs=4, search_patience=4,
                                       finetune_epochs=2, finetune_patience=2)
            result = trainer.fit(train, val)
            return result, [layer.alpha.data.copy()
                            for layer in proxyless_layers(supernet)]
        with eager_steps():
            eager, eager_alphas = fit()
        replayed, replayed_alphas = fit()
        assert replayed.dilations == eager.dilations
        assert replayed.best_val == eager.best_val
        assert replayed.params == eager.params
        assert replayed.history == eager.history
        assert len(replayed.history["search_val"]) == 4
        for a, b in zip(replayed_alphas, eager_alphas):
            assert np.array_equal(a, b)
            assert np.any(a != 0)


class TestRandomSearch:
    def test_configurations_valid_and_unique(self):
        seed = TinySeed()
        configs = random_configurations(seed, 5, rng=np.random.default_rng(0))
        assert len(set(configs)) == len(configs)
        for config in configs:
            assert config[0] in (1, 2, 4, 8)
            assert config[1] in (1, 2, 4)

    def test_cannot_exceed_space(self):
        seed = TinySeed()
        configs = random_configurations(seed, 100, rng=np.random.default_rng(0))
        assert len(configs) <= 12  # |space| = 4 * 3

    def test_search_returns_trained_results(self):
        train, val = make_loaders()
        results = random_search(TinySeed(), mse_loss, train, val, count=2,
                                epochs=2, rng=np.random.default_rng(0))
        assert len(results) == 2
        for r in results:
            assert np.isfinite(r.best_val)
            assert r.params > 0

    def test_search_does_not_mutate_seed(self):
        train, val = make_loaders()
        seed = TinySeed()
        before = [layer.mask.gamma_hat.data.copy() for layer in pit_layers(seed)]
        random_search(seed, mse_loss, train, val, count=1, epochs=1,
                      rng=np.random.default_rng(0))
        for layer, saved in zip(pit_layers(seed), before):
            assert np.allclose(layer.mask.gamma_hat.data, saved)
