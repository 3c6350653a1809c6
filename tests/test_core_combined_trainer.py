"""Integration tests: PITTrainer driving the combined time+channel search."""

import numpy as np
import pytest

from repro.autograd import is_grad_enabled, ops_nn, tensor
from repro.core import (
    PITConv1d,
    PITTrainer,
    effective_parameters,
    flops_regularizer,
    pit_layers,
    size_regularizer,
)
from repro.data import ArrayDataset, DataLoader
from repro.nn import CausalConv1d, Module, ReLU, mse_loss
from test_graph_executor import assert_same_state, spy_on_steps

RNG = np.random.default_rng(31)


class CombinedTCN(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.c1 = PITConv1d(1, 6, rf_max=9, min_channels=1, rng=rng)
        self.r1 = ReLU()
        self.c2 = PITConv1d(6, 6, rf_max=9, min_channels=2, rng=rng)
        self.r2 = ReLU()
        self.head = CausalConv1d(6, 1, kernel_size=1, rng=rng)

    def forward(self, x):
        return self.head(self.r2(self.c2(self.r1(self.c1(x)))))


def make_loaders(n=16, t=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, t))
    y = np.concatenate([np.zeros((n, 1, 1)), x[:, :, :-1]], axis=2)
    train = ArrayDataset(x[: n // 2], y[: n // 2])
    val = ArrayDataset(x[n // 2:], y[n // 2:])
    return (DataLoader(train, 8, shuffle=True, rng=np.random.default_rng(1)),
            DataLoader(val, 8))


class TestRegularizersCoverCombinedLayers:
    def test_size_regularizer_includes_time_masks(self):
        model = CombinedTCN()
        value = size_regularizer(model, 1.0).item()
        from repro.core import gamma_size_coefficients
        expected = (1 * 6 + 6 * 6) * sum(gamma_size_coefficients(9))
        assert value == pytest.approx(expected)

    def test_flops_regularizer_includes_time_masks(self):
        model = CombinedTCN()
        from repro.autograd import Tensor
        model(Tensor(RNG.standard_normal((1, 1, 10))))
        assert flops_regularizer(model, 1.0).item() > 0

    def test_gradients_reach_combined_time_gamma(self):
        model = CombinedTCN()
        size_regularizer(model, 1.0).backward()
        assert model.c1.mask.gamma_hat.grad is not None


class TestTrainerOnCombinedModel:
    def test_trainer_accepts_combined_model(self):
        train, val = make_loaders()
        trainer = PITTrainer(CombinedTCN(), mse_loss, lam=0.0,
                             warmup_epochs=1, max_prune_epochs=1,
                             finetune_epochs=1)
        result = trainer.fit(train, val)
        assert len(result.dilations) == 2

    def test_combined_search_prunes_both_axes(self):
        train, val = make_loaders()
        model = CombinedTCN(seed=1)
        trainer = PITTrainer(model, mse_loss, lam=5.0, channel_lam=5.0,
                             gamma_lr=0.1, warmup_epochs=0,
                             max_prune_epochs=20, prune_patience=20,
                             finetune_epochs=0)
        trainer.fit(train, val)
        assert model.c1.current_dilation() > 1
        assert model.c2.current_dilation() > 1
        alive = [layer.alive_channels() for layer in pit_layers(model)]
        assert alive[0] < 6 or alive[1] < 6
        # min_channels floor respected.
        assert alive[1] >= 2
        assert alive[0] >= 1

    def test_masks_frozen_after_fit(self):
        train, val = make_loaders()
        model = CombinedTCN()
        PITTrainer(model, mse_loss, lam=0.0, warmup_epochs=0,
                   max_prune_epochs=1, finetune_epochs=1).fit(train, val)
        for layer in pit_layers(model):
            assert layer.mask.frozen
            assert layer.channel_mask.frozen

    def test_effective_parameters_accounts_channels(self):
        model = CombinedTCN()
        full = effective_parameters(model)
        model.c2.channel_mask.set_alive(
            np.array([1, 1, 0, 0, 0, 0], dtype=float))
        pruned = effective_parameters(model)
        assert pruned < full

    def test_channel_lam_zero_keeps_channels(self):
        train, val = make_loaders()
        model = CombinedTCN(seed=2)
        trainer = PITTrainer(model, mse_loss, lam=0.0, channel_lam=0.0,
                             warmup_epochs=1, max_prune_epochs=2,
                             finetune_epochs=0)
        trainer.fit(train, val)
        for layer in pit_layers(model):
            assert layer.alive_channels() == layer.out_channels

    def test_checkpoint_with_time_mask_keys_starts_fresh(self, tmp_path):
        """Older combined-search checkpoints name the time masks
        ``time_mask.*``; resuming from one warns and trains from scratch,
        exactly like a run without checkpoints."""
        from repro.core import TrainerCheckpoint, checkpoint_file

        def fit(**kwargs):
            train, val = make_loaders()
            return PITTrainer(CombinedTCN(), mse_loss, lam=1.0,
                              channel_lam=1.0, warmup_epochs=1,
                              max_prune_epochs=2, finetune_epochs=1,
                              **kwargs).fit(train, val)

        fresh = fit()
        fit(checkpoint_dir=str(tmp_path))
        ckpt = TrainerCheckpoint(checkpoint_file(tmp_path, "pit"))
        state = ckpt.load()
        assert state is not None
        renamed = {key.replace(".mask.", ".time_mask."): value
                   for key, value in state.arrays.items()}
        assert renamed.keys() != state.arrays.keys()
        ckpt.save(renamed, state.meta)
        with pytest.warns(UserWarning, match="another network"):
            resumed = fit(checkpoint_dir=str(tmp_path))
        assert (resumed.best_val, resumed.history, resumed.dilations) == (
            fresh.best_val, fresh.history, fresh.dilations)

    def test_compiled_search_matches_eager(self, eager_steps, monkeypatch):
        """With channel_lam > 0 the channel rescue fires in replayed steps
        and the time masks move, and the compiled run still equals the
        eager one in every loss and array, with a program per phase."""
        def run():
            train, val = make_loaders()
            model = CombinedTCN(seed=1)
            result = PITTrainer(model, mse_loss, lam=5.0, channel_lam=5.0,
                                gamma_lr=0.3, warmup_epochs=1,
                                max_prune_epochs=6, prune_patience=6,
                                finetune_epochs=1).fit(train, val)
            return result, model
        with eager_steps():
            eager, eager_model = run()

        def watched(x, threshold, min_keep=0):   # in replayed train steps
            if (min_keep and is_grad_enabled()
                    and getattr(tensor._TRACE_STATE, "tracer", None) is None):
                replayed_rescues.append((x >= threshold).sum() < min_keep)
            return binary_mask(x, threshold, min_keep)
        replayed_rescues, binary_mask = [], ops_nn.binary_mask
        monkeypatch.setattr(ops_nn, "binary_mask", watched)
        steps = spy_on_steps(monkeypatch)
        result, model = run()
        assert any(replayed_rescues)
        assert all(d > 1 for d in result.dilations)   # moved from d = 1
        assert (result.best_val, result.history, result.dilations) == (
            eager.best_val, eager.history, eager.dilations)
        assert_same_state(eager_model, model, "combined")
        assert len(steps) == 3 and all(s.compiled_shapes for s in steps)
