"""Verbatim-replay guarantees of the compiled training step.

The compiled step replays the captured program as traced, calling the same
op kernels eager dispatch calls.  These cases pin the parts of a program
that a replay must neither drop nor reorder: side effects whose inputs feed
no loss, a frozen PIT mask whose subgraph is constant, and the whole
three-phase PIT run, which must match the eager trainer bit for bit.
"""

import numpy as np

from repro.autograd import CompiledStep, Tensor, record_side_effect
from repro.autograd.graph import CompileConfig
from repro.core import PITTrainer
from repro.core.driver import make_training_step
from repro.core.pit_conv import PITConv1d
from repro.data import ArrayDataset, DataLoader
from repro.models import temponet_seed
from repro.nn import GlobalAvgPool1d, Linear, Sequential, mae_loss, mse_loss


# ----------------------------------------------------------------------
# Nodes that only feed a side effect
# ----------------------------------------------------------------------

class TestDeadNodeElimination:
    def test_compiled_replay_still_fires_effects(self):
        """``mean`` feeds no output, only the effect: every replay must
        still compute it and fire the effect, in call order."""
        w = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def step_fn(x, y):
            mean = x.mean()
            record_side_effect((mean,), lambda m: seen.append(float(m)))
            return (x * w).sum()

        step = CompiledStep(step_fn)
        for value in (1.0, 2.0, 3.0):
            step(np.full(3, value), np.zeros(3))
        assert step.fallback_reason is None, step.fallback_reason
        assert len(step.compiled_shapes) == 1
        assert seen == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# Constant subgraphs: frozen PIT masks
# ----------------------------------------------------------------------

class TestFoldConstants:
    def test_frozen_pit_mask_subgraph_folds(self):
        """Phase 3: a frozen mask makes the whole mask product constant.
        The replayed program must give eager's losses and gradients."""
        def make_model():
            rng = np.random.default_rng(0)
            model = Sequential(PITConv1d(2, 3, rf_max=9, rng=rng),
                               GlobalAvgPool1d(), Linear(3, 1, rng=rng))
            model[0].freeze()
            return model

        rng = np.random.default_rng(1)
        batches = [(rng.standard_normal((2, 2, 16)),
                    rng.standard_normal((2, 1))) for _ in range(3)]
        runs = {}
        for compile_step in (False, True):
            model = make_model()
            step = make_training_step(
                model, mse_loss,
                compile_config=CompileConfig(compile_step=compile_step))
            trace = []
            for x, y in batches:
                model.zero_grad()
                loss = step(x, y)
                grads = [np.array(p.grad) for p in model.parameters()
                         if p.grad is not None]
                trace.append((loss, grads))
            runs[compile_step] = (trace, step)
        (eager, _), (compiled, step) = runs[False], runs[True]
        assert step.fallback_reason is None, step.fallback_reason
        assert step.compiled_shapes
        for (loss_a, grads_a), (loss_b, grads_b) in zip(eager, compiled):
            assert loss_a == loss_b
            assert len(grads_a) == len(grads_b) > 0
            for ga, gb in zip(grads_a, grads_b):
                assert np.array_equal(ga, gb)


# ----------------------------------------------------------------------
# Whole-run differential: compiled == eager, bit for bit
# ----------------------------------------------------------------------

class TestPipelineParity:
    def test_three_phase_pit_bit_identical(self):
        """The compiled PIT trainer (replay in every phase, frozen masks
        in phase 3) matches the eager trainer."""
        outcomes = {}
        for compile_step in (False, True):
            rng = np.random.default_rng(0)
            data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                                rng.standard_normal((24, 1)))
            train = DataLoader(data, 8, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 8)
            model = temponet_seed(width_mult=0.125, seed=3)
            trainer = PITTrainer(
                model, mae_loss, lam=0.5, gamma_lr=0.1, warmup_epochs=1,
                max_prune_epochs=2, prune_patience=2, finetune_epochs=1,
                finetune_patience=1,
                compile_config=CompileConfig(compile_step=compile_step))
            outcomes[compile_step] = (trainer.fit(train, val),
                                      model.state_dict())
        base, comp = outcomes[False], outcomes[True]
        assert base[0].dilations == comp[0].dilations
        assert base[0].best_val == comp[0].best_val
        assert base[0].history == comp[0].history
        for key in base[1]:
            assert np.array_equal(base[1][key], comp[1][key]), key
        assert all(stats["fallback_reason"] is None
                   for stats in comp[0].compile_stats.values())
