"""Differential harness for the graph-capture executor.

Locks the compiled training step to eager execution: identical losses,
identical parameter gradients, identical trained weights, identical final
γ̂ masks — over a grid of conv configurations (dilation/stride), the two
TCN seeds, the RNN baselines, and the full three-phase PIT trainer.

Also covers the executor's operational behaviour: per-shape and per-dtype
re-tracing, the permanent eager fallback for value-dependent
(capture-unsafe) models, side effects replayed in program order (BatchNorm
running statistics), whole training epochs (Adam state, gradient clipping,
early stopping, the stacked trainer), the diagnostics a trainer reports,
and what a program and a replay keep alive.
"""

import copy
import gc
import json
import tracemalloc

import numpy as np
import pytest

from repro.autograd import (
    CompiledStep,
    EagerStep,
    get_default_dtype,
    set_default_dtype,
)
from repro.core import PITTrainer, network_dilations, size_regularizer
from repro.core.channel_mask import PITChannelConv1d
from repro.core.pit_conv import PITConv1d
from repro.core.stacked import StackedPITTrainer
from repro.core.trainer import make_training_step, train_plain
from repro.data import ArrayDataset, DataLoader
from repro.models import restcn_seed, temponet_seed
from repro.models.rnn_baselines import HeartRateGRU, MusicLSTM
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    GlobalAvgPool1d,
    Linear,
    Module,
    ReLU,
    Sequential,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from repro.optim import Adam, clip_grad_norm


def training_step(compiled: bool, model, loss_fn, extra_loss=None):
    """The trainers' step for ``model``, or its eager reference."""
    step = make_training_step(model, loss_fn, extra_loss=extra_loss)
    return step if compiled else EagerStep(step.step_fn)


def batches_of(xshape, yshape, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(xshape), rng.standard_normal(yshape))
            for _ in range(count)]


def assert_same_grads(m1, m2, context=""):
    g1, g2 = dict(m1.named_parameters()), dict(m2.named_parameters())
    assert g1.keys() == g2.keys()
    for name in g1:
        a, b = g1[name].grad, g2[name].grad
        assert (a is None) == (b is None), f"{context}: grad presence {name}"
        if a is not None:
            assert np.array_equal(a, b), f"{context}: grad mismatch {name}"


def assert_same_state(m1, m2, context=""):
    s1, s2 = m1.state_dict(), m2.state_dict()
    assert s1.keys() == s2.keys()
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), f"{context}: state {key}"


def run_parity(make_model, batches, loss_fn, extra_loss_fn=None, lr=1e-3,
               context="", expect_compiled=True):
    """Train two copies — one eager, one compiled — on identical batches.

    Asserts bit-equal losses on every step and bit-equal gradients, weights
    and buffers at the end.  Returns the compiled step for introspection.
    """
    eager_model = make_model()
    compiled_model = copy.deepcopy(eager_model)
    runners = {}
    for label, model, compiled in (("eager", eager_model, False),
                                   ("compiled", compiled_model, True)):
        extra = (lambda m=model: extra_loss_fn(m)) if extra_loss_fn else None
        runners[label] = (model,
                          training_step(compiled, model, loss_fn, extra),
                          Adam(model.parameters(), lr=lr))
    losses = {"eager": [], "compiled": []}
    for x, y in batches:
        for label, (model, step, optimizer) in runners.items():
            model.train()
            optimizer.zero_grad()
            values = step(x, y)
            optimizer.step()
            losses[label].append(values)
    assert losses["eager"] == losses["compiled"], f"{context}: loss trajectories"
    compiled_step = runners["compiled"][1]
    assert isinstance(compiled_step, CompiledStep)
    if expect_compiled:
        assert compiled_step.fallback_reason is None, compiled_step.fallback_reason
        assert compiled_step.compiled_shapes
    assert_same_grads(eager_model, compiled_model, context)
    assert_same_state(eager_model, compiled_model, context)
    return compiled_step


# ----------------------------------------------------------------------
# Conv configuration grid
# ----------------------------------------------------------------------

class TestConvGrid:
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dilation_stride_parity(self, dilation, stride):
        """Also replays BatchNorm's running-stat side effect: the final
        buffers only match eager if every replay fires it in order."""
        def make_model():
            rng = np.random.default_rng(7)
            return Sequential(
                CausalConv1d(3, 6, kernel_size=5, dilation=dilation,
                             stride=stride, rng=rng),
                BatchNorm1d(6),
                ReLU(),
                CausalConv1d(6, 4, kernel_size=3, dilation=dilation, rng=rng),
                GlobalAvgPool1d(),
                Linear(4, 2, rng=rng),
            )
        run_parity(make_model, batches_of((4, 3, 32), (4, 2)), mse_loss,
                   context=f"d={dilation},s={stride}")

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    def test_backend_captured_at_trace_time(self, backend, use_kernels):
        """The trace records the conv ops, not kernels: replay calls the
        kernel object's methods, so on either kernel set a compiled run
        equals an eager run on that set bit for bit, and the two sets
        agree to rounding."""
        def make_model():
            rng = np.random.default_rng(3)
            return Sequential(CausalConv1d(2, 3, kernel_size=3, rng=rng),
                              GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        batches = batches_of((4, 2, 16), (4, 1))
        with use_kernels(backend):
            step = run_parity(make_model, batches, mse_loss,
                              context=f"kernels {backend}")
            assert step.fallback_reason is None
            on_set = [make_training_step(make_model(), mse_loss)(x, y)
                      for x, y in batches]
        production = [training_step(False, make_model(), mse_loss)(x, y)
                      for x, y in batches]
        assert np.allclose(on_set, production, rtol=1e-5)


# ----------------------------------------------------------------------
# Model grid: TCN seeds and RNN baselines
# ----------------------------------------------------------------------

class TestModelGrid:
    def test_temponet_with_regularizer(self):
        run_parity(lambda: temponet_seed(width_mult=0.125, seed=3),
                   batches_of((8, 4, 256), (8, 1)), mae_loss,
                   extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                   context="temponet")

    def test_restcn_with_regularizer(self):
        run_parity(lambda: restcn_seed(width_mult=0.05, seed=1),
                   batches_of((4, 88, 48), (4, 88, 48)), polyphonic_nll,
                   extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                   context="restcn")

    def test_heart_rate_gru(self):
        run_parity(lambda: HeartRateGRU(hidden=8,
                                        rng=np.random.default_rng(2)),
                   batches_of((4, 4, 32), (4, 1)), mae_loss, context="gru")

    def test_music_lstm(self):
        run_parity(lambda: MusicLSTM(hidden=12,
                                     rng=np.random.default_rng(2)),
                   batches_of((2, 88, 16), (2, 88, 16)), polyphonic_nll,
                   context="lstm")

    def test_float32_parity(self):
        set_default_dtype("float32")
        try:
            run_parity(lambda: temponet_seed(width_mult=0.125, seed=3),
                       batches_of((8, 4, 256), (8, 1)), mae_loss,
                       extra_loss_fn=lambda m: size_regularizer(m, 0.02),
                       context="temponet-f32")
        finally:
            set_default_dtype("float64")


# ----------------------------------------------------------------------
# Full PIT trainer: final masks must be bit-identical
# ----------------------------------------------------------------------

class TestPITTrainerParity:
    def _loaders(self, seed=0):
        rng = np.random.default_rng(seed)
        data = ArrayDataset(rng.standard_normal((24, 4, 256)),
                            rng.standard_normal((24, 1)))
        train = DataLoader(data, 8, shuffle=True,
                           rng=np.random.default_rng(seed + 1))
        val = DataLoader(data, 8)
        return train, val

    def test_three_phase_parity(self, eager_steps):
        """Every phase replays a compiled program, including the
        fine-tune phase with frozen masks."""
        def run():
            model = temponet_seed(width_mult=0.125, seed=3)
            train, val = self._loaders()
            trainer = PITTrainer(model, mae_loss, lam=0.5, gamma_lr=0.1,
                                 warmup_epochs=1, max_prune_epochs=2,
                                 prune_patience=2, finetune_epochs=1,
                                 finetune_patience=1)
            return trainer.fit(train, val), model
        with eager_steps():
            results = {False: run()}
        results[True] = run()
        eager, compiled = results[False][0], results[True][0]
        assert compiled.dilations == eager.dilations
        assert compiled.best_val == eager.best_val
        assert compiled.history == eager.history
        assert compiled.effective_params == eager.effective_params
        assert set(compiled.compile_stats) == {"warmup", "prune", "finetune"}
        for phase, stats in compiled.compile_stats.items():
            assert stats["fallback_reason"] is None, phase
            assert stats["compiled_shapes"], phase
        assert (network_dilations(results[True][1])
                == network_dilations(results[False][1]))
        assert_same_state(results[False][1], results[True][1], "pit-final")


# ----------------------------------------------------------------------
# Shape changes and capture-unsafe fallbacks
# ----------------------------------------------------------------------

class TestFallbacks:
    def test_short_final_batch_retraces(self):
        """A loader whose last batch is short triggers one extra trace; the
        results still match eager exactly."""
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((10, 2, 16)),
                            rng.standard_normal((10, 1)))
        loader = DataLoader(data, 4)  # batches of 4, 4, 2

        def make_model():
            mrng = np.random.default_rng(5)
            return Sequential(CausalConv1d(2, 4, kernel_size=3, rng=mrng),
                              GlobalAvgPool1d(), Linear(4, 1, rng=mrng))

        eager_model = make_model()
        compiled_model = copy.deepcopy(eager_model)
        eager = training_step(False, eager_model, mse_loss)
        compiled = make_training_step(compiled_model, mse_loss)
        for epoch in range(2):
            for x, y in loader:
                eager_model.zero_grad()
                compiled_model.zero_grad()
                assert compiled(x, y) == eager(x, y)
        assert compiled.fallback_reason is None
        assert sorted(key[0][0] for key in compiled.compiled_shapes) == [2, 4]
        assert_same_grads(eager_model, compiled_model, "short-batch")

    def test_channel_mask_falls_back_to_eager(self):
        """Channel-masked models are value-dependent: the capture poisons
        itself and the step runs eagerly — with identical results."""
        def make_model():
            rng = np.random.default_rng(4)
            return Sequential(
                PITChannelConv1d(2, 6, rf_max=4, rng=rng),
                GlobalAvgPool1d(), Linear(6, 1, rng=rng))
        step = run_parity(make_model, batches_of((4, 2, 16), (4, 1)),
                          mse_loss, context="channel-mask",
                          expect_compiled=False)
        assert step.fallback_reason is not None
        assert "ChannelMask" in step.fallback_reason
        assert not step.compiled_shapes

    def test_train_plain_compiled_matches_eager(self, eager_steps):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((16, 2, 16)),
                            rng.standard_normal((16, 1)))

        def run():
            mrng = np.random.default_rng(5)
            model = Sequential(CausalConv1d(2, 4, kernel_size=3, rng=mrng),
                               ReLU(), GlobalAvgPool1d(),
                               Linear(4, 1, rng=mrng))
            train = DataLoader(data, 4, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(data, 4)
            return train_plain(model, mse_loss, train, val, epochs=3,
                               patience=2)
        with eager_steps():
            eager = run()
        compiled = run()
        assert compiled.best_val == eager.best_val
        assert compiled.history == eager.history
        assert compiled.epochs == eager.epochs

    def test_dtype_flip_retraces(self):
        """A set_default_dtype switch must re-trace, not replay the stale
        program (the program-cache key carries the dtype)."""
        rng = np.random.default_rng(0)
        model = Sequential(CausalConv1d(3, 4, kernel_size=3, rng=rng),
                           GlobalAvgPool1d(), Linear(4, 2, rng=rng))
        step = make_training_step(model, mse_loss)
        x, y = rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2))
        step(x, y)
        set_default_dtype("float32")
        try:
            model.zero_grad()
            step(x, y)
            assert len(step.compiled_shapes) == 2
            dtypes = {key[2] for key in step.compiled_shapes}
            assert dtypes == {np.float64, np.float32}
        finally:
            set_default_dtype("float64")


# ----------------------------------------------------------------------
# Whole epochs: optimizer state, clipping, early stopping, stacking
# ----------------------------------------------------------------------

def small_net(seed=5):
    rng = np.random.default_rng(seed)
    return Sequential(CausalConv1d(2, 4, kernel_size=3, rng=rng), ReLU(),
                      GlobalAvgPool1d(), Linear(4, 1, rng=rng))


def run_epochs(compiled, batches, epochs=3, grad_clip=None):
    """Train a fresh :func:`small_net` for ``epochs`` passes over
    ``batches``; returns (model, optimizer, per-epoch mean task losses)."""
    model = small_net()
    optimizer = Adam(model.parameters(), lr=1e-3)
    step = training_step(compiled, model, mse_loss)
    losses = []
    for _ in range(epochs):
        total = 0.0
        for x, y in batches:
            optimizer.zero_grad()
            total += step(x, y)[1]
            if grad_clip is not None:
                clip_grad_norm(optimizer.params, grad_clip)
            optimizer.step()
        losses.append(total / len(batches))
    return model, optimizer, losses


class TestEpochParity:
    """Compiled epochs match eager ones in losses, weights and the full Adam
    state (moments and step counters) — the state checkpoints persist."""

    def _assert_same_run(self, ref, other, context):
        (m1, o1, l1), (m2, o2, l2) = ref, other
        assert l1 == l2, f"{context}: epoch losses"
        assert_same_state(m1, m2, context)
        for p1, p2 in zip(o1.params, o2.params):
            for s1, s2 in zip(o1.ensure_state(p1, o1.param_groups[0]),
                              o2.ensure_state(p2, o2.param_groups[0])):
                assert np.array_equal(s1, s2), f"{context}: adam state"

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_epochs_match_eager(self, backend, dtype, use_kernels):
        prev = get_default_dtype()
        set_default_dtype(dtype)
        try:
            rng = np.random.default_rng(0)
            # Three full batches and a ragged tail (a second program shape).
            batches = [(rng.standard_normal((n, 2, 16)),
                        rng.standard_normal((n, 1))) for n in (6, 6, 6, 2)]
            with use_kernels(backend):
                self._assert_same_run(run_epochs(False, batches),
                                      run_epochs(True, batches),
                                      f"{backend}/{dtype}")
        finally:
            set_default_dtype(prev)

    def test_epochs_with_grad_clip_match_eager(self):
        rng = np.random.default_rng(3)
        batches = [(rng.standard_normal((n, 2, 16)),
                    rng.standard_normal((n, 1))) for n in (6, 6, 6, 2)]
        self._assert_same_run(run_epochs(False, batches, grad_clip=0.5),
                              run_epochs(True, batches, grad_clip=0.5),
                              "grad-clip")

    def test_randomized_early_stop_grid(self, eager_steps):
        """train_plain over randomized patience/epoch grids: compiled and
        eager stop on the same epoch with bit-identical histories and
        restored best weights."""
        rng = np.random.default_rng(7)
        data_rng = np.random.default_rng(11)
        x = data_rng.standard_normal((20, 2, 16))
        y = data_rng.standard_normal((20, 1))

        def run(epochs, patience, seed):
            model = small_net(seed)
            train = DataLoader(ArrayDataset(x[:14], y[:14]), 4, shuffle=True,
                               rng=np.random.default_rng(seed + 1))
            val = DataLoader(ArrayDataset(x[14:], y[14:]), 4)
            result = train_plain(model, mse_loss, train, val, epochs=epochs,
                                 patience=patience)
            return model, result

        for trial in range(3):
            epochs = int(rng.integers(3, 7))
            patience = int(rng.integers(1, 4))
            seed = int(rng.integers(0, 100))
            ctx = f"trial {trial}: epochs={epochs} patience={patience}"
            with eager_steps():
                m_eager, eager = run(epochs, patience, seed)
            m_comp, comp = run(epochs, patience, seed)
            assert comp.epochs == eager.epochs, ctx
            assert comp.history == eager.history, ctx
            assert comp.best_val == eager.best_val, ctx
            assert_same_state(m_eager, m_comp, ctx)

    def test_stacked_trainer_matches_eager(self, eager_steps):
        """The compiled stacked trainer (BatchNorm, dropout streams, stacked
        clipping, the ``active`` mask) is bit-identical to the eager one."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 2, 12))
        y = (x[:, :1, :] * 0.5 + 0.3 * rng.standard_normal((20, 1, 12)))

        class StackSeed(Module):
            def __init__(self):
                super().__init__()
                mrng = np.random.default_rng(0)
                self.c1 = PITConv1d(2, 4, rf_max=5, rng=mrng)
                self.bn = BatchNorm1d(4)
                self.r1 = ReLU()
                self.dp = Dropout(0.2, rng=mrng)
                self.h = CausalConv1d(4, 1, 1, rng=mrng)

            def forward(self, inp):
                return self.h(self.dp(self.r1(self.bn(self.c1(inp)))))

        def run():
            train = DataLoader(ArrayDataset(x[:16], y[:16]), 4, shuffle=True,
                               rng=np.random.default_rng(1))
            val = DataLoader(ArrayDataset(x[16:], y[16:]), 4)
            trainer = StackedPITTrainer(
                StackSeed(), mse_loss, lams=[1e-7, 1e-4], warmup_epochs=2,
                max_prune_epochs=3, prune_patience=2, finetune_epochs=2,
                finetune_patience=2, grad_clip=1.0)
            results = trainer.fit(train, val)
            states = [trainer.model_for(i).state_dict()
                      for i in range(len(results))]
            return results, states

        with eager_steps():
            eager, eager_states = run()
        comp, comp_states = run()
        for re_, rc in zip(eager, comp):
            assert rc.dilations == re_.dilations
            assert rc.best_val == re_.best_val
            assert rc.history == re_.history
            assert rc.prune_epochs == re_.prune_epochs
            assert rc.finetune_epochs == re_.finetune_epochs
        for se, sc in zip(eager_states, comp_states):
            for key in se:
                assert np.array_equal(se[key], sc[key]), key


# ----------------------------------------------------------------------
# What a trainer reports, and what a program and a replay keep alive
# ----------------------------------------------------------------------

class TestDiagnostics:
    def test_train_plain_surfaces_diagnostics(self, eager_steps):
        rng = np.random.default_rng(0)
        data = ArrayDataset(rng.standard_normal((16, 2, 16)),
                            rng.standard_normal((16, 1)))

        def run():
            train = DataLoader(data, 4, shuffle=True,
                               rng=np.random.default_rng(1))
            return train_plain(small_net(), mse_loss, train,
                               DataLoader(data, 4), epochs=2, patience=2)

        stats = run().compile_stats
        assert stats["fallback_reason"] is None
        assert stats["compiled_shapes"] == [[[4, 2, 16], [4, 1]]]
        json.dumps(stats)   # DSE results pickle/serialize it
        with eager_steps():
            stats = run().compile_stats
        assert stats == {"fallback_reason": "eager reference",
                         "compiled_shapes": []}


class TestReplayMemory:
    def test_program_does_not_pin_the_trace_batch(self):
        """Batch inputs are rebound per replay, never leaves: a program
        must not keep the trace-time ``x``/``y`` alive."""
        rng = np.random.default_rng(0)
        model = Linear(3, 2, rng=rng)
        step = make_training_step(model, mse_loss)
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        step(x, y)
        (runner,) = step._runners.values()
        program = runner.program
        leaf_slots = {slot for slot, _ in program.leaves}
        assert len(program.input_slots) == 2
        assert leaf_slots.isdisjoint(program.input_slots)
        assert not any(np.shares_memory(t.data, x) or
                       np.shares_memory(t.data, y)
                       for _, t in program.leaves)

    def test_replay_keeps_no_activations_or_gradients(self):
        """After a replayed TEMPONet step returns, only the parameters'
        fresh ``.grad`` arrays and small outputs remain allocated: the
        activations, forward byproducts and intermediate gradients of the
        replay are all freed."""
        model = temponet_seed(width_mult=0.25, seed=3)
        step = make_training_step(
            model, mae_loss, extra_loss=lambda: size_regularizer(model, 0.02))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((8, 4, 256)), rng.standard_normal((8, 1))
        for _ in range(2):          # trace, then a first replay
            model.zero_grad()
            step(x, y)
        assert step.fallback_reason is None and step.compiled_shapes
        model.zero_grad()
        gc.collect()
        tracemalloc.start()
        try:
            step(x, y)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = model.parameters()
        budget = (sum(p.data.nbytes for p in params)
                  + sum(p.grad.nbytes for p in params if p.grad is not None))
        assert retained <= budget + 64 * 1024, (retained, budget)
