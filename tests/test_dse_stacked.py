"""Stacked-vs-sequential DSE parity suite.

The stacked executor trains M (λ, warmup) grid points as one weight-stacked
program; this suite locks it to the sequential path:

* **Trajectory parity** — per-point final losses, dilations, effective
  parameters and full validation histories equal a sequential
  :class:`repro.core.PITTrainer` run bit for bit (``==``, at float32 and
  under ``REPRO_DTYPE=float64``), with dropout + BatchNorm in the
  model and *divergent* per-model early stopping (the hard case: a model
  that stops pruning at epoch 3 rides along masked while another prunes
  for 20+, then both fine-tune on their own loader-epoch streams).
* **Bookkeeping exactness** — warmup/prune/finetune epoch counts, history
  lengths and early-stop epochs are compared exactly too.
* **Engine semantics** — ``stack=1`` is bit-identical to the pre-stacking
  engine; stacked sweeps share :class:`DSECache` entries with sequential
  ones (half-sequential → finish-stacked resumes without retraining);
  unsupported models fall back to sequential per chunk; grouping never
  mixes warmups.
* **Loader machinery** — :class:`repro.data.EpochReplayLoader` replays
  bit-identical epoch streams, and every grid point trains on fresh
  clones of the template loaders, so parallel + stacked sweeps see
  bit-identical batch order.

No tolerance
------------
Every stacked op computes model slice ``m`` with the 2-D kernels on that
slice's arrays — the PIT convs through
:func:`repro.autograd.conv1d_causal_masked_stacked`, each slice on its own
live taps — so nothing here is compared within a tolerance.
"""

import json
import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import PITConv1d, PITTrainer, StackedPITTrainer
from repro.core.stacked import per_model_loss
from repro.data import ArrayDataset, DataLoader, EpochReplayLoader, clone_loader
from repro.evaluation import DSEEngine, stack_width_default
from repro.evaluation.dse import ENV_STACK, _train_grid_point
from repro.nn import (
    BatchNorm1d,
    CausalConv1d,
    Dropout,
    Module,
    Parameter,
    ReLU,
    StackedModel,
    StackingUnsupported,
    mse_loss,
)

LAMS = [0.0, 0.05, 0.5, 5.0]
# lr=1e-2 makes the λ=0 point prune for ~24 epochs while the heavily
# regularized points stop at ~3 — maximal early-stop divergence, which is
# exactly what the stacked masking/per-model-stream machinery must absorb.
SCHEDULE = dict(lr=1e-2, gamma_lr=0.1, max_prune_epochs=25,
                finetune_epochs=12, prune_patience=2, finetune_patience=2,
                warmup_epochs=2)


class StackSeed(Module):
    """Two PIT convs with BatchNorm + Dropout: every stacked layer kind
    that carries per-model state (γ̂, running stats, RNG streams)."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c1 = PITConv1d(2, 4, rf_max=5, rng=rng)
        self.bn = BatchNorm1d(4)
        self.r1 = ReLU()
        self.dp = Dropout(0.2, rng=rng)
        self.c2 = PITConv1d(4, 4, rf_max=9, rng=rng)
        self.r2 = ReLU()
        self.h = CausalConv1d(4, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r2(self.c2(self.dp(self.r1(self.bn(self.c1(x)))))))


class Unstackable(Module):
    """A free parameter outside any layer: no stacked path.  Module-level
    so pooled engines (``REPRO_DSE_WORKERS``) can pickle it."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=5, rng=rng)
        self.scale = Parameter(np.ones(2), name="scale")

    def forward(self, x):
        return self.c(x) * self.scale.reshape(1, 2, 1)


def _loaders(seed=0, shuffle=True):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((24, 2, 12))
    y = (x[:, :1, :] * 0.5 + np.roll(x[:, 1:, :], 1, axis=2)
         + 0.5 * rng.standard_normal((24, 1, 12)))
    train = DataLoader(ArrayDataset(x[:16], y[:16]), 4, shuffle=shuffle,
                       rng=np.random.default_rng(seed + 1))
    val = DataLoader(ArrayDataset(x[16:], y[16:]), 4)
    return train, val


def _sequential_results(schedule=SCHEDULE, lams=LAMS):
    train, val = _loaders()
    results = []
    for lam in lams:
        trainer = PITTrainer(StackSeed(), mse_loss, lam=lam, **schedule)
        results.append(trainer.fit(clone_loader(train), clone_loader(val)))
    return results


def _stacked_results(schedule=SCHEDULE, lams=LAMS):
    train, val = _loaders()
    trainer = StackedPITTrainer(StackSeed(), mse_loss, lams=lams, **schedule)
    return trainer.fit(train, val)


def _assert_result_parity(sequential, stacked):
    assert len(sequential) == len(stacked)
    for seq, stk in zip(sequential, stacked):
        # Integer outcomes are exact: stacking must not change control flow.
        assert seq.dilations == stk.dilations
        assert seq.effective_params == stk.effective_params
        assert seq.warmup_epochs == stk.warmup_epochs
        assert seq.prune_epochs == stk.prune_epochs
        assert seq.finetune_epochs == stk.finetune_epochs
        # Float outcomes bit for bit.
        assert seq.best_val == stk.best_val
        for key in seq.history:
            assert len(seq.history[key]) == len(stk.history[key]), key
            assert seq.history[key] == stk.history[key], key


# ----------------------------------------------------------------------
# Trainer-level parity
# ----------------------------------------------------------------------

class TestTrainerParity:
    def test_divergent_early_stopping_parity(self):
        """The headline case: per-model stop epochs differ by 20+ epochs."""
        sequential = _sequential_results()
        stacked = _stacked_results()
        _assert_result_parity(sequential, stacked)
        # The schedule is only a hard test if stops actually diverge.
        prune_epochs = {r.prune_epochs for r in stacked}
        assert len(prune_epochs) > 1, \
            f"schedule no longer diverges: {prune_epochs}"

    def test_compiled_stacked_parity(self, eager_steps):
        """Compiled stacked training against eager sequential training."""
        with eager_steps():
            sequential = _sequential_results()
        stacked = _stacked_results()
        _assert_result_parity(sequential, stacked)

    @pytest.mark.parametrize("backend", ["einsum", "im2col"])
    def test_parity_across_conv_backends(self, backend, use_kernels):
        """The stacked trainer end to end on a short schedule (the long
        one is exercised above), on the production kernels and on the
        test oracle's kernels (its stacked kernels loop its 2-D ones)."""
        schedule = dict(SCHEDULE, max_prune_epochs=4, finetune_epochs=3)
        with use_kernels(backend):
            sequential = _sequential_results(schedule=schedule,
                                             lams=LAMS[:3])
            stacked = _stacked_results(schedule=schedule, lams=LAMS[:3])
        _assert_result_parity(sequential, stacked)

    def test_flops_regularizer_parity(self):
        """The flops regularizer scales each layer's term by its recorded
        output length; the λ grid here moves the dilations."""
        schedule = dict(SCHEDULE, regularizer="flops", max_prune_epochs=6,
                        finetune_epochs=3)
        lams = [0.0, 1e-3, 1e-2, 1e-1]
        sequential = _sequential_results(schedule=schedule, lams=lams)
        stacked = _stacked_results(schedule=schedule, lams=lams)
        _assert_result_parity(sequential, stacked)
        assert len({r.dilations for r in stacked}) > 1

    def test_warmup_zero_and_no_finetune(self):
        schedule = dict(SCHEDULE, warmup_epochs=0, max_prune_epochs=3,
                        finetune_epochs=0)
        sequential = _sequential_results(schedule=schedule, lams=LAMS[:2])
        stacked = _stacked_results(schedule=schedule, lams=LAMS[:2])
        _assert_result_parity(sequential, stacked)

    def test_unsupported_model_raises_before_training(self):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.c = PITConv1d(1, 2, rf_max=5, rng=rng)
                self.scale = Parameter(np.ones(2), name="scale")

            def forward(self, x):
                return self.c(x) * self.scale.reshape(1, 2, 1)

        with pytest.raises(StackingUnsupported):
            StackedPITTrainer(Custom(), mse_loss, lams=[0.0, 1.0])

    def test_non_plain_loader_raises_stacking_unsupported(self):
        class LoggingLoader(DataLoader):
            pass

        train, val = _loaders()
        logging_train = LoggingLoader(train.dataset, train.batch_size,
                                      shuffle=True)
        trainer = StackedPITTrainer(StackSeed(), mse_loss, lams=[0.0, 1.0],
                                    **SCHEDULE)
        with pytest.raises(StackingUnsupported):
            trainer.fit(logging_train, val)


# ----------------------------------------------------------------------
# Per-model loss / dropout primitives
# ----------------------------------------------------------------------

class TestPerModelPrimitives:
    def test_registered_loss_matches_slicing(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.standard_normal((3, 4, 2, 8)), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 4, 2, 8)))
        fast = per_model_loss(mse_loss, pred, y)
        assert fast.shape == (3,)
        for m in range(3):
            ref = mse_loss(Tensor(pred.data[m]), Tensor(y.data[m]))
            assert np.array_equal(fast.data[m], ref.data)

    def test_unregistered_loss_falls_back_to_slices(self):
        def odd_loss(pred, target):
            diff = pred - target
            return (diff * diff).mean() * 3.0

        rng = np.random.default_rng(1)
        pred = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 4, 5)))
        vec = per_model_loss(odd_loss, pred, y)
        assert vec.shape == (2,)
        for m in range(2):
            ref = odd_loss(Tensor(pred.data[m]), Tensor(y.data[m]))
            assert np.array_equal(vec.data[m], ref.data)

    def test_stacked_dropout_streams_match_sequential(self):
        from repro.autograd import dropout, dropout_stacked
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 5))
        base = np.random.default_rng(42)
        clones = [np.random.default_rng(42) for _ in range(3)]
        stacked_x = np.broadcast_to(x, (3,) + x.shape).copy()
        out = dropout_stacked(Tensor(stacked_x), 0.4, True, clones)
        ref = dropout(Tensor(x), 0.4, True, rng=base)
        for m in range(3):
            assert np.array_equal(out.data[m], ref.data)

    def test_inactive_models_skip_dropout_draws(self):
        from repro.autograd import dropout_stacked
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        clones = [np.random.default_rng(7), np.random.default_rng(7)]
        active = np.array([1.0, 0.0])
        out = dropout_stacked(x, 0.5, True, clones, active=active)
        # The masked model is passed through unscaled...
        assert np.allclose(out.data[1], x.data[1])
        # ...and its generator did not advance while the active one's did.
        assert (clones[1].bit_generator.state
                == np.random.default_rng(7).bit_generator.state)
        assert (clones[0].bit_generator.state
                != np.random.default_rng(7).bit_generator.state)


# ----------------------------------------------------------------------
# Engine-level semantics
# ----------------------------------------------------------------------

class CountingFactory:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        return StackSeed()


ENGINE_SCHEDULE = dict(lr=1e-2, gamma_lr=0.1, max_prune_epochs=3,
                       finetune_epochs=2, prune_patience=2,
                       finetune_patience=2)


def _engine(factory=StackSeed, stack=None, workers=0, cache_path=None,
            trainer_kwargs=None, **kwargs):
    train, val = _loaders()
    return DSEEngine(factory, mse_loss, train, val, workers=workers,
                     cache_path=cache_path, stack=stack,
                     trainer_kwargs=dict(trainer_kwargs or ENGINE_SCHEDULE),
                     **kwargs)


def _points_close(a, b):
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert (pa.lam, pa.warmup_epochs) == (pb.lam, pb.warmup_epochs)
        assert pa.dilations == pb.dilations
        assert pa.params == pb.params
        assert pa.loss == pb.loss


class TestEngineStacking:
    def test_stack1_is_bit_identical_to_sequential(self):
        """--stack 1 must be the *exact* current sequential path."""
        base = _engine(stack=1).run(LAMS, warmups=[1])
        again = _engine(stack=1).run(LAMS, warmups=[1])
        for pa, pb in zip(base.points, again.points):
            assert pa.loss == pb.loss          # bit-identical, not allclose
            assert pa.dilations == pb.dilations

    def test_stacked_sweep_matches_sequential_exactly(self):
        sequential = _engine(stack=1).run(LAMS, warmups=[1])
        stacked = _engine(stack=4).run(LAMS, warmups=[1])
        parallel = _engine(stack=2, workers=2).run(LAMS, warmups=[1])
        _points_close(sequential, stacked)
        _points_close(sequential, parallel)

    def test_chunks_never_mix_warmups(self):
        """Grouping is warmup-major: a stack holds one warmup value only,
        so the factory builds one seed per (warmup, chunk)."""
        factory = CountingFactory()
        result = _engine(factory=factory, stack=8).run(LAMS, warmups=[0, 1])
        assert len(result.points) == len(LAMS) * 2
        # 4 λ per warmup group, width 8 -> one chunk per warmup.
        assert factory.calls == 2
        combos = [(p.warmup_epochs, p.lam) for p in result.points]
        assert combos == [(w, lam) for w in [0, 1] for lam in LAMS]

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_STACK, "3")
        assert stack_width_default() == 3
        engine = _engine()
        assert engine.stack == 3
        monkeypatch.delenv(ENV_STACK)
        assert stack_width_default() == 1

    def test_stack_accepted_via_trainer_kwargs(self):
        """Stack width has one spelling, the engine argument: inside
        trainer_kwargs it is an error naming that argument."""
        with pytest.raises(ValueError, match=r"DSEEngine\(stack=\)"):
            _engine(trainer_kwargs=dict(ENGINE_SCHEDULE, stack=4))

    def test_invalid_stack_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            _engine(stack=0)

    def test_unsupported_model_falls_back_per_point(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 1, 10))
        y = rng.standard_normal((8, 1, 10))
        train = DataLoader(ArrayDataset(x[:6], y[:6]), 3)
        val = DataLoader(ArrayDataset(x[6:], y[6:]), 2)
        sequential = DSEEngine(Unstackable, mse_loss, train, val, stack=1,
                               trainer_kwargs=dict(ENGINE_SCHEDULE)
                               ).run(LAMS[:2], warmups=[0])
        stacked = DSEEngine(Unstackable, mse_loss, train, val, stack=2,
                            trainer_kwargs=dict(ENGINE_SCHEDULE)
                            ).run(LAMS[:2], warmups=[0])
        # Fallback is the sequential path itself: bit-identical results.
        for pa, pb in zip(sequential.points, stacked.points):
            assert pa.loss == pb.loss
            assert pa.dilations == pb.dilations

    def test_evaluators_run_on_stacked_points(self):
        class Probe:
            cache_name = "probe"

            def __call__(self, model, point):
                # The stacked path must hand evaluators a real,
                # sequential-shaped trained model.
                assert isinstance(model, StackSeed)
                return {"probe": float(sum(p.data.sum()
                                           for p in model.parameters()))}

        sequential = _engine(stack=1, point_evaluators=[Probe()]
                             ).run(LAMS[:2], warmups=[1])
        stacked = _engine(stack=2, point_evaluators=[Probe()]
                          ).run(LAMS[:2], warmups=[1])
        for pa, pb in zip(sequential.points, stacked.points):
            assert pa.metrics["probe"] == pb.metrics["probe"]


class TestStackedTimeout:
    def test_timed_out_stack_fails_every_point_without_fallback(self):
        """A stacked chunk's points train at once and share the budget:
        a timeout fails them all, with no per-point retraining."""
        factory = CountingFactory()
        engine = _engine(factory=factory, stack=2, point_timeout=1e-6,
                         retries=2)
        result = engine.run(LAMS[:2], warmups=[1])
        assert factory.calls == 1  # the stack's seed; no per-point rerun
        assert [(p.status, p.error, p.attempts) for p in result.points] \
            == [("failed", "timeout: exceeded 1e-06s per point", 1)] * 2
        assert engine.last_run_stats["timeouts"] == 2


class TestCacheInterop:
    """Acceptance: stacked sweeps resume from and write to the same
    DSECache entries as sequential sweeps."""

    def test_half_sequential_finish_stacked_no_retraining(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        # Train half the grid sequentially...
        _engine(stack=1, cache_path=cache).run(LAMS[:2], warmups=[1])
        # ...finish the grid stacked: cached points must not retrain, so
        # the factory builds exactly one seed (one stack for the 2 new λ).
        factory = CountingFactory()
        result = _engine(factory=factory, stack=4, cache_path=cache
                         ).run(LAMS, warmups=[1])
        assert factory.calls == 1
        assert [p.lam for p in result.points] == LAMS

    def test_stacked_entries_satisfy_sequential_resume(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        stacked = _engine(stack=4, cache_path=cache).run(LAMS, warmups=[1])
        factory = CountingFactory()
        resumed = _engine(factory=factory, stack=1, cache_path=cache
                          ).run(LAMS, warmups=[1])
        assert factory.calls == 0
        _points_close(stacked, resumed)

    def test_stack_width_not_in_cache_key(self, tmp_path):
        """Same grid at widths 1, 2, 4 shares one cache entry per point."""
        cache = str(tmp_path / "dse.json")
        _engine(stack=2, cache_path=cache).run(LAMS[:2], warmups=[1])
        with open(cache) as handle:
            first = json.load(handle)["points"]
        factory = CountingFactory()
        _engine(factory=factory, stack=4, cache_path=cache
                ).run(LAMS[:2], warmups=[1])
        assert factory.calls == 0
        with open(cache) as handle:
            assert set(json.load(handle)["points"]) == set(first)


# ----------------------------------------------------------------------
# Loader machinery: epoch replay + the per-worker clone hoist
# ----------------------------------------------------------------------

def _materialize(iterator):
    return [(x.copy(), y.copy()) for x, y in iterator]


class TestEpochReplayLoader:
    def test_epochs_match_streamed_loader(self):
        train, _ = _loaders(shuffle=True)
        view = EpochReplayLoader(train)
        stream = clone_loader(train)
        streamed = [_materialize(stream) for _ in range(4)]
        # Same epochs, replayed out of order and repeatedly.
        for epoch in (2, 0, 3, 1, 2):
            replayed = _materialize(view.epoch(epoch))
            assert len(replayed) == len(streamed[epoch])
            for (xa, ya), (xb, yb) in zip(replayed, streamed[epoch]):
                assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_rejects_loader_subclasses(self):
        class Custom(DataLoader):
            pass

        train, _ = _loaders()
        with pytest.raises(TypeError, match="plain DataLoader"):
            EpochReplayLoader(Custom(train.dataset, 4))

    def test_does_not_touch_the_template(self):
        train, _ = _loaders(shuffle=True)
        before = train.rng.bit_generator.state
        view = EpochReplayLoader(train)
        _materialize(view.epoch(0))
        _materialize(view.epoch(5))
        assert train.rng.bit_generator.state == before


class TestWorkerLoaderHoist:
    """Every grid point trains on fresh clones of the template loaders."""

    @staticmethod
    def _point(train, val):
        return _train_grid_point(StackSeed, mse_loss, train, val, 0.5, 1,
                                 dict(ENGINE_SCHEDULE))

    @staticmethod
    def _reference(train, val):
        return PITTrainer(StackSeed(), mse_loss, lam=0.5, warmup_epochs=1,
                          **ENGINE_SCHEDULE).fit(train, val)

    def test_advanced_template_forces_reclone(self):
        """A point starts from the template's *current* RNG state, also
        when the caller advanced the template after an earlier point."""
        train, val = _loaders(shuffle=True)
        self._point(train, val)
        list(train)                            # caller consumes the template
        expected = self._reference(clone_loader(train), clone_loader(val))
        point = self._point(train, val)
        assert point.result.history == expected.history

    def test_aliased_train_and_val_loaders_stay_independent(self):
        """One loader object passed as both train and val yields two
        clones with independent RNG streams, not one shared stream."""
        train, _ = _loaders(shuffle=True)
        expected = self._reference(clone_loader(train), clone_loader(train))
        point = self._point(train, train)
        assert point.result.history == expected.history

    def test_subclasses_keep_clone_per_point(self):
        """Loader subclasses carry unknown extra state; the points still
        train on clones, so the template never moves."""
        class Counting(DataLoader):
            epochs = 0

            def __iter__(self):
                self.epochs += 1
                return super().__iter__()

        train, val = _loaders()
        custom = Counting(train.dataset, 4, shuffle=True,
                          rng=np.random.default_rng(1))
        first = self._point(custom, val)
        again = self._point(custom, val)
        assert custom.epochs == 0
        assert first.result.history == again.result.history

    def test_parallel_and_stacked_sweeps_share_batch_order(self):
        """Regression (satellite fix): whatever combination of workers and
        stack width runs a sweep, every grid point consumes the same batch
        sequence — so results are interchangeable."""
        serial = _engine(stack=1, workers=0).run(LAMS[:2], warmups=[1])
        pooled = _engine(stack=1, workers=2).run(LAMS[:2], warmups=[1])
        stacked = _engine(stack=2, workers=2).run(LAMS[:2], warmups=[1])
        for pa, pb in zip(serial.points, pooled.points):
            assert pa.loss == pb.loss          # same worker path: exact
        _points_close(serial, stacked)


class TestStackedModelUnit:
    def test_eval_forward_matches_template_bitwise(self):
        model = StackSeed()
        stacked = StackedModel(model, 3)
        stacked.eval()
        model.eval()
        x = np.random.default_rng(5).standard_normal((3, 2, 2, 12))
        out = stacked(Tensor(x))
        for m in range(3):
            ref = model(Tensor(x[m]))
            assert np.array_equal(out.data[m], ref.data)

    def test_slice_state_round_trip(self):
        stacked = StackedModel(StackSeed(), 2)
        state = stacked.slice_state(0)
        for name in state:
            state[name] = state[name] + 1.0
        stacked.load_slice_state(0, state)
        after = stacked.slice_state(0)
        for name in state:
            assert np.allclose(after[name], state[name])
        untouched = stacked.slice_state(1)
        for name in untouched:
            assert not np.allclose(untouched[name], state[name]) or \
                state[name].size == 0

    def test_frozen_mask_drives_per_slice_dilation(self):
        """StackedTimeMask.current_dilation must answer from the frozen
        mask once frozen, like the sequential TimeMask does — even when
        γ̂ later drifts out of sync with it."""
        from repro.core import StackedPITTrainer as _  # noqa: F401
        from repro.core.stacked import StackedPITConv1d
        stacked = StackedModel(StackSeed(), 2)
        layer = next(m for m in stacked.net.modules()
                     if isinstance(m, StackedPITConv1d))
        layer.mask.gamma_hat.data[0, :] = 0.0        # slice 0 encodes d=8
        layer.mask.gamma_hat.data[1, :] = 1.0        # slice 1 encodes d=1
        before = [layer.mask.current_dilation(i) for i in range(2)]
        layer.freeze()
        layer.mask.gamma_hat.data[...] = 1.0         # drift after freezing
        after = [layer.mask.current_dilation(i) for i in range(2)]
        assert after == before
        assert [layer.effective_params(i) for i in range(2)] == [
            int(layer.mask.current_mask(i).sum())
            * layer.in_channels * layer.out_channels + layer.out_channels
            for i in range(2)]

    def test_sync_template_materializes_slice(self):
        model = StackSeed()
        stacked = StackedModel(model, 2)
        state = stacked.slice_state(1)
        for name in state:
            state[name] = state[name] * 0.5
        stacked.load_slice_state(1, state)
        template = stacked.sync_template(1)
        assert template is model
        for name, p in template.named_parameters():
            assert np.allclose(p.data, state[name])


class TestCLI:
    def test_sweep_accepts_stack_flag(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["sweep", "--lambdas", "0", "--stack", "4"])
        assert args.stack == 4

    def test_stack_default_is_env(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["sweep", "--lambdas", "0"])
        assert args.stack is None              # engine then reads the env
