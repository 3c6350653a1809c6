"""Unit + differential tests for the graph-optimizer pass pipeline.

Each pass is exercised on tiny captured programs where its effect is
observable (folded constants, removed dead ops, fused chains, planned
buffers), and the pipeline as a whole is locked to the unoptimized replay
bit-for-bit: same losses, same gradients, same trained state — across the
TCN seeds and the full three-phase PIT run.  ``CompiledStep.alloc_stats``
is asserted to show zero steady-state growth, the "optimized replay
allocates nothing" guarantee.
"""

import numpy as np
import pytest

from repro.autograd import (
    CompiledStep,
    Tensor,
    record_side_effect,
    set_default_dtype,
)
from repro.autograd.graph import CompileConfig, build_program, capture
from repro.autograd.graph.ir import EffectNode, OpNode
from repro.autograd.graph.passes import (
    FusedOp,
    check_opt_level,
    eliminate_dead_nodes,
    fold_constants,
    fuse_chains,
)
from repro.core import PITTrainer, size_regularizer
from repro.core.pit_conv import PITConv1d
from repro.core.driver import _step_function, make_training_step
from repro.data import ArrayDataset, DataLoader
from repro.models import restcn_seed, temponet_seed
from repro.nn import (
    CausalConv1d,
    GlobalAvgPool1d,
    Linear,
    ReLU,
    Sequential,
    mae_loss,
    mse_loss,
    polyphonic_nll,
)
from repro.optim import Adam


def trace_program(step_fn, x, y):
    """Capture one step into a (program, outputs) pair."""
    with capture() as tracer:
        tx, ty = Tensor(x), Tensor(y)
        tracer.add_input(tx)
        tracer.add_input(ty)
        outs = step_fn(tx, ty)
        outs = outs if isinstance(outs, tuple) else (outs,)
        outs[0].backward()
    assert tracer.failure is None, tracer.failure
    return build_program(tracer, outs[0], outs), outs


def op_names(program):
    return [node.op.name for node in program.schedule
            if type(node) is OpNode]


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------

COMPILED = CompileConfig(compile_step=True)


class TestKnobs:
    def test_default_is_on(self):
        assert CompiledStep(lambda x, y: x).optimize == "default"

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="graph optimization level"):
            check_opt_level("aggressive")
        with pytest.raises(ValueError):
            CompiledStep(lambda x, y: x, optimize="O3")


# ----------------------------------------------------------------------
# Pass 1: constant folding
# ----------------------------------------------------------------------

class TestFoldConstants:
    def test_constant_subgraph_folds(self):
        w = Tensor(np.ones((3,)), requires_grad=True)
        c1, c2 = Tensor([1.0, 2.0, 3.0]), Tensor([2.0, 2.0, 2.0])

        def step_fn(x, y):
            scale = (c1 * c2) + 1.0          # entirely constant
            return ((x * scale * w) - y).abs().mean()

        program, _ = trace_program(step_fn, np.ones(3), np.zeros(3))
        ops_before = op_names(program)
        assert ops_before.count("mul") >= 3
        assert "add" in ops_before            # the +1.0 constant op
        folded = fold_constants(program)
        assert folded == 2                    # c1*c2 and +1.0
        assert "add" not in op_names(program)
        # The folded values are bound as constant leaves with unique slots.
        slots = {slot for slot, _ in program.leaves}
        assert len(slots) == len(program.leaves)

    def test_folding_respects_dtype(self):
        set_default_dtype("float32")
        try:
            c1, c2 = Tensor([1.0, 2.0]), Tensor([0.5, 4.0])
            w = Tensor(np.ones(2), requires_grad=True)

            def step_fn(x, y):
                return (x * (c1 > c2) * w).sum()  # comparison -> bool -> f32

            program, _ = trace_program(step_fn, np.ones(2), np.zeros(2))
            folded = fold_constants(program)
            assert folded == 1
            slot, leaf = program.leaves[-1]
            assert leaf.data.dtype == np.float32
            assert np.array_equal(leaf.data, np.array([1.0, 0.0], np.float32))
        finally:
            set_default_dtype("float64")

    def test_inputs_are_never_constants(self):
        """Batch inputs appear in program.leaves but must never fold."""
        w = Tensor(np.ones(4), requires_grad=True)

        def step_fn(x, y):
            return (x[0:2].sum() + (x * w).sum()) - y.sum()

        program, _ = trace_program(step_fn, np.arange(4.0), np.zeros(1))
        before = len(op_names(program))
        assert fold_constants(program) == 0
        assert len(op_names(program)) == before

    def test_stateful_dropout_never_folds(self):
        from repro.autograd import dropout
        c = Tensor(np.ones(64))
        w = Tensor(np.ones(64), requires_grad=True)
        rng = np.random.default_rng(0)

        def step_fn(x, y):
            masked = dropout(c, 0.5, training=True, rng=rng)  # constant input
            return (masked * w * x).sum()

        program, _ = trace_program(step_fn, np.ones(64), np.zeros(1))
        fold_constants(program)
        assert "dropout" in op_names(program)

    def test_frozen_pit_mask_subgraph_folds(self):
        """Phase 3: frozen masks turn the whole mask product constant."""
        rng = np.random.default_rng(0)
        model = Sequential(PITConv1d(2, 3, rf_max=9, rng=rng),
                           GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        model[0].freeze()
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
        x, y = rng.standard_normal((2, 2, 16)), rng.standard_normal((2, 1))
        step(x, y)
        stats = next(iter(step.opt_stats.values()))
        # The frozen mask's kernel-order getitem pre-evaluates at least.
        assert stats["folded"] >= 1


# ----------------------------------------------------------------------
# Pass 2: dead-node elimination
# ----------------------------------------------------------------------

class TestDeadNodeElimination:
    def test_dead_subgraph_removed(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            dead = (x - y).abs().mean()       # feeds nothing
            return (x * w).sum()

        program, _ = trace_program(step_fn, np.ones(3), np.zeros(3))
        assert "abs" in op_names(program)
        removed = eliminate_dead_nodes(program)
        assert removed == 3                    # sub, abs, mean
        assert "abs" not in op_names(program)

    def test_effect_nodes_and_their_inputs_survive(self):
        """Side effects (BatchNorm running stats) are roots of liveness."""
        w = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def update(mean_value):
            seen.append(float(mean_value))

        def step_fn(x, y):
            mean = x.mean()                    # feeds only the effect
            record_side_effect((mean,), update)
            return (x * w).sum()

        program, _ = trace_program(step_fn, np.ones(3), np.zeros(3))
        removed = eliminate_dead_nodes(program)
        assert removed == 0
        assert "mean" in op_names(program)
        assert any(type(node) is EffectNode for node in program.schedule)

    def test_compiled_replay_still_fires_effects(self):
        w = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def step_fn(x, y):
            mean = x.mean()
            record_side_effect((mean,), lambda m: seen.append(float(m)))
            return (x * w).sum()

        step = CompiledStep(step_fn, optimize="default")
        for value in (1.0, 2.0, 3.0):
            step(np.full(3, value), np.zeros(3))
        assert seen == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# Pass 3: fusion
# ----------------------------------------------------------------------

class TestFusion:
    def test_loss_chain_fuses(self):
        w = Tensor(np.ones((4,)), requires_grad=True)

        def step_fn(x, y):
            return ((x * w) - y).abs().mean()

        program, _ = trace_program(step_fn, np.ones(4), np.zeros(4))
        groups, absorbed = fuse_chains(program)
        assert groups >= 1
        fused = [node.op for node in program.schedule
                 if type(node) is OpNode and isinstance(node.op, FusedOp)]
        assert fused and any("abs" in op.name for op in fused)

    def test_fused_backward_is_bit_identical(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((5,)), requires_grad=True)

        def step_fn(x, y):
            return ((x * w) - y).abs().mean()

        plain = CompiledStep(step_fn, optimize="none")
        fused = CompiledStep(step_fn, optimize="default")
        for i in range(4):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            w.zero_grad()
            out_a = plain(x, y)
            grad_a = np.array(w.grad)
            w.zero_grad()
            out_b = fused(x, y)
            assert out_a == out_b
            assert np.array_equal(grad_a, w.grad)
        stats = next(iter(fused.opt_stats.values()))
        assert stats["fused_groups"] >= 1

    def test_output_slots_never_fuse_away(self):
        """Both step outputs (loss, task) stay addressable after fusion."""
        w = Tensor(np.ones(3), requires_grad=True)

        def step_fn(x, y):
            task = (x * w).sum()
            return task + 0.5 * (w * w).sum(), task

        step = CompiledStep(step_fn, optimize="default")
        first = step(np.ones(3), np.zeros(3))
        second = step(np.ones(3), np.zeros(3))
        assert first == second
        assert len(first) == 2


# ----------------------------------------------------------------------
# Pass 4: memory planning / alloc_stats
# ----------------------------------------------------------------------

class TestMemoryPlan:
    def _conv_model(self):
        rng = np.random.default_rng(7)
        return Sequential(
            CausalConv1d(3, 8, kernel_size=5, rng=rng), ReLU(),
            CausalConv1d(8, 8, kernel_size=3, rng=rng), ReLU(),
            GlobalAvgPool1d(), Linear(8, 2, rng=rng))

    def test_inplace_when_fusion_blocked_by_effect(self):
        w = Tensor(np.ones((16,)), requires_grad=True)
        seen = []

        def step_fn(x, y):
            a = x * w
            # The effect read blocks fusing [mul, relu], and the two
            # consumers of b keep relu out of any chain — a standalone
            # relu whose input dies right there, so it runs in place.
            record_side_effect((a,), lambda v: seen.append(v.shape))
            b = a.relu()
            return b.sum() + b.mean()

        step = CompiledStep(step_fn, optimize="default")
        x = np.linspace(-1, 1, 16)
        first = step(x, np.zeros(1))
        stats = next(iter(step.opt_stats.values()))
        assert stats["inplace_ops"] >= 1
        assert step(x, np.zeros(1)) == first

    def test_alloc_stats_zero_steady_state_growth(self):
        model = self._conv_model()
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 32)), rng.standard_normal((4, 2))
        step(x, y)          # trace
        step(x, y)          # warm replay (materializes lazy scratch)
        warm = step.alloc_stats
        assert warm["programs"] == 1
        assert warm["arena_buffers"] > 0
        for _ in range(5):
            model.zero_grad()
            step(x, y)
        steady = step.alloc_stats
        assert steady["steady_state_growth"] == 0
        assert steady["persistent_buffers"] == warm["persistent_buffers"]

    def test_arena_shares_buffers(self):
        model = temponet_seed(width_mult=0.125, seed=3)

        def step_fn(tx, ty):
            task = mae_loss(model(tx), ty)
            return task + size_regularizer(model, 0.02), task

        step = CompiledStep(step_fn, optimize="default")
        rng = np.random.default_rng(0)
        step(rng.standard_normal((4, 4, 256)), rng.standard_normal((4, 1)))
        stats = next(iter(step.opt_stats.values()))
        assert stats["arena_reuses"] >= 1
        assert stats["inplace_ops"] >= 1
        assert stats["fused_groups"] >= 10

    def test_views_never_share_recycled_buffers(self):
        """A reshape of an intermediate keeps the storage alive."""
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((6,)), requires_grad=True)

        def step_fn(x, y):
            a = x + w                    # fwd_out op -> arena candidate
            b = a.reshape(2, 3)          # view of a
            c = (x * 2.0).relu()         # more arena traffic
            return (b.sum() + c.sum()) - y.sum()

        plain = CompiledStep(step_fn, optimize="none")
        opt = CompiledStep(step_fn, optimize="default")
        for _ in range(3):
            x = rng.standard_normal(6)
            y = rng.standard_normal(1)
            w.zero_grad()
            ref = plain(x, y)
            ga = np.array(w.grad)
            w.zero_grad()
            assert opt(x, y) == ref
            assert np.array_equal(w.grad, ga)


# ----------------------------------------------------------------------
# Whole-pipeline differential: optimized == unoptimized, bit for bit
# ----------------------------------------------------------------------

def run_training(make_model, batches, loss_fn, extra_loss_fn, optimize):
    model = make_model()
    extra = (lambda: extra_loss_fn(model)) if extra_loss_fn else None
    step = CompiledStep(_step_function(model, loss_fn, extra),
                        optimize=optimize)
    optimizer = Adam(model.parameters(), lr=1e-3)
    losses = []
    for x, y in batches:
        model.train()
        optimizer.zero_grad()
        losses.append(step(x, y))
        optimizer.step()
    assert step.fallback_reason is None, step.fallback_reason
    return losses, model.state_dict(), step


class TestPipelineParity:
    def _batches(self, xshape, yshape, count=3, seed=0):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(xshape), rng.standard_normal(yshape))
                for _ in range(count)]

    @pytest.mark.parametrize("seed_fn,xshape,yshape,loss_fn", [
        (lambda: temponet_seed(width_mult=0.125, seed=3), (8, 4, 256),
         (8, 1), mae_loss),
        (lambda: restcn_seed(width_mult=0.05, seed=1), (4, 88, 48),
         (4, 88, 48), polyphonic_nll),
    ])
    def test_tcn_seeds_bit_identical(self, seed_fn, xshape, yshape, loss_fn):
        batches = self._batches(xshape, yshape)
        base, state_a, _ = run_training(
            seed_fn, batches, loss_fn,
            lambda m: size_regularizer(m, 0.02), "none")
        opt, state_b, step = run_training(
            seed_fn, batches, loss_fn,
            lambda m: size_regularizer(m, 0.02), "default")
        assert base == opt
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key
        stats = next(iter(step.opt_stats.values()))
        assert stats["fused_groups"] >= 1

    def test_three_phase_pit_bit_identical(self):
        """The compiled PIT trainer (optimized replay in every phase,
        frozen masks folded in phase 3) matches the eager trainer."""
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
        base, opt = outcomes[False], outcomes[True]
        assert base[0].dilations == opt[0].dilations
        assert base[0].best_val == opt[0].best_val
        assert base[0].history == opt[0].history
        for key in base[1]:
            assert np.array_equal(base[1][key], opt[1][key]), key
        assert all(stats["optimize"] == "default"
                   for stats in opt[0].compile_stats.values())

    def test_shape_polymorphism_optimizes_each_program(self):
        rng = np.random.default_rng(5)
        model = Sequential(CausalConv1d(2, 4, kernel_size=3, rng=rng),
                           ReLU(), GlobalAvgPool1d(), Linear(4, 1, rng=rng))
        step = make_training_step(model, mse_loss, compile_config=COMPILED)
        step(rng.standard_normal((4, 2, 16)), rng.standard_normal((4, 1)))
        step(rng.standard_normal((2, 2, 16)), rng.standard_normal((2, 1)))
        assert len(step.opt_stats) == 2
        assert all(s["fused_groups"] >= 1 for s in step.opt_stats.values())
