"""Tests for loss evaluation, Pareto analysis and the DSE driver."""

import numpy as np
import pytest

from repro.core import PITResult, evaluate
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import (
    DSEEngine,
    DSEPoint,
    dominates,
    hypervolume,
    pareto_front,
    pareto_points,
    select_small_medium_large,
)
from repro.hw import GAP8Model
from repro.nn import (CausalConv1d, Linear, Flatten, ReLU, Sequential,
                      mae_loss, mse_loss, polyphonic_nll)

RNG = np.random.default_rng(61)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))

    def test_partial_dominance(self):
        assert dominates((1, 2), (2, 2))
        assert dominates((2, 1), (2, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_tradeoff_points_incomparable(self):
        assert not dominates((1, 3), (3, 1))
        assert not dominates((3, 1), (1, 3))


class TestParetoFront:
    POINTS = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0), (5.0, 2.0)]

    def test_front_indices(self):
        assert pareto_front(self.POINTS) == [0, 1, 3]

    def test_front_points_sorted(self):
        assert pareto_points(self.POINTS) == [(1.0, 5.0), (2.0, 3.0), (4.0, 1.0)]

    def test_single_point(self):
        assert pareto_front([(1.0, 1.0)]) == [0]

    def test_duplicates_both_kept(self):
        # Equal points do not dominate each other; both survive.
        front = pareto_front([(1.0, 1.0), (1.0, 1.0)])
        assert front == [0, 1]

    def test_all_dominated_by_one(self):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert pareto_front(points) == [0]


class TestHypervolume:
    def test_single_point_rectangle(self):
        assert hypervolume([(1.0, 1.0)], (3.0, 3.0)) == pytest.approx(4.0)

    def test_point_outside_reference_ignored(self):
        assert hypervolume([(5.0, 5.0)], (3.0, 3.0)) == 0.0

    def test_two_point_staircase(self):
        # Boxes [1,4]x[2,4] and [2,4]x[1,4]: area 6 + 2? Sweep: strip [1,2]
        # height (4-2)=2 -> 2; strip [2,4] height (4-1)=3 -> 6; total 8.
        hv = hypervolume([(1.0, 2.0), (2.0, 1.0)], (4.0, 4.0))
        assert hv == pytest.approx(8.0)

    def test_dominated_point_does_not_change_hv(self):
        base = hypervolume([(1.0, 2.0), (2.0, 1.0)], (4.0, 4.0))
        more = hypervolume([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)], (4.0, 4.0))
        assert more == pytest.approx(base)

    def test_better_front_larger_hv(self):
        worse = hypervolume([(2.0, 2.0)], (4.0, 4.0))
        better = hypervolume([(1.0, 1.0)], (4.0, 4.0))
        assert better > worse

    def test_empty(self):
        assert hypervolume([], (1.0, 1.0)) == 0.0


class TestNDPareto:
    """The generalized (N-objective) dominance / front / hypervolume."""

    def test_dominates_3d(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 1, 1), (1, 1, 2))
        assert not dominates((1, 1, 1), (1, 1, 1))
        assert not dominates((1, 2, 3), (3, 2, 1))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            dominates((1, 2), (1, 2, 3))

    def test_front_3d(self):
        points = [(1.0, 1.0, 3.0), (1.0, 2.0, 2.0), (2.0, 2.0, 2.0),
                  (3.0, 3.0, 3.0)]
        # (2,2,2) is dominated by (1,2,2); (3,3,3) by everything.
        assert pareto_front(points) == [0, 1]

    def test_front_3d_duplicates_both_kept(self):
        assert pareto_front([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)]) == [0, 1]

    def test_front_3d_degenerate_all_dominated(self):
        points = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 1.0, 3.0)]
        assert pareto_front(points) == [0]

    def test_hypervolume_single_point_3d(self):
        # Box [1,2]^3 -> volume 1.
        assert hypervolume([(1.0, 1.0, 1.0)], (2.0, 2.0, 2.0)) == \
               pytest.approx(1.0)

    def test_hypervolume_3d_inclusion_exclusion(self):
        # Three boxes of volume 3 each (3*1*1), pairwise intersections
        # (2,2,2)..(3,3,3) of volume 1, triple intersection volume 1:
        # 9 - 3 + 1 = 7.
        points = [(0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0)]
        assert hypervolume(points, (3.0, 3.0, 3.0)) == pytest.approx(7.0)

    def test_hypervolume_matches_2d_reference(self):
        points = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
        # The 2-D staircase by hand: strip [1,2] x height 2, strip [2,4] x
        # height 3; the dominated (3, 3) adds nothing.
        assert hypervolume(points, (4.0, 4.0)) == pytest.approx(8.0)

    def test_hypervolume_duplicate_points(self):
        base = hypervolume([(1.0, 2.0, 3.0)], (4.0, 4.0, 4.0))
        doubled = hypervolume([(1.0, 2.0, 3.0), (1.0, 2.0, 3.0)],
                              (4.0, 4.0, 4.0))
        assert doubled == pytest.approx(base)

    def test_hypervolume_dominated_point_contributes_nothing(self):
        front = [(0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0)]
        padded = front + [(2.5, 2.5, 2.5)]
        assert hypervolume(padded, (3.0, 3.0, 3.0)) == \
               pytest.approx(hypervolume(front, (3.0, 3.0, 3.0)))

    def test_hypervolume_all_outside_reference(self):
        assert hypervolume([(5.0, 5.0, 5.0)], (3.0, 3.0, 3.0)) == 0.0

    def test_hypervolume_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            hypervolume([(1.0, 1.0)], (3.0, 3.0, 3.0))


class TestObjectiveResolution:
    def _points(self):
        a = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,), params=100,
                     loss=5.0, metrics={"latency_ms": 10.0, "energy_mj": 2.0})
        b = DSEPoint(lam=0.1, warmup_epochs=0, dilations=(1,), params=200,
                     loss=1.0, metrics={"latency_ms": 30.0, "energy_mj": 8.0})
        c = DSEPoint(lam=0.2, warmup_epochs=0, dilations=(1,), params=300,
                     loss=4.0, metrics={"latency_ms": 40.0, "energy_mj": 9.0})
        return a, b, c

    def test_objective_value_resolves_fields_and_metrics(self):
        from repro.evaluation import objective_value
        a, _, _ = self._points()
        assert objective_value(a, "params") == 100.0
        assert objective_value(a, "loss") == 5.0
        assert objective_value(a, "latency_ms") == 10.0
        assert objective_value(a, "nonexistent") is None

    def test_result_pareto_default_matches_legacy(self):
        from repro.evaluation import DSEResult
        a, b, c = self._points()
        result = DSEResult(points=[a, b, c])
        coords = [(p.params, p.loss) for p in result.points]
        legacy = [result.points[i] for i in pareto_front(coords)]
        assert result.pareto() == legacy

    def test_result_pareto_3d_front(self):
        from repro.evaluation import DSEResult
        a, b, c = self._points()
        result = DSEResult(points=[a, b, c])
        # c is dominated by b on every axis; a and b trade off loss vs cost.
        front = result.pareto(objectives=("params", "latency_ms", "loss"))
        assert front == [a, b]

    def test_result_pareto_skips_points_missing_metrics(self):
        from repro.evaluation import DSEResult
        a, b, _ = self._points()
        bare = DSEPoint(lam=0.3, warmup_epochs=0, dilations=(1,), params=1,
                        loss=0.0)  # no metrics (e.g. cached v1 entry)
        result = DSEResult(points=[a, b, bare])
        front = result.pareto(objectives=("params", "latency_ms", "loss"))
        assert bare not in front
        assert front == [a, b]


class TestMetrics:
    def test_evaluate_metric_averages_batches(self):
        net = Sequential(CausalConv1d(1, 1, 1, rng=np.random.default_rng(0)))
        x = RNG.standard_normal((6, 1, 4))
        data = ArrayDataset(x, np.zeros((6, 1, 4)))
        loader = DataLoader(data, 2)
        value = evaluate(net, mse_loss, loader)
        assert np.isfinite(value)

    def test_nll_metric_runs(self):
        net = Sequential(CausalConv1d(88, 88, 1, rng=np.random.default_rng(0)))
        data = ArrayDataset(RNG.standard_normal((4, 88, 6)),
                            (RNG.random((4, 88, 6)) > 0.9).astype(float))
        assert evaluate(net, polyphonic_nll, DataLoader(data, 2)) > 0

    def test_mae_metric_runs(self):
        net = Sequential(Flatten(), Linear(8, 1, rng=np.random.default_rng(0)))
        data = ArrayDataset(RNG.standard_normal((4, 2, 4)),
                            np.full((4, 1), 70.0))
        assert evaluate(net, mae_loss, DataLoader(data, 2)) > 0

    def test_count_macs(self):
        net = Sequential(CausalConv1d(2, 4, 3, rng=np.random.default_rng(0)))
        macs = GAP8Model().estimate(net, (1, 2, 10)).total_macs
        assert macs == 2 * 4 * 3 * 10

    def test_empty_loader_raises(self):
        net = Sequential(CausalConv1d(1, 1, 1, rng=np.random.default_rng(0)))
        loader = DataLoader(ArrayDataset(np.zeros((0, 1, 4)), np.zeros((0, 1, 4))), 2)
        with pytest.raises(ValueError):
            evaluate(net, mse_loss, loader)


def _point(lam, params, loss):
    return DSEPoint(lam=lam, warmup_epochs=1, dilations=(1,),
                    params=params, loss=loss, result=None)


class TestSelection:
    POINTS = [_point(0.1, 100, 5.0), _point(0.2, 400, 3.0),
              _point(0.3, 900, 2.0), _point(0.4, 250, 4.0)]

    def test_small_is_fewest_params(self):
        sel = select_small_medium_large(self.POINTS, 420)
        assert sel["small"].params == 100

    def test_large_is_most_params(self):
        sel = select_small_medium_large(self.POINTS, 420)
        assert sel["large"].params == 900

    def test_medium_closest_to_reference(self):
        sel = select_small_medium_large(self.POINTS, 420)
        assert sel["medium"].params == 400

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_small_medium_large([], 100)

    def test_missing_reference_raises(self):
        with pytest.raises(TypeError, match="reference"):
            select_small_medium_large(self.POINTS)

    def test_selection_along_metric_objective(self):
        points = [DSEPoint(lam=p.lam, warmup_epochs=1, dilations=(1,),
                           params=p.params, loss=p.loss,
                           metrics={"latency_ms": 1000.0 / p.params})
                  for p in self.POINTS]
        sel = select_small_medium_large(points, objective="latency_ms",
                                        reference=3.0)
        assert sel["small"].params == 900   # fastest = fewest ms
        assert sel["large"].params == 100
        # closest to 3.0 ms: latencies are 10, 2.5, 1.11, 4 -> 2.5 (400 p)
        assert sel["medium"].params == 400

    def test_points_without_objective_raise(self):
        with pytest.raises(ValueError, match="latency_ms"):
            select_small_medium_large(self.POINTS, objective="latency_ms",
                                      reference=1.0)


class TestRunDSE:
    def test_sweep_produces_grid_points(self):
        from repro.core import PITConv1d
        from repro.nn import Module

        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.c = PITConv1d(1, 2, rf_max=5, rng=np.random.default_rng(0))
                self.h = CausalConv1d(2, 1, 1, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.h(self.c(x))

        x = RNG.standard_normal((8, 1, 10))
        y = np.concatenate([np.zeros((8, 1, 1)), x[:, :, :-1]], axis=2)
        train = DataLoader(ArrayDataset(x[:4], y[:4]), 4)
        val = DataLoader(ArrayDataset(x[4:], y[4:]), 4)
        result = DSEEngine(Tiny, mse_loss, train, val,
                           trainer_kwargs=dict(max_prune_epochs=2,
                                               finetune_epochs=1,
                                               gamma_lr=0.1)).run(
            [0.0, 5.0], warmups=[0, 1])
        assert len(result.points) == 4
        assert {p.lam for p in result.points} == {0.0, 5.0}
        assert {p.warmup_epochs for p in result.points} == {0, 1}
        front = result.pareto()
        assert front  # at least one non-dominated point
        assert result.smallest().params <= min(p.params for p in result.points)
        assert result.best_loss().loss <= min(p.loss for p in result.points)
