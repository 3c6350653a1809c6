"""Tests for the DSE driver's warmup axis and front-quality metrics."""

import numpy as np
import pytest

from repro.core import PITConv1d
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import DSEEngine, hypervolume
from repro.nn import CausalConv1d, Module, ReLU, mse_loss

RNG = np.random.default_rng(83)


class Tiny(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=9, rng=rng)
        self.r = ReLU()
        self.h = CausalConv1d(2, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r(self.c(x)))


@pytest.fixture(scope="module")
def loaders():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 1, 10))
    y = np.concatenate([np.zeros((12, 1, 1)), x[:, :, :-1]], axis=2)
    train = DataLoader(ArrayDataset(x[:8], y[:8]), 8)
    val = DataLoader(ArrayDataset(x[8:], y[8:]), 4)
    return train, val


def _sweep(loaders, lambdas, warmups, **schedule):
    train, val = loaders
    return DSEEngine(Tiny, mse_loss, train, val,
                     trainer_kwargs=schedule).run(lambdas, warmups=warmups)


class TestWarmupAxis:
    def test_grid_covers_both_dimensions(self, loaders):
        result = _sweep(loaders, [0.0, 1.0], [0, 2],
                        max_prune_epochs=1, finetune_epochs=0)
        combos = {(p.lam, p.warmup_epochs) for p in result.points}
        assert combos == {(0.0, 0), (0.0, 2), (1.0, 0), (1.0, 2)}

    def test_trainer_kwargs_do_not_leak_lam(self, loaders):
        """The grid owns lam/warmup: setting them in trainer_kwargs is an
        error naming the grid axis, not a silent override."""
        train, val = loaders
        for name, axis in (("lam", "lambdas"), ("warmup_epochs", "warmups")):
            with pytest.raises(ValueError, match=f"DSEEngine.run {axis}"):
                DSEEngine(Tiny, mse_loss, train, val,
                          trainer_kwargs={name: 1, "max_prune_epochs": 1})

    def test_each_point_carries_full_result(self, loaders):
        result = _sweep(loaders, [0.0], [1],
                        max_prune_epochs=1, finetune_epochs=1)
        point = result.points[0]
        assert point.result is not None
        assert point.result.finetune_epochs == 1


class TestFrontQuality:
    def test_sweep_hypervolume_positive(self, loaders):
        result = _sweep(loaders, [0.0, 5.0], [0],
                        gamma_lr=0.2, max_prune_epochs=4, prune_patience=4,
                        finetune_epochs=0)
        points = [(float(p.params), p.loss) for p in result.points]
        reference = (max(a for a, _ in points) * 1.1,
                     max(b for _, b in points) * 1.1)
        assert hypervolume(points, reference) > 0

    def test_pareto_subset_of_points(self, loaders):
        result = _sweep(loaders, [0.0, 5.0], [0],
                        gamma_lr=0.2, max_prune_epochs=2, finetune_epochs=0)
        front = result.pareto()
        assert set(id(p) for p in front) <= set(id(p) for p in result.points)
