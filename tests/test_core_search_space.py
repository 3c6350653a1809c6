"""Tests for search-space accounting (paper Sec. IV-B)."""

import numpy as np
import pytest

from repro.core import (
    PITConv1d,
    enumerate_configurations,
    layer_choices,
    parameter_range,
    pit_layers,
    search_space_size,
)
from repro.models import restcn_seed, temponet_seed
from repro.nn import Module, ReLU, Sequential


class SmallModel(Module):
    def __init__(self):
        super().__init__()
        self.a = PITConv1d(2, 2, rf_max=5, rng=np.random.default_rng(0))
        self.b = PITConv1d(2, 2, rf_max=9, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.b(self.a(x))


class TestLayerChoices:
    def test_rf9_choices(self):
        layer = PITConv1d(2, 2, rf_max=9, rng=np.random.default_rng(0))
        assert layer_choices(layer) == [1, 2, 4, 8]

    def test_rf5_choices(self):
        layer = PITConv1d(2, 2, rf_max=5, rng=np.random.default_rng(0))
        assert layer_choices(layer) == [1, 2, 4]

    def test_rf2_single_choice(self):
        layer = PITConv1d(2, 2, rf_max=2, rng=np.random.default_rng(0))
        assert layer_choices(layer) == [1]


class TestSearchSpaceSize:
    def test_small_model(self):
        assert search_space_size(SmallModel()) == 3 * 4

    def test_restcn_matches_paper_order(self):
        """Paper: ~1e5 solutions for ResTCN."""
        size = search_space_size(restcn_seed(width_mult=0.05, seed=0))
        assert size == 3 * 3 * 4 * 4 * 5 * 5 * 6 * 6  # 129,600
        assert 1e5 <= size < 2e5

    def test_temponet_matches_paper_order(self):
        """Paper: ~1e4 alternatives for TEMPONet."""
        size = search_space_size(temponet_seed(width_mult=0.125, seed=0))
        assert size == 3 * 3 * 3 * 4 * 4 * 5 * 5  # 10,800
        assert 1e4 <= size < 2e4

    def test_plain_model_is_one(self):
        assert search_space_size(Sequential(ReLU())) == 1


class TestEnumeration:
    def test_count_matches_size(self):
        model = SmallModel()
        configs = list(enumerate_configurations(model))
        assert len(configs) == search_space_size(model)

    def test_configs_are_unique(self):
        configs = list(enumerate_configurations(SmallModel()))
        assert len(set(configs)) == len(configs)

    def test_all_entries_powers_of_two(self):
        for config in enumerate_configurations(SmallModel()):
            for d in config:
                assert d & (d - 1) == 0


class TestParameterRange:
    def test_min_below_max(self):
        ranges = parameter_range(restcn_seed(width_mult=0.05, seed=0))
        assert ranges["min_params"] < ranges["max_params"]

    def test_restores_gamma_state(self):
        model = SmallModel()
        model.a.set_dilation(2)
        before = model.a.mask.gamma_hat.data.copy()
        parameter_range(model)
        assert np.allclose(model.a.mask.gamma_hat.data, before)

    def test_frozen_masks_priced_as_searchable(self):
        """A frozen mask reads its frozen value, so pricing the corners
        without lifting it gave the current size as both bounds."""
        rng = np.random.default_rng(0)
        model = Sequential(PITConv1d(2, 4, rf_max=9, rng=rng), ReLU(),
                           PITConv1d(4, 3, rf_max=5, rng=rng))
        model[0].set_dilation(2)
        unfrozen = parameter_range(model)
        assert unfrozen == {"min_params": 47, "max_params": 139}
        for layer in pit_layers(model):
            layer.freeze()
        gammas = [layer.mask.gamma_hat.data.copy()
                  for layer in pit_layers(model)]
        dilations = [layer.current_dilation() for layer in pit_layers(model)]
        assert parameter_range(model) == unfrozen
        for layer, gamma in zip(pit_layers(model), gammas):
            assert layer.mask.frozen
            assert np.array_equal(layer.mask.gamma_hat.data, gamma)
        assert [layer.current_dilation()
                for layer in pit_layers(model)] == dilations

    def test_paper_scale_restcn(self):
        """Paper: ResTCN space spans ~0.4M to ~3M parameters."""
        ranges = parameter_range(restcn_seed(width_mult=1.0, seed=0))
        assert ranges["min_params"] < 0.6e6
        assert ranges["max_params"] > 2.5e6

    def test_paper_scale_temponet(self):
        """Paper: TEMPONet space spans ~0.4M to ~0.9M parameters."""
        ranges = parameter_range(temponet_seed(width_mult=1.0, seed=0))
        assert ranges["min_params"] < 0.55e6
        assert ranges["max_params"] > 0.65e6
