"""Tests for the channel-masking extension (paper Sec. III-C)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    ChannelMask,
    PITConv1d,
    channel_regularizer,
    export_channel_conv,
    pit_layers,
)
from repro.nn import Module, ReLU, Sequential

RNG = np.random.default_rng(123)


class TestChannelMask:
    def test_initial_all_alive(self):
        mask = ChannelMask(8)
        assert np.allclose(mask().data, 1.0)
        assert mask.alive_channels() == 8

    def test_threshold_binarization(self):
        mask = ChannelMask(4)
        mask.gamma_hat.data[...] = [0.9, 0.1, 0.6, 0.4]
        assert mask.current_mask().tolist() == [1, 0, 1, 0]
        assert mask.alive_channels() == 2

    def test_min_channels_rescue(self):
        mask = ChannelMask(4, min_channels=2)
        mask.gamma_hat.data[...] = [0.1, 0.2, 0.05, 0.3]
        current = mask.current_mask()
        assert current.sum() == 2
        # The two largest γ̂ survive.
        assert current.tolist() == [0, 1, 0, 1]

    def test_forward_matches_current_mask_with_rescue(self):
        mask = ChannelMask(3, min_channels=1)
        mask.gamma_hat.data[...] = [0.1, 0.2, 0.3]
        assert np.allclose(mask().data, mask.current_mask())

    def test_gradient_flows(self):
        mask = ChannelMask(4)
        (mask() * Tensor(np.arange(4.0))).sum().backward()
        assert mask.gamma_hat.grad is not None

    def test_freeze(self):
        mask = ChannelMask(4)
        mask.gamma_hat.data[...] = [1.0, 0.0, 1.0, 0.0]
        mask.freeze()
        mask.gamma_hat.data[...] = 1.0
        assert mask.alive_channels() == 2
        mask.unfreeze()
        assert mask.alive_channels() == 4

    def test_set_alive(self):
        mask = ChannelMask(3)
        mask.set_alive(np.array([1.0, 0.0, 1.0]))
        assert mask.current_mask().tolist() == [1, 0, 1]

    def test_set_alive_shape_validation(self):
        with pytest.raises(ValueError):
            ChannelMask(3).set_alive(np.ones(4))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ChannelMask(0)
        with pytest.raises(ValueError):
            ChannelMask(3, min_channels=4)

    def test_repr(self):
        assert "4/4" in repr(ChannelMask(4))


class TestPITChannelConv1d:
    """A channel-searched ``PITConv1d`` (built with ``min_channels=``)."""

    def make(self):
        return PITConv1d(3, 6, rf_max=9, min_channels=1,
                         rng=np.random.default_rng(0))

    def test_forward_shape(self):
        layer = self.make()
        assert layer(Tensor(RNG.standard_normal((2, 3, 12)))).shape == (2, 6, 12)

    def test_dead_channels_output_zero(self):
        layer = self.make()
        layer.channel_mask.set_alive(np.array([1, 0, 1, 0, 1, 0], dtype=float))
        out = layer(Tensor(RNG.standard_normal((1, 3, 10))))
        assert np.allclose(out.data[:, 1], 0.0)
        assert np.allclose(out.data[:, 3], 0.0)
        assert not np.allclose(out.data[:, 0], 0.0)

    def test_combined_dilation_and_channels(self):
        layer = self.make()
        layer.mask.set_dilation(4)
        layer.channel_mask.set_alive(np.array([1, 1, 0, 0, 0, 0], dtype=float))
        assert layer.current_dilation() == 4
        assert layer.alive_channels() == 2
        assert layer.kept_taps() == 3

    def test_effective_params(self):
        layer = self.make()
        layer.mask.set_dilation(4)   # 3 taps
        layer.channel_mask.set_alive(np.array([1, 1, 0, 0, 0, 0], dtype=float))
        assert layer.effective_params() == 3 * 3 * 2 + 2

    def test_both_masks_receive_gradients(self):
        layer = self.make()
        layer(Tensor(RNG.standard_normal((1, 3, 10)))).sum().backward()
        assert layer.mask.gamma_hat.grad is not None
        assert layer.channel_mask.gamma_hat.grad is not None

    def test_freeze_freezes_both(self):
        layer = self.make()
        layer.freeze()
        assert layer.mask.frozen
        assert layer.channel_mask.frozen

    def test_rejects_rf_1(self):
        with pytest.raises(ValueError):
            PITConv1d(2, 2, rf_max=1, min_channels=1)

    def test_repr(self):
        assert "alive=6/6" in repr(self.make())


class Chain(Module):
    def __init__(self):
        super().__init__()
        self.a = PITConv1d(2, 4, rf_max=5, min_channels=1,
                           rng=np.random.default_rng(0))
        self.r = ReLU()
        self.b = PITConv1d(4, 3, rf_max=9, min_channels=1,
                           rng=np.random.default_rng(1))

    def forward(self, x):
        return self.b(self.r(self.a(x)))


class TestChannelRegularizer:
    def test_value_at_all_alive(self):
        model = Chain()
        lam = 0.5
        expected = lam * (2 * 5 * 4 + 4 * 9 * 3)  # Cin * taps * channels(|γ̂|=1)
        assert channel_regularizer(model, lam).item() == pytest.approx(expected)

    def test_scales_with_time_pruning(self):
        """Channel cost shrinks when the time mask prunes taps."""
        model = Chain()
        base = channel_regularizer(model, 1.0).item()
        model.a.mask.set_dilation(4)  # 5-tap -> 2-tap... (rf5,d4 -> lags {0,4})
        pruned = channel_regularizer(model, 1.0).item()
        assert pruned < base

    def test_frozen_excluded(self):
        model = Chain()
        model.a.freeze()
        only_b = channel_regularizer(model, 1.0).item()
        assert only_b == pytest.approx(1.0 * 4 * 9 * 3)

    def test_empty_model(self):
        assert channel_regularizer(Sequential(ReLU()), 1.0).item() == 0.0

    def test_gradient(self):
        model = Chain()
        channel_regularizer(model, 0.1).backward()
        assert model.a.channel_mask.gamma_hat.grad is not None

    def test_discovery(self):
        searched = [layer for layer in pit_layers(Chain())
                    if layer.channel_mask is not None]
        assert len(searched) == 2


class TestExportChannelConv:
    def test_export_slices_channels(self):
        layer = PITConv1d(3, 6, rf_max=9, min_channels=1,
                          rng=np.random.default_rng(0))
        layer.mask.set_dilation(2)
        layer.channel_mask.set_alive(np.array([1, 0, 1, 0, 1, 1], dtype=float))
        conv, alive = export_channel_conv(layer)
        assert conv.out_channels == 4
        assert conv.dilation == 2
        assert alive.tolist() == [0, 2, 4, 5]

    def test_export_forward_matches_alive_rows(self):
        layer = PITConv1d(3, 6, rf_max=9, min_channels=1,
                          rng=np.random.default_rng(0))
        layer.mask.set_dilation(4)
        alive = np.array([1, 1, 0, 0, 1, 0], dtype=float)
        layer.channel_mask.set_alive(alive)
        conv, index = export_channel_conv(layer)
        x = Tensor(RNG.standard_normal((2, 3, 14)))
        full = layer(x).data
        compact = conv(x).data
        assert np.allclose(full[:, index], compact)
        # Dead rows of the full output are exactly zero.
        dead = [i for i in range(6) if i not in index]
        assert np.allclose(full[:, dead], 0.0)

    def test_export_param_count(self):
        layer = PITConv1d(3, 6, rf_max=9, min_channels=1,
                          rng=np.random.default_rng(0))
        layer.mask.set_dilation(8)
        layer.channel_mask.set_alive(np.array([1, 0, 0, 0, 0, 1], dtype=float))
        conv, _ = export_channel_conv(layer)
        assert conv.count_parameters() == layer.effective_params()


class TestCombinedSearchIntegration:
    def test_joint_regularized_training_prunes_both_axes(self):
        """A few steps with both Lasso terms shrink taps AND channels."""
        from repro.optim import Adam
        from repro.core.regularizer import size_regularizer

        model = Chain()
        params = model.parameters()
        optimizer = Adam(params, lr=0.05)
        x = Tensor(RNG.standard_normal((4, 2, 12)))
        for _ in range(30):
            optimizer.zero_grad()
            out = model(x)
            loss = ((out * out).mean() + channel_regularizer(model, 1.0)
                    + size_regularizer(model, 1.0))
            loss.backward()
            optimizer.step()
        assert model.a.current_dilation() > 1
        assert model.b.current_dilation() > 1
        assert (model.a.alive_channels() < 4 or model.b.alive_channels() < 3)


class TestChannelSearchedLayerIsAPITLayer:
    """A channel-searched layer is a ``PITConv1d``: every consumer that
    handles PIT layers counts it, and every flow that cannot shrink a
    consumer's input refuses it by name."""

    def make(self):
        return PITConv1d(2, 4, rf_max=9, min_channels=1,
                         rng=np.random.default_rng(0))

    def test_flops_regularizer_weights_by_output_length(self):
        from repro.core import flops_regularizer, size_regularizer
        layer = self.make()
        layer(Tensor(RNG.standard_normal((1, 2, 64))))
        size = size_regularizer(layer, 1.0).item()
        assert size == pytest.approx(2 * 4 * (1 + 2 + 4))
        assert flops_regularizer(layer, 1.0).item() == pytest.approx(64 * size)

    def pair(self):
        return Sequential(self.make(), ReLU(),
                          PITConv1d(4, 3, rf_max=5,
                                     rng=np.random.default_rng(1)))

    def test_counted_by_search_space(self):
        from repro.core import parameter_range, search_space_size
        model = self.pair()
        gammas = [p.data.copy() for p in model.parameters()]
        # 4 dilations x widths 1..4 for the first layer, 3 dilations after.
        assert search_space_size(model) == 4 * 4 * 3
        bounds = parameter_range(model)
        assert bounds["min_params"] == (2 * 2 * 1 + 1) + (2 * 4 * 3 + 3)
        assert bounds["max_params"] == (9 * 2 * 4 + 4) + (5 * 4 * 3 + 3)
        for p, before in zip(model.parameters(), gammas):
            assert np.array_equal(p.data, before)

    def test_dilation_configurations_refuse_it(self):
        from repro.baselines import random_configurations
        from repro.core import enumerate_configurations
        model = self.pair()
        with pytest.raises(ValueError, match="'m0' is channel-searched"):
            enumerate_configurations(model)
        with pytest.raises(ValueError, match="'m0' is channel-searched"):
            random_configurations(model, 2, np.random.default_rng(0))

    def test_set_dilation_and_unfreeze(self):
        layer = self.make()
        layer.set_dilation(4)
        layer.freeze()
        assert layer.mask.frozen and layer.channel_mask.frozen
        layer.unfreeze()
        assert not layer.mask.frozen and not layer.channel_mask.frozen
        assert layer.current_dilation() == 4

    def test_export_network_keeps_it_and_deployment_refuses(self):
        from repro.core import NotDeployableError, export_network
        from repro.core.export import require_exported
        exported = export_network(Sequential(self.make()))
        assert isinstance(exported[0], PITConv1d)
        with pytest.raises(NotDeployableError, match="channel-searched"):
            require_exported(exported, "test")

    def test_export_functions_check_the_layer_kind(self):
        from repro.core import export_conv
        with pytest.raises(ValueError, match="export_channel_conv"):
            export_conv(self.make())
        with pytest.raises(ValueError, match="export_conv"):
            export_channel_conv(PITConv1d(2, 4, rf_max=9))

    def test_stacking_unsupported(self):
        from repro.core import StackedPITTrainer
        from repro.nn import StackingUnsupported, mse_loss
        with pytest.raises(StackingUnsupported, match="channel-searched"):
            StackedPITTrainer(Sequential(self.make()), mse_loss,
                              lams=[0.0, 1.0])

    def test_proxylessify_refuses(self):
        from repro.baselines import proxylessify
        with pytest.raises(ValueError, match="channel-searched"):
            proxylessify(Sequential(self.make()))
