"""Tests for network export and effective-parameter accounting."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import (
    PITConv1d,
    effective_parameters,
    export_network,
    network_dilations,
    pit_layers,
)
from repro.models import ResTCN, restcn_seed, temponet_seed
from repro.nn import CausalConv1d

RNG = np.random.default_rng(17)


class TestExportNetwork:
    def test_replaces_all_pit_layers(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        exported = export_network(seed)
        assert pit_layers(exported) == []
        assert len(pit_layers(seed)) == 8  # original untouched

    def test_forward_identical_after_export(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        for i, layer in enumerate(pit_layers(seed)):
            choices = [1, 2, 4]
            layer.set_dilation(choices[i % 3])
        seed.eval()
        exported = export_network(seed)
        exported.eval()
        x = Tensor(RNG.standard_normal((2, 4, 256)))
        assert np.allclose(seed(x).data, exported(x).data, atol=1e-10)

    def test_export_is_deep_copy(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        exported = export_network(seed)
        first_conv = [m for m in exported.modules()
                      if isinstance(m, CausalConv1d) and m.kernel_size > 1][0]
        first_conv.weight.data[...] = 0.0
        assert not np.allclose(pit_layers(seed)[0].weight.data, 0.0)

    def test_exported_dilations_preserved(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        target = (1, 2, 4, 8, 1, 2, 16, 32)
        for layer, d in zip(pit_layers(seed), target):
            layer.set_dilation(d)
        exported = export_network(seed)
        # The head conv (k=1) and downsample convs report d=1 too; check the
        # searchable positions are present in order.
        dils = network_dilations(exported)
        searchable = [d for d in dils][:len(target) + 4]
        assert all(d in dils for d in target)

    def test_exported_param_count_matches_effective(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        for layer in pit_layers(seed):
            layer.set_dilation(layer.mask.rf_max > 5 and 4 or 2)
        assert export_network(seed).count_parameters() == effective_parameters(seed)


class TestNetworkDilations:
    def test_searchable_model(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        dils = network_dilations(seed)
        assert len([m for m in seed.modules() if isinstance(m, PITConv1d)]) == 8

    def test_reflects_set_dilation(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        for layer in pit_layers(seed):
            layer.set_dilation(2)
        dils = network_dilations(seed)
        assert dils[:8].count(2) >= 8 or 2 in dils


class TestEffectiveParameters:
    def test_equals_count_at_d1(self):
        """At d=1 nothing is masked except γ̂ (search-only params)."""
        seed = restcn_seed(width_mult=0.05, seed=0)
        gamma_count = sum(layer.mask.gamma_hat.data.size for layer in pit_layers(seed))
        assert effective_parameters(seed) == seed.count_parameters() - gamma_count

    def test_decreases_with_dilation(self):
        seed = restcn_seed(width_mult=0.05, seed=0)
        full = effective_parameters(seed)
        for layer in pit_layers(seed):
            layer.set_dilation(max(layer.mask.rf_max > 5 and 8 or 4, 2))
        assert effective_parameters(seed) < full

    def test_plain_model_is_count_parameters(self):
        model = ResTCN(width_mult=0.05, rng=np.random.default_rng(0))
        assert effective_parameters(model) == model.count_parameters()


class TestNetworkReceptiveField:
    """Composed receptive field / total stride vs brute-force probing.

    Regression: composing per-layer receptive fields by summing
    ``(rf_l - 1)`` is wrong once any earlier layer has ``stride > 1`` —
    a downstream tap then reaches ``stride`` input samples further back.
    The probe perturbs each input position and records which ones change
    the *last* output frame; the span between the oldest and newest
    affecting position is the ground-truth receptive field.
    """

    def _probe_span(self, net, channels, length, frame=-1):
        from repro.autograd import no_grad
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, channels, length))
        with no_grad():
            base = net(Tensor(x)).data
        affecting = []
        for p in range(length):
            bumped = x.copy()
            bumped[0, :, p] += 100.0  # large: survives max-pools too
            with no_grad():
                out = net(Tensor(bumped)).data
            if np.abs(out[0, :, frame] - base[0, :, frame]).max() > 0:
                affecting.append(p)
        assert affecting, "no input position reaches the probed output"
        return affecting

    def _nets(self):
        from repro.core.export import (
            network_receptive_field,
            network_total_stride,
        )
        from repro.nn import AvgPool1d, ReLU, Sequential

        rng = np.random.default_rng(3)
        conv = lambda ci, co, k, **kw: CausalConv1d(ci, co, k, rng=rng, **kw)
        return network_receptive_field, network_total_stride, [
            Sequential(conv(2, 3, 3, dilation=2), conv(3, 2, 3, dilation=4)),
            Sequential(conv(2, 3, 3, stride=2), conv(3, 2, 3, dilation=2)),
            Sequential(conv(2, 3, 3, stride=2), ReLU(),
                       conv(3, 3, 3, stride=2), conv(3, 2, 2, dilation=4)),
            Sequential(conv(2, 4, 5, dilation=2), AvgPool1d(2, 2),
                       conv(4, 3, 3), AvgPool1d(3, 2)),
        ]

    def test_composed_span_matches_brute_force(self):
        rf_of, _, nets = self._nets()
        for net in nets:
            net.eval()
            rf = rf_of(net)
            affecting = self._probe_span(net, 2, rf + 7)
            span = affecting[-1] - affecting[0] + 1
            assert span == rf, f"{net!r}: probed {span}, composed {rf}"

    def test_total_stride_shifts_consecutive_frames(self):
        rf_of, stride_of, nets = self._nets()
        for net in nets:
            net.eval()
            stride = stride_of(net)
            length = rf_of(net) + 3 * stride + 7
            last = self._probe_span(net, 2, length, frame=-1)
            prev = self._probe_span(net, 2, length, frame=-2)
            assert last[0] - prev[0] == stride
            assert last[-1] - prev[-1] == stride

    def test_layer_receptive_field_is_stride_independent(self):
        # The layer-local property stays (K-1)*d + 1; stride only changes
        # how spans compose across layers (network_receptive_field).
        a = CausalConv1d(2, 2, 3, dilation=4, stride=1,
                         rng=np.random.default_rng(0))
        b = CausalConv1d(2, 2, 3, dilation=4, stride=2,
                         rng=np.random.default_rng(0))
        assert a.receptive_field == b.receptive_field == 9

    def test_restcn_property_routes_through_composition(self):
        from repro.core.export import network_receptive_field
        model = ResTCN(width_mult=0.05, rng=np.random.default_rng(0))
        assert model.receptive_field == network_receptive_field(model) == 121

    def test_probed_window_layers_count_at_their_extent(self):
        from repro.core.export import network_receptive_field
        from repro.nn import GlobalAvgPool1d, Linear, ReLU, Sequential
        from repro.nn.module import probe_shapes
        rng = np.random.default_rng(0)
        net = Sequential(CausalConv1d(2, 5, 3, dilation=2, stride=2, rng=rng),
                         ReLU(), GlobalAvgPool1d(), Linear(5, 3, rng=rng))
        shapes = probe_shapes(net, (1, 2, 12))
        assert network_receptive_field(net) == 5
        # The pool averages the conv's 6 output frames, 2 samples apart.
        assert network_receptive_field(net, shapes) == 5 + (6 - 1) * 2

    def test_searchable_layers_use_rf_max(self):
        from repro.core.export import network_receptive_field
        from repro.nn import Sequential
        layer = PITConv1d(2, 2, rf_max=9, rng=np.random.default_rng(0))
        assert network_receptive_field(Sequential(layer)) == 9
