"""Tests for the GAP8 SoC performance/energy model and deployment flow."""

import numpy as np
import pytest

from repro.core import export_network, pit_layers
from repro.data import ArrayDataset, DataLoader
from repro.hw import GAP8Config, GAP8Model, deploy
from repro.models import (
    restcn_fixed,
    restcn_hand_tuned,
    temponet_fixed,
    temponet_hand_tuned,
    temponet_seed,
)
from repro.nn import CausalConv1d, Module, ReLU, Sequential, mse_loss

RNG = np.random.default_rng(88)


def tiny_net(dilation=1):
    rng = np.random.default_rng(0)
    return Sequential(
        CausalConv1d(2, 4, 3, dilation=dilation, rng=rng), ReLU(),
        CausalConv1d(4, 2, 3, dilation=dilation, rng=rng))


class TestGAP8Config:
    def test_mac_rate_decreases_with_dilation(self):
        cfg = GAP8Config()
        rates = [cfg.mac_rate(d) for d in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_mac_rate_d1_is_base(self):
        cfg = GAP8Config(mac_rate_d1=5.0)
        assert cfg.mac_rate(1) == pytest.approx(5.0)

    def test_memory_sizes_match_gap8(self):
        cfg = GAP8Config()
        assert cfg.l1_bytes == 64 * 1024
        assert cfg.l2_bytes == 512 * 1024
        assert cfg.cluster_cores == 8
        assert cfg.frequency_hz == pytest.approx(100e6)


class TestGAP8Model:
    def test_report_fields(self):
        report = GAP8Model().estimate(tiny_net(), (1, 2, 16))
        assert report.latency_ms > 0
        assert report.energy_mj > 0
        assert report.total_macs > 0
        assert report.total_weight_bytes > 0
        assert len(report.layers) == 2
        assert "MMAC" in report.summary()

    def test_rejects_searchable_models(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        with pytest.raises(ValueError):
            GAP8Model().estimate(seed, (1, 4, 256))

    def test_rejects_channel_searched_layer(self):
        # A channel-searched layer is as searchable as a PITConv1d: it
        # must not be priced as free next to the fixed layers.
        from repro.core import NotDeployableError, PITConv1d
        rng = np.random.default_rng(0)
        net = Sequential(PITConv1d(2, 4, rf_max=9, min_channels=1, rng=rng),
                         CausalConv1d(4, 3, 3, rng=rng))
        with pytest.raises(NotDeployableError, match="channel"):
            GAP8Model().estimate(net, (1, 2, 32))

    def test_accepts_exported_models(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        exported = export_network(seed)
        report = GAP8Model().estimate(exported, (1, 4, 256))
        assert report.latency_ms > 0

    def test_mac_count_exact(self):
        report = GAP8Model().estimate(tiny_net(), (1, 2, 16))
        # conv1: 2*4*3*16, conv2: 4*2*3*16.
        assert report.total_macs == 2 * 4 * 3 * 16 + 4 * 2 * 3 * 16

    def test_weight_bytes_int8_plus_int32_bias(self):
        report = GAP8Model().estimate(tiny_net(), (1, 2, 16))
        expected = (4 * 2 * 3 + 2 * 4 * 3) + 4 * (4 + 2)
        assert report.total_weight_bytes == expected

    def test_energy_follows_constant_power(self):
        """Table III satisfies E = P * latency with P = 262 mW."""
        report = GAP8Model().estimate(tiny_net(), (1, 2, 16))
        assert report.energy_mj == pytest.approx(0.262 * report.latency_ms, rel=1e-9)

    def test_longer_input_costs_more(self):
        model = GAP8Model()
        short = model.estimate(tiny_net(), (1, 2, 16)).latency_ms
        long = model.estimate(tiny_net(), (1, 2, 64)).latency_ms
        assert long > short

    def test_dilation_throughput_penalty(self):
        """Same MACs, higher dilation -> strictly more cycles."""
        model = GAP8Model()
        d1 = model.estimate(tiny_net(dilation=1), (1, 2, 32))
        d4 = model.estimate(tiny_net(dilation=4), (1, 2, 32))
        assert d1.total_macs == d4.total_macs
        assert d4.latency_ms > d1.latency_ms

    def test_l3_spill_detection(self):
        big = restcn_fixed(None)  # ~2.8 MB of weights > 512 kB L2
        report = GAP8Model().estimate(big, (1, 88, 16))
        assert not report.fits_l2
        small = temponet_hand_tuned()
        report2 = GAP8Model().estimate(small, (1, 4, 256))
        assert report2.fits_l2

    def test_untraced_network_raises(self):
        # A layer the shape probe never reaches has no extent to price.
        class WithUnusedConv(Module):
            def __init__(self):
                super().__init__()
                self.net = tiny_net()
                self.unused = CausalConv1d(2, 2, 3)

            def forward(self, x):
                return self.net(x)

        with pytest.raises(RuntimeError, match="unused was never traced"):
            GAP8Model().estimate(WithUnusedConv(), (1, 2, 16))


class TestPaperCalibration:
    """The model constants are calibrated to the published seed numbers;
    these tests pin them within loose tolerances (see :mod:`repro.hw.gap8`)."""

    def test_restcn_seed_latency(self):
        report = GAP8Model().estimate(restcn_fixed(None), (1, 88, 128))
        assert report.latency_ms == pytest.approx(1002, rel=0.15)

    def test_restcn_hand_latency(self):
        report = GAP8Model().estimate(restcn_hand_tuned(), (1, 88, 128))
        assert report.latency_ms == pytest.approx(500, rel=0.20)

    def test_temponet_seed_latency(self):
        report = GAP8Model().estimate(temponet_fixed(None), (1, 4, 256))
        assert report.latency_ms == pytest.approx(112.6, rel=0.15)

    def test_temponet_hand_latency(self):
        report = GAP8Model().estimate(temponet_hand_tuned(), (1, 4, 256))
        assert report.latency_ms == pytest.approx(58.8, rel=0.20)

    def test_sublinear_latency_vs_size(self):
        """Paper Table III: 3.36x fewer params -> only ~2x lower latency."""
        model = GAP8Model()
        seed = restcn_fixed(None)
        hand = restcn_hand_tuned()
        size_ratio = seed.count_parameters() / hand.count_parameters()
        latency_ratio = (model.estimate(seed, (1, 88, 128)).latency_ms
                         / model.estimate(hand, (1, 88, 128)).latency_ms)
        assert latency_ratio < size_ratio
        assert latency_ratio > 1.5


class TestDeploy:
    def test_full_flow(self):
        rng = np.random.default_rng(0)
        net = tiny_net()
        data = ArrayDataset(RNG.standard_normal((8, 2, 16)),
                            RNG.standard_normal((8, 2, 16)))
        loader = DataLoader(data, 4)
        report = deploy(net, mse_loss, loader, loader, (1, 2, 16), name="tiny")
        assert report.name == "tiny"
        assert report.params == net.count_parameters()
        assert report.latency_ms > 0
        assert np.isfinite(report.quantized_loss)
        # int8 quantization should not explode the loss.
        assert report.quantized_loss == pytest.approx(report.float_loss, rel=0.2)
        assert "tiny" in report.row()

    def test_deploy_exports_searchable_models(self):
        seed = temponet_seed(width_mult=0.125, seed=0)
        data = ArrayDataset(RNG.standard_normal((6, 4, 256)),
                            RNG.standard_normal((6, 1)))
        loader = DataLoader(data, 3)
        report = deploy(seed, mse_loss, loader, loader, (1, 4, 256))
        assert report.params < seed.count_parameters()

    def test_deploy_without_quantization(self):
        net = tiny_net()
        data = ArrayDataset(RNG.standard_normal((4, 2, 16)),
                            RNG.standard_normal((4, 2, 16)))
        loader = DataLoader(data, 2)
        report = deploy(net, mse_loss, loader, loader, (1, 2, 16), quantize=False)
        assert report.quantized_loss == report.float_loss
