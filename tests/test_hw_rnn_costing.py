"""Tests for RNN layer costing in the GAP8 model (arithmetic-intensity claim)."""

import numpy as np
import pytest

from repro.hw import GAP8Config, GAP8Model
from repro.models import MusicLSTM, restcn_hand_tuned
from repro.nn import LSTM


class TestRNNCosting:
    def test_lstm_layer_priced(self):
        model = MusicLSTM(num_keys=8, hidden=16, rng=np.random.default_rng(0))
        report = GAP8Model().estimate(model, (1, 8, 32))
        kinds = {layer.kind for layer in report.layers}
        assert "recurrent" in kinds
        assert "conv1d" in kinds  # the 1-tap head

    def test_lstm_macs_scale_with_time(self):
        model = MusicLSTM(num_keys=8, hidden=16, rng=np.random.default_rng(0))
        gap8 = GAP8Model()
        short = gap8.estimate(model, (1, 8, 16))
        long = gap8.estimate(model, (1, 8, 64))
        rec_short = [l for l in short.layers if l.kind == "recurrent"][0]
        rec_long = [l for l in long.layers if l.kind == "recurrent"][0]
        assert rec_long.macs == 4 * rec_short.macs

    def test_lstm_mac_count_exact(self):
        lstm = LSTM(8, 16, rng=np.random.default_rng(0))
        model = MusicLSTM(num_keys=8, hidden=16, rng=np.random.default_rng(0))
        report = GAP8Model().estimate(model, (1, 8, 10))
        rec = [l for l in report.layers if l.kind == "recurrent"][0]
        weight_macs = 4 * 16 * 8 + 4 * 16 * 16  # W_ih + W_hh rows
        assert rec.macs == weight_macs * 10

    def test_rnn_throughput_below_conv(self):
        """ms per MMAC must be worse for the RNN (the paper's premise)."""
        gap8 = GAP8Model()
        lstm = MusicLSTM(hidden=150, rng=np.random.default_rng(0))
        tcn = restcn_hand_tuned()
        lstm_report = gap8.estimate(lstm, (1, 88, 128))
        tcn_report = gap8.estimate(tcn, (1, 88, 128))
        lstm_eff = lstm_report.latency_ms / lstm_report.total_macs
        tcn_eff = tcn_report.latency_ms / tcn_report.total_macs
        assert lstm_eff > 2 * tcn_eff

    def test_rnn_rate_configurable(self):
        model = MusicLSTM(num_keys=8, hidden=16, rng=np.random.default_rng(0))
        slow = GAP8Model(GAP8Config(rnn_mac_rate=0.5)).estimate(model, (1, 8, 64))
        fast = GAP8Model(GAP8Config(rnn_mac_rate=2.0)).estimate(model, (1, 8, 64))
        assert slow.latency_ms > fast.latency_ms

    def test_untraced_rnn_raises(self):
        # An LSTM the shape probe never reaches has no step count to price.
        model = MusicLSTM(num_keys=2, hidden=4, rng=np.random.default_rng(0))
        model.spare = LSTM(2, 4, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="spare was never traced"):
            GAP8Model().estimate(model, (1, 2, 8))

    def test_rnn_weights_counted_in_network_bytes(self):
        model = MusicLSTM(num_keys=8, hidden=16, rng=np.random.default_rng(0))
        report = GAP8Model().estimate(model, (1, 8, 64))
        lstm_params = sum(p.data.size
                          for _, p in model.encoder.named_parameters())
        assert report.total_weight_bytes >= lstm_params
