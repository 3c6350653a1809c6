"""Tests for the LSTM layer and the RNN baseline model."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import train_plain
from repro.data import ArrayDataset, DataLoader
from repro.models.rnn_baselines import MusicLSTM
from repro.nn import mse_loss
from repro.nn.recurrent import LSTM

RNG = np.random.default_rng(202)


class TestLSTM:
    def test_output_shape(self):
        lstm = LSTM(3, 5, rng=np.random.default_rng(0))
        out = lstm(Tensor(RNG.standard_normal((2, 3, 7))))
        assert out.shape == (2, 5, 7)

    def test_rejects_bad_input(self):
        lstm = LSTM(3, 5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm(Tensor(RNG.standard_normal((2, 4, 7))))

    def test_causality(self):
        """The hidden state at t must not depend on inputs after t."""
        lstm = LSTM(2, 4, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, 2, 8))
        base = lstm(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, -1] += 10.0
        out = lstm(Tensor(x2)).data
        assert np.allclose(out[:, :, :-1], base[:, :, :-1])
        assert not np.allclose(out[:, :, -1], base[:, :, -1])

    def test_state_bounded_by_tanh(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(0))
        out = lstm(Tensor(RNG.standard_normal((2, 2, 20)) * 5))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_forget_bias_initialized_to_one(self):
        lstm = LSTM(2, 4, rng=np.random.default_rng(0))
        assert np.allclose(lstm.bias.data[4:8], 1.0)
        assert np.allclose(lstm.bias.data[:4], 0.0)

    def test_gradients_flow_through_time(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 2, 6)), requires_grad=True)
        out = lstm(x)
        out[:, :, -1].sum().backward()  # loss only at the last step
        # Early inputs still receive gradient through the recurrence.
        assert np.abs(x.grad[:, :, 0]).sum() > 0
        assert lstm.weight_hh.grad is not None

    def test_initial_state_accepted(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        h0 = Tensor(np.ones((1, 3)))
        c0 = Tensor(np.ones((1, 3)))
        out_with = lstm(Tensor(np.zeros((1, 2, 3))), state=(h0, c0))
        out_without = lstm(Tensor(np.zeros((1, 2, 3))))
        assert not np.allclose(out_with.data, out_without.data)


class TestRNNBaselines:
    def test_music_lstm_shapes(self):
        model = MusicLSTM(num_keys=12, hidden=8, rng=np.random.default_rng(0))
        out = model(Tensor(RNG.standard_normal((2, 12, 10))))
        assert out.shape == (2, 12, 10)

    def test_lstm_learns_echo_task(self):
        """Trainability check: the LSTM fits a small lag-1 echo problem."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 1, 8))
        y = np.concatenate([np.zeros((16, 1, 1)), x[:, :, :-1]], axis=2)
        train = DataLoader(ArrayDataset(x[:12], y[:12]), 4, shuffle=True,
                           rng=np.random.default_rng(1))
        val = DataLoader(ArrayDataset(x[12:], y[12:]), 4)
        model = MusicLSTM(num_keys=1, hidden=8, head_bias_init=0.0,
                          rng=np.random.default_rng(2))
        result = train_plain(model, mse_loss, train, val, epochs=15, lr=0.02,
                             patience=15)
        assert result.history[-1][0] < result.history[0][0]
