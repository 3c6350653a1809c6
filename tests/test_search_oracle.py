"""Planted-dilation oracle: the search must find the right answer.

The target is a causal filter whose taps sit only at lags that are
multiples of a known ``d*``::

    y[t] = Σ_j a_j · x[t - j·d*],   j·d* < rf_max

so the best dilation of a single ``PITConv1d(1, 1, rf_max=17)`` is ``d*``
by construction: any larger dilation drops a tap the target needs, and any
smaller one keeps taps whose ideal weight is zero.  Algorithm 1 at a
moderate λ must recover ``d*`` exactly; without the regularizer nothing
pushes γ̂ down and the seed's ``d = 1`` stays.
"""

import numpy as np
import pytest

from repro.core import PITConv1d, PITTrainer
from repro.data import ArrayDataset, DataLoader
from repro.nn import mse_loss

RF_MAX = 17


def _planted_loaders(d_star, seed, n_train=160, n_val=48, t=64):
    rng = np.random.default_rng(seed)
    lags = np.arange(0, RF_MAX, d_star)
    coeffs = rng.uniform(0.5, 1.5, lags.size) * rng.choice([-1, 1], lags.size)
    x = rng.standard_normal((n_train + n_val, 1, t))
    xp = np.pad(x, ((0, 0), (0, 0), (RF_MAX - 1, 0)))
    y = sum(a * xp[:, :, RF_MAX - 1 - lag: RF_MAX - 1 - lag + t]
            for a, lag in zip(coeffs, lags))
    train = DataLoader(ArrayDataset(x[:n_train], y[:n_train]), 16,
                       shuffle=True, rng=np.random.default_rng(seed))
    val = DataLoader(ArrayDataset(x[n_train:], y[n_train:]), 16)
    return train, val


def _searched_dilation(d_star, lam, seed):
    train, val = _planted_loaders(d_star, seed)
    layer = PITConv1d(1, 1, rf_max=RF_MAX, bias=False,
                      rng=np.random.default_rng(seed))
    PITTrainer(layer, mse_loss, lam=lam, lr=1e-2, warmup_epochs=3,
               max_prune_epochs=40, finetune_epochs=5).fit(train, val)
    return layer.current_dilation()


@pytest.mark.parametrize("lam", [1e-2, 1e-1])
@pytest.mark.parametrize("d_star", [2, 4])
def test_recovers_planted_dilation(d_star, lam):
    assert [_searched_dilation(d_star, lam, seed) for seed in (0, 1)] \
        == [d_star, d_star]


@pytest.mark.parametrize("d_star", [2, 4])
def test_no_regularizer_keeps_seed_dilation(d_star):
    assert _searched_dilation(d_star, 0.0, seed=0) == 1
