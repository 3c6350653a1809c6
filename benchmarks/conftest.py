"""Shared fixtures for the benchmark harness.

Every table and figure of the paper is regenerated at *laptop scale*: the
same seed architectures with reduced width (``width_mult``), the synthetic
datasets at reduced size, and shortened training schedules.  Absolute
numbers therefore differ from the paper; the benches assert and print the
*shape* of each result (who wins, by roughly what factor).  Run them from
the repo root with ``PYTHONPATH=src python -m pytest benchmarks/bench_*.py
--benchmark-disable -q`` (drop ``--benchmark-disable`` to time them).

Expensive artifacts (the λ sweeps) are computed once per session and shared
across bench files through session-scoped fixtures.  Each grid point of a
sweep now trains on a private copy of the loaders' shuffle RNG, so the
points are independent of execution order (parallel == serial,
bit-identical); absolute sweep numbers therefore differ slightly from the
pre-engine serial driver, which threaded one RNG stream through the grid.
Two environment knobs speed up / resume the sweeps without affecting the
numbers further:

* ``REPRO_DSE_WORKERS``  — worker processes for the λ sweeps (default 0 =
  serial; the engine reads it);
* ``REPRO_DSE_CACHE_DIR`` — directory for JSON sweep caches; completed
  (λ, warmup) points are skipped when a bench session is re-run.

Every conv runs the one im2col kernel set (``repro.autograd.backends``);
there is no kernel knob.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    NottinghamConfig,
    PPGDaliaConfig,
    make_nottingham,
    make_ppg_dalia,
    train_val_test_split,
)
from repro.evaluation import DSEEngine
from repro.models import restcn_seed, temponet_seed
from repro.nn import mae_loss, polyphonic_nll

# Scale knobs: one place to trade fidelity for runtime.
RESTCN_WIDTH = 0.06
TEMPONET_WIDTH = 0.125
MUSIC_CONFIG = NottinghamConfig(num_tunes=16, seq_len=32)
PPG_CONFIG = PPGDaliaConfig(num_subjects=3, seconds_per_subject=50)

PIT_SCHEDULE = dict(gamma_lr=0.03, max_prune_epochs=6, prune_patience=6,
                    finetune_epochs=4, finetune_patience=4)
MUSIC_LAMBDAS = (0.0, 3e-4, 3e-3, 3e-2)
PPG_LAMBDAS = (0.0, 0.05, 0.5, 5.0)
SEQ_LEN_MUSIC = MUSIC_CONFIG.seq_len - 1

DSE_CACHE_DIR = os.environ.get("REPRO_DSE_CACHE_DIR")


def _sweep_cache(name: str):
    if not DSE_CACHE_DIR:
        return None
    return os.path.join(DSE_CACHE_DIR, f"dse_{name}.json")


def _loaders(dataset, batch, seed=0):
    train, val, test = train_val_test_split(dataset, rng=np.random.default_rng(seed))
    return (DataLoader(train, batch, shuffle=True, rng=np.random.default_rng(seed + 1)),
            DataLoader(val, batch),
            DataLoader(test, batch))


@pytest.fixture(scope="session")
def music_loaders():
    return _loaders(make_nottingham(MUSIC_CONFIG, seed=0), batch=4)


@pytest.fixture(scope="session")
def ppg_loaders():
    return _loaders(make_ppg_dalia(PPG_CONFIG, seed=0), batch=16)


def restcn_factory():
    return restcn_seed(width_mult=RESTCN_WIDTH, seed=0)


def temponet_factory():
    return temponet_seed(width_mult=TEMPONET_WIDTH, seed=0)


@pytest.fixture(scope="session")
def restcn_sweep(music_loaders):
    """The Fig. 4 (top) λ sweep: PIT searches from the ResTCN seed."""
    train, val, _ = music_loaders
    engine = DSEEngine(restcn_factory, polyphonic_nll, train, val,
                       trainer_kwargs=dict(PIT_SCHEDULE),
                       cache_path=_sweep_cache("restcn"),
                       cache_tag=f"restcn|width={RESTCN_WIDTH}")
    return engine.run(MUSIC_LAMBDAS, warmups=(1,))


@pytest.fixture(scope="session")
def temponet_sweep(ppg_loaders):
    """The Fig. 4 (bottom) λ sweep: PIT searches from the TEMPONet seed."""
    train, val, _ = ppg_loaders
    engine = DSEEngine(temponet_factory, mae_loss, train, val,
                       trainer_kwargs=dict(PIT_SCHEDULE),
                       cache_path=_sweep_cache("temponet"),
                       cache_tag=f"temponet|width={TEMPONET_WIDTH}")
    return engine.run(PPG_LAMBDAS, warmups=(1,))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
