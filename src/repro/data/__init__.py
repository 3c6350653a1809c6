"""Datasets and loading utilities.

Both of the paper's benchmarks are provided as seeded synthetic generators,
since the original recordings are not bundled: ``make_nottingham`` for
the polyphonic-music task and ``make_ppg_dalia`` for heart-rate estimation.
"""

from .dataset import (
    Dataset,
    ArrayDataset,
    DataLoader,
    EpochReplayLoader,
    clone_loader,
    train_val_test_split,
)
from .nottingham import (
    NottinghamConfig,
    generate_tune,
    make_nottingham,
    next_frame_pairs,
    NUM_KEYS,
)
from .ppg_dalia import (
    PPGDaliaConfig,
    generate_subject,
    make_ppg_dalia,
    WINDOW_SAMPLES,
    SAMPLE_RATE_HZ,
    NUM_CHANNELS,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "DataLoader",
    "EpochReplayLoader",
    "clone_loader",
    "train_val_test_split",
    "NottinghamConfig",
    "generate_tune",
    "make_nottingham",
    "next_frame_pairs",
    "NUM_KEYS",
    "PPGDaliaConfig",
    "generate_subject",
    "make_ppg_dalia",
    "WINDOW_SAMPLES",
    "SAMPLE_RATE_HZ",
    "NUM_CHANNELS",
]
