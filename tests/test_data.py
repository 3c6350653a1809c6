"""Tests for datasets, loaders and the synthetic generators."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    NottinghamConfig,
    PPGDaliaConfig,
    WINDOW_SAMPLES,
    generate_subject,
    generate_tune,
    make_nottingham,
    make_ppg_dalia,
    next_frame_pairs,
    train_val_test_split,
)


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = ArrayDataset(np.zeros((5, 3)), np.ones((5, 1)))
        assert len(ds) == 5
        x, y = ds[2]
        assert x.shape == (3,)
        assert y.tolist() == [1.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 3)), np.zeros((4, 1)))


class TestDataLoader:
    def make_ds(self, n=10):
        return ArrayDataset(np.arange(n, dtype=float).reshape(n, 1), np.zeros((n, 1)))

    def test_batch_count(self):
        loader = DataLoader(self.make_ds(10), batch_size=3)
        assert len(loader) == 4
        assert len(list(loader)) == 4

    def test_batch_shapes(self):
        loader = DataLoader(self.make_ds(10), batch_size=4)
        x, y = next(iter(loader))
        assert x.shape == (4, 1)
        assert y.shape == (4, 1)

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(self.make_ds(6), batch_size=2)
        xs = np.concatenate([x for x, _ in loader]).reshape(-1)
        assert xs.tolist() == list(range(6))

    def test_shuffle_changes_order_deterministically(self):
        a = DataLoader(self.make_ds(32), batch_size=32, shuffle=True,
                       rng=np.random.default_rng(0))
        b = DataLoader(self.make_ds(32), batch_size=32, shuffle=True,
                       rng=np.random.default_rng(0))
        xa = next(iter(a))[0].reshape(-1)
        xb = next(iter(b))[0].reshape(-1)
        assert np.allclose(xa, xb)
        assert not np.allclose(xa, np.arange(32))

    def test_shuffle_covers_all_samples(self):
        loader = DataLoader(self.make_ds(10), batch_size=3, shuffle=True,
                            rng=np.random.default_rng(1))
        xs = np.concatenate([x for x, _ in loader]).reshape(-1)
        assert sorted(xs.tolist()) == list(range(10))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self.make_ds(), batch_size=0)


class TestSplit:
    def test_partition_sizes(self):
        ds = ArrayDataset(np.zeros((100, 2)), np.zeros((100, 1)))
        tr, va, te = train_val_test_split(ds, 0.2, 0.1, rng=np.random.default_rng(0))
        assert len(tr) == 70
        assert len(va) == 20
        assert len(te) == 10

    def test_disjoint_cover(self):
        ds = ArrayDataset(np.arange(20, dtype=float).reshape(20, 1), np.zeros((20, 1)))
        tr, va, te = train_val_test_split(ds, 0.25, 0.25, rng=np.random.default_rng(0))
        together = np.concatenate([tr.inputs, va.inputs, te.inputs]).reshape(-1)
        assert sorted(together.tolist()) == list(range(20))

    def test_invalid_fractions(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.zeros((10, 1)))
        with pytest.raises(ValueError):
            train_val_test_split(ds, 0.6, 0.5)


class TestNottingham:
    def test_roll_shape_and_binary(self):
        cfg = NottinghamConfig(num_tunes=2, seq_len=32)
        roll = generate_tune(cfg, np.random.default_rng(0))
        assert roll.shape == (88, 32)
        assert set(np.unique(roll)).issubset({0.0, 1.0})

    def test_polyphony(self):
        """Frames carry chords: several keys active simultaneously."""
        roll = generate_tune(NottinghamConfig(seq_len=64), np.random.default_rng(1))
        notes_per_frame = roll.sum(axis=0)
        assert notes_per_frame.max() >= 3
        assert notes_per_frame.mean() > 1.5

    def test_chords_are_sustained(self):
        """Harmonic state changes slower than the frame rate."""
        cfg = NottinghamConfig(seq_len=64, chord_hold=8)
        roll = generate_tune(cfg, np.random.default_rng(2))
        changes = np.abs(np.diff(roll, axis=1)).sum(axis=0)
        # Most frame transitions change at most the melody (<= 2 keys).
        assert (changes <= 2).mean() > 0.5

    def test_next_frame_pairs(self):
        roll = np.arange(12, dtype=float).reshape(4, 3)
        x, y = next_frame_pairs(roll)
        assert np.allclose(x, roll[:, :-1])
        assert np.allclose(y, roll[:, 1:])

    def test_dataset_shapes(self):
        cfg = NottinghamConfig(num_tunes=3, seq_len=20)
        ds = make_nottingham(cfg, seed=0)
        assert len(ds) == 3
        assert ds.inputs.shape == (3, 88, 19)
        assert ds.targets.shape == (3, 88, 19)

    def test_target_is_shifted_input(self):
        ds = make_nottingham(NottinghamConfig(num_tunes=1, seq_len=16), seed=0)
        assert np.allclose(ds.inputs[0][:, 1:], ds.targets[0][:, :-1])

    def test_deterministic_per_seed(self):
        cfg = NottinghamConfig(num_tunes=2, seq_len=16)
        a = make_nottingham(cfg, seed=5)
        b = make_nottingham(cfg, seed=5)
        assert np.allclose(a.inputs, b.inputs)

    def test_seeds_differ(self):
        cfg = NottinghamConfig(num_tunes=2, seq_len=16)
        a = make_nottingham(cfg, seed=1)
        b = make_nottingham(cfg, seed=2)
        assert not np.allclose(a.inputs, b.inputs)


class TestPPGDalia:
    CFG = PPGDaliaConfig(num_subjects=1, seconds_per_subject=30)

    def test_subject_shapes(self):
        signals, hr = generate_subject(self.CFG, np.random.default_rng(0))
        assert signals.shape == (4, 30 * 32)
        assert hr.shape == (30 * 32,)

    def test_hr_within_bounds(self):
        _, hr = generate_subject(self.CFG, np.random.default_rng(0))
        assert hr.min() >= self.CFG.hr_low
        assert hr.max() <= self.CFG.hr_high

    def test_hr_drifts_smoothly(self):
        _, hr = generate_subject(self.CFG, np.random.default_rng(0))
        # Instantaneous HR jumps stay physiological (< 2 BPM per sample).
        assert np.abs(np.diff(hr)).max() < 2.0

    def test_signals_standardized(self):
        signals, _ = generate_subject(self.CFG, np.random.default_rng(0))
        assert np.allclose(signals.mean(axis=1), 0.0, atol=1e-8)
        assert np.allclose(signals.std(axis=1), 1.0, atol=1e-6)

    def test_ppg_has_cardiac_periodicity(self):
        """The PPG channel's dominant frequency tracks the golden HR."""
        cfg = PPGDaliaConfig(num_subjects=1, seconds_per_subject=60,
                             motion_prob=0.0, noise_std=0.0)
        signals, hr = generate_subject(cfg, np.random.default_rng(3))
        ppg = signals[0]
        spectrum = np.abs(np.fft.rfft(ppg))
        freqs = np.fft.rfftfreq(len(ppg), d=1.0 / 32)
        # Ignore the sub-cardiac band (baseline/respiration < 0.7 Hz).
        band = freqs >= 0.7
        dominant_hz = freqs[band][np.argmax(spectrum[band])]
        mean_hr_hz = hr.mean() / 60.0
        assert dominant_hz == pytest.approx(mean_hr_hz, rel=0.25)

    def test_windowed_dataset_shapes(self):
        ds = make_ppg_dalia(self.CFG, seed=0)
        assert ds.inputs.shape[1:] == (4, WINDOW_SAMPLES)
        assert ds.targets.shape[1:] == (1,)
        # 30 s recording, 8 s windows, 2 s shift -> 12 windows.
        assert len(ds) == 12

    def test_targets_are_bpm(self):
        ds = make_ppg_dalia(self.CFG, seed=0)
        assert np.all(ds.targets >= self.CFG.hr_low)
        assert np.all(ds.targets <= self.CFG.hr_high)

    def test_deterministic_per_seed(self):
        a = make_ppg_dalia(self.CFG, seed=7)
        b = make_ppg_dalia(self.CFG, seed=7)
        assert np.allclose(a.inputs, b.inputs)
        assert np.allclose(a.targets, b.targets)
