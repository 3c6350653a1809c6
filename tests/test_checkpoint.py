"""Bit-exact mid-run checkpointing (:mod:`repro.core.checkpoint`).

The contract under test: a training run killed at any epoch boundary —
by a crash, a timeout or preemption — and resumed from its checkpoint is
**bit-identical** to the uninterrupted run: same losses, same history,
same parameters, same discovered dilations.  That must hold for the
compiled step, for its eager fallback (the step of capture-unsafe models)
and for the stacked trainer (per-slice checkpoint files).  Corrupt checkpoints
are quarantined and degrade to a fresh start, never a crash or a
silently-wrong resume.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.core import PITConv1d, PITTrainer, train_plain
from repro.core.checkpoint import (
    TrainerCheckpoint,
    checkpoint_dir_default,
    checkpoint_every_default,
    checkpoint_file,
    decode_rng,
    encode_rng,
    key_tag,
    restore_rng,
)
from repro.core.stacked import StackedPITTrainer
from repro.data import ArrayDataset, DataLoader
from repro.nn import Dropout, GlobalAvgPool1d, Linear, Module, ReLU, mse_loss
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)
    faults.reset()
    yield
    faults.reset()


class Tiny(Module):
    """Small but representative: a searchable conv, dropout (a live RNG
    stream that must survive the kill), and a dense head."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=9, rng=rng)
        self.r = ReLU()
        self.d = Dropout(0.2, rng=np.random.default_rng(7))
        self.p = GlobalAvgPool1d()
        self.f = Linear(2, 2, rng=rng)

    def forward(self, x):
        return self.f(self.p(self.d(self.r(self.c(x)))))


def _loaders():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((24, 1, 16))
    y = np.eye(2)[(rng.random(24) > 0.5).astype(np.int64)]
    train = DataLoader(ArrayDataset(x[:16], y[:16]), 8, shuffle=True,
                       rng=np.random.default_rng(11))
    val = DataLoader(ArrayDataset(x[16:], y[16:]), 8)
    return train, val


SCHED = dict(warmup_epochs=1, prune_patience=2, max_prune_epochs=2,
             finetune_epochs=1, finetune_patience=2)

#: Steps the trainers run: the compiled replay, and its eager fallback.
TIERS = ("eager", "step")


def _tier_scope(tier, eager_steps):
    return eager_steps() if tier == "eager" else contextlib.nullcontext()


def _fit(ckpt_dir=None, crash_at=None, resume=True, every=None):
    """One PITTrainer run; None when an injected crash killed it."""
    faults.reset()
    if crash_at is not None:
        os.environ[faults.ENV_FAULTS] = f"crash@epoch={crash_at}"
    else:
        os.environ.pop(faults.ENV_FAULTS, None)
    train, val = _loaders()
    trainer = PITTrainer(Tiny(), mse_loss, lam=0.5, lr=0.01,
                         checkpoint_dir=ckpt_dir, checkpoint_every=every,
                         checkpoint_resume=resume, **SCHED)
    try:
        return trainer.fit(train, val), trainer.model
    except faults.InjectedWorkerCrash:
        return None
    finally:
        os.environ.pop(faults.ENV_FAULTS, None)


def _fingerprint(result, model):
    return (result.best_val, result.dilations, result.effective_params,
            {k: tuple(v) for k, v in result.history.items()},
            {name: p.data.copy() for name, p in model.named_parameters()})


def _assert_same(a, b):
    assert a[0] == b[0]            # best val, bit-identical
    assert a[1] == b[1]            # dilations
    assert a[2] == b[2]            # effective params
    assert a[3] == b[3]            # full per-phase history
    for name in a[4]:
        assert np.array_equal(a[4][name], b[4][name]), name


# ----------------------------------------------------------------------
# Kill-and-resume parity: the compiled step and its eager fallback
# ----------------------------------------------------------------------

class TestKillResumeParity:
    @pytest.mark.parametrize("tier", TIERS)
    def test_crash_then_resume_is_bit_identical(self, tier, tmp_path,
                                                eager_steps):
        with _tier_scope(tier, eager_steps):
            ref = _fingerprint(*_fit())
            assert _fit(str(tmp_path), crash_at=2) is None  # killed
            out = _fit(str(tmp_path))  # resumed
        assert out is not None
        result, model = out
        assert result.resumed_epochs == 2
        _assert_same(_fingerprint(result, model), ref)

    def test_resume_at_every_epoch_boundary(self, tmp_path):
        ref_result, ref_model = _fit()
        ref = _fingerprint(ref_result, ref_model)
        total = (ref_result.warmup_epochs + ref_result.prune_epochs
                 + ref_result.finetune_epochs)
        assert total >= 3  # the loop below must cross every phase
        for k in range(1, total):
            ckpt = str(tmp_path / f"k{k}")
            assert _fit(ckpt, crash_at=k) is None
            result, model = _fit(ckpt)
            assert result.resumed_epochs == k
            _assert_same(_fingerprint(result, model), ref)

    def test_train_plain_resume(self, tmp_path):
        def run(**kw):
            faults.reset()
            train, val = _loaders()
            model = Tiny()
            result = train_plain(model, mse_loss, train, val, epochs=4,
                                 lr=0.01, patience=4, **kw)
            return result, model

        ref_result, ref_model = run()
        os.environ[faults.ENV_FAULTS] = "crash@epoch=2"
        try:
            with pytest.raises(faults.InjectedWorkerCrash):
                run(checkpoint_dir=str(tmp_path))
        finally:
            os.environ.pop(faults.ENV_FAULTS, None)
        result, model = run(checkpoint_dir=str(tmp_path))
        assert result.resumed_epochs == 2
        assert result.best_val == ref_result.best_val
        assert result.history == ref_result.history
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     ref_model.named_parameters()):
            assert np.array_equal(p.data, q.data), name

    def test_resume_off_starts_fresh(self, tmp_path):
        assert _fit(str(tmp_path), crash_at=2) is None
        result, model = _fit(str(tmp_path), resume=False)
        assert result.resumed_epochs == 0
        _assert_same(_fingerprint(result, model), _fingerprint(*_fit()))

    def test_checkpoint_every_skips_boundaries(self, tmp_path):
        path = checkpoint_file(tmp_path, "pit")
        assert _fit(str(tmp_path), crash_at=1, every=2) is None
        assert not path.exists()  # epoch 1 is not due with every=2
        result, model = _fit(str(tmp_path), every=2)
        assert result.resumed_epochs == 0  # nothing to resume from
        _assert_same(_fingerprint(result, model), _fingerprint(*_fit()))


# ----------------------------------------------------------------------
# Stacked trainer: per-slice checkpoint files
# ----------------------------------------------------------------------

LAMS = [0.0, 2.0]


def _fit_stacked(ckpt_dir=None, crash_at=None):
    faults.reset()
    if crash_at is not None:
        os.environ[faults.ENV_FAULTS] = f"crash@epoch={crash_at}"
    else:
        os.environ.pop(faults.ENV_FAULTS, None)
    train, val = _loaders()
    trainer = StackedPITTrainer(Tiny(), mse_loss, LAMS, lr=0.01,
                                checkpoint_dir=ckpt_dir, **SCHED)
    try:
        return trainer.fit(train, val), trainer
    except faults.InjectedWorkerCrash:
        return None
    finally:
        os.environ.pop(faults.ENV_FAULTS, None)


def _stacked_fingerprint(results, trainer):
    per_slice = [(r.best_val, r.dilations, r.effective_params,
                  {k: tuple(v) for k, v in r.history.items()})
                 for r in results]
    params = {name: p.data.copy()
              for name, p in trainer.stacked.net.named_parameters()}
    return per_slice, params


class TestStackedResume:
    @pytest.mark.parametrize("tier", TIERS)
    def test_stacked_crash_then_resume_is_bit_identical(self, tier, tmp_path,
                                                        eager_steps):
        with _tier_scope(tier, eager_steps):
            ref = _stacked_fingerprint(*_fit_stacked())
            assert _fit_stacked(str(tmp_path), crash_at=2) is None
            out = _fit_stacked(str(tmp_path))
        assert out is not None
        results, trainer = out
        assert all(r.resumed_epochs == 2 for r in results)
        slices, params = _stacked_fingerprint(results, trainer)
        assert slices == ref[0]
        for name in ref[1]:
            assert np.array_equal(params[name], ref[1][name]), name

    def test_one_slice_file_per_grid_point(self, tmp_path):
        assert _fit_stacked(str(tmp_path), crash_at=1) is None
        files = sorted(f.name for f in tmp_path.iterdir())
        assert files == ["stack0.ckpt.npz", "stack1.ckpt.npz"]

    def test_torn_slice_set_degrades_to_fresh_start(self, tmp_path):
        ref = _stacked_fingerprint(*_fit_stacked())
        assert _fit_stacked(str(tmp_path), crash_at=2) is None
        (tmp_path / "stack1.ckpt.npz").unlink()  # half the set is gone
        results, trainer = _fit_stacked(str(tmp_path))
        assert all(r.resumed_epochs == 0 for r in results)
        assert _stacked_fingerprint(results, trainer)[0] == ref[0]

    def test_sequential_adopts_early_stopped_slice(self, tmp_path,
                                                   monkeypatch):
        """A sequential run adopting a stack lane that stopped pruning
        before the crash fine-tunes from the lane's stop-epoch weights —
        not from the weights Adam momentum kept moving after the stop —
        and so matches the uninterrupted sequential run."""
        from test_dse_stacked import SCHEDULE, TOL, StackSeed
        from test_dse_stacked import _loaders as stack_loaders

        def sequential(**kw):
            train, val = stack_loaders()
            return PITTrainer(StackSeed(), mse_loss, lam=5.0, **SCHEDULE,
                              **kw).fit(train, val)

        ref = sequential()
        assert ref.warmup_epochs + ref.prune_epochs < 6  # stopped pre-crash
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@epoch=6")
        train, val = stack_loaders()
        with pytest.raises(faults.InjectedWorkerCrash):
            StackedPITTrainer(StackSeed(), mse_loss, [0.0, 5.0],
                              checkpoint_dir=str(tmp_path),
                              **SCHEDULE).fit(train, val)
        monkeypatch.delenv(faults.ENV_FAULTS)
        faults.reset()
        out = sequential(checkpoint_dir=str(tmp_path),
                         checkpoint_tag="stack1")
        assert out.resumed_epochs == 6
        assert (out.dilations, out.effective_params, out.warmup_epochs,
                out.prune_epochs, out.finetune_epochs) == (
                    ref.dilations, ref.effective_params, ref.warmup_epochs,
                    ref.prune_epochs, ref.finetune_epochs)
        assert np.allclose(out.best_val, ref.best_val, **TOL)
        assert out.history.keys() == ref.history.keys()
        for key in ref.history:
            assert len(out.history[key]) == len(ref.history[key]), key
            assert np.allclose(out.history[key], ref.history[key],
                               **TOL), key

    def test_tag_count_must_match_width(self):
        train, val = _loaders()
        with pytest.raises(ValueError, match="slices"):
            StackedPITTrainer(Tiny(), mse_loss, LAMS, checkpoint_dir="/tmp",
                              checkpoint_tags=["only-one"], **SCHED)


# ----------------------------------------------------------------------
# Corruption, quarantine, format hygiene
# ----------------------------------------------------------------------

class TestCorruption:
    def test_injected_corruption_quarantines_and_restarts(self, tmp_path):
        """ckpt_corrupt truncates the archive right after the write; the
        resume warns, quarantines, and still converges to the reference."""
        ref = _fingerprint(*_fit())
        faults.reset()
        # Corrupt the epoch-1 save, then die at that same boundary, so the
        # torn archive is the one the resume finds on disk.
        os.environ[faults.ENV_FAULTS] = "ckpt_corrupt,crash@epoch=1"
        try:
            with pytest.raises(faults.InjectedWorkerCrash):
                train, val = _loaders()
                PITTrainer(Tiny(), mse_loss, lam=0.5, lr=0.01,
                           checkpoint_dir=str(tmp_path),
                           **SCHED).fit(train, val)
        finally:
            os.environ.pop(faults.ENV_FAULTS, None)
        with pytest.warns(UserWarning, match="quarantined"):
            result, model = _fit(str(tmp_path))
        assert result.resumed_epochs == 0  # fresh start, not a bad resume
        assert os.path.exists(checkpoint_file(tmp_path, "pit").with_suffix(
            ".npz.corrupt"))
        _assert_same(_fingerprint(result, model), ref)

    def test_checksum_mismatch_rejected(self, tmp_path):
        ckpt = TrainerCheckpoint(tmp_path / "t.ckpt.npz")
        ckpt.save({"model/w": np.arange(4.0)}, {"trainer": "pit"})
        arrays, meta = __import__("repro.nn.serialization",
                                  fromlist=["load_state"]).load_state(
                                      ckpt.path)
        arrays["model/w"][0] += 1.0  # tampered bytes, stale checksum
        from repro.nn.serialization import save_state
        save_state(arrays, ckpt.path, metadata=meta)
        with pytest.warns(UserWarning, match="checksum mismatch"):
            assert ckpt.load() is None
        assert not ckpt.path.exists()  # quarantined

    def test_garbage_archive_rejected(self, tmp_path):
        ckpt = TrainerCheckpoint(tmp_path / "t.ckpt.npz")
        ckpt.path.write_bytes(b"not a zip archive at all")
        with pytest.warns(UserWarning, match="corrupt"):
            assert ckpt.load() is None
        assert (tmp_path / "t.ckpt.npz.corrupt").exists()

    def test_unknown_format_rejected(self, tmp_path):
        ckpt = TrainerCheckpoint(tmp_path / "t.ckpt.npz")
        from repro.nn.serialization import save_state
        save_state({"model/w": np.zeros(1)}, ckpt.path,
                   metadata={"format": 99, "checksum": 0})
        with pytest.warns(UserWarning, match="unsupported format"):
            assert ckpt.load() is None

    def test_missing_file_is_silent_fresh_start(self, tmp_path):
        assert TrainerCheckpoint(tmp_path / "absent.ckpt.npz").load() is None

    def test_save_is_atomic_over_previous(self, tmp_path):
        ckpt = TrainerCheckpoint(tmp_path / "t.ckpt.npz")
        ckpt.save({"model/w": np.arange(4.0)}, {"trainer": "pit", "n": 1})
        ckpt.save({"model/w": np.arange(4.0) * 2}, {"trainer": "pit", "n": 2})
        state = ckpt.load()
        assert state.meta["n"] == 2
        assert np.array_equal(state.arrays["model/w"], np.arange(4.0) * 2)
        assert [f.name for f in tmp_path.iterdir()] == ["t.ckpt.npz"]


# ----------------------------------------------------------------------
# Helpers: tags, paths, RNG codec, env defaults
# ----------------------------------------------------------------------

class TestHelpers:
    def test_key_tag_stable_and_safe(self):
        key = 'tag=x|lam=0.5|warmup=2|trainer={"a": 1}'
        tag = key_tag(key)
        assert tag == key_tag(key)  # deterministic across calls
        assert len(tag) == 16 and tag.isalnum()
        assert key_tag("other") != tag

    def test_checkpoint_file_sanitizes(self, tmp_path):
        path = checkpoint_file(tmp_path, "a/b|c d")
        assert path.name == "a_b_c_d.ckpt.npz"
        assert path.parent == tmp_path

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937,
                                        np.random.Philox, np.random.SFC64])
    def test_rng_codec_round_trip(self, bitgen):
        gen = np.random.Generator(bitgen(42))
        gen.standard_normal(17)  # advance off the seed point
        import json
        snapshot = json.loads(json.dumps(encode_rng(gen)))  # survives JSON
        expected = gen.standard_normal(8)
        fresh = np.random.Generator(bitgen(0))
        restore_rng(fresh, snapshot)
        assert np.array_equal(fresh.standard_normal(8), expected)

    def test_decode_rejects_nothing_extra(self):
        gen = np.random.default_rng(5)
        assert decode_rng(encode_rng(gen)) == gen.bit_generator.state

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CKPT_EVERY", raising=False)
        assert checkpoint_dir_default() is None
        assert checkpoint_every_default() == 1
        monkeypatch.setenv("REPRO_CKPT_DIR", "/tmp/ck")
        monkeypatch.setenv("REPRO_CKPT_EVERY", "3")
        assert checkpoint_dir_default() == "/tmp/ck"
        assert checkpoint_every_default() == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_env_every_rejects_bad_values(self, monkeypatch, value):
        """A bad REPRO_CKPT_EVERY raises naming the variable instead of
        silently checkpointing every epoch."""
        monkeypatch.setenv("REPRO_CKPT_EVERY", value)
        with pytest.raises(ValueError, match="REPRO_CKPT_EVERY"):
            checkpoint_every_default()
        with pytest.raises(ValueError, match="cadence"):
            TrainerCheckpoint("/tmp/x.npz", every=0)

    def test_create_none_without_directory(self):
        assert TrainerCheckpoint.create(None, "t") is None
        assert TrainerCheckpoint.create("", "t") is None

    def test_due_cadence(self):
        ckpt = TrainerCheckpoint("/tmp/x.npz", every=3)
        assert [e for e in range(1, 10) if ckpt.due(e)] == [3, 6, 9]
