"""Tests for array files: saved models and trainer checkpoints."""

import os
import stat

import numpy as np
import pytest

from repro.autograd import Tensor, default_dtype_scope
from repro.core import TrainerCheckpoint
from repro.evaluation import DSECache, DSEPoint
from repro.models import temponet_fixed, temponet_seed
from repro.nn import BatchNorm1d, CausalConv1d, Linear, ReLU, Sequential
from repro.nn.serialization import (
    CheckpointError,
    atomic_write,
    load_model,
    load_state,
    save_model,
    save_state,
)

RNG = np.random.default_rng(404)


def make_net(seed=0):
    from repro.nn import GlobalAvgPool1d
    rng = np.random.default_rng(seed)
    return Sequential(CausalConv1d(2, 4, 3, rng=rng), BatchNorm1d(4), ReLU(),
                      GlobalAvgPool1d(), Linear(4, 2, rng=rng))


class TestStateRoundTrip:
    def test_save_and_load_state(self, tmp_path):
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
        path = tmp_path / "ckpt.bin"
        save_state(state, path)
        loaded, metadata = load_state(path)
        assert metadata is None
        assert set(loaded) == {"a", "b"}
        assert np.allclose(loaded["a"], state["a"])

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        meta = {"lam": 1e-3, "dilations": [1, 2, 4], "name": "pit-small"}
        save_state({"w": np.zeros(2)}, path, metadata=meta)
        _, loaded = load_state(path)
        assert loaded == meta

    def test_dtypes_and_shapes_round_trip_exactly(self, tmp_path):
        """0-d arrays stay 0-d (FakeQuant's lo/hi buffers are), and every
        dtype, byte order and layout comes back bitwise."""
        state = {"scalar": np.array(2.5, np.float32),
                 "empty": np.zeros((0, 3)),
                 "flags": np.array([True, False]),
                 "half": np.ones(3, np.float16),
                 "big": np.arange(3, dtype=">i4"),
                 "strided": np.arange(12.0).reshape(3, 4).T}
        path = tmp_path / "ckpt.bin"
        save_state(state, path)
        loaded, _ = load_state(path)
        for key, array in state.items():
            assert loaded[key].dtype == array.dtype, key
            assert loaded[key].shape == array.shape, key
            assert np.array_equal(loaded[key], array), key
            assert loaded[key].flags.writeable, key

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "ckpt.bin"
        save_state({"w": np.zeros(1)}, path)
        assert path.exists()


class TestAtomicityAndCorruption:
    def test_save_replaces_atomically(self, tmp_path):
        """A failed write must never tear the previous good file."""
        path = tmp_path / "ckpt.bin"
        save_state({"w": np.arange(3.0)}, path)

        class Boom:
            pass  # an object array: it has no raw bytes to write

        with pytest.raises(TypeError):
            save_state({"w": Boom()}, path)
        loaded, _ = load_state(path)  # old file intact
        assert np.array_equal(loaded["w"], np.arange(3.0))
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []  # staging file cleaned up

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w") as handle:
                handle.write("half of the new")
                raise RuntimeError("killed mid-write")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["data.json"]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path / "nope.bin")

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_state({"w": np.zeros(4)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # killed mid-write
        with pytest.raises(CheckpointError):
            load_state(path)
        assert path.exists()  # no quarantine unless asked

    def test_corrupt_file_quarantined_on_request(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"\x89PNG not an array file")
        with pytest.warns(UserWarning, match="corrupt"):
            with pytest.raises(CheckpointError):
                load_state(path, quarantine=True)
        assert not path.exists()  # moved, not copied
        assert (tmp_path / "ckpt.bin.corrupt").exists()

    def test_checkpoint_error_is_runtime_error(self):
        assert issubclass(CheckpointError, RuntimeError)

    def test_load_model_corruption_is_typed(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(make_net(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CheckpointError):
            load_model(make_net(), path)


class TestModelRoundTrip:
    def test_weights_restored_exactly(self, tmp_path):
        source = make_net(seed=1)
        target = make_net(seed=2)
        path = tmp_path / "model.bin"
        save_model(source, path)
        load_model(target, path)
        for (na, pa), (nb, pb) in zip(source.named_parameters(),
                                      target.named_parameters()):
            assert na == nb
            assert np.allclose(pa.data, pb.data)

    def test_buffers_restored(self, tmp_path):
        source = make_net(seed=1)
        # Move the BatchNorm running stats away from init.
        source(Tensor(RNG.standard_normal((8, 2, 10)) * 3 + 1))
        target = make_net(seed=2)
        path = tmp_path / "model.bin"
        save_model(source, path)
        load_model(target, path)
        bn_source = source[1]
        bn_target = target[1]
        assert np.allclose(bn_source.running_mean, bn_target.running_mean)

    def test_outputs_identical_after_restore(self, tmp_path):
        source = make_net(seed=1)
        source.eval()
        target = make_net(seed=2)
        target.eval()
        path = tmp_path / "model.bin"
        save_model(source, path)
        load_model(target, path)
        x = Tensor(RNG.standard_normal((3, 2, 8)))
        assert np.allclose(source(x).data, target(x).data)

    @pytest.mark.parametrize("saved, target_dtype", [
        ("float64", "float32"), ("float32", "float64")])
    def test_load_casts_to_model_dtype(self, tmp_path, saved, target_dtype):
        """A file saved at one precision loads into a network built at the
        other as arrays of the network's dtype, BatchNorm statistics
        included, and the network evaluates in that dtype."""
        path = tmp_path / "model.bin"
        x = RNG.standard_normal((2, 4, 256))
        with default_dtype_scope(saved):
            source = temponet_fixed(None, width_mult=0.125, seed=1)
            source(Tensor(x))  # move the BatchNorm running stats off init
            save_model(source, path)
        with default_dtype_scope(target_dtype):
            target = temponet_fixed(None, width_mult=0.125, seed=2)
            load_model(target, path)
            state = target.state_dict()
            assert {a.dtype for a in state.values()} == {np.dtype(target_dtype)}
            for name, array in source.state_dict().items():
                assert np.allclose(state[name], array, rtol=1e-6), name
            out = target.eval()(Tensor(x))
        assert out.dtype == np.dtype(target_dtype)

    def test_architecture_mismatch_raises(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(make_net(), path)
        other = Sequential(Linear(3, 3, rng=np.random.default_rng(0)))
        with pytest.raises(KeyError):
            load_model(other, path)

    def test_searchable_model_round_trip(self, tmp_path):
        """γ̂ parameters checkpoint like any other parameter."""
        source = temponet_seed(width_mult=0.125, seed=1)
        from repro.core import pit_layers
        pit_layers(source)[0].set_dilation(4)
        path = tmp_path / "seed.bin"
        save_model(source, path, metadata={"phase": "pruned"})
        target = temponet_seed(width_mult=0.125, seed=2)
        meta = load_model(target, path)
        assert meta == {"phase": "pruned"}
        assert pit_layers(target)[0].current_dilation() == 4


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "t.ckpt"
    TrainerCheckpoint(path).save(
        {"model/w": np.arange(3.0), "opt/g0p0s0": np.array(7, np.int64)},
        {"trainer": "pit", "phase": "prune"})
    return path, path.read_bytes()


def _assert_rejected(path, damaged):
    """``load_state`` raises on ``damaged``; ``TrainerCheckpoint.load``
    quarantines it and returns None."""
    path.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        load_state(path)
    with pytest.warns(UserWarning, match="quarantined"):
        assert TrainerCheckpoint(path).load() is None
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").read_bytes() == damaged


class TestArrayFileIntegrity:
    """One CRC32 covers the magic, the header and every array byte, and
    the layout pins the file's length."""

    def test_every_flipped_byte_is_rejected(self, tmp_path):
        path, raw = _checkpoint_bytes(tmp_path)
        for at in range(len(raw)):
            damaged = bytearray(raw)
            damaged[at] ^= 0xFF
            _assert_rejected(path, bytes(damaged))

    def test_every_truncation_is_rejected(self, tmp_path):
        path, raw = _checkpoint_bytes(tmp_path)
        for length in range(len(raw)):
            _assert_rejected(path, raw[:length])

    def test_old_npz_checkpoint_is_rejected(self, tmp_path):
        """A format-3 checkpoint is an npz zip: it fails the magic."""
        path = tmp_path / "t.ckpt"
        with open(path, "wb") as handle:
            np.savez(handle, **{"model/w": np.zeros(2)})
        _assert_rejected(path, path.read_bytes())

    def test_format_3_checkpoint_is_quarantined(self, tmp_path):
        """Format 3 named its files ``<tag>.ckpt.npz``; one left beside
        the checkpoint is moved aside with a warning, never resumed."""
        path = tmp_path / "t.ckpt"
        legacy = tmp_path / "t.ckpt.npz"
        np.savez(legacy, **{"model/w": np.zeros(2)})
        with pytest.warns(UserWarning, match="unsupported format 3"):
            assert TrainerCheckpoint(path).load() is None
        assert sorted(os.listdir(tmp_path)) == ["t.ckpt.npz.corrupt"]

    def test_intact_file_loads(self, tmp_path):
        path, _ = _checkpoint_bytes(tmp_path)
        state = TrainerCheckpoint(path).load()
        assert state.meta["phase"] == "prune"
        assert state.arrays["opt/g0p0s0"].shape == ()
        assert np.array_equal(state.arrays["model/w"], np.arange(3.0))


class TestFileMode:
    def test_written_files_follow_the_umask(self, tmp_path):
        """Array files, DSE caches and checkpoints are created like a
        plain ``open`` would: 0o666 less the umask."""
        point = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                         params=1, loss=0.5)
        previous = os.umask(0o022)
        try:
            save_state({"w": np.zeros(2)}, tmp_path / "model.bin")
            DSECache(str(tmp_path / "cache.json")).put("k", point)
            TrainerCheckpoint(tmp_path / "t.ckpt").save(
                {"model/w": np.zeros(2)}, {"trainer": "pit"})
        finally:
            os.umask(previous)
        for name in ("model.bin", "cache.json", "t.ckpt"):
            mode = stat.S_IMODE(os.stat(tmp_path / name).st_mode)
            assert mode == 0o644, (name, oct(mode))
