"""Tests for the parallel DSE execution engine and its results cache.

The engine's contract: a sweep dispatched to a worker pool returns
*bit-identical* points, in the same grid order, as the serial path — and a
sweep resumed from a cache directory skips the completed (λ, warmup)
points entirely while reproducing the same :class:`DSEResult`.
"""

import ctypes
import inspect
import json
import os
import re
import threading

import numpy as np
import pytest

from repro.autograd import default_dtype_scope, get_default_dtype
from repro.core import PITConv1d
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import (
    DSECache,
    DSEEngine,
    DSEPoint,
    stack_width_default,
    workers_default,
)
from repro.evaluation import dse
from repro.evaluation.dse import DSEResult
from repro.core.checkpoint import key_tag
from repro.nn import CausalConv1d, Module, ReLU, mse_loss
from repro.nn.serialization import load_state, save_state
from repro.testing import faults

LAMBDAS = [0.0, 2.0]
WARMUPS = [0, 1]
SCHEDULE = dict(gamma_lr=0.2, max_prune_epochs=2, finetune_epochs=1)


def _expected_builds(lambdas, warmups):
    """Seed instantiations an uncached sweep performs.

    One per grid point sequentially; one per same-warmup chunk when the
    suite runs under a REPRO_DSE_STACK width (the stacked CI leg).
    """
    width = stack_width_default()
    per_group = -(-len(lambdas) // width)    # ceil division
    return per_group * len(warmups)


class Tiny(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=9, rng=rng)
        self.r = ReLU()
        self.h = CausalConv1d(2, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r(self.c(x)))


def _backend_keyed(key):
    """``key`` as it was spelled while the conv kernels were selectable: a
    backend field right after the tag."""
    tag, rest = key.split("|", 1)
    return "|".join([tag, "=".join(["backend", "einsum"]), rest])


def _respell_cache(cache, spelling):
    """Rewrite every point file in ``cache`` in place as an older writer
    spelled its record: ``spelling(key, entry) -> (key, entry)``.  The file
    names stay those of the current keys.  Returns the rewritten keys."""
    respelled = []
    for name in os.listdir(cache):
        path = os.path.join(cache, name)
        _, entry = load_state(path)
        key, entry = spelling(entry.pop("key"), entry)
        save_state({}, path, metadata=dict(entry, key=key))
        respelled.append(key)
    return respelled


def _old_cache_file(path, version):
    """A cache file of the single-JSON-file format at ``path``."""
    path.write_text(json.dumps({"version": version, "points": {}}))


class CountingFactory:
    """Factory that counts the seeds it builds in this process.

    Pool workers build their seeds in other processes, where this count
    never moves.  The lock keeps the factory from pickling, so a pooled
    engine refuses it at construction instead of counting nothing: tests
    that count builds run with ``workers=0``.
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        return Tiny()


def _loaders(shuffle=False, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 1, 10))
    y = np.concatenate([np.zeros((12, 1, 1)), x[:, :, :-1]], axis=2)
    train = DataLoader(ArrayDataset(x[:8], y[:8]), 4, shuffle=shuffle,
                       rng=np.random.default_rng(seed + 1))
    val = DataLoader(ArrayDataset(x[8:], y[8:]), 4)
    return train, val


def _sweep(workers, cache_path=None, shuffle=False, factory=Tiny):
    train, val = _loaders(shuffle=shuffle)
    engine = DSEEngine(factory, mse_loss, train, val, workers=workers,
                       cache_path=cache_path, trainer_kwargs=dict(SCHEDULE))
    return engine.run(LAMBDAS, warmups=WARMUPS)


def _assert_identical(a: DSEResult, b: DSEResult) -> None:
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert (pa.lam, pa.warmup_epochs) == (pb.lam, pb.warmup_epochs)
        assert pa.dilations == pb.dilations
        assert pa.params == pb.params
        assert pa.loss == pb.loss  # bit-identical, not allclose
        assert pa.result is not None and pb.result is not None
        assert pa.result.best_val == pb.result.best_val
        assert pa.result.prune_epochs == pb.result.prune_epochs


class TestParallelDeterminism:
    def test_two_workers_bit_identical_to_serial(self):
        serial = _sweep(workers=0)
        parallel = _sweep(workers=2)
        _assert_identical(serial, parallel)

    def test_pooled_log_is_in_grid_order(self, capsys, monkeypatch):
        """Trained points are logged in grid order, so a verbose pooled
        sweep prints what the serial one prints even when the first
        point finishes last."""
        logs = []
        for workers in (0, 2):
            if workers:
                monkeypatch.setenv(faults.ENV_FAULTS,
                                   "hang@point=0&seconds=0.5")
            train, val = _loaders()
            DSEEngine(Tiny, mse_loss, train, val, workers=workers,
                      verbose=True, trainer_kwargs=dict(SCHEDULE)
                      ).run(LAMBDAS, warmups=WARMUPS)
            logs.append(capsys.readouterr().out)
        assert logs[0] == logs[1]
        assert logs[0].count("[DSE]") == len(LAMBDAS) * len(WARMUPS)

    def test_grid_ordering_is_warmup_major(self):
        result = _sweep(workers=2)
        combos = [(p.warmup_epochs, p.lam) for p in result.points]
        assert combos == [(w, l) for w in WARMUPS for l in LAMBDAS]

    def test_shuffling_loaders_do_not_break_determinism(self):
        """Each point deep-copies the loaders, so a shared shuffle RNG
        cannot thread state between grid points in completion order."""
        serial = _sweep(workers=0, shuffle=True)
        parallel = _sweep(workers=2, shuffle=True)
        _assert_identical(serial, parallel)

    def test_compiled_sweep_bit_identical_to_eager(self, eager_steps):
        """Every grid point trains through the graph-capture executor;
        results (and therefore cache entries) equal eager training's."""
        with eager_steps():
            eager = _sweep(workers=0)
        compiled = _sweep(workers=0)
        parallel_compiled = _sweep(workers=2)
        _assert_identical(eager, compiled)
        _assert_identical(eager, parallel_compiled)

    def test_execution_path_stays_out_of_cache_keys(self, tmp_path,
                                                    eager_steps):
        """Cache keys name no execution path: a sweep resumes from
        entries an eager-trained sweep wrote."""
        cache = str(tmp_path / "dse")
        with eager_steps():
            first = _sweep(workers=0, cache_path=cache)
        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == 0  # every point came from the cache
        _assert_identical(first, resumed)

    def test_private_loaders_share_dataset_storage(self):
        """Grid points deep-copy all mutable loader state but share the
        (read-only) sample arrays."""
        from repro.data import clone_loader
        train, _ = _loaders(shuffle=True)
        clone = clone_loader(train)
        assert clone.dataset.inputs is train.dataset.inputs
        assert clone.dataset.targets is train.dataset.targets
        assert clone.rng is not train.rng
        # The private RNG starts from the original's current state...
        assert (clone.rng.bit_generator.state
                == train.rng.bit_generator.state)
        # ...and consuming it leaves the original untouched.
        clone.rng.random()
        assert (clone.rng.bit_generator.state
                != train.rng.bit_generator.state)

    def test_grid_point_applies_pinned_backend(self, count_kernel_calls):
        """A grid point (think: a worker process) trains on the one kernel
        object of the process it runs in: nothing is pinned or passed,
        and its conv calls reach that object."""
        import inspect
        from repro.evaluation.dse import _train_grid_point
        assert "backend" not in inspect.signature(
            _train_grid_point).parameters
        train, val = _loaders()
        with count_kernel_calls() as calls:
            point = _train_grid_point(Tiny, mse_loss, train, val, 0.0, 0,
                                      dict(SCHEDULE))
        assert point.params > 0
        assert {"forward", "grad_weight"} <= set(calls)

    def test_engine_validates_arguments(self):
        train, val = _loaders()
        with pytest.raises(ValueError, match="workers"):
            DSEEngine(Tiny, mse_loss, train, val, workers=-1)

    def test_pooled_engine_rejects_unpicklable_inputs(self, tmp_path):
        """A pooled engine pickles its inputs to the workers; one that
        does not pickle raises at construction, naming the argument,
        instead of failing every grid point into the cache."""
        train, val = _loaders()
        locked, _ = _loaders()
        locked.lock = threading.Lock()

        def local_probe(model, point):
            return {}

        cases = [
            ("seed_factory", (lambda: Tiny(), mse_loss, train, val), {}),
            ("loss_fn", (Tiny, lambda out, y: mse_loss(out, y), train, val),
             {}),
            ("train_loader", (Tiny, mse_loss, locked, val), {}),
            ("point_evaluators[0]", (Tiny, mse_loss, train, val),
             dict(point_evaluators=[local_probe])),
        ]
        cache = tmp_path / "dse"
        for name, args, kwargs in cases:
            with pytest.raises(ValueError, match="does not pickle") as info:
                DSEEngine(*args, workers=2, cache_path=str(cache), **kwargs)
            assert name in str(info.value)
            DSEEngine(*args, workers=0, **kwargs)  # serial: never pickled
        assert not cache.exists()

    def test_engine_owned_trainer_kwargs_rejected(self):
        """Each engine-owned setting has one spelling; trainer_kwargs
        naming one raises, naming the argument that controls it."""
        train, val = _loaders()
        owners = {"lam": "lambdas", "warmup_epochs": "warmups",
                  "stack": "stack=", "checkpoint_dir": "checkpoint_dir=",
                  "checkpoint_every": "checkpoint_every=",
                  "checkpoint_tag": "checkpoint_dir=",
                  "checkpoint_tags": "checkpoint_dir=",
                  "checkpoint_resume": "checkpoint_dir="}
        for name, owner in owners.items():
            with pytest.raises(ValueError) as info:
                DSEEngine(Tiny, mse_loss, train, val,
                          trainer_kwargs=dict(SCHEDULE, **{name: 1}))
            assert repr(name) in str(info.value)
            assert owner in str(info.value)


class TestCache:
    def test_resume_skips_completed_points(self, tmp_path):
        cache = str(tmp_path / "dse")
        factory = CountingFactory()
        first = _sweep(workers=0, cache_path=cache, factory=factory)
        builds = _expected_builds(LAMBDAS, WARMUPS)
        assert factory.calls == builds

        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == builds  # no retraining
        _assert_identical(first, resumed)

    def test_parallel_resume_from_serial_cache(self, tmp_path, monkeypatch):
        """Every point is cached, so the pooled resume never builds a
        pool: nothing trains."""
        cache = str(tmp_path / "dse")
        serial = _sweep(workers=0, cache_path=cache)

        def no_pool(engine):
            raise AssertionError("a fully cached sweep built a pool")

        monkeypatch.setattr(DSEEngine, "_make_pool", no_pool)
        parallel = _sweep(workers=2, cache_path=cache)
        _assert_identical(serial, parallel)

    def test_partial_cache_trains_only_missing_points(self, tmp_path):
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                           trainer_kwargs=dict(SCHEDULE))
        engine.run([LAMBDAS[0]], warmups=[0])

        factory = CountingFactory()
        engine = DSEEngine(factory, mse_loss, train, val, workers=0,
                           cache_path=cache,
                           trainer_kwargs=dict(SCHEDULE))
        result = engine.run(LAMBDAS, warmups=[0])
        assert factory.calls == 1  # only the uncached λ trains
        assert [p.lam for p in result.points] == LAMBDAS

    def test_cache_keyed_by_tag(self, tmp_path):
        """Different model/data identities never share cache entries."""
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  cache_tag="width=0.25",
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])

        factory = CountingFactory()
        DSEEngine(factory, mse_loss, train, val, workers=0,
                  cache_path=cache,
                  cache_tag="width=1.0",
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])
        assert factory.calls == 1  # different tag -> cache miss

    def test_cache_keyed_by_conv_backend(self, tmp_path):
        """A point trained while the conv kernels were selectable (its key
        carries a backend field) is not returned for the same point now;
        the retrained point is keyed without the field and served on the
        next run."""
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])
        respelled = _respell_cache(
            cache, lambda key, entry: (_backend_keyed(key), entry))
        assert len(respelled) == 1
        for expected_builds in (1, 0):
            factory = CountingFactory()
            DSEEngine(factory, mse_loss, train, val, workers=0,
                      cache_path=cache,
                      trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])
            assert factory.calls == expected_builds

    def test_cache_rejects_non_json_trainer_settings(self):
        """Object-valued kwargs can't be keyed stably (reprs embed
        per-process addresses); refuse loudly rather than mis-cache."""
        with pytest.raises(ValueError, match="JSON-serializable"):
            DSECache.key(0.0, 0, {"callback": object()})
        # Scalar settings (everything PITTrainer accepts) key fine.
        key = DSECache.key(0.0, 0, dict(SCHEDULE))
        assert key.startswith("tag=|lam=0.0|warmup=0|trainer=")

    def test_cache_keyed_by_trainer_settings(self, tmp_path):
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])

        factory = CountingFactory()
        other = dict(SCHEDULE, max_prune_epochs=1)
        DSEEngine(factory, mse_loss, train, val, workers=0,
                  cache_path=cache,
                  trainer_kwargs=other).run([0.0], warmups=[0])
        assert factory.calls == 1  # different settings -> cache miss

    def test_completed_points_survive_a_failing_grid_point(self, tmp_path,
                                                          monkeypatch,
                                                          cache_entries):
        """A crashing point is isolated: the sweep completes, the healthy
        point is cached, and a resume retrains only the failed one."""
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        # stack=1 pins the per-point schedule this test's failure
        # accounting assumes (a stacked chunk falls back point-by-point).
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=0")
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=2,
                           cache_path=cache, stack=1,
                           trainer_kwargs=dict(SCHEDULE))
        result = engine.run(LAMBDAS, warmups=[0])  # must not raise
        failed, = result.failed_points
        assert failed.lam == LAMBDAS[0] and "TransientFault" in failed.error
        assert len(result.ok_points) == 1

        recorded = cache_entries(cache)
        # Both outcomes are persisted; only one is a servable result.
        statuses = sorted(e["status"] for e in recorded.values())
        assert statuses == ["failed", "ok"]

        # Resuming retrains only the failed point (failed cache entries
        # are provenance, never served as results): the cached point 1
        # would fail if it trained again.
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=1")
        resumed = DSEEngine(Tiny, mse_loss, train, val, workers=2,
                            cache_path=cache, stack=1,
                            trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS,
                                                               warmups=[0])
        assert [p.lam for p in resumed.points] == LAMBDAS
        assert all(p.ok for p in resumed.points)

    def test_failure_without_cache_is_isolated(self, monkeypatch):
        """A failing point must not abort the sweep: the remaining grid
        still trains and the failure surfaces as a failed DSEPoint."""
        train, val = _loaders()
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=0")
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=2,
                           stack=1, trainer_kwargs=dict(SCHEDULE))
        grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        result = engine.run(grid, warmups=[0])
        assert [p.lam for p in result.points] == grid  # grid order kept
        failed, = result.failed_points
        assert failed.lam == grid[0] and "TransientFault" in failed.error
        assert len(result.ok_points) == len(grid) - 1
        assert engine.last_run_stats["failed"] == 1

    def test_cache_file_format(self, tmp_path, cache_entries):
        """One array file per point, named by its key's tag, holding no
        arrays and the point's entry plus its full key."""
        cache = str(tmp_path / "dse")
        result = _sweep(workers=0, cache_path=cache)
        recorded = cache_entries(cache)
        assert len(recorded) == len(result.points)
        assert sorted(os.listdir(cache)) == sorted(
            key_tag(key) + ".point" for key in recorded)
        for key, entry in recorded.items():
            arrays, _ = load_state(os.path.join(cache,
                                                key_tag(key) + ".point"))
            assert arrays == {}
            assert {"key", "lam", "warmup_epochs", "dilations", "params",
                    "loss", "result"} <= set(entry)

    def test_round_trip_restores_full_result(self, tmp_path):
        cache = str(tmp_path / "dse")
        original = _sweep(workers=0, cache_path=cache)
        restored = _sweep(workers=0, cache_path=cache)
        for pa, pb in zip(original.points, restored.points):
            assert isinstance(pb, DSEPoint)
            assert pb.result.history == pa.result.history
            assert pb.result.total_seconds == pa.result.total_seconds
            assert pb.dilations == pa.dilations

    def test_concurrent_cache_instances_keep_each_others_points(
            self, tmp_path):
        """Two processes sharing one cache directory never erase each
        other's completed points, and each reads the other's (simulated
        with two handles)."""
        path = str(tmp_path / "shared")
        point = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                         params=1, loss=0.5)
        a = DSECache(path)
        b = DSECache(path)  # opened before `a` records anything
        a.put("ka", point)
        b.put("kb", point)
        assert len(a) == len(b) == 2
        assert a.get("kb") is not None and b.get("ka") is not None

    @staticmethod
    def _count_writes(monkeypatch, tmp_path, workers):
        """Sweep with a cache at ``workers``: the result, the cache path and
        the point files this process wrote (pool workers count in theirs)."""
        writes = []
        real = dse.save_state

        def counting(state, path, metadata=None):
            writes.append(path)
            real(state, path, metadata)

        monkeypatch.setattr(dse, "save_state", counting)
        cache = str(tmp_path / "dse")
        return _sweep(workers=workers, cache_path=cache), cache, writes

    def test_in_process_sweep_writes_each_point_once(self, tmp_path,
                                                     monkeypatch):
        """An in-process sweep writes every grid point's file exactly
        once."""
        result, cache, writes = self._count_writes(monkeypatch, tmp_path, 0)
        assert len(writes) == len(set(writes)) == len(result.points)
        assert all(os.path.dirname(w) == cache for w in writes)
        assert len(DSECache(cache)) == len(result.points)

    def test_pooled_sweep_writes_each_point_once(self, tmp_path,
                                                 monkeypatch):
        """Pool workers write the points they train; the parent writes
        none of them again, and the directory still holds every point."""
        result, cache, writes = self._count_writes(monkeypatch, tmp_path, 2)
        assert all(p.ok for p in result.points)
        assert writes == []
        assert len(DSECache(cache)) == len(result.points)

    def test_oversubscribed_pool_loses_no_point(self, tmp_path,
                                                 cache_entries):
        """More workers than cores (up to 8) write into one directory at
        once: every returned point has its file, served back equal."""
        workers = min((os.cpu_count() or 1) + 1, 8)
        lambdas = [0.5 * i for i in range(workers)]
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        result = DSEEngine(Tiny, mse_loss, train, val, workers=workers,
                           cache_path=cache, stack=1,
                           trainer_kwargs=dict(SCHEDULE)).run(
                               lambdas, warmups=WARMUPS)
        keys = [DSECache.key(p.lam, p.warmup_epochs, dict(SCHEDULE))
                for p in result.points]
        assert set(cache_entries(cache)) == set(keys)
        for key, point in zip(keys, result.points):
            served = DSECache(cache).get(key)
            assert (served.loss, served.result) == (point.loss, point.result)

    def test_pooled_chunks_flush_from_the_first_point(self, tmp_path,
                                                      monkeypatch):
        """Every pooled chunk carries the cache, including those submitted
        while a fresh cache is still empty, so workers write each
        finished point and a pool death cannot retrain it."""
        real = DSEEngine._chunk_args
        carried = []
        signature = inspect.signature(dse._train_grid_chunk)

        def spy(engine, chunk):
            args = real(engine, chunk)
            carried.append(signature.bind(*args).arguments["cache"])
            return args

        monkeypatch.setattr(DSEEngine, "_chunk_args", spy)
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, workers=2, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS, warmups=WARMUPS)
        assert carried and all(isinstance(c, DSECache) and c.path == cache
                               for c in carried)

    def test_rejects_unknown_cache_version(self, tmp_path):
        """A cache file of the single-JSON-file format, of any version, is
        not read: the cache is a directory now."""
        path = tmp_path / "bad.json"
        _old_cache_file(path, 99)
        with pytest.raises(ValueError, match="is a file"):
            DSECache(str(path))
        train, val = _loaders()
        with pytest.raises(ValueError, match="is a file"):
            DSEEngine(Tiny, mse_loss, train, val, cache_path=str(path))


class StubEvaluator:
    """Deterministic point evaluator with a stable cache identity."""

    cache_name = "stub"

    def __call__(self, model, point):
        assert model is not None  # gets the trained model, not just the point
        return {"latency_ms": 10.0 + point.lam, "energy_mj": 2.5}


class TestCacheBugfixes:
    """Regression tests for the two confirmed DSECache bugs."""

    def test_key_normalizes_numpy_scalars(self):
        """np.linspace grids (numpy scalars) must key identically to the
        same values spelled as Python numbers — `lam!r` used to embed
        `np.float64(0.02)` and miss every resume."""
        native = DSECache.key(0.02, 5, dict(SCHEDULE))
        numpied = DSECache.key(np.float64(0.02), np.int64(5),
                               dict(SCHEDULE))
        assert native == numpied
        assert "np.float64" not in numpied

    def test_numpy_grid_resumes_python_float_cache(self, tmp_path):
        """End-to-end: a cache written with Python-float λs satisfies a
        resume whose grid comes from np.linspace/np.arange."""
        cache = str(tmp_path / "dse")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS, warmups=WARMUPS)

        factory = CountingFactory()
        numpy_lambdas = np.linspace(LAMBDAS[0], LAMBDAS[-1], len(LAMBDAS))
        assert [float(v) for v in numpy_lambdas] == LAMBDAS  # same grid
        resumed = DSEEngine(factory, mse_loss, train, val, workers=0,
                            cache_path=cache,
                            trainer_kwargs=dict(SCHEDULE)).run(
                                numpy_lambdas, warmups=np.array(WARMUPS))
        assert factory.calls == 0  # every numpy-keyed point hit
        assert len(resumed.points) == len(LAMBDAS) * len(WARMUPS)

    def test_put_accepts_numpy_typed_point(self, tmp_path, cache_entries):
        """`put` used to crash with `TypeError: Object of type int64 is
        not JSON serializable` when dilations/params were numpy ints."""
        path = str(tmp_path / "np")
        point = DSEPoint(
            lam=np.float64(0.5), warmup_epochs=np.int64(1),
            dilations=(np.int64(1), np.int64(4)), params=np.int64(123),
            loss=np.float64(0.25),
            metrics={"latency_ms": np.float64(7.5), "macs": np.int64(80)})
        cache = DSECache(path)
        cache.put("k", point)  # must not raise

        entry = cache_entries(path)["k"]
        assert entry["params"] == 123 and isinstance(entry["params"], int)
        assert entry["dilations"] == [1, 4]
        assert entry["metrics"] == {"latency_ms": 7.5, "macs": 80}

        restored = DSECache(path).get("k")
        assert restored.params == 123
        assert restored.dilations == (1, 4)
        assert restored.metrics["latency_ms"] == 7.5


class TestCacheVersions:
    def test_file_format_is_current_with_metrics_and_status(
            self, tmp_path, cache_entries):
        cache = str(tmp_path / "dse")
        _sweep(workers=0, cache_path=cache)
        for entry in cache_entries(cache).values():
            assert entry["metrics"] == {}  # no evaluators ran
            assert entry["status"] == "ok"
            assert entry["error"] is None

    @staticmethod
    def _assert_version_rejected(tmp_path, version):
        """A file of the single-JSON-file format raises, untouched."""
        path = tmp_path / "dse"
        _old_cache_file(path, version)
        with pytest.raises(ValueError, match="is a file"):
            DSECache(str(path))
        assert json.loads(path.read_text())["version"] == version

    def test_v1_file_rejected(self, tmp_path):
        """A file from the v1 writer (no metrics) is not read."""
        self._assert_version_rejected(tmp_path, 1)

    def test_v2_file_rejected(self, tmp_path):
        """A file from the v2 writer (no failure fields) is not read."""
        self._assert_version_rejected(tmp_path, 2)

    @staticmethod
    def _assert_legacy_entries_not_served(tmp_path, cache_entries,
                                          legacy_spelling):
        """Rewrite a fresh cache's point files as an older writer spelled
        their records (``legacy_spelling(key, entry) -> (key, entry)``),
        under the current keys' file names.  The files read without
        error; their stored keys differ from the lookup keys, so they are
        not served and the sweep retrains; the retrained points replace
        them under the current keys."""
        cache = str(tmp_path / "dse")
        _sweep(workers=0, cache_path=cache)
        current = set(cache_entries(cache))
        legacy = _respell_cache(cache, legacy_spelling)
        assert set(cache_entries(cache)) == set(legacy)
        assert not current & set(legacy)

        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == _expected_builds(LAMBDAS, WARMUPS)
        assert all(p.ok for p in resumed.points)
        assert set(cache_entries(cache)) == current

    def test_backend_keyed_v3_entries_load_but_are_not_served(
            self, tmp_path, cache_entries):
        """Records keyed while the conv kernels were selectable carry a
        backend field after the tag (other kernels trained those
        points)."""
        self._assert_legacy_entries_not_served(
            tmp_path, cache_entries,
            lambda key, entry: (_backend_keyed(key), entry))

    def test_dtype_less_v3_entries_load_but_are_not_served(
            self, tmp_path, cache_entries):
        """Records keyed before the dtype entered the key; their results
        also carry the since-deleted ``compile_stats`` field, which must
        never reach ``PITResult``."""
        def legacy_spelling(key, entry):
            entry["result"]["compile_stats"] = {}
            return re.sub(r"\|dtype=[^|]*", "", key), entry
        self._assert_legacy_entries_not_served(tmp_path, cache_entries,
                                               legacy_spelling)

    def test_cache_keyed_by_dtype(self, tmp_path):
        """A point trained at one precision is never served to a sweep at
        the other: each precision retrains once, then resumes from its
        own entries."""
        cache = str(tmp_path / "dse")
        other = ("float32" if np.dtype(get_default_dtype()) == np.float64
                 else "float64")
        _sweep(workers=0, cache_path=cache)
        for expected in (_expected_builds(LAMBDAS, WARMUPS), 0):
            factory = CountingFactory()
            with default_dtype_scope(other):
                result = _sweep(workers=0, cache_path=cache,
                                factory=factory)
            assert factory.calls == expected
            assert all(p.ok for p in result.points)
        assert len(DSECache(cache)) == 2 * len(LAMBDAS) * len(WARMUPS)


class TestPointEvaluators:
    def _sweep(self, cache_path=None, factory=Tiny, evaluators=None):
        """Serial when ``factory`` counts its builds (see CountingFactory);
        otherwise the worker count defers to the environment."""
        train, val = _loaders()
        workers = 0 if isinstance(factory, CountingFactory) else None
        engine = DSEEngine(factory, mse_loss, train, val, workers=workers,
                           cache_path=cache_path,
                           trainer_kwargs=dict(SCHEDULE),
                           point_evaluators=evaluators)
        return engine.run(LAMBDAS, warmups=[0])

    def test_evaluators_annotate_points(self):
        result = self._sweep(evaluators=[StubEvaluator()])
        for point in result.points:
            assert point.metrics == {"latency_ms": 10.0 + point.lam,
                                     "energy_mj": 2.5}

    def test_metrics_survive_cache_resume(self, tmp_path):
        cache = str(tmp_path / "dse")
        first = self._sweep(cache_path=cache, evaluators=[StubEvaluator()])
        factory = CountingFactory()
        resumed = self._sweep(cache_path=cache, factory=factory,
                              evaluators=[StubEvaluator()])
        assert factory.calls == 0  # resumed without retraining...
        assert [p.metrics for p in resumed.points] == \
               [p.metrics for p in first.points]  # ...metrics intact

    def test_evaluator_identity_is_part_of_the_key(self, tmp_path):
        """A point cached without hw metrics cannot satisfy an
        evaluator-carrying resume (the weights needed to compute the
        missing metrics are gone), so the key must differ."""
        cache = str(tmp_path / "dse")
        self._sweep(cache_path=cache)  # no evaluators
        factory = CountingFactory()
        result = self._sweep(cache_path=cache, factory=factory,
                             evaluators=[StubEvaluator()])
        # Full retrain, with metrics (one build per chunk under stacking).
        assert factory.calls == _expected_builds(LAMBDAS, [0])
        assert all(p.metrics for p in result.points)

    def test_annotated_cache_satisfies_plain_resume(self, tmp_path):
        """The reverse direction is free: entries an evaluator-carrying
        sweep recorded are a superset of what an evaluator-less resume
        needs, so it must not retrain."""
        cache = str(tmp_path / "dse")
        annotated = self._sweep(cache_path=cache,
                                evaluators=[StubEvaluator()])
        factory = CountingFactory()
        plain = self._sweep(cache_path=cache, factory=factory)
        assert factory.calls == 0
        _assert_identical(DSEResult(points=annotated.points),
                          DSEResult(points=plain.points))
        # The cached metrics ride along as a bonus.
        assert [p.metrics for p in plain.points] == \
               [p.metrics for p in annotated.points]

    def test_evaluator_key_is_delimiter_injection_safe(self):
        """Names carry configuration strings (commas, pipes); a bare join
        would let different stacks collide on one key."""
        def key(evaluators):
            return DSECache.key(0.0, 0, dict(SCHEDULE),
                                evaluators=evaluators)
        assert key(["a,b"]) != key(["a", "b"])
        assert key(["a|evaluators=x"]) != key(["a"])
        assert key(["gap8(bits=4,shape=1x1x10)"]) != \
               key(["gap8(bits=8,shape=1x1x10)"])

    def test_evaluator_names(self):
        import functools
        from repro.evaluation import evaluator_name

        def my_probe(model, point):
            return {}

        assert evaluator_name(StubEvaluator()) == "stub"
        assert evaluator_name(my_probe) == "my_probe"
        # Anonymous callables key indistinguishably from one another, so
        # they are refused rather than silently sharing cache entries.
        with pytest.raises(ValueError, match="cache identity"):
            evaluator_name(lambda model, point: {})
        with pytest.raises(ValueError, match="cache identity"):
            evaluator_name(functools.partial(my_probe, None))


class TestRunDseWrapper:
    def test_engine_run_accepts_engine_knobs(self, tmp_path):
        """The one entry point, DSEEngine(...).run(...), takes every knob."""
        train, val = _loaders()
        result = DSEEngine(Tiny, mse_loss, train, val, workers=2,
                           cache_path=str(tmp_path / "c"),
                           trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS,
                                                              warmups=[0])
        assert len(result.points) == len(LAMBDAS)

    def test_optional_result_annotation(self):
        """Satellite fix: DSEPoint.result is Optional and defaults to None."""
        from typing import get_args, get_origin, get_type_hints, Union
        hints = get_type_hints(DSEPoint)
        assert get_origin(hints["result"]) is Union
        assert type(None) in get_args(hints["result"])
        point = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                         params=1, loss=0.0)
        assert point.result is None


class TestEnvDefaults:
    """REPRO_DSE_WORKERS seeds the pool size the way REPRO_DSE_STACK
    seeds stack width (the CI fault-injection leg uses it to force pooled
    execution); explicit arguments win."""

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DSE_WORKERS", raising=False)
        assert workers_default() == 0
        train, val = _loaders()
        assert DSEEngine(Tiny, mse_loss, train, val).workers == 0

    def test_env_seeds_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "3")
        train, val = _loaders()
        assert DSEEngine(Tiny, mse_loss, train, val).workers == 3

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "3")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=0)
        assert engine.workers == 0

    def test_bad_env_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "-1")
        with pytest.raises(ValueError, match="REPRO_DSE_WORKERS"):
            workers_default()
        train, val = _loaders()
        with pytest.raises(ValueError, match="REPRO_DSE_WORKERS"):
            DSEEngine(Tiny, mse_loss, train, val)

    @pytest.mark.parametrize("value", ["abc", "2.5", "-1"])
    @pytest.mark.parametrize("name, read", [
        (dse.ENV_WORKERS, workers_default),
        (dse.ENV_STACK, stack_width_default)])
    def test_bad_env_value_names_its_variable(self, monkeypatch, name, read,
                                              value):
        """A non-integer fails like an out-of-range value: a ValueError
        naming the variable and the value, not a bare int() message."""
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"^{name} .*{value!r}"):
            read()


def _worker_blas_threads():
    """The OpenBLAS thread count of the process this runs in."""
    get_threads = dse._openblas_function("get_num_threads")
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    return get_threads()


class TestBlasPin:
    """Pool workers cap their OpenBLAS at ``cpu_count // workers``
    threads, so a pool shares the cores instead of oversubscribing them."""

    def test_pool_workers_pin_blas_threads(self):
        if dse._openblas_function("get_num_threads") is None:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=2)
        pool = engine._make_pool()
        try:
            threads = pool.submit(_worker_blas_threads).result()
        finally:
            pool.shutdown()
        assert threads == max(1, os.cpu_count() // 2)

    def test_pooling_runs_unpinned_without_openblas(self, monkeypatch):
        """A worker that finds no OpenBLAS keeps the library default and
        the pooled sweep still matches the serial one."""
        monkeypatch.setattr(dse, "_OPENBLAS_SYMBOLS", ("no_such_{}",))
        assert dse._openblas_function("set_num_threads") is None
        _assert_identical(_sweep(workers=0), _sweep(workers=2))
