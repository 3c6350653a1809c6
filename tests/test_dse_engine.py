"""Tests for the parallel DSE execution engine and its results cache.

The engine's contract: a sweep dispatched to a worker pool returns
*bit-identical* points, in the same grid order, as the serial path — and a
sweep resumed from a cache file skips the completed (λ, warmup) points
entirely while reproducing the same :class:`DSEResult`.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import PITConv1d
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import (
    DSECache,
    DSEEngine,
    DSEPoint,
    executor_default,
    run_dse,
    stack_width_default,
    workers_default,
)
from repro.evaluation.dse import DSEResult
from repro.nn import CausalConv1d, Module, ReLU, mse_loss

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
    """``key`` as a v3 file written while the conv kernels were selectable
    spelled it: a backend field right after the tag."""
    tag, rest = key.split("|", 1)
    return "|".join([tag, "=".join(["backend", "einsum"]), rest])


class CountingFactory:
    """Picklable factory that counts how many seeds it builds."""

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
        cache = str(tmp_path / "cache.json")
        with eager_steps():
            first = _sweep(workers=0, cache_path=cache)
        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == 0  # every point came from the cache
        _assert_identical(first, resumed)

    def test_process_executor_matches_serial(self):
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=2,
                           executor="process",
                           trainer_kwargs=dict(SCHEDULE))
        parallel = engine.run(LAMBDAS, warmups=[0])
        serial = DSEEngine(Tiny, mse_loss, train, val,
                           trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS,
                                                              warmups=[0])
        _assert_identical(serial, parallel)

    def test_private_loaders_share_dataset_storage(self):
        """Grid points deep-copy all mutable loader state but share the
        (read-only) sample arrays."""
        from repro.evaluation.dse import _private_loader
        train, _ = _loaders(shuffle=True)
        clone = _private_loader(train)
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
        with pytest.raises(ValueError, match="executor"):
            DSEEngine(Tiny, mse_loss, train, val, executor="mpi")
        with pytest.raises(ValueError, match="workers"):
            DSEEngine(Tiny, mse_loss, train, val, workers=-1)


class TestCache:
    def test_resume_skips_completed_points(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        factory = CountingFactory()
        first = _sweep(workers=0, cache_path=cache, factory=factory)
        builds = _expected_builds(LAMBDAS, WARMUPS)
        assert factory.calls == builds

        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == builds  # no retraining
        _assert_identical(first, resumed)

    def test_parallel_resume_from_serial_cache(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        serial = _sweep(workers=0, cache_path=cache)
        factory = CountingFactory()
        parallel = _sweep(workers=2, cache_path=cache, factory=factory)
        assert factory.calls == 0
        _assert_identical(serial, parallel)

    def test_partial_cache_trains_only_missing_points(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                           trainer_kwargs=dict(SCHEDULE))
        engine.run([LAMBDAS[0]], warmups=[0])

        factory = CountingFactory()
        engine = DSEEngine(factory, mse_loss, train, val, cache_path=cache,
                           trainer_kwargs=dict(SCHEDULE))
        result = engine.run(LAMBDAS, warmups=[0])
        assert factory.calls == 1  # only the uncached λ trains
        assert [p.lam for p in result.points] == LAMBDAS

    def test_cache_keyed_by_tag(self, tmp_path):
        """Different model/data identities never share cache entries."""
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  cache_tag="width=0.25",
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])

        factory = CountingFactory()
        DSEEngine(factory, mse_loss, train, val, cache_path=cache,
                  cache_tag="width=1.0",
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])
        assert factory.calls == 1  # different tag -> cache miss

    def test_cache_keyed_by_conv_backend(self, tmp_path):
        """A point trained while the conv kernels were selectable (its key
        carries a backend field) is not returned for the same point now;
        the retrained point is keyed without the field and served on the
        next run."""
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])
        with open(cache) as handle:
            payload = json.load(handle)
        payload["points"] = {_backend_keyed(key): entry
                             for key, entry in payload["points"].items()}
        assert len(payload["points"]) == 1
        with open(cache, "w") as handle:
            json.dump(payload, handle)
        for expected_builds in (1, 0):
            factory = CountingFactory()
            DSEEngine(factory, mse_loss, train, val, cache_path=cache,
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
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run([0.0], warmups=[0])

        factory = CountingFactory()
        other = dict(SCHEDULE, max_prune_epochs=1)
        DSEEngine(factory, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=other).run([0.0], warmups=[0])
        assert factory.calls == 1  # different settings -> cache miss

    def test_completed_points_survive_a_failing_grid_point(self, tmp_path):
        """A crashing point is isolated: the sweep completes, the healthy
        point is cached, and a resume retrains only the failed one."""
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()

        class ExplodingFactory:
            """Fails on its first build; healthy for the other grid points."""
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def __call__(self):
                with self._lock:
                    self.calls += 1
                    if self.calls == 1:
                        raise RuntimeError("diverged")
                return Tiny()

        # stack=1 pins the per-point schedule this test's failure
        # accounting assumes (a stacked chunk falls back point-by-point).
        engine = DSEEngine(ExplodingFactory(), mse_loss, train, val,
                           workers=2, cache_path=cache, stack=1,
                           trainer_kwargs=dict(SCHEDULE))
        result = engine.run(LAMBDAS, warmups=[0])  # must not raise
        assert len(result.failed_points) == 1
        assert "diverged" in result.failed_points[0].error
        assert len(result.ok_points) == 1

        with open(cache) as handle:
            recorded = json.load(handle)["points"]
        # Both outcomes are persisted; only one is a servable result.
        statuses = sorted(e.get("status", "ok") for e in recorded.values())
        assert statuses == ["failed", "ok"]

        # Resuming retrains only the failed point (failed cache entries
        # are provenance, never served as results).
        factory = CountingFactory()
        resumed = DSEEngine(factory, mse_loss, train, val, workers=2,
                            cache_path=cache, stack=1,
                            trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS,
                                                               warmups=[0])
        assert factory.calls == 1
        assert [p.lam for p in resumed.points] == LAMBDAS
        assert all(p.ok for p in resumed.points)

    def test_failure_without_cache_is_isolated(self):
        """A failing point must not abort the sweep: the remaining grid
        still trains and the failure surfaces as a failed DSEPoint."""
        train, val = _loaders()

        class FailFirst:
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def __call__(self):
                with self._lock:
                    self.calls += 1
                    if self.calls == 1:
                        raise RuntimeError("diverged")
                return Tiny()

        factory = FailFirst()
        engine = DSEEngine(factory, mse_loss, train, val, workers=2,
                           stack=1, trainer_kwargs=dict(SCHEDULE))
        grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        result = engine.run(grid, warmups=[0])
        assert factory.calls == len(grid)  # every point was attempted
        assert len(result.failed_points) == 1
        assert len(result.ok_points) == len(grid) - 1
        assert [p.lam for p in result.points] == grid  # grid order kept
        assert engine.last_run_stats["failed"] == 1

    def test_cache_file_format(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        result = _sweep(workers=0, cache_path=cache)
        with open(cache) as handle:
            payload = json.load(handle)
        assert payload["version"] == DSECache.VERSION
        assert len(payload["points"]) == len(result.points)
        entry = next(iter(payload["points"].values()))
        assert {"lam", "warmup_epochs", "dilations", "params",
                "loss", "result"} <= set(entry)

    def test_round_trip_restores_full_result(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        original = _sweep(workers=0, cache_path=cache)
        restored = _sweep(workers=0, cache_path=cache)
        for pa, pb in zip(original.points, restored.points):
            assert isinstance(pb, DSEPoint)
            assert pb.result.history == pa.result.history
            assert pb.result.total_seconds == pa.result.total_seconds
            assert pb.dilations == pa.dilations

    def test_concurrent_cache_instances_merge_on_flush(self, tmp_path):
        """Two processes sharing one cache file must not erase each
        other's completed points on flush (simulated with two instances)."""
        path = str(tmp_path / "shared.json")
        point = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                         params=1, loss=0.5)
        a = DSECache(path)
        b = DSECache(path)  # loaded before `a` records anything
        a.put("ka", point)
        b.put("kb", point)  # must merge ka from disk, not overwrite it
        with open(path) as handle:
            recorded = json.load(handle)["points"]
        assert set(recorded) == {"ka", "kb"}

    def test_rejects_unknown_cache_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "points": {}}))
        with pytest.raises(ValueError, match="cache version"):
            DSECache(str(path))


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
        cache = str(tmp_path / "dse.json")
        train, val = _loaders()
        DSEEngine(Tiny, mse_loss, train, val, cache_path=cache,
                  trainer_kwargs=dict(SCHEDULE)).run(LAMBDAS, warmups=WARMUPS)

        factory = CountingFactory()
        numpy_lambdas = np.linspace(LAMBDAS[0], LAMBDAS[-1], len(LAMBDAS))
        assert [float(v) for v in numpy_lambdas] == LAMBDAS  # same grid
        resumed = DSEEngine(factory, mse_loss, train, val, cache_path=cache,
                            trainer_kwargs=dict(SCHEDULE)).run(
                                numpy_lambdas, warmups=np.array(WARMUPS))
        assert factory.calls == 0  # every numpy-keyed point hit
        assert len(resumed.points) == len(LAMBDAS) * len(WARMUPS)

    def test_put_accepts_numpy_typed_point(self, tmp_path):
        """`put` used to crash with `TypeError: Object of type int64 is
        not JSON serializable` when dilations/params were numpy ints."""
        path = str(tmp_path / "np.json")
        point = DSEPoint(
            lam=np.float64(0.5), warmup_epochs=np.int64(1),
            dilations=(np.int64(1), np.int64(4)), params=np.int64(123),
            loss=np.float64(0.25),
            metrics={"latency_ms": np.float64(7.5), "macs": np.int64(80)})
        cache = DSECache(path)
        cache.put("k", point)  # must not raise

        with open(path) as handle:
            entry = json.load(handle)["points"]["k"]
        assert entry["params"] == 123 and isinstance(entry["params"], int)
        assert entry["dilations"] == [1, 4]
        assert entry["metrics"] == {"latency_ms": 7.5, "macs": 80}

        restored = DSECache(path).get("k")
        assert restored.params == 123
        assert restored.dilations == (1, 4)
        assert restored.metrics["latency_ms"] == 7.5


class TestCacheVersions:
    def test_file_format_is_current_with_metrics_and_status(self, tmp_path):
        cache = str(tmp_path / "dse.json")
        _sweep(workers=0, cache_path=cache)
        with open(cache) as handle:
            payload = json.load(handle)
        assert payload["version"] == DSECache.VERSION
        for entry in payload["points"].values():
            assert entry["metrics"] == {}  # no evaluators ran
            assert entry["status"] == "ok"
            assert entry["error"] is None

    def test_v1_file_resumes_without_retraining(self, tmp_path):
        """Migration path: a version-1 file (no metrics key) loads and
        satisfies every grid point of an evaluator-less resume."""
        cache = str(tmp_path / "dse.json")
        first = _sweep(workers=0, cache_path=cache)
        with open(cache) as handle:
            payload = json.load(handle)
        for entry in payload["points"].values():
            del entry["metrics"]  # exactly what v1 writers produced
        payload["version"] = 1
        with open(cache, "w") as handle:
            json.dump(payload, handle)

        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == 0
        _assert_identical(first, resumed)
        assert all(p.metrics == {} for p in resumed.points)

    def test_v2_file_resumes_without_retraining(self, tmp_path):
        """A version-2 file (no status/error/attempts keys) loads and
        its entries are served as healthy points."""
        cache = str(tmp_path / "dse.json")
        first = _sweep(workers=0, cache_path=cache)
        with open(cache) as handle:
            payload = json.load(handle)
        for entry in payload["points"].values():
            for key in ("status", "error", "attempts"):
                entry.pop(key, None)  # exactly what v2 writers produced
        payload["version"] = 2
        with open(cache, "w") as handle:
            json.dump(payload, handle)

        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == 0
        _assert_identical(first, resumed)
        assert all(p.ok for p in resumed.points)

    def test_backend_keyed_v3_entries_load_but_are_not_served(self,
                                                              tmp_path):
        """A v3 file written while the conv kernels were selectable keys
        every entry with a backend field after the tag.  It loads without
        error; its entries are not served (other kernels trained them), so
        the sweep retrains; and the new entries merge into the file
        without dropping the old ones."""
        cache = str(tmp_path / "dse.json")
        _sweep(workers=0, cache_path=cache)
        with open(cache) as handle:
            payload = json.load(handle)
        legacy = {_backend_keyed(key): entry
                  for key, entry in payload["points"].items()}
        payload["points"] = legacy
        with open(cache, "w") as handle:
            json.dump(payload, handle)

        assert len(DSECache(cache)) == len(legacy)
        factory = CountingFactory()
        resumed = _sweep(workers=0, cache_path=cache, factory=factory)
        assert factory.calls == _expected_builds(LAMBDAS, WARMUPS)
        assert all(p.ok for p in resumed.points)
        with open(cache) as handle:
            merged = json.load(handle)["points"]
        assert len(merged) == 2 * len(legacy)
        assert {k: merged[k] for k in legacy} == legacy

    def test_old_file_upgraded_on_next_write(self, tmp_path):
        path = str(tmp_path / "dse.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "points": {}}, handle)
        cache = DSECache(path)  # accepted
        cache.put("k", DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                                params=1, loss=0.5))
        with open(path) as handle:
            assert json.load(handle)["version"] == DSECache.VERSION


class TestPointEvaluators:
    def _sweep(self, cache_path=None, factory=Tiny, evaluators=None):
        train, val = _loaders()
        engine = DSEEngine(factory, mse_loss, train, val,
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
        cache = str(tmp_path / "dse.json")
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
        cache = str(tmp_path / "dse.json")
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
        cache = str(tmp_path / "dse.json")
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
    def test_run_dse_accepts_engine_knobs(self, tmp_path):
        train, val = _loaders()
        result = run_dse(Tiny, mse_loss, train, val, lambdas=LAMBDAS,
                         warmups=[0], trainer_kwargs=dict(SCHEDULE),
                         workers=2, cache_path=str(tmp_path / "c.json"))
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
    """REPRO_DSE_WORKERS / REPRO_DSE_EXECUTOR seed the engine the way
    REPRO_DSE_STACK seeds stack width (the CI fault-injection leg uses
    them to force pooled process execution); explicit arguments win."""

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DSE_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_DSE_EXECUTOR", raising=False)
        assert workers_default() == 0
        assert executor_default() == "thread"
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val)
        assert engine.workers == 0 and engine.executor == "thread"

    def test_env_seeds_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "3")
        monkeypatch.setenv("REPRO_DSE_EXECUTOR", "process")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val)
        assert engine.workers == 3 and engine.executor == "process"

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "3")
        monkeypatch.setenv("REPRO_DSE_EXECUTOR", "process")
        train, val = _loaders()
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=0,
                           executor="thread")
        assert engine.workers == 0 and engine.executor == "thread"

    def test_bad_env_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_WORKERS", "-1")
        with pytest.raises(ValueError, match="REPRO_DSE_WORKERS"):
            workers_default()
        monkeypatch.setenv("REPRO_DSE_WORKERS", "2")
        monkeypatch.setenv("REPRO_DSE_EXECUTOR", "fibers")
        train, val = _loaders()
        with pytest.raises(ValueError, match="executor"):
            DSEEngine(Tiny, mse_loss, train, val)
