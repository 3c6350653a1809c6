"""Fault-tolerant sweep execution, driven by the deterministic
fault-injection harness (:mod:`repro.testing.faults`).

The contract under test: a failing grid point becomes a
``status="failed"`` :class:`DSEPoint` instead of an exception, transient
failures retry with backoff, hung points time out, dying process-pool
workers are survived (with poison points quarantined), corrupt cache
point files are quarantined — and after any amount of injected chaos, a
cache-backed faultless re-run is bit-identical to a sweep that never saw
a fault.
"""

import glob
import os
import threading

import numpy as np
import pytest

from repro.core import DivergedError, PITConv1d
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import (
    DSECache,
    DSEEngine,
    DSEPoint,
    format_failures,
    pareto_front,
    select_small_medium_large,
)
from repro.core.checkpoint import key_tag
from repro.evaluation.dse import DSEResult, _failed_point
from repro.nn import CausalConv1d, Module, ReLU, mse_loss
from repro.nn.serialization import save_state
from repro.testing import faults

LAMBDAS = [0.0, 2.0]
WARMUPS = [0, 1]
SCHEDULE = dict(gamma_lr=0.2, max_prune_epochs=2, finetune_epochs=1)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no armed faults and no history."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)
    faults.reset()
    yield
    faults.reset()


class Tiny(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=9, rng=rng)
        self.r = ReLU()
        self.h = CausalConv1d(2, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r(self.c(x)))


class CountingFactory:
    """Factory that counts the seeds it builds in this process.

    Pool workers build their seeds in other processes, where this count
    never moves.  The lock keeps the factory from pickling, so a pooled
    engine refuses it at construction instead of counting nothing: tests
    that count builds use :func:`_serial_engine`.
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        return Tiny()


def _loaders(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 1, 10))
    y = np.concatenate([np.zeros((12, 1, 1)), x[:, :, :-1]], axis=2)
    train = DataLoader(ArrayDataset(x[:8], y[:8]), 4)
    val = DataLoader(ArrayDataset(x[8:], y[8:]), 4)
    return train, val


def _engine(factory=Tiny, **kw):
    train, val = _loaders()
    kw.setdefault("trainer_kwargs", dict(SCHEDULE))
    kw.setdefault("stack", 1)  # the fault accounting below is per-point
    return DSEEngine(factory, mse_loss, train, val, **kw)


def _serial_engine(factory=Tiny, **kw):
    """In-process engine even under REPRO_DSE_WORKERS (the CI fault leg):
    these tests count factory calls or parent-side warnings, which pool
    workers would hide."""
    kw.setdefault("workers", 0)
    return _engine(factory, **kw)


def _assert_identical(a: DSEResult, b: DSEResult) -> None:
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert (pa.lam, pa.warmup_epochs) == (pb.lam, pb.warmup_epochs)
        assert pa.dilations == pb.dilations
        assert pa.params == pb.params
        assert pa.loss == pb.loss  # bit-identical, not allclose
        assert pa.result is not None and pb.result is not None
        assert pa.result.best_val == pb.result.best_val


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------

class TestSpecParsing:
    def test_full_spec(self):
        spec = "worker_crash@point=3,nan_loss@point=5&times=2,cache_corrupt"
        crash, nan, corrupt = faults.parse_faults(spec)
        assert crash.kind == "worker_crash" and crash.param("point") == 3
        assert crash.times == 1
        assert nan.kind == "nan_loss" and nan.param("point") == 5
        assert nan.times == 2
        assert corrupt.kind == "cache_corrupt" and corrupt.params == ()

    def test_value_coercion(self):
        fault, = faults.parse_faults("hang@seconds=1.5&label=x&point=2")
        assert fault.param("seconds") == 1.5
        assert fault.param("label") == "x"
        assert fault.param("point") == 2
        assert fault.param("missing", "d") == "d"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_faults("worker_carsh@point=1")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="malformed fault param"):
            faults.parse_faults("nan_loss@point")

    def test_empty_tokens_skipped(self):
        assert len(faults.parse_faults("nan_loss, ,transient,")) == 2


class TestFiring:
    def test_fast_path_without_env(self):
        assert faults.fire("nan_loss") is None

    def test_times_bounds_firing(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@times=2")
        assert faults.fire("transient") is not None
        assert faults.fire("transient") is not None
        assert faults.fire("transient") is None  # slots exhausted
        faults.reset()  # in-process history forgotten
        assert faults.fire("transient") is not None

    def test_point_scope_matching(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=3")
        assert faults.fire("transient") is None  # no scope, no match
        with faults.point_scope((1, 2)):
            assert faults.fire("transient") is None
        with faults.point_scope((2, 3)):
            assert faults.current_points() == (2, 3)
            assert faults.fire("transient") is not None
        assert faults.current_points() is None  # scope restored

    def test_ctx_param_matching(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "conn_drop@tick=7")
        assert faults.fire("conn_drop", tick=6) is None
        assert faults.fire("conn_drop", tick=7) is not None

    def test_state_dir_claims_survive_reset(self, monkeypatch, tmp_path):
        """With REPRO_FAULTS_STATE set, slots are claim files — the
        cross-process once-only mechanism — so reset() cannot re-arm."""
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash@times=2")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path))
        fault = faults.parse_faults("worker_crash@times=2")[0]
        assert faults._claim(fault) and faults._claim(fault)
        assert not faults._claim(fault)
        faults.reset()
        assert not faults._claim(fault)  # claims live on disk
        assert len(list(tmp_path.iterdir())) == 2


# ----------------------------------------------------------------------
# Per-point failure isolation + retries
# ----------------------------------------------------------------------

class TestFailureIsolation:
    def test_nan_loss_becomes_failed_point(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "nan_loss@point=1")
        engine = _engine()
        result = engine.run(LAMBDAS, warmups=[0])
        failed, = result.failed_points
        assert failed.lam == LAMBDAS[1]
        assert "DivergedError" in failed.error
        assert len(result.ok_points) == 1
        assert engine.last_run_stats["failed"] == 1

    def test_selections_skip_failed_points(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "nan_loss@point=0")
        result = _engine().run(LAMBDAS, warmups=[0])
        front = result.pareto()
        assert front and all(p.ok for p in front)
        assert result.best_loss().ok and result.smallest().ok
        chosen = select_small_medium_large(result.points, 10)
        assert all(p.ok for p in chosen.values())

    def test_all_points_failed(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "nan_loss@times=99")
        result = _engine().run(LAMBDAS, warmups=[0])
        assert len(result.failed_points) == 2
        assert result.pareto() == []
        with pytest.raises(ValueError, match="every grid point failed"):
            result.best_loss()
        with pytest.raises(ValueError, match="every grid point failed"):
            result.smallest()

    def test_transient_fault_retried(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=0")
        engine = _engine(retries=1, retry_backoff=0.0)
        result = engine.run(LAMBDAS, warmups=[0])
        assert all(p.ok for p in result.points)
        assert result.points[0].attempts == 2
        assert result.points[1].attempts == 1
        assert engine.last_run_stats["retried"] == 1

    def test_without_retries_transient_fails(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=0")
        result = _engine(retries=0).run(LAMBDAS, warmups=[0])
        failed, = result.failed_points
        assert "TransientFault" in failed.error

    def test_diverged_never_retried(self, monkeypatch):
        """Divergence is deterministic (same seed, same data, same NaN);
        retrying would burn the epochs again for the same outcome."""
        monkeypatch.setenv(faults.ENV_FAULTS, "nan_loss@point=0&times=5")
        result = _engine(retries=3, retry_backoff=0.0).run(LAMBDAS,
                                                           warmups=[0])
        failed, = result.failed_points
        assert failed.attempts == 1

    def test_in_process_worker_crash_is_retryable(self, monkeypatch):
        """A serial sweep has no worker process to kill; worker_crash
        degrades to a retryable InjectedWorkerCrash in-process."""
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash@point=0")
        result = _serial_engine(retries=1, retry_backoff=0.0).run(
            LAMBDAS, warmups=[0])
        assert all(p.ok for p in result.points)
        assert result.points[0].attempts == 2

    def test_failed_cache_entries_are_retried_on_resume(self, monkeypatch,
                                                        tmp_path,
                                                        cache_entries):
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "transient@point=0")
        faulted = _serial_engine(cache_path=cache).run(LAMBDAS, warmups=[0])
        assert len(faulted.failed_points) == 1
        recorded = cache_entries(cache)
        assert sorted(e["status"] for e in recorded.values()) \
            == ["failed", "ok"]  # the failure is persisted provenance

        monkeypatch.delenv(faults.ENV_FAULTS)
        factory = CountingFactory()
        resumed = _serial_engine(factory, cache_path=cache).run(LAMBDAS,
                                                                warmups=[0])
        assert factory.calls == 1  # only the failed point retrained
        assert all(p.ok for p in resumed.points)
        _assert_identical(_serial_engine().run(LAMBDAS, warmups=[0]), resumed)

    def test_engine_validates_reliability_knobs(self):
        train, val = _loaders()
        with pytest.raises(ValueError, match="retries"):
            DSEEngine(Tiny, mse_loss, train, val, retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            DSEEngine(Tiny, mse_loss, train, val, retry_backoff=-0.1)
        with pytest.raises(ValueError, match="point_timeout"):
            DSEEngine(Tiny, mse_loss, train, val, point_timeout=0.0)
        for every in (0, -1):
            with pytest.raises(ValueError, match="checkpoint_every"):
                DSEEngine(Tiny, mse_loss, train, val, checkpoint_dir="ck",
                          checkpoint_every=every)

    def test_clean_run_reports_zero_stats(self):
        engine = _engine(workers=2)
        engine.run(LAMBDAS, warmups=[0])
        stats = engine.last_run_stats
        assert stats["pool_deaths"] == 0 and stats["timeouts"] == 0
        assert stats["failed"] == 0 and not stats["degraded"]
        assert stats["quarantined"] == []


class TestTimeouts:
    def test_hung_point_times_out_others_complete(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "hang@point=0&seconds=2.0")
        engine = _engine(workers=2, point_timeout=0.25)
        result = engine.run(LAMBDAS, warmups=[0])
        failed, = result.failed_points
        assert failed.lam == LAMBDAS[0]
        assert "timeout" in failed.error
        assert result.points[1].ok
        assert engine.last_run_stats["timeouts"] == 1

    def test_timed_out_point_is_never_retried(self):
        """The budget covers every attempt: a retry would pay it again."""
        engine = _engine(retries=2, retry_backoff=0.0, point_timeout=1e-6)
        failed, = engine.run(LAMBDAS[:1], warmups=[0]).points
        assert failed.error == "timeout: exceeded 1e-06s per point"
        assert failed.attempts == 1
        assert engine.last_run_stats["timeouts"] == 1
        assert engine.last_run_stats["retried"] == 0

    def test_same_point_times_out_at_every_worker_count(self, monkeypatch):
        """The step guard of the training driver enforces the deadline, so
        a point that trains past it fails with the same error in-process
        and in a pool worker, and the other point trains at both."""
        monkeypatch.setenv(faults.ENV_FAULTS, "hang@point=0&seconds=1.5")
        outcomes = []
        for workers in (1, 2):
            faults.reset()
            engine = _engine(workers=workers, point_timeout=1.0)
            result = engine.run(LAMBDAS, warmups=[0])
            assert [p.ok for p in result.points] == [False, True]
            assert engine.last_run_stats["timeouts"] == 1
            outcomes.append((result.points[0].error,
                             result.points[0].attempts))
        assert outcomes == [("timeout: exceeded 1s per point", 1)] * 2


class TestInterrupts:
    def test_interrupt_propagates_and_sweep_resumes(self, monkeypatch,
                                                    tmp_path):
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "interrupt@point=1")
        with pytest.raises(KeyboardInterrupt):
            _serial_engine(cache_path=cache).run(LAMBDAS, warmups=[0])
        assert len(DSECache(cache)) == 1  # the completed point survived

        monkeypatch.delenv(faults.ENV_FAULTS)
        factory = CountingFactory()
        resumed = _serial_engine(factory, cache_path=cache).run(LAMBDAS,
                                                                warmups=[0])
        assert factory.calls == 1
        _assert_identical(_serial_engine().run(LAMBDAS, warmups=[0]), resumed)

    def test_pooled_interrupt_reraises(self, monkeypatch):
        """A KeyboardInterrupt raised in a pool worker reaches the parent
        through the future and escapes run()."""
        monkeypatch.setenv(faults.ENV_FAULTS, "interrupt@point=0")
        with pytest.raises(KeyboardInterrupt):
            _engine(workers=2).run(LAMBDAS, warmups=[0])


# ----------------------------------------------------------------------
# Worker-crash recovery (real process pools)
# ----------------------------------------------------------------------

class TestWorkerCrashRecovery:
    def test_broken_pool_is_rebuilt_and_sweep_completes(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2)
        result = engine.run(LAMBDAS, warmups=[0])
        assert all(p.ok for p in result.points)
        assert engine.last_run_stats["pool_deaths"] >= 1

    def test_poison_point_quarantined(self, monkeypatch, tmp_path):
        """A point that kills workers every time must not kill the sweep:
        after QUARANTINE_KILLS solo deaths it is quarantined as failed."""
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash@point=0&times=99")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2)
        with pytest.warns(UserWarning):
            result = engine.run(LAMBDAS, warmups=[0])
        poison, survivor = result.points
        assert not poison.ok and "quarantined" in poison.error
        assert survivor.ok
        assert (LAMBDAS[0], 0) in engine.last_run_stats["quarantined"]

    def test_parent_stores_the_quarantined_point(self, monkeypatch,
                                                  tmp_path, cache_entries):
        """No task returns a quarantined point, so the parent writes its
        failed record; the survivor's file is its worker's."""
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash@point=0&times=99")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        cache = str(tmp_path / "dse")
        with pytest.warns(UserWarning):
            result = _engine(workers=2, cache_path=cache).run(LAMBDAS,
                                                              warmups=[0])
        _assert_cache_holds(cache, result.points, cache_entries)
        assert "quarantined" in cache_entries(cache)[DSECache.key(
            LAMBDAS[0], 0, dict(SCHEDULE))]["error"]

    def test_repeated_deaths_degrade_to_sequential(self, monkeypatch,
                                                   tmp_path):
        """Past the pool-death budget the engine stops trusting pools and
        finishes the grid in-process (budget pinned to 1 for speed)."""
        monkeypatch.setattr("repro.evaluation.dse.MAX_POOL_DEATHS", 1)
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2)
        with pytest.warns(UserWarning, match="sequential"):
            result = engine.run(LAMBDAS, warmups=[0])
        assert all(p.ok for p in result.points)
        assert engine.last_run_stats["degraded"] is True

    def test_recovery_claims_worker_flushed_points(self, monkeypatch,
                                                   tmp_path):
        """Workers write each completed point to the cache; pool-death
        recovery claims those from disk instead of retraining them."""
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "worker_crash")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2, cache_path=cache)
        result = engine.run(LAMBDAS, warmups=WARMUPS)
        assert all(p.ok for p in result.points)
        assert len(DSECache(cache)) == len(result.points)


# ----------------------------------------------------------------------
# Cache corruption quarantine
# ----------------------------------------------------------------------

class TestCacheCorruption:
    @staticmethod
    def _seed_cache(path):
        """A cache at ``path`` holding point ``"k"``; its file's path."""
        DSECache(path).put("k", DSEPoint(lam=0.0, warmup_epochs=0,
                                         dilations=(1,), params=1, loss=0.5))
        return os.path.join(path, key_tag("k") + DSECache.SUFFIX)

    def test_truncated_file_quarantined(self, tmp_path):
        path = str(tmp_path / "dse")
        file = self._seed_cache(path)
        raw = open(file, "rb").read()
        with open(file, "wb") as handle:
            handle.write(raw[: len(raw) // 2])  # killed mid-write
        cache = DSECache(path)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.get("k") is None  # reads as missing
        assert os.path.exists(file + ".corrupt")
        assert not os.path.exists(file)  # moved, not copied
        assert len(cache) == 0
        cache.put("k", DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,),
                                params=1, loss=0.5))
        assert DSECache(path).get("k") is not None  # healthy again

    def test_garbage_bytes_quarantined(self, tmp_path):
        path = str(tmp_path / "dse")
        file = self._seed_cache(path)
        with open(file, "wb") as handle:
            handle.write(b"\x89PNG\x0d\x0a\x1a\x0a not json \xff\xfe")
        with pytest.warns(UserWarning, match="corrupt"):
            assert DSECache(path).get("k") is None
        assert os.path.exists(file + ".corrupt")

    def test_non_object_payload_quarantined(self, tmp_path):
        """A point file that passes its checksum but holds no point
        record is quarantined too."""
        path = str(tmp_path / "dse")
        file = self._seed_cache(path)
        save_state({}, file, metadata=[1, 2, 3])
        with pytest.warns(UserWarning, match="corrupt"):
            assert DSECache(path).get("k") is None
        assert os.path.exists(file + ".corrupt")

    def test_unsupported_version_still_raises(self, tmp_path):
        """A *valid* cache file of the single-JSON-file format is a format
        mismatch, not corruption: it raises, and stays where it is."""
        path = tmp_path / "dse.json"
        path.write_text('{"version": 3, "points": {}}')
        with pytest.raises(ValueError, match="is a file"):
            DSECache(str(path))
        assert path.read_text() == '{"version": 3, "points": {}}'

    @staticmethod
    def _resume_costs_corrupted_points(cache, first, warmups):
        """Resume ``first``'s sweep from ``cache`` after it ran with
        cache_corrupt armed: each corrupted point file is quarantined with
        a warning, exactly those points retrain, and the resumed result
        is bit-identical to ``first``.  Returns how many were corrupted."""
        factory = CountingFactory()
        with pytest.warns(UserWarning, match="corrupt") as caught:
            resumed = _serial_engine(factory, cache_path=cache).run(
                LAMBDAS, warmups=warmups)
        corrupted = len(glob.glob(os.path.join(cache, "*.corrupt")))
        assert sum("corrupt" in str(w.message) for w in caught) == corrupted
        assert factory.calls == corrupted
        _assert_identical(first, resumed)
        return corrupted

    def test_cache_corrupt_fault_end_to_end(self, monkeypatch, tmp_path):
        """Injected corruption of one point file costs that point alone:
        the resume quarantines the file and retrains only its point."""
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "cache_corrupt")
        first = _serial_engine(cache_path=cache).run(LAMBDAS, warmups=[0])
        assert all(p.ok for p in first.points)

        monkeypatch.delenv(faults.ENV_FAULTS)
        assert self._resume_costs_corrupted_points(cache, first, [0]) == 1

    def test_pooled_cache_corrupt_fault_retrains_only_corrupted_points(
            self, monkeypatch, tmp_path):
        """Without ``REPRO_FAULTS_STATE`` the fault fires once in every
        pool worker, on the first point file that worker writes; the
        resume retrains exactly the points whose files were corrupted."""
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "cache_corrupt")
        first = _engine(workers=2, cache_path=cache).run(LAMBDAS,
                                                         warmups=WARMUPS)
        assert all(p.ok for p in first.points)

        monkeypatch.delenv(faults.ENV_FAULTS)
        corrupted = self._resume_costs_corrupted_points(cache, first,
                                                        WARMUPS)
        assert 1 <= corrupted <= 2


# ----------------------------------------------------------------------
# Chaos parity: the acceptance scenario
# ----------------------------------------------------------------------

def _assert_cache_holds(cache, points, cache_entries, same_run=True):
    """``cache`` holds exactly one file per point of ``points`` and no
    other: an ok point is served back equal to ``points``' in dilations,
    params, loss and metrics (and ``result``, timings included, when the
    cache was written by the run that returned ``points``); a failed
    point is stored but not served."""
    keys = [DSECache.key(p.lam, p.warmup_epochs, dict(SCHEDULE))
            for p in points]
    assert sorted(os.listdir(cache)) == sorted(
        key_tag(key) + DSECache.SUFFIX for key in keys)
    stored = cache_entries(cache)
    for key, point in zip(keys, points):
        served = DSECache(cache).get(key)
        assert stored[key]["status"] == point.status
        if not point.ok:
            assert served is None
            continue
        assert (served.dilations, served.params, served.loss,
                served.metrics) == (point.dilations, point.params,
                                    point.loss, point.metrics)
        if same_run:
            assert served.result == point.result


class TestChaosParity:
    def test_chaos_sweep_then_faultless_resume_is_bit_identical(
            self, monkeypatch, tmp_path, cache_entries):
        """worker_crash + nan_loss injected into a pooled process sweep:
        run() completes, only the poisoned point fails, and a cache-backed
        faultless re-run is bit-identical to a never-faulted sweep."""
        baseline = _serial_engine().run(LAMBDAS, warmups=WARMUPS)

        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS,
                           "worker_crash@point=0,nan_loss@point=3")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2, cache_path=cache)
        chaos = engine.run(LAMBDAS, warmups=WARMUPS)
        assert engine.last_run_stats["pool_deaths"] >= 1
        failed, = chaos.failed_points
        assert (failed.lam, failed.warmup_epochs) == (LAMBDAS[1], WARMUPS[1])
        assert "DivergedError" in failed.error
        assert len(chaos.ok_points) == 3
        _assert_cache_holds(cache, chaos.points, cache_entries)

        monkeypatch.delenv(faults.ENV_FAULTS)
        monkeypatch.delenv(faults.ENV_STATE)
        factory = CountingFactory()
        resumed = _serial_engine(factory, cache_path=cache).run(LAMBDAS,
                                                                warmups=WARMUPS)
        assert factory.calls == 1  # only the poisoned point retrained
        _assert_identical(baseline, resumed)

    def test_interrupted_sweep_caches_exactly_its_finished_points(
            self, monkeypatch, tmp_path, cache_entries):
        """An in-process sweep stopped by an interrupt returns nothing; the
        points finished before it each have their file, the others none."""
        baseline = _serial_engine().run(LAMBDAS, warmups=WARMUPS)
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "interrupt@point=2")
        with pytest.raises(KeyboardInterrupt):
            _serial_engine(cache_path=cache).run(LAMBDAS, warmups=WARMUPS)
        _assert_cache_holds(cache, baseline.points[:2], cache_entries,
                            same_run=False)

    def test_resume_parity_composes_with_stack_and_compile(self, monkeypatch,
                                                           tmp_path):
        """Satellite: a fault-killed sweep resumed through the cache stays
        bit-identical under stacked + compiled execution too."""
        baseline = _serial_engine(stack=2).run(
            LAMBDAS, warmups=WARMUPS)

        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "interrupt@point=2")
        with pytest.raises(KeyboardInterrupt):
            _serial_engine(stack=2, cache_path=cache).run(
                LAMBDAS, warmups=WARMUPS)

        monkeypatch.delenv(faults.ENV_FAULTS)
        factory = CountingFactory()
        resumed = _serial_engine(factory, stack=2, cache_path=cache).run(
            LAMBDAS, warmups=WARMUPS)
        assert factory.calls == 1  # one build for the missing stacked chunk
        _assert_identical(baseline, resumed)


# ----------------------------------------------------------------------
# Mid-epoch crashes: checkpoints resume in-flight points, the cache
# skips finished ones
# ----------------------------------------------------------------------

class TestCrashResumeChaos:
    def test_checkpoint_fault_kinds_parse(self):
        crash, corrupt = faults.parse_faults("crash@epoch=2,ckpt_corrupt")
        assert crash.kind == "crash" and crash.param("epoch") == 2
        assert corrupt.kind == "ckpt_corrupt" and corrupt.params == ()

    def test_sequential_crash_retries_and_resumes(self, monkeypatch,
                                                  tmp_path):
        """In-process, an injected epoch crash surfaces as a transient
        fault; the retry picks up the checkpoint and the final sweep is
        bit-identical to a never-faulted one."""
        baseline = _serial_engine().run(LAMBDAS, warmups=WARMUPS)

        monkeypatch.setenv(faults.ENV_FAULTS, "crash@epoch=2")
        engine = _serial_engine(checkpoint_dir=str(tmp_path / "ckpt"),
                                retries=1, retry_backoff=0.0)
        chaos = engine.run(LAMBDAS, warmups=WARMUPS)
        assert not chaos.failed_points
        assert engine.last_run_stats["retried"] >= 1
        assert engine.last_run_stats["resumed_epochs"] > 0
        _assert_identical(baseline, chaos)

    def test_pooled_crash_kills_worker_and_sweep_resumes(self, monkeypatch,
                                                         tmp_path):
        """Acceptance scenario: a pooled process sweep loses a worker to a
        real mid-epoch death (os._exit); the resubmitted chunk resumes
        from its checkpoint and the result is bit-identical."""
        baseline = _serial_engine().run(LAMBDAS, warmups=WARMUPS)

        monkeypatch.setenv(faults.ENV_FAULTS, "crash@epoch=2")
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "state"))
        os.makedirs(tmp_path / "state")
        engine = _engine(workers=2,
                         checkpoint_dir=str(tmp_path / "ckpt"),
                         cache_path=str(tmp_path / "dse"))
        chaos = engine.run(LAMBDAS, warmups=WARMUPS)
        assert engine.last_run_stats["pool_deaths"] >= 1
        assert engine.last_run_stats["resumed_epochs"] > 0
        assert not chaos.failed_points
        _assert_identical(baseline, chaos)

    def test_without_checkpoints_crash_restarts_from_scratch(
            self, monkeypatch, tmp_path):
        """No checkpoint_dir: the retry still converges (full retrain),
        but reports zero resumed epochs."""
        baseline = _serial_engine().run(LAMBDAS, warmups=WARMUPS)
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@epoch=2")
        engine = _serial_engine(retries=1, retry_backoff=0.0)
        chaos = engine.run(LAMBDAS, warmups=WARMUPS)
        assert engine.last_run_stats["resumed_epochs"] == 0
        _assert_identical(baseline, chaos)

    def test_single_worker_interrupt_keeps_cache_resumable(
            self, monkeypatch, tmp_path):
        """``workers=1`` runs serially (``run()`` pools only when
        ``workers > 1``); a KeyboardInterrupt mid-sweep must still leave
        completed points in the cache so the next run only trains what
        is missing."""
        cache = str(tmp_path / "dse")
        monkeypatch.setenv(faults.ENV_FAULTS, "interrupt@point=1")
        with pytest.raises(KeyboardInterrupt):
            _engine(workers=1, cache_path=cache).run(LAMBDAS, warmups=[0])

        monkeypatch.delenv(faults.ENV_FAULTS)
        recorded = len(DSECache(cache))
        assert recorded >= 1  # finished work survived the interrupt
        factory = CountingFactory()
        resumed = _engine(factory, workers=1,
                          cache_path=cache).run(LAMBDAS, warmups=[0])
        assert factory.calls == 2 - recorded
        _assert_identical(_serial_engine().run(LAMBDAS, warmups=[0]), resumed)

    def test_stacked_divergence_isolated_to_culprit(self, monkeypatch):
        """One NaN slice poisons the whole stacked loss; the chunk falls
        back to per-point training, which blames only the culprit."""
        monkeypatch.setenv(faults.ENV_FAULTS, "nan_loss@point=2&times=2")
        result = _engine(stack=2).run(LAMBDAS, warmups=WARMUPS)
        failed, = result.failed_points
        assert (failed.lam, failed.warmup_epochs) == (LAMBDAS[0], WARMUPS[1])
        assert "DivergedError" in failed.error
        assert len(result.ok_points) == 3


# ----------------------------------------------------------------------
# Failed-point reporting + Pareto hygiene
# ----------------------------------------------------------------------

class TestReportingAndPareto:
    def test_pareto_front_excludes_nan_points(self):
        front = pareto_front([(1.0, 1.0), (float("nan"), 0.0), (2.0, 0.5)])
        assert 1 not in front
        assert set(front) == {0, 2}

    def test_pareto_front_keeps_inf(self):
        assert pareto_front([(1.0, float("inf")), (2.0, 0.5)]) == [0, 1]

    def test_result_pareto_skips_failed(self):
        ok = DSEPoint(lam=0.0, warmup_epochs=0, dilations=(1,), params=5,
                      loss=0.5)
        failed = _failed_point(1.0, 0, RuntimeError("boom"))
        front = DSEResult(points=[ok, failed]).pareto()
        assert front == [ok]

    def test_format_failures_table(self):
        failed = _failed_point(0.5, 3, RuntimeError("boom"), attempts=2)
        table = format_failures([failed])
        assert "RuntimeError: boom" in table
        assert "lambda" in table and "attempts" in table
