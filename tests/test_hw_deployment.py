"""Tests for the deployment flow and the hardware-in-the-loop DSE hook.

The contract: a sweep run with ``point_evaluators=[GAP8PointEvaluator
(...)]`` annotates every :class:`DSEPoint` with deployment metrics
(latency_ms, energy_mj, quantized_loss, …), the metrics survive the results
cache, and the N-D Pareto layer can minimize over them.
"""

import numpy as np
import pytest

from repro.core import PITConv1d, deployable_network, export_network
from repro.data import ArrayDataset, DataLoader
from repro.evaluation import DSEEngine, evaluator_name, select_small_medium_large
from repro.hw import GAP8PointEvaluator, deploy, format_table_iii
from repro.nn import CausalConv1d, Module, ReLU, mse_loss

SCHEDULE = dict(gamma_lr=0.2, max_prune_epochs=2, finetune_epochs=1)
METRIC_KEYS = {"latency_ms", "energy_mj", "quantized_loss",
               "float_test_loss", "fits_l2", "total_macs", "weight_bytes"}


class Tiny(Module):
    """Searchable two-layer TCN (same shape as the DSE engine tests)."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = PITConv1d(1, 2, rf_max=9, rng=rng)
        self.r = ReLU()
        self.h = CausalConv1d(2, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r(self.c(x)))


class TinyFixed(Module):
    """Already-exported (fixed-dilation) counterpart."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.c = CausalConv1d(1, 2, 3, dilation=2, rng=rng)
        self.r = ReLU()
        self.h = CausalConv1d(2, 1, 1, rng=rng)

    def forward(self, x):
        return self.h(self.r(self.c(x)))


def _loaders(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12, 1, 10))
    y = np.concatenate([np.zeros((12, 1, 1)), x[:, :, :-1]], axis=2)
    train = DataLoader(ArrayDataset(x[:8], y[:8]), 4)
    val = DataLoader(ArrayDataset(x[8:], y[8:]), 4)
    return train, val


class TestDeployableNetwork:
    def test_searchable_model_is_exported(self):
        model = Tiny()
        network = deployable_network(model)
        assert network is not model
        assert not any(isinstance(m, PITConv1d) for m in network.modules())

    def test_fixed_model_passes_through(self):
        model = TinyFixed()
        assert deployable_network(model) is model

    def test_channel_searched_model_is_rejected(self):
        # export_network collapses time-searched layers only; a
        # channel-searched PITConv1d left in the "deployable" network
        # would still be a supernet layer.
        from repro.core import NotDeployableError
        from repro.nn import Sequential
        rng = np.random.default_rng(0)
        model = Sequential(PITConv1d(2, 4, rf_max=9, min_channels=1, rng=rng),
                           CausalConv1d(4, 3, 3, rng=rng))
        with pytest.raises(NotDeployableError, match="'m0'"):
            deployable_network(model)

    def test_matches_explicit_export(self):
        model = Tiny()
        a = deployable_network(model)
        b = export_network(model)
        assert [type(m).__name__ for m in a.modules()] == \
               [type(m).__name__ for m in b.modules()]


class TestDeploy:
    def test_report_metrics_payload(self):
        train, val = _loaders()
        report = deploy(TinyFixed(), mse_loss, train, val, (1, 1, 10),
                        name="tiny")
        metrics = report.metrics()
        assert set(metrics) == METRIC_KEYS
        assert all(isinstance(v, float) for v in metrics.values())
        assert metrics["latency_ms"] > 0
        assert metrics["energy_mj"] > 0
        assert metrics["fits_l2"] == 1.0

    def test_deploy_accepts_searchable_model(self):
        train, val = _loaders()
        report = deploy(Tiny(), mse_loss, train, val, (1, 1, 10))
        assert report.latency_ms > 0

    def test_no_quantize_reports_float_loss(self):
        train, val = _loaders()
        report = deploy(TinyFixed(), mse_loss, train, val, (1, 1, 10),
                        quantize=False)
        assert report.quantized_loss == report.float_loss

    def test_quantized_loss_close_to_float(self):
        train, val = _loaders()
        report = deploy(TinyFixed(), mse_loss, train, val, (1, 1, 10))
        assert report.quantized_loss == pytest.approx(report.float_loss,
                                                      rel=0.1)

    def test_table_iii_renders_all_reports(self):
        train, val = _loaders()
        reports = [deploy(TinyFixed(), mse_loss, train, val, (1, 1, 10),
                          name=name) for name in ("small", "large")]
        table = format_table_iii(reports)
        assert "small" in table and "large" in table
        assert "latency [ms]" in table and "energy [mJ]" in table


class TestGap8Evaluator:
    def test_factory_returns_named_evaluator(self):
        train, val = _loaders()
        evaluator = GAP8PointEvaluator(mse_loss, train, val, (1, 1, 10))
        assert evaluator_name(evaluator) == "gap8(bits=8,shape=1x1x10)"

    def test_cache_identity_tracks_quantization_settings(self):
        """bits/quantize/shape/config change the metrics, so they must
        change the cache identity — a --bits 4 resume may never be served
        int8 numbers cached by a --bits 8 sweep."""
        from repro.hw import GAP8Config
        train, val = _loaders()

        def name(**kw):
            return evaluator_name(
                GAP8PointEvaluator(mse_loss, train, val, (1, 1, 10), **kw))

        default = name()
        assert name(bits=4) != default
        assert name(quantize=False) != default
        assert name(config=GAP8Config(mac_rate_d1=5.0)) != default
        assert name() == default  # deterministic across instances

    def test_evaluator_returns_metric_dict(self):
        train, val = _loaders()
        evaluator = GAP8PointEvaluator(mse_loss, train, val, (1, 1, 10))
        metrics = evaluator(TinyFixed(), None)
        assert set(metrics) == METRIC_KEYS

    def test_evaluator_does_not_consume_loader_state(self):
        """Deploying must not advance the shared loaders' shuffle RNG —
        the determinism contract of the parallel sweep."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 1, 10))
        loader = DataLoader(ArrayDataset(x, x), 4, shuffle=True,
                            rng=np.random.default_rng(7))
        state = loader.rng.bit_generator.state
        evaluator = GAP8PointEvaluator(mse_loss, loader, loader, (1, 1, 10))
        evaluator(TinyFixed(), None)
        assert loader.rng.bit_generator.state == state


class TestHardwareInTheLoopSweep:
    def _sweep(self, workers=0):
        train, val = _loaders()
        evaluator = GAP8PointEvaluator(mse_loss, val, val, (1, 1, 10))
        engine = DSEEngine(Tiny, mse_loss, train, val, workers=workers,
                           trainer_kwargs=dict(SCHEDULE),
                           point_evaluators=[evaluator])
        return engine.run([0.0, 2.0], warmups=[0])

    def test_points_annotated_with_metrics(self):
        result = self._sweep()
        for point in result.points:
            assert set(point.metrics) == METRIC_KEYS
            assert point.metrics["latency_ms"] > 0

    def test_parallel_metrics_identical_to_serial(self):
        serial = self._sweep(workers=0)
        parallel = self._sweep(workers=2)
        for pa, pb in zip(serial.points, parallel.points):
            assert pa.metrics == pb.metrics  # bit-identical

    def test_hw_pareto_front(self):
        result = self._sweep()
        front = result.pareto(objectives=("params", "latency_ms", "loss"))
        assert front  # non-empty
        assert all(set(p.metrics) == METRIC_KEYS for p in front)

    def test_latency_aware_selection(self):
        result = self._sweep()
        sel = select_small_medium_large(result.points,
                                        objective="latency_ms",
                                        reference=0.0)
        assert sel["small"].metrics["latency_ms"] <= \
               sel["large"].metrics["latency_ms"]
