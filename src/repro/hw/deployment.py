"""NN-Tool-like deployment flow (paper Sec. IV-A "Deployment").

The paper's flow: take a trained network, quantize it to int8 with
GreenWaves' NN-Tool, and run it on GAP8's 8-core cluster at 100 MHz.  The
:func:`deploy` function reproduces that pipeline on our substrate:

1. export the searchable model (if needed) into a fixed-dilation TCN;
2. int8 fake-quantization with activation-range calibration;
3. quantized-accuracy evaluation on a test loader;
4. latency/energy estimation with the calibrated GAP8 model.

The result is one row of Table III; :func:`format_table_iii` renders a set
of reports in the paper's layout.

:class:`GAP8PointEvaluator` packages the same pipeline as a
:class:`repro.evaluation.DSEEngine` ``point_evaluator``: the sweep trains a
grid point, the evaluator deploys it and annotates the
:class:`~repro.evaluation.DSEPoint` with latency/energy/quantized-loss
metrics — making deployment cost a first-class DSE objective
(``result.pareto(objectives=("params", "latency_ms", "loss"))``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.export import deployable_network
from ..core.trainer import evaluate
from ..nn import Module
from .gap8 import GAP8Config, GAP8Model, GAP8Report
from .quantization import quantize_network

__all__ = ["DeploymentReport", "deploy", "format_table_iii",
           "GAP8PointEvaluator"]


@dataclass
class DeploymentReport:
    """One deployed network: the columns of paper Table III."""
    name: str
    params: int
    float_loss: float
    quantized_loss: float
    latency_ms: float
    energy_mj: float
    gap8: GAP8Report

    def row(self) -> str:
        """Render in the Table III layout."""
        return (f"{self.name:<24s} {self.params / 1e6:7.2f}M "
                f"{self.quantized_loss:8.3f} {self.latency_ms:9.1f} ms "
                f"{self.energy_mj:7.1f} mJ")

    def metrics(self) -> Dict[str, float]:
        """The report as a flat objective dict (DSE ``metrics`` payload)."""
        return {
            "latency_ms": float(self.latency_ms),
            "energy_mj": float(self.energy_mj),
            "quantized_loss": float(self.quantized_loss),
            "float_test_loss": float(self.float_loss),
            "fits_l2": 1.0 if self.gap8.fits_l2 else 0.0,
            "total_macs": float(self.gap8.total_macs),
            "weight_bytes": float(self.gap8.total_weight_bytes),
        }


def deploy(network: Module, loss_fn: Callable, calibration_loader, test_loader,
           input_shape: Tuple[int, ...], name: str = "network",
           quantize: bool = True, bits: int = 8,
           config: Optional[GAP8Config] = None) -> DeploymentReport:
    """Run the full deployment flow on a trained network."""
    network = deployable_network(network)
    float_loss = evaluate(network, loss_fn, test_loader)
    if quantize:
        quantized = quantize_network(network, calibration_loader, bits=bits)
        quantized_loss = evaluate(quantized, loss_fn, test_loader)
    else:
        quantized_loss = float_loss
    report = GAP8Model(config).estimate(network, input_shape)
    return DeploymentReport(
        name=name,
        params=network.count_parameters(),
        float_loss=float_loss,
        quantized_loss=quantized_loss,
        latency_ms=report.latency_ms,
        energy_mj=report.energy_mj,
        gap8=report,
    )


def format_table_iii(reports: Sequence[DeploymentReport]) -> str:
    """Paper-style Table III over a set of deployment reports."""
    from ..evaluation.reporting import format_table
    headers = ["network", "params", "float loss", "int8 loss",
               "latency [ms]", "energy [mJ]", "fits L2"]
    rows = [(r.name, r.params, r.float_loss, r.quantized_loss,
             r.latency_ms, r.energy_mj, bool(r.gap8.fits_l2))
            for r in reports]
    return format_table(headers, rows,
                        formats=[None, "d", ".4f", ".4f", ".1f", ".2f", None])


class GAP8PointEvaluator:
    """Hardware-in-the-loop DSE hook: deploy each trained grid point.

    Called by the sweep as ``evaluator(model, point)`` with the trained
    (possibly still searchable) model; returns the deployment metrics to
    merge into ``DSEPoint.metrics``.  Module-level class (not a closure) so
    a pooled ``DSEEngine(workers=N)`` can pickle it; ``cache_name`` is its
    stable identity inside :class:`repro.evaluation.DSECache` keys and
    encodes everything that changes the metrics — bit width, the
    quantize-or-not flag, input shape, and any non-default hardware
    constants — so e.g. a ``--bits 4`` resume can never be served int8
    numbers cached by a ``--bits 8`` sweep.  (The loss function and the
    loaders are the model/data identity ``cache_tag`` already names.)

    The calibration/test loaders are deep-copied per call (sharing the
    read-only sample arrays), so grid points never thread
    iteration state through each other — the same discipline the engine
    applies to the training loaders, keeping parallel sweeps bit-identical
    to serial ones.

    Usage::

        engine = DSEEngine(factory, loss_fn, train, val,
                           point_evaluators=[GAP8PointEvaluator(
                               loss_fn, val, test, (1, 4, 256))])
    """

    def __init__(self, loss_fn: Callable, calibration_loader, test_loader,
                 input_shape: Tuple[int, ...], *, quantize: bool = True,
                 bits: int = 8, config: Optional[GAP8Config] = None):
        self.loss_fn = loss_fn
        self.calibration_loader = calibration_loader
        self.test_loader = test_loader
        self.input_shape = tuple(input_shape)
        self.quantize = quantize
        self.bits = bits
        self.config = config

    @property
    def cache_name(self) -> str:
        parts = [f"bits={self.bits}" if self.quantize else "no-quant",
                 "shape=" + "x".join(str(d) for d in self.input_shape)]
        if self.config is not None:
            from dataclasses import asdict
            parts.extend(f"{k}={v}"
                         for k, v in sorted(asdict(self.config).items()))
        return f"gap8({','.join(parts)})"

    def __call__(self, network: Module, point=None) -> Dict[str, float]:
        from ..data import clone_loader
        report = deploy(network, self.loss_fn,
                        clone_loader(self.calibration_loader),
                        clone_loader(self.test_loader),
                        self.input_shape,
                        name="" if point is None else f"lam={point.lam:g}",
                        quantize=self.quantize, bits=self.bits,
                        config=self.config)
        return report.metrics()
