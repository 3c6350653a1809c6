"""Analytical performance/energy model of the GAP8 SoC (paper Sec. IV-A/D).

GAP8 is GreenWaves Technologies' parallel ultra-low-power SoC: one I/O core
plus an 8-core RISC-V cluster with DSP ISA extensions, a 64 kB single-cycle
L1 scratchpad, 512 kB of L2, optional external L3, and two DMA engines.
The paper deploys int8 networks on the 8-core cluster at 100 MHz via the
proprietary NN-Tool flow and reports latency/energy (Table III).

Since the silicon is unavailable here, we model per-layer cost analytically
and calibrate the constants against the *published seed-network
measurements*:

* effective MAC throughput at d=1 is ``mac_rate_d1`` MAC/cycle — the value
  3.6 reproduces both published seed latencies (ResTCN d=1: 1002 ms with
  128-frame sequences; TEMPONet d=1: 112.6 ms) within a few percent;
* dilated kernels pay a throughput penalty ``1 + dilation_penalty·log2(d)``
  (strided loads break SIMD/DMA locality) — this reproduces the paper's
  *sub-linear* latency-vs-size scaling (7.4× fewer weights → only 3×
  faster);
* each conv layer's DMA term is the L2 <-> L1 traffic of its explicit
  L1 tiling (:mod:`repro.hw.tiling`);
* the temporal extents every layer is priced at (conv input/output
  lengths, LSTM steps) come from one shape probe of the network at the
  given input shape (:func:`repro.nn.module.probe_shapes`);
* per-layer fixed overhead (kernel setup, im2col, DMA programming) and an
  L3 penalty when weights exceed L2 complete the model;
* energy = latency × average cluster power; Table III is consistent with a
  constant 262 mW (every row satisfies E ≈ 0.262 · latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..nn import LSTM, CausalConv1d, Linear, Module
from ..nn.module import Shapes, probe_shapes
from ..core.export import require_exported
from .tiling import find_tiling, tiling_traffic

__all__ = ["GAP8Config", "LayerCost", "GAP8Report", "GAP8Model"]


@dataclass
class GAP8Config:
    """Hardware constants; defaults calibrated to paper Table III."""
    cluster_cores: int = 8
    frequency_hz: float = 100e6
    l1_bytes: int = 64 * 1024
    l2_bytes: int = 512 * 1024
    mac_rate_d1: float = 3.6          # effective MAC/cycle, whole cluster, d=1
    dilation_penalty: float = 0.30    # throughput divisor grows with log2(d)
    dma_bytes_per_cycle: float = 4.0  # L2 <-> L1 DMA bandwidth
    fixed_cycles_per_layer: float = 2_000.0
    l3_penalty: float = 2.0           # memory-cycle multiplier when spilling to L3
    power_w: float = 0.262            # average cluster+SoC power at 100 MHz
    # RNN steps are sequential matrix-vector products: no weight reuse across
    # a tile, so throughput is memory-bound — the quantitative basis of the
    # paper's "TCNs offer more data reuse / higher arithmetic intensity"
    # premise (Sec. I, via [6]).
    rnn_mac_rate: float = 0.9

    def mac_rate(self, dilation: int) -> float:
        """Effective cluster MAC throughput for a given dilation."""
        return self.mac_rate_d1 / (1.0 + self.dilation_penalty * math.log2(dilation))


@dataclass
class LayerCost:
    """Per-layer deployment cost breakdown."""
    name: str
    kind: str
    macs: int
    weight_bytes: int
    activation_bytes: int
    dilation: int
    compute_cycles: float
    memory_cycles: float
    fixed_cycles: float

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.memory_cycles + self.fixed_cycles


@dataclass
class GAP8Report:
    """Whole-network deployment estimate (one Table III row)."""
    layers: List[LayerCost]
    total_cycles: float
    latency_ms: float
    energy_mj: float
    total_macs: int
    total_weight_bytes: int
    fits_l2: bool

    def summary(self) -> str:
        return (f"{self.total_macs / 1e6:.1f} MMAC, "
                f"{self.total_weight_bytes / 1024:.0f} kB weights, "
                f"{self.latency_ms:.1f} ms, {self.energy_mj:.1f} mJ"
                + ("" if self.fits_l2 else " [L3 spill]"))


class GAP8Model:
    """Estimate latency/energy of a network deployed on the GAP8 cluster.

    Usage::

        model = GAP8Model()
        report = model.estimate(network, input_shape=(1, 88, 128))

    The network must be an *exported* (fixed-dilation) model; searchable
    models are rejected so that reported numbers always describe a
    deployable TCN.
    """

    def __init__(self, config: Optional[GAP8Config] = None):
        self.config = config or GAP8Config()

    # ------------------------------------------------------------------
    def estimate(self, network: Module, input_shape: Tuple[int, ...]) -> GAP8Report:
        """Probe one forward pass for temporal extents; price every layer."""
        require_exported(network, "GAP8Model")
        shapes = probe_shapes(network, input_shape)
        total_weight_bytes = self._network_weight_bytes(network)
        fits_l2 = total_weight_bytes <= self.config.l2_bytes

        layers = []
        for name, module in network.named_modules():
            cost = self._layer_cost(name, module, shapes, fits_l2)
            if cost is not None:
                layers.append(cost)

        total_cycles = sum(layer.cycles for layer in layers)
        latency_s = total_cycles / self.config.frequency_hz
        return GAP8Report(
            layers=layers,
            total_cycles=total_cycles,
            latency_ms=latency_s * 1e3,
            energy_mj=latency_s * self.config.power_w * 1e3,
            total_macs=sum(layer.macs for layer in layers),
            total_weight_bytes=total_weight_bytes,
            fits_l2=fits_l2,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _network_weight_bytes(network: Module) -> int:
        total = 0
        for module in network.modules():
            if isinstance(module, (CausalConv1d, Linear)):
                total += module.weight.data.size  # int8: 1 byte per weight
                if module.bias is not None:
                    total += module.bias.data.size * 4  # int32 biases
            elif isinstance(module, LSTM):
                total += sum(p.data.size for _, p in module.named_parameters())
        return total

    def _layer_cost(self, name: str, module: Module, shapes: Shapes,
                    fits_l2: bool) -> Optional[LayerCost]:
        cfg = self.config
        if not isinstance(module, (CausalConv1d, Linear, LSTM)):
            # BatchNorm folds into the preceding conv at deployment; pooling
            # and activations are memory-bound and folded into the fixed
            # per-layer overhead of their producer.
            return None
        if module not in shapes:
            raise RuntimeError(f"layer {name} was never traced")
        in_shape, out_shape = shapes[module]
        if isinstance(module, CausalConv1d):
            t_in, t_out = in_shape[-1], out_shape[-1]
            macs = (module.in_channels * module.out_channels
                    * module.kernel_size * t_out)
            weight_bytes = module.weight.data.size + (
                module.bias.data.size * 4 if module.bias is not None else 0)
            dilation = module.dilation
            kind = "conv1d"
            # The DMA term comes from an explicit L1 tiling decision.
            tile = find_tiling(module.in_channels, module.out_channels,
                               module.kernel_size, dilation, t_out,
                               l1_bytes=cfg.l1_bytes)
            if tile is None:
                raise ValueError(
                    f"layer {name} cannot be tiled into {cfg.l1_bytes} B of L1")
            traffic = tiling_traffic(
                module.in_channels, module.out_channels,
                module.kernel_size, dilation, t_in, t_out, tile)
            # The memory term below adds weight_bytes once; the rest of
            # the tiled traffic (inputs, outputs, weight re-fetches) lands
            # in act_bytes.
            act_bytes = max(traffic - weight_bytes, 0)
        elif isinstance(module, Linear):
            macs = module.in_features * module.out_features
            weight_bytes = module.weight.data.size + (
                module.bias.data.size * 4 if module.bias is not None else 0)
            act_bytes = module.in_features + module.out_features
            dilation = 1
            kind = "linear"
        else:
            t = in_shape[-1]
            macs = sum(p.data.size for n, p in module.named_parameters()
                       if n.startswith("weight")) * t
            weight_bytes = sum(p.data.size for _, p in module.named_parameters())
            act_bytes = (module.input_size + module.hidden_size) * t
            # Sequential GEMV steps: memory-bound throughput, no dilation.
            compute = macs / cfg.rnn_mac_rate
            memory = (weight_bytes * t + act_bytes) / cfg.dma_bytes_per_cycle
            if not fits_l2:
                memory *= cfg.l3_penalty
            return LayerCost(
                name=name, kind="recurrent", macs=macs,
                weight_bytes=weight_bytes, activation_bytes=act_bytes,
                dilation=1, compute_cycles=compute, memory_cycles=memory,
                fixed_cycles=cfg.fixed_cycles_per_layer * 2)

        compute = macs / (cfg.mac_rate(dilation))
        memory = (weight_bytes + act_bytes) / cfg.dma_bytes_per_cycle
        if not fits_l2:
            memory *= cfg.l3_penalty
        return LayerCost(
            name=name, kind=kind, macs=macs, weight_bytes=weight_bytes,
            activation_bytes=act_bytes, dilation=dilation,
            compute_cycles=compute, memory_cycles=memory,
            fixed_cycles=cfg.fixed_cycles_per_layer)
