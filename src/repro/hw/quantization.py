"""Post-training int8 quantization (the paper deploys "int8-quantized models").

Implements the standard NN-Tool/X-CUBE-AI-style scheme:

* weights: symmetric per-output-channel int8 (zero-point 0);
* activations: affine per-tensor uint8, ranges collected from a calibration
  pass over representative data;
* biases: int32 (kept in float here — they are exact at these scales).

:func:`quantize_network` produces a *fake-quantized* copy of a model: every
``CausalConv1d``/``Linear`` weight is replaced by its quantize-dequantize
image and a :class:`FakeQuant` node is attached to its output, so the float
forward pass reproduces int8 inference numerics (what the accuracy column
of Table III is measured on).
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import CausalConv1d, Linear, Module

__all__ = [
    "QuantizedArray",
    "quantize_array",
    "fake_quantize",
    "FakeQuant",
    "QuantWrapper",
    "quantize_network",
]


@dataclass
class QuantizedArray:
    """Integer codes plus their per-channel decoding scale."""
    q: np.ndarray
    scale: np.ndarray  # one per output channel, broadcastable against q

    def dequantize(self) -> np.ndarray:
        return self.q.astype(np.float64) * self.scale


def quantize_array(x: np.ndarray, bits: int = 8) -> QuantizedArray:
    """Quantize a weight array to symmetric ``bits``-bit integers, one
    scale per output channel (axis 0, which leads both the conv and the
    linear weight layout).

    Each channel maps ``[-max|x|, +max|x|]`` onto the signed integer
    range.  Level accounting (the int8 convention of NN-Tool / X-CUBE-AI,
    which the unit tests pin): ``bits=8`` produces codes in
    ``[-127, 127]`` — 255 live levels with an exact zero and
    ``scale = max|x| / 127``; code −128 exists in int8 but is never
    emitted, keeping the grid symmetric.
    """
    if bits < 2 or bits > 16:
        raise ValueError(f"bits must be in [2, 16], got {bits}")
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    amax = np.abs(x).max(axis=tuple(range(1, x.ndim)), keepdims=True)
    scale = np.where(amax > 0, amax / qmax, 1.0)
    # |x| <= amax means round(x/scale) already lands in [-qmax, qmax];
    # the clip documents (and enforces) that -qmax-1 never appears.
    q = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int32)
    return QuantizedArray(q=q, scale=scale)


def fake_quantize(x: np.ndarray, bits: int = 8) -> np.ndarray:
    """Quantize-dequantize round trip (the int8 image in float arithmetic)."""
    return quantize_array(x, bits).dequantize()


class FakeQuant(Module):
    """Activation fake-quantizer with range calibration.

    In ``calibrating`` mode it records the running min/max of what passes
    through; afterwards it clamps + quantize-dequantizes onto the affine
    grid that maps ``[lo, hi]`` onto all ``2**bits`` unsigned codes
    (``bits=8``: codes 0..255, the uint8 activation grid that pairs with
    the 255-code symmetric int8 weights of :func:`quantize_array`).  The
    zero-point ``round(-lo/scale)`` is an integer, so an in-range 0.0
    decodes exactly — what makes zero-padding and ReLU cut-offs survive
    quantization.

    Using an *uncalibrated* quantizer raises: the old behaviour was a
    silent float passthrough, which made a never-calibrated "quantized"
    network indistinguishable from the float one.  A *degenerate* range
    (``hi == lo``, e.g. a constant activation) collapses to that single
    value — the one-level grid — rather than passing floats through.

    The calibrated range (``lo``/``hi``) and the mode flag are *registered
    buffers*, not plain attributes: a calibrated model checkpointed with
    :mod:`repro.nn.serialization` gets its activation ranges back on load
    (plain attributes silently dropped them, so a reloaded "quantized"
    model ran in float).
    """

    def __init__(self, bits: int = 8):
        super().__init__()
        self.bits = bits
        self.register_buffer("calibrating", np.asarray(True))
        self.register_buffer("lo", np.asarray(np.inf))
        self.register_buffer("hi", np.asarray(-np.inf))

    @property
    def calibrated(self) -> bool:
        """True once a calibration pass has recorded a finite range."""
        return bool(np.isfinite(self.lo) and np.isfinite(self.hi))

    @property
    def degenerate(self) -> bool:
        """True when calibration saw only a single constant value."""
        return self.calibrated and float(self.hi) <= float(self.lo)

    def forward(self, x: Tensor) -> Tensor:
        if self.calibrating:
            if x.data.size:
                self.lo = min(float(self.lo), float(x.data.min()))
                self.hi = max(float(self.hi), float(x.data.max()))
            return x
        if not self.calibrated:
            raise RuntimeError(
                "FakeQuant used without calibration: no data ever passed "
                "through while `calibrating` was set, so the activation "
                "range is unknown (lo=inf). Run calibration batches "
                "through the network (see quantize_network) first.")
        lo, hi = float(self.lo), float(self.hi)
        if hi <= lo:
            # One-level grid: every input decodes to the single observed
            # value (clip keeps the clamping semantics of the normal path).
            return Tensor(np.clip(x.data, lo, lo))
        qmax = 2 ** self.bits - 1
        scale = (hi - lo) / qmax
        zero_point = np.round(-lo / scale)
        q = np.clip(np.round(x.data / scale) + zero_point, 0, qmax)
        return Tensor((q - zero_point) * scale)

    def __repr__(self) -> str:
        return (f"FakeQuant(bits={self.bits}, "
                f"range=({float(self.lo):.3g}, {float(self.hi):.3g}))")


class QuantWrapper(Module):
    """A conv/linear layer with quantized weights and output fake-quant."""

    def __init__(self, layer: Module, bits: int = 8):
        super().__init__()
        layer.weight.data[...] = fake_quantize(layer.weight.data, bits=bits)
        self.layer = layer
        self.act_quant = FakeQuant(bits=bits)

    def forward(self, x: Tensor) -> Tensor:
        return self.act_quant(self.layer(x))

    def __repr__(self) -> str:
        return f"QuantWrapper({self.layer!r})"


def quantize_network(model: Module, calibration_loader, bits: int = 8,
                     max_batches: int = 4) -> Module:
    """Return a fake-quantized deep copy of ``model``.

    Weights are per-channel symmetric int8; activation ranges are calibrated
    by running up to ``max_batches`` batches through the wrapped network.
    """
    quantized = copy.deepcopy(model)
    quantized.eval()
    for module in quantized.modules():
        for name, child in list(module._modules.items()):
            if isinstance(child, (CausalConv1d, Linear)):
                setattr(module, name, QuantWrapper(child, bits=bits))
    # Calibration pass.
    batches = 0
    with no_grad():
        for x, _ in calibration_loader:
            quantized(Tensor(x))
            batches += 1
            if batches >= max_batches:
                break
    if batches == 0:
        raise ValueError(
            "quantize_network: the calibration loader yielded no batches, "
            "so no activation range was observed. The result would be a "
            "float network masquerading as quantized — pass a loader with "
            "at least one batch of representative data.")
    degenerate: List[str] = []
    for name, module in quantized.named_modules():
        if isinstance(module, FakeQuant):
            module.calibrating = False
            if module.degenerate:
                degenerate.append(name or type(module).__name__)
    if degenerate:
        warnings.warn(
            "quantize_network: degenerate activation range (constant "
            f"calibration output) at {degenerate}; these activations "
            "collapse to a single quantization level. Check that the "
            "calibration data is representative.",
            RuntimeWarning, stacklevel=2)
    return quantized

