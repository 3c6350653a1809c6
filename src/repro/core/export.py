"""Architecture export: collapse a searched PIT network into a plain TCN.

After the pruning phase every :class:`PITConv1d` encodes a single
power-of-two dilation.  Export replaces each of them with an equivalent
:class:`repro.nn.CausalConv1d` whose kernel keeps only the alive time
slices — the network a user would actually deploy (and the one the GAP8
flow in :mod:`repro.hw` consumes).

The exported layer is *numerically identical* to the masked supernet layer
(same floats on the same inputs): the masked convolution computes

    y[t] = Σ_{lag alive} W[·,·,lag] x[t - lag],   alive = {0, d, 2d, ...}

and the compact convolution with kernel size ``k = len(alive)`` and
dilation ``d`` computes exactly the same sum with the kept taps re-indexed.
This invariant is property-tested in ``tests/test_core_export.py``.

A channel-searched layer (``PITConv1d(min_channels=...)``) also drops its
dead output channels, which changes the input of the layer that consumes
it; :func:`export_channel_conv` collapses one such layer and returns the
surviving channel indices for the caller to propagate.
:func:`export_network` leaves these layers in place, so every deployment
flow still refuses them.
"""

from __future__ import annotations

import copy
import sys
from typing import List, Optional, Tuple

import numpy as np

from ..nn.layers import AvgPool1d, CausalConv1d, Flatten, GlobalAvgPool1d
from ..nn.module import Module, Shapes
from .masks import kept_lags
from .pit_conv import PITConv1d

__all__ = ["NotDeployableError", "export_conv", "export_channel_conv",
           "export_network",
           "deployable_network", "require_exported", "network_dilations", "network_receptive_field",
           "network_total_stride", "network_warmup"]


class NotDeployableError(ValueError):
    """A searchable layer reached a flow that needs a fixed-dilation network."""


def require_exported(model: Module, consumer: str) -> None:
    """Raise :class:`NotDeployableError` if ``model`` has a searchable layer.

    Searchable layers compute every ``rf_max`` tap and carry γ̂ masks, so
    any cost or serving figure derived from them would describe the
    supernet rather than the deployed TCN.
    """
    # A stacked layer exists only once its module is loaded; looking it up
    # instead of importing it keeps the serving path free of the training
    # stack that ``repro.core.stacked`` pulls in.
    stacked = sys.modules.get(f"{__package__}.stacked")
    searchable = (PITConv1d,) if stacked is None else (
        PITConv1d, stacked.StackedPITConv1d)
    for name, module in model.named_modules():
        if isinstance(module, searchable):
            kind, how = type(module).__name__, "repro.core.export_network"
            if getattr(module, "channel_mask", None) is not None:
                kind, how = f"channel-searched {kind}", "export_channel_conv"
            raise NotDeployableError(
                f"{consumer} requires an exported network, but layer "
                f"{name or '<root>'!r} is a searchable {kind}; export it "
                f"first ({how})")


def _compact_conv(layer: PITConv1d, rows: np.ndarray) -> CausalConv1d:
    """The dilated conv of ``layer``'s alive taps, output channels ``rows``."""
    dilation = layer.current_dilation()
    kernel_size = len(kept_lags(layer.rf_max, dilation))
    conv = CausalConv1d(layer.in_channels, len(rows), kernel_size,
                        dilation=dilation, stride=layer.stride,
                        bias=layer.bias is not None)
    # Kernel index i of the full layer corresponds to lag rf_max-1-i; the
    # compact kernel index j corresponds to lag (kernel_size-1-j)*dilation.
    for j in range(kernel_size):
        lag = (kernel_size - 1 - j) * dilation
        source_index = layer.rf_max - 1 - lag
        conv.weight.data[:, :, j] = layer.weight.data[rows, :, source_index]
    if layer.bias is not None:
        conv.bias.data[...] = layer.bias.data[rows]
    return conv


def export_conv(layer: PITConv1d) -> CausalConv1d:
    """Convert one searched PIT layer into a compact dilated convolution."""
    if layer.channel_mask is not None:
        raise ValueError("export_conv collapses time-searched layers only; "
                         "a channel-searched layer needs export_channel_conv")
    return _compact_conv(layer, np.arange(layer.out_channels))


def export_channel_conv(layer: PITConv1d) -> Tuple[CausalConv1d, np.ndarray]:
    """Collapse a channel-searched layer: dilated kernel, alive channels only.

    Returns ``(conv, alive_index)``: the compact :class:`CausalConv1d` and
    the indices of the surviving output channels, which the *consumer*
    layer must use to slice its input weights (only well-defined in a
    linear chain — the caller owns that propagation).
    """
    if layer.channel_mask is None:
        raise ValueError("export_channel_conv needs a channel-searched "
                         "layer (PITConv1d(min_channels=...)); use export_conv")
    alive_index = np.nonzero(layer.channel_mask.current_mask() >= 0.5)[0]
    return _compact_conv(layer, alive_index), alive_index


def export_network(model: Module) -> Module:
    """Deep-copy ``model`` with every ``PITConv1d`` replaced by its export.

    The copy leaves the original searchable model untouched, so the same
    seed can keep exploring other λ values (how Fig. 4's fronts are built).
    Channel-searched layers stay in place (their export changes the next
    layer's input), so :func:`require_exported` still refuses the copy.
    """
    exported = copy.deepcopy(model)
    for module in exported.modules():
        for name, child in list(module._modules.items()):
            if isinstance(child, PITConv1d) and child.channel_mask is None:
                setattr(module, name, export_conv(child))
    return exported


def deployable_network(model: Module) -> Module:
    """The fixed-dilation network a deployment flow should consume.

    Searchable models (any :class:`PITConv1d` left) are exported into a
    compact copy; already-fixed networks pass through untouched — the one
    dispatch point the GAP8 flow and the DSE hardware evaluators share, so
    both accept either kind of model.  A searchable layer this export
    cannot collapse (channel-searched or stacked) raises
    :class:`NotDeployableError`.
    """
    from .regularizer import pit_layers
    network = export_network(model) if pit_layers(model) else model
    require_exported(network, "deployable_network")
    return network


def network_dilations(model: Module) -> Tuple[int, ...]:
    """Per-layer dilations of a searched or exported network (Table I rows).

    Only *temporal* convolutions are reported: 1-tap convolutions
    (pointwise heads, residual downsamples) have no dilation to speak of
    and are skipped, matching the layer lists of paper Table I.  Note the
    per-layer dilations do not compose into a network receptive field on
    their own once any layer has ``stride > 1`` — use
    :func:`network_receptive_field` for that.
    """
    dilations: List[int] = []
    for module in model.modules():
        if isinstance(module, PITConv1d):
            dilations.append(module.current_dilation())
        elif isinstance(module, CausalConv1d) and module.kernel_size > 1:
            dilations.append(module.dilation)
    return tuple(dilations)


def _temporal_layers(model: Module, shapes: Optional[Shapes] = None):
    """Yield ``(span, stride, causal)`` for every temporal layer, in
    declaration order.

    ``span`` is the layer-local input extent one output sample reads
    (``(K-1)*d + 1`` for convolutions, ``rf_max`` for still-searchable PIT
    layers, the window size for pools); ``stride`` is its temporal output
    stride.  ``causal`` says whether the layer pads causally: a
    convolution (and a PIT convolution) left-pads ``span - 1`` zeros, so
    it emits from its first input frame, while a pool is a valid window
    that first emits once ``span`` frames have arrived.  Given the
    ``shapes`` of :func:`repro.nn.module.probe_shapes`,
    ``Flatten``/``GlobalAvgPool1d`` also count, as a non-causal stride-1
    window over the temporal extent of their probed ``(N, C, T)`` input.
    """
    shapes = shapes or {}
    for module in model.modules():
        if isinstance(module, PITConv1d):
            yield module.rf_max, module.stride, True
        elif isinstance(module, CausalConv1d):
            yield module.receptive_field, module.stride, True
        elif isinstance(module, AvgPool1d):
            yield module.kernel_size, module.stride, False
        elif (isinstance(module, (Flatten, GlobalAvgPool1d))
              and module in shapes and len(shapes[module][0]) == 3):
            yield shapes[module][0][2], 1, False


def network_receptive_field(model: Module,
                            shapes: Optional[Shapes] = None) -> int:
    """Composed temporal receptive field of one output sample.

    Composes the per-layer spans with the classic jump recursion

        rf   <- rf + (span_l - 1) * jump
        jump <- jump * stride_l

    so a strided layer correctly *multiplies* the reach of everything
    after it instead of merely adding its own span (``CausalConv1d
    .receptive_field`` alone is layer-local and stride-blind).  Layers are
    composed in declaration order, which matches execution order for the
    sequential seed architectures; parallel branches (e.g. a 1-tap
    residual downsample) contribute 0 to ``rf`` and 1 to ``jump``, so
    they are harmless.  Window layers whose extent depends on the input
    length (``Flatten``/``GlobalAvgPool1d``) count only when ``shapes``
    (a :func:`repro.nn.module.probe_shapes` result) gives their extent —
    how the streaming executor reports the span of one emitted frame.
    """
    rf, jump = 1, 1
    for span, stride, _ in _temporal_layers(model, shapes):
        rf += (span - 1) * jump
        jump *= stride
    return rf


def network_warmup(model: Module, shapes: Optional[Shapes] = None) -> int:
    """Input samples a fresh stream consumes until its first output sample.

    The same walk and jump recursion as :func:`network_receptive_field`,
    but only the non-causal windows add to it: a causal layer emits from
    its first input frame (its padding stands in for the frames it has
    not seen), while a pool or a probed ``Flatten``/``GlobalAvgPool1d``
    window emits once its ``span`` frames have arrived, ``(span - 1) *
    jump`` input samples after its own first frame.  The streaming
    executor's ``warmup_ticks``; frames then follow every
    :func:`network_total_stride` samples.
    """
    warmup, jump = 1, 1
    for span, stride, causal in _temporal_layers(model, shapes):
        if not causal:
            warmup += (span - 1) * jump
        jump *= stride
    return warmup


def network_total_stride(model: Module) -> int:
    """Product of all temporal strides: input samples per output sample."""
    total = 1
    for _, stride, _ in _temporal_layers(model):
        total *= stride
    return total


def effective_parameters(model: Module) -> int:
    """Parameter count of the network *after* export.

    For a searchable model this counts only alive kernel slices of PIT
    layers (plus everything else); for an already-exported model it equals
    ``count_parameters()``.
    """
    total = 0
    counted = set()
    for module in model.modules():
        if isinstance(module, PITConv1d):
            total += module.effective_params()
            for _, p in module.named_parameters():
                counted.add(id(p))
            # γ̂ are search-time parameters, never deployed.
    for _, p in model.named_parameters():
        if id(p) not in counted:
            total += p.data.size
    return total
