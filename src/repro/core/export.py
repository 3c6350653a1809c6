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
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

import numpy as np

from ..nn.layers import CausalConv1d
from ..nn.module import Module
from .masks import kept_lags
from .pit_conv import PITConv1d

__all__ = ["NotDeployableError", "export_conv", "export_network",
           "deployable_network", "require_exported", "network_dilations", "network_receptive_field",
           "network_total_stride", "network_summary"]


class NotDeployableError(ValueError):
    """A searchable layer reached a flow that needs a fixed-dilation network."""


def require_exported(model: Module, consumer: str) -> None:
    """Raise :class:`NotDeployableError` if ``model`` has a searchable layer.

    Searchable layers compute every ``rf_max`` tap and carry γ̂ masks, so
    any cost or serving figure derived from them would describe the
    supernet rather than the deployed TCN.
    """
    from .channel_mask import PITChannelConv1d
    from .stacked import StackedPITConv1d

    for name, module in model.named_modules():
        if isinstance(module, (PITConv1d, PITChannelConv1d, StackedPITConv1d)):
            raise NotDeployableError(
                f"{consumer} requires an exported network, but layer "
                f"{name or '<root>'!r} is a searchable "
                f"{type(module).__name__}; export it first "
                "(repro.core.export_network, or export_channel_conv for "
                "channel-searched layers)")


def export_conv(layer: PITConv1d) -> CausalConv1d:
    """Convert one searched PIT layer into a compact dilated convolution."""
    dilation = layer.current_dilation()
    lags = kept_lags(layer.rf_max, dilation)
    kernel_size = len(lags)
    conv = CausalConv1d(layer.in_channels, layer.out_channels, kernel_size,
                        dilation=dilation, stride=layer.stride,
                        bias=layer.bias is not None)
    # Kernel index i of the full layer corresponds to lag rf_max-1-i; the
    # compact kernel index j corresponds to lag (kernel_size-1-j)*dilation.
    for j in range(kernel_size):
        lag = (kernel_size - 1 - j) * dilation
        source_index = layer.rf_max - 1 - lag
        conv.weight.data[:, :, j] = layer.weight.data[:, :, source_index]
    if layer.bias is not None:
        conv.bias.data[...] = layer.bias.data
    return conv


def export_network(model: Module) -> Module:
    """Deep-copy ``model`` with every ``PITConv1d`` replaced by its export.

    The copy leaves the original searchable model untouched, so the same
    seed can keep exploring other λ values (how Fig. 4's fronts are built).
    """
    exported = copy.deepcopy(model)
    for module in exported.modules():
        for name, child in list(module._modules.items()):
            if isinstance(child, PITConv1d):
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
    from .channel_mask import PITChannelConv1d

    dilations: List[int] = []
    for module in model.modules():
        if isinstance(module, (PITConv1d, PITChannelConv1d)):
            dilations.append(module.current_dilation())
        elif isinstance(module, CausalConv1d) and module.kernel_size > 1:
            dilations.append(module.dilation)
    return tuple(dilations)


def _temporal_layers(model: Module):
    """Yield ``(span, stride)`` for every temporal layer, declaration order.

    ``span`` is the layer-local input extent one output sample reads
    (``(K-1)*d + 1`` for convolutions, ``rf_max`` for still-searchable PIT
    layers, the window size for pools); ``stride`` is its temporal output
    stride.
    """
    from ..nn.layers import AvgPool1d, MaxPool1d
    from .channel_mask import PITChannelConv1d

    for module in model.modules():
        if isinstance(module, (PITConv1d, PITChannelConv1d)):
            yield module.rf_max, module.stride
        elif isinstance(module, CausalConv1d):
            yield module.receptive_field, module.stride
        elif isinstance(module, (AvgPool1d, MaxPool1d)):
            yield module.kernel_size, module.stride


def network_receptive_field(model: Module) -> int:
    """Composed temporal receptive field of one output sample.

    Composes the per-layer spans with the classic jump recursion

        rf   <- rf + (span_l - 1) * jump
        jump <- jump * stride_l

    so a strided layer correctly *multiplies* the reach of everything
    after it instead of merely adding its own span — the quantity the
    streaming executor sizes warm-up with (``CausalConv1d
    .receptive_field`` alone is layer-local and stride-blind).  Layers are
    composed in declaration order, which matches execution order for the
    sequential seed architectures; parallel branches (e.g. a 1-tap
    residual downsample) contribute 0 to ``rf`` and 1 to ``jump``, so
    they are harmless.  Window layers whose extent depends on the input
    length (``Flatten``/``GlobalAvgPool1d``) are not counted — the
    streaming executor measures those by probing.
    """
    rf, jump = 1, 1
    for span, stride in _temporal_layers(model):
        rf += (span - 1) * jump
        jump *= stride
    return rf


def network_total_stride(model: Module) -> int:
    """Product of all temporal strides: input samples per output sample."""
    total = 1
    for _, stride in _temporal_layers(model):
        total *= stride
    return total


def network_summary(model: Module) -> Dict[str, object]:
    """Size/dilation summary used by the benchmark tables."""
    return {
        "dilations": network_dilations(model),
        "params": model.count_parameters(),
        "pit_params_effective": effective_parameters(model),
    }


def effective_parameters(model: Module) -> int:
    """Parameter count of the network *after* export.

    For a searchable model this counts only alive kernel slices of PIT
    layers (plus everything else); for an already-exported model it equals
    ``count_parameters()``.
    """
    from .channel_mask import PITChannelConv1d

    total = 0
    counted = set()
    for module in model.modules():
        if isinstance(module, (PITConv1d, PITChannelConv1d)):
            total += module.effective_params()
            for _, p in module.named_parameters():
                counted.add(id(p))
            # γ̂ are search-time parameters, never deployed.
    for _, p in model.named_parameters():
        if id(p) not in counted:
            total += p.data.size
    return total
