"""Search-space accounting and enumeration.

Paper Sec. IV-B quantifies the explored space: "PIT operates in a search
space of ~10^5 different solutions for the ResTCN ... for TEMPONet, the
search includes ~10^4 alternatives".  Each PIT layer with ``L`` γ values
offers ``L`` power-of-two dilations (``2^0 .. 2^{L-1}``), a
channel-searched one also the widths ``min_channels .. out_channels``;
the space is the cartesian product over layers.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..nn.module import Module
from .masks import num_gamma
from .pit_conv import PITConv1d
from .regularizer import pit_layers

__all__ = [
    "layer_choices",
    "search_space_size",
    "dilation_choices",
    "enumerate_configurations",
    "parameter_range",
]


def layer_choices(layer: PITConv1d) -> List[int]:
    """Dilations reachable by one PIT layer: ``1, 2, ..., 2^{L-1}``."""
    length = num_gamma(layer.rf_max)
    return [2 ** i for i in range(length)]


def search_space_size(model: Module) -> int:
    """Number of distinct (dilation, width) assignments of the network."""
    size = 1
    for layer in pit_layers(model):
        size *= len(layer_choices(layer))
        if layer.channel_mask is not None:
            size *= layer.out_channels - layer.channel_mask.min_channels + 1
    return size


def dilation_choices(model: Module) -> List[List[int]]:
    """:func:`layer_choices` of every PIT layer, in traversal order.

    Raises ``ValueError`` naming a channel-searched layer: a dilation
    tuple cannot fix its width, so a configuration would train it with
    every channel and describe a network its export does not match.
    """
    choices = []
    for name, module in model.named_modules():
        if isinstance(module, PITConv1d):
            if module.channel_mask is not None:
                raise ValueError(
                    f"layer {name or '<root>'!r} is channel-searched; "
                    "dilation configurations cannot fix its width")
            choices.append(layer_choices(module))
    return choices


def enumerate_configurations(model: Module) -> Iterator[Tuple[int, ...]]:
    """Yield every dilation assignment (use only for small spaces/tests)."""
    return itertools.product(*dilation_choices(model))


def parameter_range(model: Module) -> Dict[str, int]:
    """Smallest and largest exported parameter counts over the space.

    The extremes are attained at the (max-dilation, ``min_channels``) and
    (min-dilation, all-channels) corners respectively, because each
    layer's size is monotone in its own kept-tap and alive-channel counts
    (paper: ResTCN spans 0.4M–3M params, TEMPONet 0.4M–0.9M).  Frozen
    masks are priced as searchable ones; their frozen state and every γ̂
    are restored afterwards.
    """
    layers = pit_layers(model)
    masks = [mask for layer in layers
             for mask in (layer.mask, layer.channel_mask) if mask is not None]
    saved = [(mask.gamma_hat.data.copy(), mask.frozen) for mask in masks]
    for mask in masks:
        mask.frozen = False

    def corner(smallest: bool) -> int:
        for layer in layers:
            layer.set_dilation(max(layer_choices(layer)) if smallest else 1)
            if layer.channel_mask is not None:
                alive = (layer.channel_mask.min_channels if smallest
                         else layer.out_channels)
                layer.channel_mask.set_alive(
                    np.arange(layer.out_channels) < alive)
        return _effective(model)

    try:
        bounds = {"min_params": corner(True), "max_params": corner(False)}
    finally:
        for mask, (data, frozen) in zip(masks, saved):
            mask.gamma_hat.data[...] = data
            mask.frozen = frozen
    return bounds


def _effective(model: Module) -> int:
    from .export import effective_parameters
    return effective_parameters(model)
