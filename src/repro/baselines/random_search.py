"""Random-search baseline over the dilation space.

Not part of the paper's tables, but the standard sanity baseline for any
NAS method: sample K dilation assignments uniformly, train each briefly,
and keep the Pareto-optimal ones.  Used by the ablation benches and tests
to verify PIT finds points at least as good as random sampling at equal
training budget.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.export import export_network
from ..core.regularizer import pit_layers
from ..core.search_space import dilation_choices
from ..core.trainer import train_plain
from ..nn import Module

__all__ = ["RandomSearchResult", "random_configurations", "random_search",
           "exhaustive_search"]


@dataclass
class RandomSearchResult:
    dilations: Tuple[int, ...]
    best_val: float
    params: int


def random_configurations(model: Module, count: int,
                          rng: Optional[np.random.Generator] = None
                          ) -> List[Tuple[int, ...]]:
    """Sample ``count`` distinct dilation assignments uniformly."""
    rng = rng or np.random.default_rng()
    choices = dilation_choices(model)
    seen = set()
    configs: List[Tuple[int, ...]] = []
    attempts = 0
    while len(configs) < count and attempts < count * 20:
        config = tuple(int(rng.choice(options)) for options in choices)
        attempts += 1
        if config not in seen:
            seen.add(config)
            configs.append(config)
    return configs


def _train_configuration(seed_model: Module, config, loss_fn, train_loader,
                         val_loader, epochs: int, lr: float,
                         patience: int) -> RandomSearchResult:
    candidate = copy.deepcopy(seed_model)
    for layer, dilation in zip(pit_layers(candidate), config):
        layer.set_dilation(dilation)
        layer.freeze()
    network = export_network(candidate)
    outcome = train_plain(network, loss_fn, train_loader, val_loader,
                          epochs=epochs, lr=lr, patience=patience)
    return RandomSearchResult(dilations=tuple(config),
                              best_val=outcome.best_val,
                              params=network.count_parameters())


def exhaustive_search(seed_model: Module, loss_fn: Callable, train_loader,
                      val_loader, epochs: int = 6, lr: float = 1e-3,
                      patience: int = 4,
                      max_configs: int = 64) -> List[RandomSearchResult]:
    """Train *every* dilation assignment (ground truth for tiny spaces).

    This is the oracle PIT approximates in a single training run; the test
    suite uses it to check that PIT's outputs land on (or near) the true
    accuracy-size Pareto front of small search spaces.  Refuses spaces
    larger than ``max_configs``.
    """
    from ..core.search_space import enumerate_configurations, search_space_size

    size = search_space_size(seed_model)
    if size > max_configs:
        raise ValueError(f"search space has {size} configurations; exhaustive "
                         f"search is capped at {max_configs}")
    return [_train_configuration(seed_model, config, loss_fn, train_loader,
                                 val_loader, epochs, lr, patience)
            for config in enumerate_configurations(seed_model)]


def random_search(seed_model: Module, loss_fn: Callable, train_loader, val_loader,
                  count: int = 8, epochs: int = 10, lr: float = 1e-3,
                  patience: int = 5,
                  rng: Optional[np.random.Generator] = None
                  ) -> List[RandomSearchResult]:
    """Train ``count`` random fixed-dilation networks; return all results."""
    rng = rng or np.random.default_rng()
    results = []
    for config in random_configurations(seed_model, count, rng):
        results.append(_train_configuration(
            seed_model, config, loss_fn, train_loader, val_loader,
            epochs, lr, patience))
    return results
