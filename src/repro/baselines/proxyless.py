"""ProxylessNAS baseline adapted to dilation search (paper Sec. IV-C).

The paper compares PIT against ProxylessNAS [12], "adapted to search over
different dilation factors in a 1D-CNN by manually including all layer
variants in the supernet".  This module reproduces that adaptation:

* :class:`ProxylessDilatedConv1d` — a supernet layer holding one causal
  convolution *branch per candidate dilation* (same receptive field, so
  the search space matches PIT's exactly), plus architecture parameters α.
* Single-path training: each forward samples one branch from softmax(α)
  (so only one path's weights/activations are computed per batch — the
  memory trick of ProxylessNAS), with a straight-through factor that lets
  gradients reach α through the sampled path.  The draw happens inside one
  recorded op (:func:`repro.autograd.conv1d_causal_path`), so the trainer's
  steps are captured and replayed like every other trainer's.
* An expected-size regularizer ``Σ_j p_j · size_j`` steers the search
  toward small networks, mirroring PIT's Eq. 6 objective.
* :class:`ProxylessTrainer` — warmup, alternating weight/architecture
  updates, argmax-derivation and fine-tuning.

The deliberate inefficiency this reproduces (and that Fig. 5 measures): the
supernet stores ``L`` weight sets per layer and each batch improves only
one of them, so reaching a given accuracy needs many more epochs than PIT's
concurrent training of a single weight set.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, conv1d_causal_path, softmax
from ..core.driver import make_training_step
from ..core.masks import kept_lags, num_gamma
from ..core.pit_conv import PITConv1d
from ..core.trainer import evaluate, train_plain
from ..nn import CausalConv1d, Module, Parameter, Sequential
from ..optim import Adam, EarlyStopping

__all__ = [
    "ProxylessDilatedConv1d",
    "proxylessify",
    "proxyless_layers",
    "export_proxyless",
    "expected_size",
    "ProxylessResult",
    "ProxylessTrainer",
]


class ProxylessDilatedConv1d(Module):
    """Supernet layer: one conv branch per power-of-two dilation.

    All branches keep the layer's receptive field ``rf_max`` (kernel size
    shrinks as dilation grows), exactly matching the per-layer choices of a
    PIT layer with the same ``rf_max``.
    """

    def __init__(self, in_channels: int, out_channels: int, rf_max: int,
                 stride: int = 1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.rf_max = rf_max
        self.stride = stride
        self.dilations: Tuple[int, ...] = tuple(
            2 ** i for i in range(num_gamma(rf_max)))
        branches = []
        for d in self.dilations:
            kernel = len(kept_lags(rf_max, d))
            branches.append(CausalConv1d(in_channels, out_channels, kernel,
                                         dilation=d, stride=stride, rng=rng))
        self.branches = Sequential(*branches)
        self.alpha = Parameter(np.zeros(len(self.dilations)), name="proxyless.alpha")
        self._rng = rng
        self._sample_paths = True

    # -- path selection -------------------------------------------------
    def probabilities(self) -> np.ndarray:
        exp = np.exp(self.alpha.data - self.alpha.data.max())
        return exp / exp.sum()

    def chosen_index(self) -> int:
        return int(np.argmax(self.alpha.data))

    def chosen_dilation(self) -> int:
        return self.dilations[self.chosen_index()]

    def branch_sizes(self) -> np.ndarray:
        """Parameter count of each branch (the size regularizer weights)."""
        return np.array([b.count_parameters() for b in self.branches],
                        dtype=np.float64)

    def set_sampling(self, enabled: bool) -> None:
        """Sampling on = training supernet; off = deterministic argmax path."""
        self._sample_paths = enabled

    def forward(self, x: Tensor) -> Tensor:
        # One branch per batch, drawn inside the op: each replay redraws.
        return conv1d_causal_path(
            x, self.alpha, [(b.weight, b.bias) for b in self.branches],
            self.dilations, stride=self.stride, rng=self._rng,
            sample=self._sample_paths and self.training)

    def __repr__(self) -> str:
        return (f"ProxylessDilatedConv1d({self.in_channels}, {self.out_channels}, "
                f"rf_max={self.rf_max}, d*={self.chosen_dilation()})")


def proxylessify(model: Module, rng: Optional[np.random.Generator] = None) -> Module:
    """Copy a PIT-searchable model, replacing PIT layers by supernet layers.

    Guarantees the two methods search the same space (paper Sec. IV-C: the
    supernet variants were specified "so to match exactly the search space
    explored by PIT").  A channel-searched PIT layer raises ValueError: the
    supernet has no channel choices to match it.
    """
    rng = rng or np.random.default_rng()
    supernet = copy.deepcopy(model)
    for module in supernet.modules():
        for name, child in list(module._modules.items()):
            if isinstance(child, PITConv1d):
                if child.channel_mask is not None:
                    raise ValueError(
                        f"layer {name!r} is a channel-searched PITConv1d; "
                        "the Proxyless supernet searches dilations only")
                setattr(module, name, ProxylessDilatedConv1d(
                    child.in_channels, child.out_channels, child.rf_max,
                    stride=child.stride, rng=rng))
    return supernet


def proxyless_layers(model: Module) -> List[ProxylessDilatedConv1d]:
    return [m for m in model.modules() if isinstance(m, ProxylessDilatedConv1d)]


def expected_size(model: Module) -> Tensor:
    """Differentiable expected parameter count ``Σ_layers Σ_j p_j size_j``."""
    total = Tensor(np.zeros(()))
    for layer in proxyless_layers(model):
        probs = softmax(layer.alpha, axis=0)
        total = total + (probs * Tensor(layer.branch_sizes())).sum()
    return total


def export_proxyless(model: Module) -> Module:
    """Collapse a supernet to its argmax-α network (deep copy)."""
    exported = copy.deepcopy(model)
    for module in exported.modules():
        for name, child in list(module._modules.items()):
            if isinstance(child, ProxylessDilatedConv1d):
                setattr(module, name, copy.deepcopy(child.branches[child.chosen_index()]))
    return exported


@dataclass
class ProxylessResult:
    """Outcome of one ProxylessNAS search + fine-tune."""
    dilations: Tuple[int, ...]
    best_val: float
    params: int
    search_seconds: float
    finetune_seconds: float
    search_epochs: int
    finetune_epochs: int
    history: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.search_seconds + self.finetune_seconds


class ProxylessTrainer:
    """Search loop of the ProxylessNAS baseline.

    Each epoch trains the sampled-path weights on the training set, then
    updates α on the validation set with the task loss plus
    ``lam * expected_size``.  Both passes are compiled steps
    (:func:`repro.core.driver.make_training_step`), as in every trainer.
    After convergence (early stopping on the validation task loss) the
    argmax network is derived and fine-tuned.
    """

    def __init__(self, supernet: Module, loss_fn: Callable, lam: float,
                 lr: float = 1e-3, alpha_lr: float = 1e-2,
                 warmup_epochs: int = 3, max_search_epochs: int = 50,
                 search_patience: int = 5, finetune_epochs: int = 30,
                 finetune_patience: int = 10, verbose: bool = False):
        if not proxyless_layers(supernet):
            raise ValueError("model contains no ProxylessDilatedConv1d layers")
        self.supernet = supernet
        self.loss_fn = loss_fn
        self.lam = lam
        self.lr = lr
        self.alpha_lr = alpha_lr
        self.warmup_epochs = warmup_epochs
        self.max_search_epochs = max_search_epochs
        self.search_patience = search_patience
        self.finetune_epochs = finetune_epochs
        self.finetune_patience = finetune_patience
        self.verbose = verbose
        self.derived: Optional[Module] = None

    def _split_params(self):
        alpha_params, weight_params = [], []
        for name, p in self.supernet.named_parameters():
            (alpha_params if name.endswith("alpha") else weight_params).append(p)
        return weight_params, alpha_params

    def _epoch(self, loader, step, optimizer) -> None:
        self.supernet.train()
        for x, y in loader:
            optimizer.zero_grad()
            step(x, y)
            optimizer.step()

    def fit(self, train_loader, val_loader) -> ProxylessResult:
        weight_params, alpha_params = self._split_params()
        weight_opt = Adam(weight_params, lr=self.lr)
        alpha_opt = Adam(alpha_params, lr=self.alpha_lr)
        weight_step = make_training_step(self.supernet, self.loss_fn)
        alpha_step = make_training_step(
            self.supernet, self.loss_fn,
            lambda: expected_size(self.supernet) * self.lam)
        history = {"search_val": []}

        start = time.perf_counter()
        # Warmup: weights only, uniformly sampled paths.
        for _ in range(self.warmup_epochs):
            self._epoch(train_loader, weight_step, weight_opt)

        stopper = EarlyStopping(patience=self.search_patience)
        search_ran = self.warmup_epochs
        for _ in range(self.max_search_epochs):
            self._epoch(train_loader, weight_step, weight_opt)
            # Architecture step on validation data (ProxylessNAS alternation).
            self._epoch(val_loader, alpha_step, alpha_opt)
            val_loss = evaluate(self.supernet, self.loss_fn, val_loader)
            history["search_val"].append(val_loss)
            search_ran += 2
            stopper.update(val_loss)
            if stopper.should_stop:
                break
        search_seconds = time.perf_counter() - start

        # Derive and fine-tune the argmax network.
        for layer in proxyless_layers(self.supernet):
            layer.set_sampling(False)
        self.derived = export_proxyless(self.supernet)
        result = train_plain(self.derived, self.loss_fn, train_loader, val_loader,
                             epochs=self.finetune_epochs, lr=self.lr,
                             patience=self.finetune_patience)
        dilations = tuple(layer.chosen_dilation()
                          for layer in proxyless_layers(self.supernet))
        if self.verbose:
            print(f"[Proxyless] derived dilations={dilations}, "
                  f"val={result.best_val:.4f}")
        return ProxylessResult(
            dilations=dilations,
            best_val=result.best_val,
            params=self.derived.count_parameters(),
            search_seconds=search_seconds,
            finetune_seconds=result.seconds,
            search_epochs=search_ran,
            finetune_epochs=result.epochs,
            history=history,
        )
