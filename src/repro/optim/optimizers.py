"""Gradient-descent optimizers: SGD (momentum/Nesterov) and Adam.

The paper trains both the network weights ``W`` and the architecture
parameters ``γ`` with standard first-order optimizers (Algorithm 1 lines
2/5/8).  Parameter groups let the PIT trainer give ``γ`` its own learning
rate and exclude it from weight decay, as is standard for DMaskingNAS.

The numeric core of each ``step()`` lives in :mod:`repro.optim.kernels`
as pure functions over the arrays they touch; the classes here only
manage lazy state allocation and group bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..nn.module import Parameter
from .kernels import adam_update, sgd_update

__all__ = ["Optimizer", "SGD", "Adam"]

ParamsLike = Union[Sequence[Parameter], Sequence[Dict]]


class Optimizer:
    """Base optimizer with parameter groups and per-group hyperparameters."""

    def __init__(self, params: ParamsLike, defaults: Dict):
        self.defaults = dict(defaults)
        self.param_groups: List[Dict] = []
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if isinstance(params[0], dict):
            for group in params:
                self.add_param_group(group)
        else:
            self.add_param_group({"params": params})

    def add_param_group(self, group: Dict) -> None:
        group = dict(group)
        group["params"] = list(group["params"])
        for key, value in self.defaults.items():
            group.setdefault(key, value)
        self.param_groups.append(group)

    @property
    def params(self) -> List[Parameter]:
        return [p for group in self.param_groups for p in group["params"]]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def ensure_state(self, p: Parameter, group: Dict) -> Tuple:
        """Allocate (if needed) and return this parameter's state arrays."""
        raise NotImplementedError

    def _hyper(self, group: Dict) -> Tuple:
        """Read the kernel hyperparameters out of a (mutable) group dict."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, Nesterov and weight decay."""

    def __init__(self, params: ParamsLike, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0, nesterov: bool = False):
        if nesterov and momentum <= 0:
            raise ValueError("Nesterov momentum requires momentum > 0")
        super().__init__(params, dict(lr=lr, momentum=momentum,
                                      weight_decay=weight_decay, nesterov=nesterov))
        self._velocity: Dict[int, np.ndarray] = {}

    def ensure_state(self, p: Parameter, group: Dict) -> Tuple:
        if not group["momentum"]:
            return (None,)
        buf = self._velocity.get(id(p))
        if buf is None:
            buf = np.zeros_like(p.data)
            self._velocity[id(p)] = buf
        return (buf,)

    def _hyper(self, group: Dict) -> Tuple:
        return (group["lr"], group["momentum"], group["weight_decay"],
                group["nesterov"])

    def step(self) -> None:
        for group in self.param_groups:
            hyper = self._hyper(group)
            for p in group["params"]:
                if p.grad is None:
                    continue
                sgd_update(p.data, p.grad, *self.ensure_state(p, group), *hyper)


class Adam(Optimizer):
    """Adam with optional decoupled weight decay (AdamW-style)."""

    def __init__(self, params: ParamsLike, lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(params, dict(lr=lr, betas=betas, eps=eps,
                                      weight_decay=weight_decay, decoupled=decoupled))
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        # 0-d int64 arrays (not Python ints), incremented in place by the
        # kernel and snapshotted/restored in place by checkpoints.
        self._t: Dict[int, np.ndarray] = {}

    def ensure_state(self, p: Parameter, group: Dict) -> Tuple:
        key = id(p)
        if key not in self._m:
            self._m[key] = np.zeros_like(p.data)
            self._v[key] = np.zeros_like(p.data)
            self._t[key] = np.zeros((), dtype=np.int64)
        return (self._m[key], self._v[key], self._t[key])

    def _hyper(self, group: Dict) -> Tuple:
        beta1, beta2 = group["betas"]
        return (group["lr"], beta1, beta2, group["eps"],
                group["weight_decay"], group["decoupled"])

    def step(self) -> None:
        for group in self.param_groups:
            hyper = self._hyper(group)
            for p in group["params"]:
                if p.grad is None:
                    continue
                adam_update(p.data, p.grad, *self.ensure_state(p, group), *hyper)
