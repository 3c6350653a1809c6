"""Gradient-descent optimizers: Adam and plain SGD.

The paper trains both the network weights ``W`` and the architecture
parameters ``γ`` with standard first-order optimizers (Algorithm 1 lines
2/5/8).  Parameter groups let the PIT trainer give ``γ`` its own learning
rate.  Optimizer state is plain numpy arrays (allocated lazily by
:meth:`Optimizer.ensure_state`), which checkpoints snapshot and restore
in place.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..nn.module import Parameter

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

    def ensure_state(self, p: Parameter) -> Tuple[np.ndarray, ...]:
        """Allocate (if needed) and return this parameter's state arrays."""
        return ()


class SGD(Optimizer):
    """Plain stochastic gradient descent, ``p -= lr·g``; no state."""

    def __init__(self, params: ParamsLike, lr: float = 0.01):
        super().__init__(params, dict(lr=lr))

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            for p in group["params"]:
                if p.grad is not None:
                    p.data -= lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected moments."""

    def __init__(self, params: ParamsLike, lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8):
        super().__init__(params, dict(lr=lr, betas=betas, eps=eps))
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        # 0-d int64 arrays (not Python ints), incremented in place by
        # step() and snapshotted/restored in place by checkpoints.
        self._t: Dict[int, np.ndarray] = {}

    def ensure_state(self, p: Parameter) -> Tuple[np.ndarray, ...]:
        key = id(p)
        if key not in self._m:
            self._m[key] = np.zeros_like(p.data)
            self._v[key] = np.zeros_like(p.data)
            self._t[key] = np.zeros((), dtype=np.int64)
        return (self._m[key], self._v[key], self._t[key])

    def step(self) -> None:
        for group in self.param_groups:
            lr, eps = group["lr"], group["eps"]
            beta1, beta2 = group["betas"]
            for p in group["params"]:
                if p.grad is None:
                    continue
                grad = p.grad
                m, v, t = self.ensure_state(p)
                t += 1
                # The bias corrections use the step as a Python int so
                # ``beta ** step`` stays a float and never promotes
                # float32 parameters (NEP 50).
                step = int(t)
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1 ** step)
                v_hat = v / (1 - beta2 ** step)
                p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps))
