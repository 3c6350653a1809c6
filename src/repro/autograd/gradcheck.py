"""Numerical gradient checking utilities.

Every differentiable op in :mod:`repro.autograd` is validated against
central finite differences.  These helpers are used pervasively by the test
suite and are part of the public API so downstream users extending the op
set can validate their own kernels.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, default_dtype_scope

__all__ = ["numerical_gradient", "check_gradients", "GradCheckError"]


class GradCheckError(AssertionError):
    """Raised when analytic and numerical gradients disagree."""


def numerical_gradient(func: Callable[..., Tensor], inputs: Sequence[Tensor],
                       index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``sum(func(*inputs))`` w.r.t. one input.

    Parameters
    ----------
    func:
        Callable mapping the input tensors to an output tensor.
    inputs:
        All inputs of ``func``; only ``inputs[index]`` is perturbed.
    index:
        Which input to differentiate with respect to.
    eps:
        Finite-difference step.

    The computation runs with the default dtype pinned to float64 and the
    inputs' storage upcast in place: central differences with
    ``eps ~ 1e-6`` are meaningless in single precision, so gradient
    checking stays trustworthy under the float32 default.
    """
    with default_dtype_scope("float64"):
        for t in inputs:
            if t.data.dtype != np.float64:
                t.data = t.data.astype(np.float64)
        target = inputs[index]
        grad = np.zeros_like(target.data, dtype=np.float64)
        flat = target.data.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(func(*inputs).data.sum())
            flat[i] = original - eps
            minus = float(func(*inputs).data.sum())
            flat[i] = original
            grad_flat[i] = (plus - minus) / (2.0 * eps)
        return grad


def check_gradients(func: Callable[..., Tensor], inputs: Sequence[Tensor],
                    eps: float = 1e-6, atol: float = 1e-5, rtol: float = 1e-4) -> None:
    """Assert analytic gradients of ``sum(func(*inputs))`` match numerics.

    Raises
    ------
    GradCheckError
        If any input's analytic gradient deviates from the central-difference
        estimate beyond ``atol + rtol * |numeric|``.

    Gradient checking is pinned to float64 regardless of the configured
    default dtype: the inputs' storage is upcast in place and the whole
    comparison runs under a float64 scope, so float32 runs keep exact-ish
    numerics where it matters.
    """
    with default_dtype_scope("float64"):
        for t in inputs:
            t.grad = None
            if t.data.dtype != np.float64:
                t.data = t.data.astype(np.float64)
        out = func(*inputs)
        out.sum().backward()
        for i, t in enumerate(inputs):
            if not t.requires_grad:
                continue
            numeric = numerical_gradient(func, inputs, i, eps=eps)
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
                worst = np.max(np.abs(analytic - numeric))
                raise GradCheckError(
                    f"gradient mismatch for input {i} (name={t.name}): "
                    f"max abs err {worst:.3e}\nanalytic:\n{analytic}\nnumeric:\n{numeric}")
