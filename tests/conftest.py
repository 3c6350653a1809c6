"""Shared fixtures: running the conv ops on a named kernel set.

Every conv op calls the one kernel object :data:`repro.autograd.backends.
KERNELS` (im2col).  ``use_kernels("einsum")`` patches the per-tap einsum
oracle (:class:`repro.autograd.backends.EinsumReference`) onto that object —
its 2-D kernels directly, the stacked kernels as a per-model loop of them
and the streaming tick as a per-tap sum — so a test can hold the op,
trainer, compiled-replay and streaming logic to one contract on two
independent kernel sets.  ``use_kernels("im2col")`` leaves the production
kernels in place.  The patch is undone on exit, also on error.

``count_kernel_calls()`` wraps the kernel object's methods on the instance,
the way the benchmark tracer does, and yields the list every call appends
its method name to.

``eager_steps()`` runs every trainer step eagerly for its duration: the
reference the compiled replay is held to.  Trainers build their steps as
:class:`repro.autograd.CompiledStep`; inside the scope they get one that
never traces, so each call takes the eager fallback.
"""

import contextlib

import numpy as np
import pytest

from repro.autograd import CompiledStep
from repro.autograd.backends import EinsumReference, get_backend
from repro.core import driver, stacked

ORACLE = EinsumReference()
KERNEL_SET_NAMES = ("einsum", "im2col")
KERNEL_METHODS = ("forward", "grad_input", "grad_weight", "forward_stacked",
                  "grad_input_stacked", "grad_weight_stacked", "forward_step")


def _stacked(kernel, shape_arg):
    """``kernel`` over the leading model axis; ``shape_arg`` drops the model
    axis from the shape the stacked signature passes third."""
    def run(a, b, *rest):
        if shape_arg:
            rest = (tuple(rest[0][1:]),) + rest[1:]
        return np.stack([kernel(a[m], b[m], *rest)
                         for m in range(a.shape[0])])
    return run


def _forward_step(window, w):
    out = np.zeros((window.shape[0], w.shape[0], 1),
                   np.result_type(window, w))
    for tap in range(w.shape[2]):
        out[:, :, 0] += np.einsum("oc,nc->no", w[:, :, tap],
                                  window[:, :, tap])
    return out


ORACLE_METHODS = {
    "forward": ORACLE.forward,
    "grad_input": ORACLE.grad_input,
    "grad_weight": ORACLE.grad_weight,
    "forward_stacked": _stacked(ORACLE.forward, False),
    "grad_input_stacked": _stacked(ORACLE.grad_input, True),
    "grad_weight_stacked": _stacked(ORACLE.grad_weight, True),
    "forward_step": _forward_step,
}


@contextlib.contextmanager
def _patched(methods):
    """Set ``methods`` on the kernel object's instance; on exit put back
    exactly what the instance held before (nothing, for a class method)."""
    kernels = get_backend()
    saved = {name: vars(kernels)[name] for name in methods
             if name in vars(kernels)}
    try:
        for name, fn in methods.items():
            setattr(kernels, name, fn)
        yield kernels
    finally:
        for name in methods:
            if name in saved:
                setattr(kernels, name, saved[name])
            else:
                delattr(kernels, name)


def kernel_set(name):
    """The conv ops on kernel set ``name``; yields the kernel object."""
    if name not in KERNEL_SET_NAMES:
        raise ValueError(f"unknown kernel set {name!r}")
    return _patched(ORACLE_METHODS if name == "einsum" else {})


@contextlib.contextmanager
def counted_kernels():
    kernels, calls = get_backend(), []

    def counted(fn, name):
        def run(*args):
            calls.append(name)
            return fn(*args)
        return run
    with _patched({name: counted(getattr(kernels, name), name)
                   for name in KERNEL_METHODS}):
        yield calls


@pytest.fixture
def use_kernels():
    return kernel_set


@pytest.fixture
def count_kernel_calls():
    return counted_kernels


class EagerReference(CompiledStep):
    """A compiled step that never traces: every call runs eagerly."""

    def __init__(self, step_fn):
        super().__init__(step_fn)
        self.fallback_reason = "eager reference"


@contextlib.contextmanager
def eager_training():
    modules = (driver, stacked)
    saved = [module.CompiledStep for module in modules]
    try:
        for module in modules:
            module.CompiledStep = EagerReference
        yield
    finally:
        for module, step_cls in zip(modules, saved):
            module.CompiledStep = step_cls


@pytest.fixture
def eager_steps():
    return eager_training
