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

The hypothesis profile is loaded here, once for the whole suite, so it
does not depend on which property module is collected last: derandomized
(every run draws the same examples, so a tolerance defect fails every
time or never) with 30 examples per test unless a test's ``@settings``
says otherwise.

``eager_steps()`` runs every trainer step eagerly for its duration: the
reference the compiled replay is held to.  Trainers build their steps as
:class:`repro.autograd.CompiledStep`; inside the scope they build
:class:`repro.autograd.EagerStep`, which has the same call contract.

``cache_entries(path)`` reads a DSE cache directory as the engine wrote
it: ``{key: entry}`` for every point file, each entry the file's metadata.
"""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from repro.autograd import EagerStep
from repro.autograd.backends import EinsumReference, get_backend
from repro.core import driver, stacked
from repro.evaluation import DSECache
from repro.nn.serialization import load_state

settings.register_profile("repro", max_examples=30, deadline=None,
                          derandomize=True)
settings.load_profile("repro")

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


@contextlib.contextmanager
def eager_training():
    with mock.patch.object(driver, "CompiledStep", EagerStep), \
            mock.patch.object(stacked, "CompiledStep", EagerStep):
        yield


@pytest.fixture
def eager_steps():
    return eager_training


def read_cache_entries(path):
    entries = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(DSECache.SUFFIX):
            _, entry = load_state(os.path.join(path, name))
            entries[entry["key"]] = entry
    return entries


@pytest.fixture
def cache_entries():
    return read_cache_entries
