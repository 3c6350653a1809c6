"""The numerical kernels of the causal dilated 1-D convolution.

Every conv of this reproduction — :func:`repro.autograd.conv1d_causal`,
the masked PIT conv, the stacked DSE conv and the streaming per-tick
step — runs one kernel set: the im2col / ``as_strided`` GEMM lowering of
:class:`~.im2col.Im2colKernels`.  The per-tap einsum kernels of
:class:`~.reference.EinsumReference` are not on any production path; they
are the oracle ``tests/test_backends_parity.py`` holds im2col to.

There is no kernel switch: the einsum and FFT kernel sets were slower
than im2col end to end (README "Convolution kernels" has the
measurements), so they were deleted with the knob that chose among them.

The conv ops and the streaming executor call the methods of the one
:data:`KERNELS` instance, so a profiler that wraps them there sees every
call.  :func:`available_backends`, :func:`get_backend` and
:func:`current_backend` remain only because the benchmark harness
(``perfbench/``) reaches the kernels and labels its runs through them.
"""

from __future__ import annotations

from typing import List

from .im2col import Im2colKernels
from .reference import EinsumReference

__all__ = ["KERNELS", "Im2colKernels", "EinsumReference",
           "available_backends", "get_backend", "current_backend"]

#: The kernel object every conv op calls.
KERNELS = Im2colKernels()


def available_backends() -> List[str]:
    """``["im2col"]``: the one kernel set."""
    return [KERNELS.name]


def get_backend(name: str = KERNELS.name) -> Im2colKernels:
    """:data:`KERNELS`; any other ``name`` raises ValueError."""
    if name != KERNELS.name:
        raise ValueError(f"unknown conv kernels {name!r}; only "
                         f"{KERNELS.name!r} exists")
    return KERNELS


def current_backend() -> str:
    """``"im2col"``: the name of the kernel set every conv runs."""
    return KERNELS.name
