"""Graph-capture executor: trace a training step once, replay it flat.

Eager autograd rebuilds the op graph in Python for every batch.  For the
static networks of this reproduction (TCNs, PIT supernets, unrolled RNNs)
that graph is identical batch after batch, so this subsystem records it
once and replays it as a flat schedule:

* :class:`GraphCapture` — thread-local tracer observing every
  :func:`repro.autograd.apply_op` dispatch during one eager step;
* :mod:`~repro.autograd.graph.ir` — the frozen program: topo-ordered nodes
  carrying op kind, static attrs and input/output buffer slots;
* :class:`CompiledStep` — the replay executor: per-shape program cache,
  verbatim replay through the same ``OpDef.fwd``/``OpDef.bwd`` kernels
  eager dispatch calls, no arrays kept between steps, bit-identical
  results; a step it cannot replay raises :class:`GraphCaptureError`.

Every trainer runs its steps through :class:`CompiledStep`; there is no
knob and no eager tier.  :class:`EagerStep` is the tests' reference.
"""

from .capture import GraphCapture, capture
from .executor import CompiledStep, EagerStep
from .config import CompileConfig
from .ir import GraphCaptureError, GraphProgram, build_program

__all__ = [
    "GraphCapture",
    "GraphCaptureError",
    "GraphProgram",
    "CompiledStep",
    "CompileConfig",
    "EagerStep",
    "build_program",
    "capture",
]
