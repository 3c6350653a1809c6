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
  results; a trace that is not self-contained raises
  :class:`GraphCaptureError`.

Every trainer — PIT, plain, stacked and the ProxylessNAS baseline — runs
its steps through :class:`CompiledStep`; there is no knob and no eager
tier.  A decision that depends on values lives inside a recorded op
(``binarize_ste``'s channel rescue, dropout's mask, the supernet's path
draw in ``conv1d_causal_path``), so every replay recomputes it.
:class:`EagerStep` is the tests' reference.
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
