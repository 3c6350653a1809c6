"""The :class:`GraphCapture` tracer.

Capturing is *tracing by execution*: the step function runs eagerly exactly
once while a thread-local tracer, installed at the :func:`apply_op` dispatch
point, records every op into :class:`~repro.autograd.graph.ir.OpNode`
entries.  The traced execution is a fully valid training step (its loss and
gradients are used), so capture costs one eager step, nothing more.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Tuple

from ..tensor import Tensor, pop_tracer, push_tracer
from .ir import EffectNode, GraphCaptureError, OpNode

__all__ = ["GraphCapture", "GraphCaptureError", "capture"]


class GraphCapture:
    """Records one eager execution into a static op schedule.

    Holds strong references to every tensor it assigns a slot — slot
    identity is ``id()``-based, so recorded tensors must stay alive for the
    whole capture (ids of collected objects get reused).
    """

    def __init__(self):
        self.tensors: List[Tensor] = []      # slot -> tensor (strong refs)
        self.slot_of: Dict[int, int] = {}    # id(tensor) -> slot
        self.records: List = []              # OpNode | EffectNode, program order
        self.input_slots: List[int] = []

    # ------------------------------------------------------------------
    def _slot(self, t: Tensor) -> int:
        slot = self.slot_of.get(id(t))
        if slot is None:
            slot = len(self.tensors)
            self.tensors.append(t)
            self.slot_of[id(t)] = slot
        return slot

    def add_input(self, t: Tensor) -> None:
        """Declare a step input (rebound to fresh batch data per replay)."""
        self.input_slots.append(self._slot(t))

    # -- tracer protocol (called from repro.autograd.tensor) -------------
    def record(self, op, inputs: Tuple[Tensor, ...], out: Tensor, attrs) -> None:
        in_slots = tuple(self._slot(t) for t in inputs)
        self.records.append(OpNode(op, in_slots, self._slot(out), attrs))

    def record_effect(self, inputs: Tuple[Tensor, ...], fn) -> None:
        self.records.append(EffectNode(fn, tuple(self._slot(t) for t in inputs)))


@contextlib.contextmanager
def capture():
    """Install a fresh :class:`GraphCapture` for the calling thread.

    The traced code runs eagerly as usual; on exit the tracer is removed,
    also when the traced code raised.
    """
    tracer = GraphCapture()
    push_tracer(tracer)
    try:
        yield tracer
    finally:
        pop_tracer()
