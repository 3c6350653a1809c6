"""Static IR of one captured training step.

A captured program is a *flat schedule*, not a pointer graph: tensors become
integer **slots**, ops become :class:`OpNode` entries in execution order, and
the backward pass becomes a precomputed list of :class:`BackwardStep` entries
derived from the same topological sort the eager engine uses — so a replay
performs exactly the eager computation, minus all Python graph construction.

Slots fall into three classes:

* **leaves** — tensors the step did not create: parameters, inline constants
  (mask coefficient vectors, frozen masks, scalar literals).  They are bound
  *by tensor reference* and re-read on every replay, so in-place parameter
  updates by the optimizer are always visible.
* **inputs** — the step's batch arrays, rebound on every call.
* **op outputs** — one slot per recorded node, recomputed each replay.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple


class OpNode:
    """One recorded op dispatch: kind + static attrs + slot wiring."""

    __slots__ = ("op", "in_slots", "out_slot", "attrs")

    def __init__(self, op, in_slots: Tuple[int, ...], out_slot: int, attrs: Dict):
        self.op = op
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"OpNode({self.op.name}, in={self.in_slots}, out={self.out_slot})"


class EffectNode:
    """A recorded side effect (e.g. BatchNorm running-stat update)."""

    __slots__ = ("fn", "in_slots")

    def __init__(self, fn: Callable, in_slots: Tuple[int, ...]):
        self.fn = fn
        self.in_slots = in_slots

    def __repr__(self) -> str:
        return f"EffectNode({getattr(self.fn, '__qualname__', self.fn)!r})"


class BackwardStep:
    """One entry of the backward schedule.

    ``acc[i]`` describes where the gradient for parent ``i`` goes: None for
    parents that need no gradient, else ``(slot, first, sole)`` where
    ``first`` marks the overall first contribution into that slot (an
    overwrite; later contributions accumulate) — the same zero-then-add
    order the eager engine produces — and ``sole`` marks slots with exactly
    one contribution in the whole schedule, letting the runner *adopt* a
    fresh kernel-owned gradient array instead of copying it.
    """

    __slots__ = ("node", "needs", "acc")

    def __init__(self, node: OpNode, needs: Tuple[bool, ...],
                 acc: Tuple[Optional[Tuple[int, bool, bool]], ...]):
        self.node = node
        self.needs = needs
        self.acc = acc


class GraphCaptureError(RuntimeError):
    """A traced step cannot be turned into a replayable program."""


class GraphProgram:
    """The finalized IR of one (forward + backward) training step."""

    __slots__ = ("n_slots", "schedule", "backward_steps", "leaves",
                 "input_slots", "output_slots", "root_slot", "grad_leaves",
                 "dtype")

    def __init__(self, n_slots: int, schedule: List, backward_steps: List[BackwardStep],
                 leaves: List[Tuple[int, object]], input_slots: List[int],
                 output_slots: List[int], root_slot: int,
                 grad_leaves: List[Tuple[int, object]], dtype):
        self.n_slots = n_slots
        self.schedule = schedule              # OpNode | EffectNode, program order
        self.backward_steps = backward_steps  # reverse-topo order
        self.leaves = leaves                  # (slot, Tensor) — re-read each replay
        self.input_slots = input_slots
        self.output_slots = output_slots
        self.root_slot = root_slot
        self.grad_leaves = grad_leaves        # (slot, Tensor) — .grad targets
        self.dtype = dtype                    # default dtype at capture time

    def __repr__(self) -> str:
        ops = sum(1 for n in self.schedule if isinstance(n, OpNode))
        return (f"GraphProgram(ops={ops}, effects={len(self.schedule) - ops}, "
                f"backward_steps={len(self.backward_steps)}, "
                f"leaves={len(self.leaves)})")


def build_program(tracer, loss, outputs) -> GraphProgram:
    """Freeze a :class:`GraphCapture` into a :class:`GraphProgram`.

    ``loss`` is the differentiated output (the backward root); ``outputs``
    are all tensors the step returns.  Raises :class:`GraphCaptureError`
    when the trace is not self-contained (e.g. the step consumed a graph
    tensor built before the capture started).
    """
    from ..tensor import _topo_sort, get_default_dtype

    slot_of = tracer.slot_of
    tensors = tracer.tensors

    node_by_slot: Dict[int, OpNode] = {}
    for node in tracer.records:
        if isinstance(node, OpNode):
            node_by_slot[node.out_slot] = node

    # Batch inputs are rebound per replay, not leaves: binding them as
    # leaves would pin the trace-time batch for the program's lifetime.
    input_slots = set(tracer.input_slots)
    leaves: List[Tuple[int, object]] = []
    for slot, t in enumerate(tensors):
        if slot in node_by_slot or slot in input_slots:
            continue
        if t._op is not None:
            raise GraphCaptureError(
                "the step consumed a graph tensor created outside the "
                "capture; compiled steps must build their graph from "
                "leaves and batch inputs only")
        leaves.append((slot, t))

    root_slot = slot_of.get(id(loss))
    if root_slot is None or root_slot not in node_by_slot:
        raise GraphCaptureError("the loss tensor was not produced by a recorded op")

    # Backward schedule: same topological order as eager backward, same
    # per-parent accumulation order — gradient sums are bit-identical.
    touched = {root_slot}
    contributions: Dict[int, int] = {}
    raw_steps = []
    for t in reversed(_topo_sort(loss)):
        if t._op is None:
            continue  # leaves carry no backward of their own
        slot = slot_of.get(id(t))
        if slot is None:
            raise GraphCaptureError("a graph node is missing from the capture")
        if slot not in touched:
            continue
        node = node_by_slot[slot]
        needs = tuple(p.requires_grad for p in t._parents)
        targets: List[Optional[Tuple[int, bool]]] = []
        for parent, need in zip(t._parents, needs):
            if not need:
                targets.append(None)
                continue
            pslot = slot_of.get(id(parent))
            if pslot is None:
                raise GraphCaptureError("a graph parent is missing from the capture")
            targets.append((pslot, pslot not in touched))
            touched.add(pslot)
            contributions[pslot] = contributions.get(pslot, 0) + 1
        raw_steps.append((node, needs, targets))
    steps = [
        BackwardStep(node, needs, tuple(
            None if target is None
            else (target[0], target[1], contributions[target[0]] == 1)
            for target in targets))
        for node, needs, targets in raw_steps]

    output_slots = []
    for out in outputs:
        slot = slot_of.get(id(out))
        if slot is None:
            raise GraphCaptureError("a step output was not recorded by the capture")
        output_slots.append(slot)

    grad_leaves = [(slot, t) for slot, t in leaves
                   if t.requires_grad and slot in touched]

    return GraphProgram(
        n_slots=len(tensors),
        schedule=list(tracer.records),
        backward_steps=steps,
        leaves=leaves,
        input_slots=list(tracer.input_slots),
        output_slots=output_slots,
        root_slot=root_slot,
        grad_leaves=grad_leaves,
        dtype=get_default_dtype(),
    )
