"""Replay executor: run a captured training step without building a graph.

:class:`CompiledStep` wraps a step function ``step_fn(x, y) -> (loss, ...)``
(tensors in, tensors out).  The first call per input shape *traces*: the
step runs eagerly under a :class:`GraphCapture` — producing real losses and
gradients — and is frozen into a :class:`GraphProgram`.  Every later call
with that shape *replays* the program verbatim: a flat loop over the
recorded ops on slot-indexed numpy buffers, with

* no ``Tensor`` objects, no parent tuples, no per-op bookkeeping;
* no topological sort — the backward schedule was precomputed from the same
  topo order the eager engine uses;
* no state kept between calls — a replay's activations and gradients are
  freed when it returns, except the parameters' ``.grad``.

Because replay calls the *same* ``OpDef.fwd``/``OpDef.bwd`` kernels eager
dispatch calls, in the *same* order on the same values, results (losses,
every parameter gradient, entire training trajectories) are bit-identical
to eager mode; ``tests/test_graph_executor.py`` locks this.

Shape changes (e.g. a short final batch) transparently re-trace: programs
are cached per ``(x.shape, y.shape, default dtype)``, so each distinct
signature pays one eager step and replays thereafter.  A trace that is not
self-contained raises :class:`~repro.autograd.graph.ir.GraphCaptureError`
on its first call.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

import numpy as np

from ..tensor import Tensor, get_default_dtype
from .capture import capture
from .ir import GraphProgram, OpNode, build_program

__all__ = ["CompiledStep", "EagerStep"]


def _scalarize(array: np.ndarray) -> Union[float, np.ndarray]:
    return float(array) if array.size == 1 else np.array(array, copy=True)


class EagerStep:
    """Uniform step interface over plain eager execution.

    ``step(x, y)`` builds input tensors, runs the step function, calls
    ``backward()`` on its first output (leaving ``.grad`` populated), and
    returns the outputs as floats/arrays — the exact contract of
    :class:`CompiledStep`, whose replay the tests hold to it.
    """

    def __init__(self, step_fn: Callable):
        self.step_fn = step_fn

    def __call__(self, x, y) -> Tuple:
        outs = self.step_fn(Tensor(x), Tensor(y))
        outs = outs if isinstance(outs, tuple) else (outs,)
        outs[0].backward()
        return tuple(_scalarize(o.data) for o in outs)


class _ProgramRunner:
    """Replays one :class:`GraphProgram`.

    The program is flattened at construction into plain-tuple *plans* (no
    attribute lookups, no isinstance checks in the replay loop).  A runner
    keeps nothing between calls: activations, forward byproducts and
    gradients are locals of :meth:`run`, and the backward sweep drops each
    node's gradient and byproduct once it has used them.  Only the
    parameters' ``.grad`` arrays and the returned outputs outlive a call.
    """

    def __init__(self, program: GraphProgram):
        self.program = program
        # One entry per recorded node, in program order; an effect node
        # carries out_slot=-1.
        self._fwd_plan = [
            (node.fn, None, node.in_slots, -1)
            if type(node) is not OpNode else
            (node.op.fwd, node.attrs, node.in_slots, node.out_slot)
            for node in program.schedule]
        self._bwd_plan = [
            (step.node.op.bwd, step.node.attrs, step.node.in_slots,
             step.node.out_slot, step.needs, step.acc)
            for step in program.backward_steps]

    def run(self, inputs: Tuple[np.ndarray, ...]) -> Tuple:
        program = self.program
        dtype = program.dtype
        values: list = [None] * program.n_slots
        ctxs: list = [None] * program.n_slots

        # Bind leaves live (the optimizer mutates parameter storage in
        # place) and the fresh batch arrays.
        for slot, t in program.leaves:
            values[slot] = t.data
        for slot, array in zip(program.input_slots, inputs):
            if array.dtype != dtype:
                array = array.astype(dtype)
            values[slot] = array

        # Forward sweep in recorded program order (effects interleaved).
        for fn, attrs, in_slots, out_slot in self._fwd_plan:
            ins = [values[s] for s in in_slots]
            if out_slot < 0:
                fn(*ins)
                continue
            out, ctxs[out_slot] = fn(ins, attrs)
            # Mirror the Tensor() dtype coercion of eager dispatch.
            if not isinstance(out, np.ndarray) or out.dtype != dtype:
                out = np.asarray(out, dtype=dtype)
            values[out_slot] = out

        # Backward sweep: precomputed schedule, eager's accumulation order.
        grads: list = [None] * program.n_slots
        grads[program.root_slot] = np.ones_like(values[program.root_slot])
        for bwd, attrs, in_slots, out_slot, needs, acc in self._bwd_plan:
            gsrc, ctx = grads[out_slot], ctxs[out_slot]
            grads[out_slot] = ctxs[out_slot] = None
            ins = [values[s] for s in in_slots]
            for target, g in zip(acc, bwd(gsrc, ins, values[out_slot], ctx,
                                          attrs, needs)):
                if target is None or g is None:
                    continue
                slot, first, sole = target
                if not first:
                    grads[slot] += g
                elif (sole and g.base is None and g is not gsrc
                      and g.dtype == values[slot].dtype):
                    # Adopt a fresh kernel-owned array as this slot's
                    # gradient: the slot has exactly one contribution, so
                    # nothing accumulates into (or re-reads) the adopted
                    # array, and a full copy pass is saved.  Views and the
                    # upstream grad itself are excluded — adopting those
                    # would alias another slot's gradient.
                    grads[slot] = g
                else:
                    # 0.0 + g into a slot-shaped array: identical to
                    # eager's zeros-then-add, without the zeroing.
                    grads[slot] = np.add(g, 0.0,
                                         out=np.empty_like(values[slot]))

        for slot, t in program.grad_leaves:
            t.grad = grads[slot]
        return tuple(_scalarize(values[slot]) for slot in program.output_slots)


class CompiledStep:
    """Trace a training step once per input shape, then replay it.

    Parameters
    ----------
    step_fn:
        ``step_fn(x, y) -> Tensor | tuple`` building loss (first output)
        from input tensors.  It must construct its graph from module
        parameters, inline constants and the given inputs only, and compute
        every value-dependent decision inside a recorded op (a replay
        recomputes nothing else).  A step that reads a graph tensor built
        outside it raises :class:`GraphCaptureError` on its first call.

    Calls return the step outputs as floats (scalars) / arrays, with
    parameter ``.grad`` populated — the same contract as
    :class:`EagerStep`.
    """

    def __init__(self, step_fn: Callable):
        self.step_fn = step_fn
        self._runners: Dict[Tuple, _ProgramRunner] = {}

    # ------------------------------------------------------------------
    @property
    def compiled_shapes(self) -> Tuple[Tuple, ...]:
        """Input-shape keys with a compiled program (introspection/tests)."""
        return tuple(self._runners)

    def __call__(self, x, y) -> Tuple:
        x = np.asarray(x)
        y = np.asarray(y)
        # Programs are cached per (shapes, dtype): a short final batch
        # re-traces once per shape, and a set_default_dtype() flip re-traces
        # instead of silently replaying at the stale trace dtype.
        runner = self._runners.get((x.shape, y.shape, get_default_dtype()))
        if runner is not None:
            return runner.run((x, y))
        return self._trace(x, y)

    # ------------------------------------------------------------------
    def _trace(self, x: np.ndarray, y: np.ndarray) -> Tuple:
        """Run one step eagerly under capture and freeze it.

        The traced execution is itself a valid step (real loss, real
        gradients), so tracing never wastes a batch.
        """
        with capture() as tracer:
            tx, ty = Tensor(x), Tensor(y)
            tracer.add_input(tx)
            tracer.add_input(ty)
            outs = self.step_fn(tx, ty)
            outs = outs if isinstance(outs, tuple) else (outs,)
            outs[0].backward()
        program = build_program(tracer, outs[0], outs)
        key = (x.shape, y.shape, get_default_dtype())
        self._runners[key] = _ProgramRunner(program)
        return tuple(_scalarize(o.data) for o in outs)
