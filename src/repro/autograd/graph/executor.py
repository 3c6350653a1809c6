"""Replay executor: run a captured training step without building a graph.

:class:`CompiledStep` wraps a step function ``step_fn(x, y) -> (loss, ...)``
(tensors in, tensors out).  The first call per input shape *traces*: the
step runs eagerly under a :class:`GraphCapture` — producing real losses and
gradients — and is frozen into a :class:`GraphProgram`.  The program is then
rewritten by the optimization pass pipeline (:mod:`.passes`: constant
folding, dead-node elimination, op fusion, liveness-planned buffer reuse)
unless ``optimize="none"``.  Every later call with that shape *replays* the
optimized program: a flat loop over recorded kernels on slot-indexed numpy
buffers, with

* no ``Tensor`` objects, no parent tuples, no per-op bookkeeping;
* no topological sort — the backward schedule was precomputed from the same
  topo order the eager engine uses;
* preallocated gradient buffers and a shared forward buffer *arena*
  (liveness-disjoint intermediates reuse one buffer; safe ops write over a
  dying input in place), so steady-state replay performs no arena
  allocations — :attr:`CompiledStep.alloc_stats` proves it.

Because replay invokes the *same* kernels in the *same* order on the same
values as eager execution would — fused regions run their member kernels
internally, folded constants were produced by those very kernels at trace
time — results (losses, every parameter gradient, entire training
trajectories) are bit-identical to eager mode; ``tests/test_graph_executor.py``
and ``tests/test_graph_passes.py`` lock this.

Shape changes (e.g. a short final batch) transparently re-trace: programs
are cached per ``(x.shape, y.shape, default dtype)``, so each distinct
signature pays one eager step and replays thereafter.  Captures that fail
— value-dependent control flow announced via ``mark_capture_unsafe`` —
poison the step permanently and it runs eagerly, which is always correct;
see :attr:`CompiledStep.fallback_reason`.

A ``CompiledStep`` is single-threaded (per-replay scratch lives in the
program nodes); concurrent trainers — e.g. parallel DSE workers — each
compile their own step.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor, get_default_dtype
from .capture import capture
from .ir import GraphCaptureError, GraphProgram, OpNode, build_program
from .passes import FusedOp, OptStats, check_opt_level, optimize_program

__all__ = [
    "CompiledStep",
    "EagerStep",
    "compile_step_default",
    "ENV_COMPILE",
]

ENV_COMPILE = "REPRO_COMPILE_STEP"


def compile_step_default() -> bool:
    """Process-wide default for ``compile_step=None`` knobs.

    True when the ``REPRO_COMPILE_STEP`` environment variable is a truthy
    flag (``1``/``true``/``yes``/``on``); read per call so tests can flip it.
    """
    return os.environ.get(ENV_COMPILE, "").strip().lower() in ("1", "true", "yes", "on")


def _scalarize(array: np.ndarray) -> Union[float, np.ndarray]:
    return float(array) if array.size == 1 else np.array(array, copy=True)


class EagerStep:
    """Uniform step interface over plain eager execution.

    ``step(x, y)`` builds input tensors, runs the step function, calls
    ``backward()`` on its first output (leaving ``.grad`` populated), and
    returns the outputs as floats/arrays — the exact contract of
    :class:`CompiledStep`, so trainers can hold either interchangeably.
    """

    def __init__(self, step_fn: Callable):
        self.step_fn = step_fn

    def __call__(self, x, y) -> Tuple:
        outs = self.step_fn(Tensor(x), Tensor(y))
        outs = outs if isinstance(outs, tuple) else (outs,)
        outs[0].backward()
        return tuple(_scalarize(o.data) for o in outs)


# Forward-plan entry kinds (first tuple element), chosen so the replay loop
# is one integer compare away from the right call shape.
_K_FWD, _K_OUT, _K_SCRATCH, _K_EFFECT, _K_INPLACE = 0, 1, 2, 3, 4


class _ProgramRunner:
    """Replays one :class:`GraphProgram` with preallocated buffers.

    The program is flattened further at construction into plain-tuple
    *plans* (no attribute lookups, no isinstance checks in the replay
    loop); all per-replay scratch — gradient buffers, the forward buffer
    arena, op scratch dicts — is allocated here once.  When the program
    carries a memory plan (optimizer on), ``fwd_out``-capable ops write
    into liveness-shared arena buffers or, for planner-approved in-place
    ops, straight over a dying input.
    """

    def __init__(self, program: GraphProgram):
        self.program = program
        self.values: list = [None] * program.n_slots
        # Gradient buffers: one per slot that receives gradients, allocated
        # once from the traced shapes and reused for every replay.
        meta = program.slot_meta
        self.grad_bufs = {slot: np.empty(*meta[slot])
                          for slot in program.grad_slots}
        plan = program.mem_plan
        self.arena = ([np.empty(shape, dtype) for shape, dtype in plan.buffers]
                      if plan is not None else [])

        fwd_plan = []
        for idx, node in enumerate(program.schedule):
            if type(node) is not OpNode:
                fwd_plan.append((_K_EFFECT, node.fn, None,
                                 node.in_slots, -1, None, None))
                continue
            op = node.op
            if plan is not None and idx in plan.inplace:
                fwd_plan.append((_K_INPLACE, op.fwd_out, node.attrs,
                                 node.in_slots, node.out_slot, node,
                                 plan.inplace[idx]))
            elif op.fwd_out is not None:
                if plan is not None and idx in plan.out_buffer:
                    buf = self.arena[plan.out_buffer[idx]]
                else:
                    buf = np.empty(*meta[node.out_slot])
                fwd_plan.append((_K_OUT, op.fwd_out, node.attrs,
                                 node.in_slots, node.out_slot, node, buf))
            elif op.fwd_scratch is not None:
                fwd_plan.append((_K_SCRATCH, op.fwd_scratch, node.attrs,
                                 node.in_slots, node.out_slot, node, {}))
            else:
                fwd_plan.append((_K_FWD, op.fwd, node.attrs,
                                 node.in_slots, node.out_slot, node, None))
        self._fwd_plan = fwd_plan
        # Steps whose op has a scratch-aware backward get a persistent
        # work-buffer dict (conv adjoints, reduction broadcasts).
        self._bwd_plan = [
            (step.node.op.bwd_scratch or step.node.op.bwd,
             step.node.attrs, step.node.in_slots,
             step.node.out_slot, step.node, step.needs, step.acc,
             {} if step.node.op.bwd_scratch is not None else None)
            for step in program.backward_steps]
        self._out_plan = [(slot, int(np.prod(meta[slot][0], dtype=np.int64)) == 1)
                          for slot in program.output_slots]

    # ------------------------------------------------------------------
    def persistent_buffers(self) -> int:
        """Count of long-lived replay buffers (arena, grads, op scratch).

        Re-counted on demand; a steady-state replay must not grow it —
        ``CompiledStep.alloc_stats`` exposes the delta between calls.
        """
        count = len(self.arena) + len(self.grad_bufs)
        for kind, _fn, _attrs, _ins, _out, node, extra in self._fwd_plan:
            if kind == _K_OUT:
                count += 1
            elif kind == _K_SCRATCH:
                op = node.op
                if isinstance(op, FusedOp):
                    for skind, _f, _a, _g, sextra in op._fwd_plan:
                        if skind == FusedOp._F_OUT:
                            count += 1
                        elif skind == FusedOp._F_SCRATCH:
                            count += len(sextra)
                    count += len(op._igbufs) + len(op._xbufs)
                    for entry in op.bwd_plan:
                        if entry[-1] is not None:
                            count += len(entry[-1])
                else:                  # plain op scratch (e.g. conv xp)
                    count += len(extra)
        for *_rest, scratch in self._bwd_plan:
            if scratch is not None:
                count += len(scratch)
        return count

    def run(self, inputs: Tuple[np.ndarray, ...]) -> Tuple:
        program = self.program
        values = self.values
        dtype = program.dtype

        # Bind leaves live (the optimizer mutates parameter storage in
        # place) and the fresh batch arrays.
        for slot, t in program.leaves:
            values[slot] = t.data
        for slot, array in zip(program.input_slots, inputs):
            if array.dtype != dtype:
                array = array.astype(dtype)
            values[slot] = array

        # Forward sweep in recorded program order (effects interleaved).
        for kind, fn, attrs, in_slots, out_slot, node, extra in self._fwd_plan:
            ins = [values[s] for s in in_slots]
            if kind == _K_FWD:
                out, node.ctx = fn(ins, attrs)
                # Mirror the Tensor() dtype coercion of eager dispatch.
                if not isinstance(out, np.ndarray) or out.dtype != dtype:
                    out = np.asarray(out, dtype=dtype)
                values[out_slot] = out
            elif kind == _K_OUT:
                node.ctx = fn(ins, attrs, extra)
                values[out_slot] = extra
            elif kind == _K_SCRATCH:
                out, node.ctx = fn(ins, attrs, extra)
                if not isinstance(out, np.ndarray) or out.dtype != dtype:
                    out = np.asarray(out, dtype=dtype)
                values[out_slot] = out
            elif kind == _K_INPLACE:
                # Planner-approved: the overwritten input is dead and the
                # op's backward is alias-tolerant for it.
                buf = ins[extra]
                node.ctx = fn(ins, attrs, buf)
                values[out_slot] = buf
            else:
                fn(*ins)

        # Backward sweep: precomputed schedule, preallocated buffers.
        grad_bufs = self.grad_bufs
        grad_bufs[program.root_slot].fill(1.0)
        for bwd, attrs, in_slots, out_slot, node, needs, acc, scratch \
                in self._bwd_plan:
            gsrc = grad_bufs[out_slot]
            ins = [values[s] for s in in_slots]
            if scratch is None:
                grads = bwd(gsrc, ins, values[out_slot], node.ctx, attrs, needs)
            else:
                grads = bwd(gsrc, ins, values[out_slot], node.ctx, attrs,
                            needs, scratch)
            for target, g in zip(acc, grads):
                if target is None or g is None:
                    continue
                slot, first, sole = target
                if not first:
                    grad_bufs[slot] += g
                elif (sole and g.base is None and g is not gsrc
                      and g.dtype == grad_bufs[slot].dtype):
                    # Adopt a fresh kernel-owned array as this slot's
                    # gradient: the slot has exactly one contribution, so
                    # nothing accumulates into (or re-reads) the adopted
                    # buffer, and a full copy pass is saved.  Views and the
                    # upstream grad itself are excluded — adopting those
                    # would alias another slot's buffer.
                    grad_bufs[slot] = g
                else:
                    # 0.0 + g: identical to eager's zeros-then-add, without
                    # the zeroing.
                    np.add(g, 0.0, out=grad_bufs[slot])

        for slot, t in program.grad_leaves:
            t.grad = grad_bufs[slot]
        return tuple(float(values[slot]) if scalar
                     else np.array(values[slot], copy=True)
                     for slot, scalar in self._out_plan)


class CompiledStep:
    """Trace a training step once per input shape, then replay it.

    Parameters
    ----------
    step_fn:
        ``step_fn(x, y) -> Tensor | tuple`` building loss (first output)
        from input tensors.  It must construct its graph from module
        parameters, inline constants and the given inputs only; anything
        value-dependent must call
        :func:`repro.autograd.mark_capture_unsafe`, which turns this step
        into a permanent (correct) eager fallback.
    optimize:
        Graph-optimization level applied to each traced program:
        ``"default"`` (fold/DCE/fuse + memory planning — bit-identical,
        faster; what training always uses) or ``"none"`` (replay the trace
        verbatim — the reference the pass-pipeline tests compare against).

    Calls return the step outputs as floats (scalars) / arrays, with
    parameter ``.grad`` populated — the same contract as
    :class:`EagerStep`.
    """

    def __init__(self, step_fn: Callable, optimize: str = "default"):
        self.step_fn = step_fn
        self.optimize = check_opt_level(optimize)
        self._runners: Dict[Tuple, _ProgramRunner] = {}
        self._opt_stats: Dict[Tuple, OptStats] = {}
        self._buffer_mark: Optional[int] = None
        self._eager = EagerStep(step_fn)  # fallback path, built once
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def compiled_shapes(self) -> Tuple[Tuple, ...]:
        """Input-shape keys with a compiled program (introspection/tests)."""
        return tuple(self._runners)

    @property
    def opt_stats(self) -> Dict[Tuple, Dict[str, int]]:
        """Per-shape pass-pipeline statistics (folded/removed/fused/...)."""
        return {key: stats.as_dict() for key, stats in self._opt_stats.items()}

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Replay allocation accounting across all compiled shapes.

        ``persistent_buffers`` counts every long-lived buffer (gradient
        buffers, the forward arena, fused/conv scratch);
        ``steady_state_growth`` is the change since the previous
        ``alloc_stats`` read — after a warm-up replay per shape it must be
        zero, which is the "replay allocates nothing" guarantee the perf
        smoke asserts.
        """
        stats = {
            "programs": len(self._runners),
            "arena_buffers": 0,
            "arena_bytes": 0,
            "grad_buffers": 0,
            "inplace_ops": 0,
            "persistent_buffers": 0,
        }
        for key, runner in self._runners.items():
            plan = runner.program.mem_plan
            if plan is not None:
                stats["arena_buffers"] += len(plan.buffers)
                stats["arena_bytes"] += plan.arena_bytes
                stats["inplace_ops"] += len(plan.inplace)
            stats["grad_buffers"] += len(runner.grad_bufs)
            stats["persistent_buffers"] += runner.persistent_buffers()
        previous = self._buffer_mark
        self._buffer_mark = stats["persistent_buffers"]
        stats["steady_state_growth"] = (0 if previous is None
                                        else stats["persistent_buffers"] - previous)
        return stats

    def diagnostics(self) -> Dict[str, object]:
        """One JSON-able report of what compilation did (CLI ``--verbose``).

        Bundles the optimization level, the eager-fallback reason, the
        pass-pipeline statistics per compiled shape and the allocation
        accounting (note: reading it re-arms the steady-state marker, like
        :attr:`alloc_stats`).
        """
        return {
            "optimize": self.optimize,
            "fallback_reason": self.fallback_reason,
            "opt_stats": {str(key): stats
                          for key, stats in self.opt_stats.items()},
            "alloc_stats": self.alloc_stats,
        }

    def __call__(self, x, y) -> Tuple:
        if self.fallback_reason is not None:
            return self._eager(x, y)
        x = np.asarray(x)
        y = np.asarray(y)
        # Programs are cached per (shapes, dtype): a short final batch
        # re-traces once per shape, and a set_default_dtype() flip re-traces
        # instead of silently replaying at the stale trace dtype.  The conv
        # backend is deliberately *not* in the key — a program keeps its
        # trace-time kernels (locked by the executor parity suite).
        runner = self._runners.get((x.shape, y.shape, get_default_dtype()))
        if runner is not None:
            return runner.run((x, y))
        return self._trace(x, y)

    # ------------------------------------------------------------------
    def _trace(self, x: np.ndarray, y: np.ndarray) -> Tuple:
        """Run one step eagerly under capture; freeze it if possible.

        The traced execution is itself a valid step (real loss, real
        gradients), so tracing never wastes a batch — and a failed capture
        simply leaves its eager results as the step's results.  The frozen
        program is optimized before its first replay.
        """
        with capture() as tracer:
            tx, ty = Tensor(x), Tensor(y)
            tracer.add_input(tx)
            tracer.add_input(ty)
            outs = self.step_fn(tx, ty)
            outs = outs if isinstance(outs, tuple) else (outs,)
            outs[0].backward()
        values = tuple(_scalarize(o.data) for o in outs)
        if tracer.failure is not None:
            self.fallback_reason = tracer.failure
            return values
        try:
            program = build_program(tracer, outs[0], outs)
        except GraphCaptureError as exc:
            self.fallback_reason = str(exc)
            return values
        key = (x.shape, y.shape, get_default_dtype())
        self._opt_stats[key] = optimize_program(program, self.optimize)
        self._runners[key] = _ProgramRunner(program)
        return values
