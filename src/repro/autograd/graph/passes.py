"""Optimization passes over a captured :class:`GraphProgram`.

PR 2's capture/replay executor replays the eager trace verbatim: one Python
dispatch and (for most ops) one fresh allocation per node per batch.  This
module rewrites the program the way a compiler would, while keeping replay
**bit-identical** to eager execution — the parity suite in
``tests/test_graph_executor.py`` is the contract every pass must honour.

The pipeline (level ``"default"``) runs four passes, in order:

1. **Constant folding** (:func:`fold_constants`) — ops whose inputs are all
   trace-time constants (non-gradient leaves: frozen PIT masks, Eq. 4
   matrices, scalar literals) are evaluated once at optimization time and
   their outputs bound as constant leaves.  Matters most in PIT phase 3,
   where freezing turns whole mask-product subgraphs constant.  Stateful
   ops (``dropout`` carries an ``rng`` attribute) are never folded.
2. **Dead-node elimination** (:func:`eliminate_dead_nodes`) — ops whose
   outputs feed neither a step output, the backward pass, nor a recorded
   side effect are dropped.  Side-effect nodes (BatchNorm running-stat
   updates) and everything they read always stay.
3. **Op fusion** (:func:`fuse_chains`) — maximal *contiguous linear chains*
   (each node's output consumed solely by the next schedule entry) collapse
   into one :class:`FusedOp` that runs the same kernels in the same order
   with one dispatch: conv+activation, bias+activation, BatchNorm affine
   tails, loss reductions (``sub→abs→mean``), softmax/log-softmax tails,
   mask cumulative products.  The fused backward replays the original
   backward sub-steps in their original order and routes interior
   gradients internally, so the global accumulation order — and therefore
   every bit of every gradient — is unchanged.
4. **Memory planning** (:func:`plan_memory`) — a liveness analysis over the
   slot IR assigns the outputs of ``fwd_out``-capable ops to a shared
   buffer *arena* (two slots reuse one buffer when their live ranges are
   disjoint), marks safe in-place ops (``relu``, ``add``/``sub``,
   scalar-``mul``, ``exp``/``tanh``/``sigmoid``) that overwrite a dying
   input, and keeps anything aliased by a numpy view (``reshape``,
   ``getitem`` slices) or read by a backward kernel alive.  All buffers are
   allocated once when the program is compiled, so steady-state replay
   performs no arena allocations (``CompiledStep.alloc_stats`` proves it).

Contiguity is what makes fusion trivially safe: nothing is reordered, so
recorded side effects and the dropout RNG stream fire in exactly the eager
order.  Chains whose backward steps are not a contiguous block of the
backward schedule are left unfused (gradient accumulation order into shared
slots could otherwise change, which is observable in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..tensor import Tensor
from .ir import BackwardStep, EffectNode, GraphProgram, OpNode

__all__ = [
    "OPT_LEVELS",
    "FusedOp",
    "MemoryPlan",
    "OptStats",
    "check_opt_level",
    "optimize_program",
    "fold_constants",
    "eliminate_dead_nodes",
    "fuse_chains",
    "plan_memory",
]

# "default" runs the pipeline (what training uses); "none" replays the
# trace verbatim, the reference the pass tests compare against.
OPT_LEVELS = ("default", "none")


def check_opt_level(level: str) -> str:
    """Return ``level`` if it names an optimization level, else raise."""
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown graph optimization level {level!r}; "
                         f"choose from {OPT_LEVELS}")
    return level


@dataclass
class OptStats:
    """What the pipeline did to one program (introspection/tests/benches)."""

    folded: int = 0          # ops evaluated at optimization time
    removed: int = 0         # dead ops dropped
    fused_groups: int = 0    # chains collapsed
    fused_nodes: int = 0     # ops absorbed into fused groups
    arena_buffers: int = 0   # shared forward buffers allocated
    arena_bytes: int = 0
    arena_reuses: int = 0    # buffer grants served by recycling a live range
    inplace_ops: int = 0     # ops writing their output over a dying input

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def _constant_leaf(value: np.ndarray) -> Tensor:
    """A detached leaf tensor binding ``value``'s exact bits (no coercion)."""
    t = Tensor(0.0)
    t.data = value
    return t


# ----------------------------------------------------------------------
# Pass 1: constant folding
# ----------------------------------------------------------------------

def fold_constants(program: GraphProgram) -> int:
    """Evaluate ops whose inputs are all trace-time constants.

    A slot is constant when it is a leaf without ``requires_grad`` (inline
    mask constants, frozen masks, scalar literals) or the output of an
    already-folded op.  Folded outputs are bound as new constant leaves —
    re-running the same pure kernels on the same constant inputs at replay
    time would reproduce the same bits, so pre-evaluating them once cannot
    change results.  Ops carrying an ``rng`` attribute (dropout) are
    stateful and never folded; ops with a backward step never qualify
    (their output requires grad, so some input was not constant).
    """
    inputs = set(program.input_slots)  # leaves list includes the step inputs
    const: Dict[int, np.ndarray] = {
        slot: t.data for slot, t in program.leaves
        if not t.requires_grad and slot not in inputs}
    has_step = {id(step.node) for step in program.backward_steps}
    dtype = program.dtype
    folded: List[Tuple[int, np.ndarray]] = []
    schedule = []
    for node in program.schedule:
        if (type(node) is OpNode and id(node) not in has_step
                and "rng" not in node.attrs
                and all(s in const for s in node.in_slots)):
            out, _ = node.op.fwd([const[s] for s in node.in_slots], node.attrs)
            # Mirror the Tensor() dtype coercion of eager dispatch.
            if not isinstance(out, np.ndarray) or out.dtype != dtype:
                out = np.asarray(out, dtype=dtype)
            const[node.out_slot] = out
            folded.append((node.out_slot, out))
            continue
        schedule.append(node)
    program.schedule = schedule
    for slot, value in folded:
        program.leaves.append((slot, _constant_leaf(value)))
        program.slot_meta[slot] = (value.shape, value.dtype)
    return len(folded)


# ----------------------------------------------------------------------
# Pass 2: dead-node elimination
# ----------------------------------------------------------------------

def eliminate_dead_nodes(program: GraphProgram) -> int:
    """Drop ops feeding nothing live.

    Live roots: the step outputs, the backward root, every slot a recorded
    side effect reads (BatchNorm running-stat updates must keep firing with
    the right values), and every slot the backward schedule touches.
    Side-effect nodes themselves are never dropped.
    """
    producer: Dict[int, OpNode] = {
        n.out_slot: n for n in program.schedule if type(n) is OpNode}
    stack: List[int] = list(program.output_slots)
    stack.append(program.root_slot)
    for node in program.schedule:
        if type(node) is EffectNode:
            stack.extend(node.in_slots)
    for step in program.backward_steps:
        stack.extend(step.node.in_slots)
        stack.append(step.node.out_slot)
    live: Set[int] = set()
    while stack:
        slot = stack.pop()
        if slot in live:
            continue
        live.add(slot)
        node = producer.get(slot)
        if node is not None:
            stack.extend(node.in_slots)
    before = len(program.schedule)
    program.schedule = [n for n in program.schedule
                        if type(n) is EffectNode or n.out_slot in live]
    return before - len(program.schedule)


# ----------------------------------------------------------------------
# Pass 3: op fusion
# ----------------------------------------------------------------------

class FusedOp:
    """An :class:`~repro.autograd.tensor.OpDef`-compatible fusion of a
    contiguous linear chain of recorded ops.

    The fused forward runs the member kernels in recorded order on interior
    scratch buffers (``fwd_out`` variants write into persistent per-chain
    buffers); the fused backward replays the member backward kernels in
    their original backward-schedule order, accumulating interior gradients
    internally and returning external gradients in the exact sequence the
    unfused accumulation loop would have processed them.  Both directions
    therefore cost one dispatch instead of one per member, with unchanged
    numerics.

    ``sub`` entries are ``(op, attrs, gather, meta)`` where ``gather`` maps
    kernel argument positions to fused inputs (index ``k >= 0`` reads
    ``ins[k]``) or interior results (``k < 0`` reads chain position ``~k``).

    Interior gradients replicate the runner's adopt-or-copy discipline
    (same ``first``/``sole`` flags, same ``np.add(g, 0.0, out=buf)`` copy)
    rather than passing kernel outputs through raw: a kernel may return a
    view or an oddly-strided array (``einsum`` products), and although the
    *values* are identical, a downstream reduction's pairwise summation
    order depends on memory layout — normalizing into contiguous buffers
    exactly as the unfused runner does keeps every bit equal.
    """

    # OpDef-compatible surface consumed by the executor / planner.  The
    # fused bwd manages its members' scratch dicts itself, so it exposes
    # bwd_scratch=None to the runner.
    fwd_out = None
    bwd_scratch = None
    inplace: Dict[int, Tuple[int, ...]] = {}

    # Forward sub-entry kinds (mirrors the runner's plan-entry encoding).
    _F_FWD, _F_OUT, _F_SCRATCH = 0, 1, 2

    def __init__(self, sub: Sequence[Tuple], dtype):
        self.sub = tuple(sub)
        self.dtype = dtype
        self.name = "fused:" + "+".join(entry[0].name for entry in sub)
        self.bwd_plan: Tuple = ()        # filled by _build_fused_backward
        self.ext_value_reads: Set[int] = set()   # fused-input indices read by bwd
        self.out_value_read = False      # fused output value read by bwd
        self.bwd_uses: Tuple[str, ...] = ()
        self.view_of: Optional[int] = None
        self._last = len(self.sub) - 1
        self._igbufs: Dict[int, np.ndarray] = {}  # interior copy buffers
        self._xbufs: Dict[Tuple[int, int], np.ndarray] = {}  # external copies
        # Flattened forward plan with buffers/scratch bound up front, so
        # the replay loop is as lean as the runner's own.
        plan = []
        for op, sattrs, gather, meta in self.sub:
            if op.fwd_out is not None:
                plan.append((self._F_OUT, op.fwd_out, sattrs, gather,
                             np.empty(*meta)))
            elif op.fwd_scratch is not None:
                plan.append((self._F_SCRATCH, op.fwd_scratch, sattrs, gather,
                             {}))
            else:
                plan.append((self._F_FWD, op.fwd, sattrs, gather, None))
        self._fwd_plan = tuple(plan)
        self._vals = [None] * len(self.sub)
        self._ctxs = [None] * len(self.sub)

    def __repr__(self) -> str:
        return f"FusedOp({self.name!r}, n={len(self.sub)})"

    # -- forward -------------------------------------------------------
    def fwd(self, ins, attrs):
        return self.fwd_scratch(ins, attrs, {})

    def fwd_scratch(self, ins, attrs, scratch):
        vals = self._vals
        ctxs = self._ctxs
        dtype = self.dtype
        j = 0
        for kind, fn, sattrs, gather, extra in self._fwd_plan:
            sins = [ins[k] if k >= 0 else vals[~k] for k in gather]
            if kind == 1:
                ctxs[j] = fn(sins, sattrs, extra)
                vals[j] = extra
            else:
                if kind == 2:
                    out, ctxs[j] = fn(sins, sattrs, extra)
                else:
                    out, ctxs[j] = fn(sins, sattrs)
                # Mirror the Tensor() dtype coercion of eager dispatch.
                if not isinstance(out, np.ndarray) or out.dtype != dtype:
                    out = np.asarray(out, dtype=dtype)
                vals[j] = out
            j += 1
        return vals[-1], (vals, ctxs)

    # -- backward ------------------------------------------------------
    def bwd(self, g, ins, out, ctx, attrs, needs):
        vals, ctxs = ctx
        igrads: list = [None] * len(self.sub)
        igrads[-1] = g
        igbufs = self._igbufs
        flat: List[Optional[np.ndarray]] = []
        append = flat.append
        for pos, fn, sattrs, gather, sneeds, int_routes, ext_routes, scratch \
                in self.bwd_plan:
            gnode = igrads[pos]
            sins = [ins[k] if k >= 0 else vals[~k] for k in gather]
            if scratch is None:
                grads = fn(gnode, sins, vals[pos], ctxs[pos], sattrs, sneeds)
            else:
                grads = fn(gnode, sins, vals[pos], ctxs[pos], sattrs, sneeds,
                           scratch)
            # Interior gradients: same adopt-or-copy the runner applies to
            # grad slots, so they match the unfused buffers bit for bit
            # *and* in memory layout.
            for gidx, target, first, sole, rdtype, rshape in int_routes:
                gp = grads[gidx]
                if gp is None:
                    continue
                if not first:
                    igrads[target] += gp
                elif (sole and gp.base is None and gp is not gnode
                      and gp.dtype == rdtype):
                    igrads[target] = gp
                else:
                    buf = igbufs.get(target)
                    if buf is None:
                        buf = igbufs[target] = np.empty(rshape, rdtype)
                    np.add(gp, 0.0, out=buf)
                    igrads[target] = buf
            # Never hand one array to two accumulation targets, nor the
            # sub-step's own gradient source (the runner may adopt returned
            # arrays as gradient buffers, and an alias — e.g. add's (g, g)
            # passthrough, or a persistent scratch buffer — would let one
            # slot scribble over another).  Duplicates can only come from
            # one kernel's own return tuple, so the check is per sub-step.
            # The copy goes into a per-route persistent buffer so
            # passthrough gradients do not reintroduce steady-state
            # allocations.
            prev = None
            for gidx in ext_routes:
                gp = grads[gidx]
                if gp is not None:
                    if gp is gnode or gp is prev:
                        key = (pos, gidx)
                        buf = self._xbufs.get(key)
                        if buf is None or buf.shape != gp.shape \
                                or buf.dtype != gp.dtype:
                            buf = self._xbufs[key] = np.empty(gp.shape,
                                                              gp.dtype)
                        np.copyto(buf, gp)
                        gp = buf
                    prev = gp
                append(gp)
        return flat


def _chain_runs(program: GraphProgram) -> List[List[int]]:
    """Maximal contiguous linear chains eligible for fusion."""
    schedule = program.schedule
    n = len(schedule)
    outputs = set(program.output_slots)
    effect_reads: Set[int] = set()
    consumers: Dict[int, List[int]] = {}
    for idx, node in enumerate(schedule):
        if type(node) is EffectNode:
            effect_reads.update(node.in_slots)
            continue
        for s in set(node.in_slots):
            consumers.setdefault(s, []).append(idx)
    runs: List[List[int]] = []
    i = 0
    while i < n:
        if type(schedule[i]) is EffectNode:
            i += 1
            continue
        run = [i]
        j = i
        while j + 1 < n and type(schedule[j + 1]) is not EffectNode:
            s = schedule[j].out_slot
            if (s in outputs or s in effect_reads
                    or consumers.get(s) != [j + 1]):
                break
            run.append(j + 1)
            j += 1
        if len(run) >= 2:
            runs.append(run)
        i = run[-1] + 1
    return runs


def _backward_block(run_nodes: List[OpNode], step_index: Dict[int, int]
                    ) -> Optional[List[int]]:
    """Backward-schedule indices of the chain's steps, verified fusable.

    Returns the indices (ascending) when they form one contiguous block
    that visits the chain nodes in exactly reverse chain order — the
    precondition for replacing them with a single fused step without
    changing the order of any gradient accumulation.  None otherwise.
    """
    indexed = [(step_index[id(nd)], pos) for pos, nd in enumerate(run_nodes)
               if id(nd) in step_index]
    if not indexed:
        return []
    indexed.sort()
    indices = [bi for bi, _ in indexed]
    positions = [pos for _, pos in indexed]
    contiguous = indices[-1] - indices[0] == len(indices) - 1
    reverse_order = all(a > b for a, b in zip(positions, positions[1:]))
    return indices if contiguous and reverse_order else None


def _alias_ext(sub, pos: int) -> Optional[int]:
    """Fused-input index whose storage chain position ``pos`` may alias,
    following view ops transitively; None when the value is chain-private."""
    while True:
        op, _attrs, gather, _meta = sub[pos]
        if op.view_of is None:
            return None
        k = gather[op.view_of]
        if k >= 0:
            return k
        pos = ~k


def _build_fused(program: GraphProgram, run: List[int],
                 step_index: Dict[int, int]):
    """Build the fused node + backward step for one verified run."""
    schedule = program.schedule
    nodes = [schedule[k] for k in run]
    pos_of_slot = {nd.out_slot: p for p, nd in enumerate(nodes)}

    ext_slots: List[int] = []
    sub: List[Tuple] = []
    for p, nd in enumerate(nodes):
        gather: List[int] = []
        for s in nd.in_slots:
            pp = pos_of_slot.get(s)
            if pp is not None and pp < p:
                gather.append(~pp)
            else:
                gather.append(len(ext_slots))
                ext_slots.append(s)
        sub.append((nd.op, nd.attrs, tuple(gather),
                    program.slot_meta[nd.out_slot]))

    fused = FusedOp(sub, program.dtype)
    fused.view_of = _alias_ext(sub, len(sub) - 1)
    fused_node = OpNode(fused, tuple(ext_slots), nodes[-1].out_slot, {})

    # Backward plan: the chain's steps in their original backward order.
    block = [program.backward_steps[bi]
             for bi in (_backward_block(nodes, step_index) or [])]
    bwd_plan: List[Tuple] = []
    flat_needs: List[bool] = []
    flat_acc: List = []
    for step in block:
        nd = step.node
        p = pos_of_slot[nd.out_slot]
        op, sattrs, gather, _meta = sub[p]
        # Value reads of the fused backward: externals this sub-step's
        # kernel reads, including storage reached through interior views.
        reads: Set[int] = set()
        if "ins" in op.bwd_uses:
            for k in gather:
                if k >= 0:
                    reads.add(k)
                else:
                    ak = _alias_ext(sub, ~k)
                    if ak is not None:
                        reads.add(ak)
        if "out" in op.bwd_uses:
            if p == len(sub) - 1:
                fused.out_value_read = True
            else:
                ak = _alias_ext(sub, p)
                if ak is not None:
                    reads.add(ak)
        fused.ext_value_reads.update(reads)
        int_routes: List[Tuple] = []
        ext_routes: List[int] = []
        for gidx, (s, acc_entry, need) in enumerate(
                zip(nd.in_slots, step.acc, step.needs)):
            pp = pos_of_slot.get(s)
            if pp is not None and pp < p:
                # Interior: keep the original first/sole flags so the fused
                # backward replicates the runner's adopt-or-copy exactly.
                if acc_entry is not None:
                    ishape, idtype = sub[pp][3]
                    int_routes.append((gidx, pp, acc_entry[1], acc_entry[2],
                                       idtype, ishape))
            elif acc_entry is not None:
                ext_routes.append(gidx)
                flat_needs.append(need)
                flat_acc.append(acc_entry)
        bwd_plan.append((p, op.bwd_scratch or op.bwd, sattrs, gather,
                         step.needs, tuple(int_routes), tuple(ext_routes),
                         {} if op.bwd_scratch is not None else None))
    fused.bwd_plan = tuple(bwd_plan)
    fused.bwd_uses = ("ins",) if fused.ext_value_reads else ()
    if fused.out_value_read:
        fused.bwd_uses = fused.bwd_uses + ("out",)

    fused_step = (BackwardStep(fused_node, tuple(flat_needs), tuple(flat_acc))
                  if block else None)
    interior = [nd.out_slot for nd in nodes[:-1]]
    return fused_node, fused_step, [id(st) for st in block], interior


def fuse_chains(program: GraphProgram) -> Tuple[int, int]:
    """Collapse contiguous linear chains into :class:`FusedOp` nodes.

    Returns ``(groups, nodes_absorbed)``.
    """
    step_index = {id(step.node): i
                  for i, step in enumerate(program.backward_steps)}
    replacements: Dict[int, Tuple] = {}   # first schedule idx -> build result
    skip_sched: Set[int] = set()
    groups = absorbed = 0
    for run in _chain_runs(program):
        nodes = [program.schedule[k] for k in run]
        if _backward_block(nodes, step_index) is None:
            continue  # fusing would reorder gradient accumulation
        replacements[run[0]] = _build_fused(program, run, step_index)
        skip_sched.update(run[1:])
        groups += 1
        absorbed += len(run)

    if not groups:
        return 0, 0

    new_schedule: List = []
    replaced_steps: Dict[int, BackwardStep] = {}   # old step id -> fused step
    dropped_steps: Set[int] = set()
    for idx, node in enumerate(program.schedule):
        if idx in skip_sched:
            continue
        built = replacements.get(idx)
        if built is None:
            new_schedule.append(node)
            continue
        fused_node, fused_step, block_ids, interior = built
        new_schedule.append(fused_node)
        if fused_step is not None:
            # block_ids is in backward-schedule order; the fused step takes
            # the block's first position, the rest are dropped.
            replaced_steps[block_ids[0]] = fused_step
            dropped_steps.update(block_ids[1:])
        for slot in interior:
            program.grad_slots.discard(slot)
    new_steps: List[BackwardStep] = []
    for step in program.backward_steps:
        sid = id(step)
        if sid in dropped_steps:
            continue
        new_steps.append(replaced_steps.get(sid, step))
    program.schedule = new_schedule
    program.backward_steps = new_steps
    return groups, absorbed - groups


# ----------------------------------------------------------------------
# Pass 4: memory planning
# ----------------------------------------------------------------------

@dataclass
class MemoryPlan:
    """Static buffer assignment for one program's forward sweep."""

    buffers: List[Tuple[Tuple[int, ...], object]] = field(default_factory=list)
    out_buffer: Dict[int, int] = field(default_factory=dict)  # sched idx -> buffer
    inplace: Dict[int, int] = field(default_factory=dict)     # sched idx -> arg pos
    arena_bytes: int = 0
    reuses: int = 0


class _AliasGroups:
    """Union-find over slots that may share storage (views, in-place)."""

    def __init__(self):
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, List[int]] = {}

    def find(self, s: int) -> int:
        parent = self._parent
        root = s
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(s, s) != s:
            parent[s], s = root, parent[s]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        merged = self.members(ra) + self.members(rb)
        self._parent[ra] = rb
        self._members.pop(ra, None)
        self._members[rb] = merged

    def members(self, s: int) -> List[int]:
        root = self.find(s)
        return self._members.setdefault(root, [root])


def plan_memory(program: GraphProgram) -> MemoryPlan:
    """Liveness analysis + arena assignment + in-place marking.

    Works on the post-fusion schedule.  A slot's value is *live* until its
    last forward read (including side-effect reads and step outputs) unless
    some backward kernel will read it, in which case it survives the whole
    replay.  View ops union their output with the aliased input so shared
    storage is never recycled while any alias is live.
    """
    schedule = program.schedule
    meta = program.slot_meta
    end = len(schedule)
    leafish = {s for s, _ in program.leaves} | set(program.input_slots)
    outputs = set(program.output_slots)
    producer_idx = {node.out_slot: idx for idx, node in enumerate(schedule)
                    if type(node) is OpNode}

    last_fwd: Dict[int, int] = {}
    for idx, node in enumerate(schedule):
        for s in node.in_slots:
            last_fwd[s] = idx
    for s in outputs:
        last_fwd[s] = end

    # Which slots some backward kernel will read the *value* of.
    has_step = {id(st.node): st for st in program.backward_steps}
    bwd_readers: Dict[int, Set[int]] = {}
    out_read: Set[int] = set()
    for idx, node in enumerate(schedule):
        if type(node) is not OpNode or id(node) not in has_step:
            continue
        op = node.op
        if isinstance(op, FusedOp):
            for k in op.ext_value_reads:
                bwd_readers.setdefault(node.in_slots[k], set()).add(idx)
            if op.out_value_read:
                out_read.add(node.out_slot)
        else:
            if "ins" in op.bwd_uses:
                for s in node.in_slots:
                    bwd_readers.setdefault(s, set()).add(idx)
            if "out" in op.bwd_uses:
                out_read.add(node.out_slot)

    groups = _AliasGroups()
    for node in schedule:
        if type(node) is OpNode and node.op.view_of is not None:
            groups.union(node.out_slot, node.in_slots[node.op.view_of])

    def group_stats(s: int):
        mem = groups.members(s)
        return (
            max(last_fwd.get(m, producer_idx.get(m, -1)) for m in mem),
            any(m in leafish for m in mem),
            any(m in outputs for m in mem),
            any(m in out_read for m in mem),
            set().union(*(bwd_readers.get(m, set()) for m in mem)),
        )

    plan = MemoryPlan()

    # -- in-place marking ----------------------------------------------
    for idx, node in enumerate(schedule):
        if type(node) is not OpNode:
            continue
        op = node.op
        if op.fwd_out is None or not op.inplace:
            continue
        step = has_step.get(id(node))
        needs = step.needs if step is not None else None
        oshape, odtype = meta[node.out_slot]
        for p in sorted(op.inplace):
            if p >= len(node.in_slots):
                continue
            guard = op.inplace[p]
            if needs is not None and any(q < len(needs) and needs[q]
                                         for q in guard):
                continue
            s = node.in_slots[p]
            if s not in producer_idx:
                continue  # never scribble on parameters or batch inputs
            g_last, g_leaf, g_out, g_outread, g_readers = group_stats(s)
            if g_leaf or g_out or g_outread or g_last > idx:
                continue
            # Backward reads are only tolerable from this very node (the
            # op declared its kernel alias-tolerant, e.g. relu's mask).
            if g_readers - {idx}:
                continue
            if meta[s] != (oshape, odtype):
                continue
            plan.inplace[idx] = p
            groups.union(s, node.out_slot)
            break

    # -- arena assignment ----------------------------------------------
    free: Dict[Tuple, List[int]] = {}
    release_at: Dict[int, List[int]] = {}
    for idx, node in enumerate(schedule):
        for b in release_at.pop(idx, ()):
            free.setdefault(plan.buffers[b], []).append(b)
        if type(node) is not OpNode or idx in plan.inplace:
            continue
        op = node.op
        if op.fwd_out is None or isinstance(op, FusedOp):
            continue
        s = node.out_slot
        g_last, g_leaf, g_out, g_outread, g_readers = group_stats(s)
        if g_leaf:
            continue
        shape, dtype = meta[s]
        key = (shape, np.dtype(dtype))
        pool = free.get(key)
        if pool:
            b = pool.pop()
            plan.reuses += 1
        else:
            b = len(plan.buffers)
            plan.buffers.append(key)
        plan.out_buffer[idx] = b
        if not (g_out or g_outread or g_readers) and g_last < end:
            # Free for reuse from the entry after the last reader: the
            # reader itself must not see its input buffer as its output
            # (that is exactly what the explicit in-place path is for).
            release_at.setdefault(g_last + 1, []).append(b)
    plan.arena_bytes = sum(
        int(np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize
        for shape, dt in plan.buffers)
    return plan


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------

def optimize_program(program: GraphProgram,
                     level: str = "default") -> OptStats:
    """Run the pass pipeline in place; returns what it did.

    ``level="none"`` leaves the program untouched (verbatim replay);
    ``"default"`` runs folding → DCE → fusion → memory planning.
    """
    stats = OptStats()
    if check_opt_level(level) == "none":
        return stats
    stats.folded = fold_constants(program)
    stats.removed = eliminate_dead_nodes(program)
    stats.fused_groups, stats.fused_nodes = fuse_chains(program)
    plan = plan_memory(program)
    program.mem_plan = plan
    stats.arena_buffers = len(plan.buffers)
    stats.arena_bytes = plan.arena_bytes
    stats.arena_reuses = plan.reuses
    stats.inplace_ops = len(plan.inplace)
    return stats
