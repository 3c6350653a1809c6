"""Multi-tenant slot management over one batched streaming executor.

A :class:`StreamingPool` owns a :class:`repro.serving.StreamingExecutor`
built with ``batch == capacity`` and parks one client stream per batch
row.  :meth:`~StreamingPool.advance` moves *all* attached clients by a
block of ``k`` samples with one executor push — one batched kernel call
per layer for the whole block, the amortization that makes one core serve
many low-rate sensor streams (the paper's 32 Hz PPG use case);
:meth:`~StreamingPool.tick` is its one-sample case.

Attach/detach semantics
-----------------------

The executor's phase counters (conv-stride phases, pool-window fills) are
shared across the batch, so a row zeroed mid-stream behaves exactly like
a fresh stream only when its first sample lands on a tick that is a
multiple of ``total_stride``.  :meth:`attach` therefore reserves a slot
immediately but *activates* it (zeroes the row, starts consuming samples)
only at an aligned tick, as the first tick of a block; until then the
slot is ``pending``.

Each output carries the exact tick it was emitted at — a fresh stream
emits at ``warmup_ticks`` and every ``period`` ticks after, and the shared
phase makes that the schedule of every slot — and a ``warm`` flag:
``True`` once the slot has seen at least ``warmup_ticks`` of its own
samples, i.e. from the tick where a fresh stream would have produced its
first output.  Pre-warm frames of a mid-stream attach are
window-straddling mixtures of the zeroed history and real samples —
delivered (some applications want early estimates) but flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..autograd import get_default_dtype
from ..nn.module import Module
from .streaming import StreamingExecutor

__all__ = ["StreamingPool", "SlotOutput"]


@dataclass
class SlotOutput:
    """One emitted frame of one client."""
    slot: int
    frame: np.ndarray  # (out_channels,)
    tick: int          # global tick the frame was emitted at
    warm: bool


class StreamingPool:
    """Fixed-capacity multi-tenant wrapper around a batched executor."""

    def __init__(self, model: Module, capacity: int = 8,
                 input_length: Optional[int] = None):
        self.executor = StreamingExecutor(model, batch=capacity,
                                          input_length=input_length)
        self.capacity = capacity
        self.ticks = 0
        self._free: List[int] = list(range(capacity))
        self._active: Dict[int, int] = {}   # slot -> age (own ticks seen)
        self._pending: List[int] = []

    # -- session management ---------------------------------------------

    @property
    def aligned(self) -> bool:
        """True when a stream starting this tick is phase-aligned."""
        return self.ticks % self.executor.total_stride == 0

    @property
    def active_slots(self) -> List[int]:
        return sorted(self._active)

    @property
    def pending_slots(self) -> List[int]:
        return list(self._pending)

    @property
    def warmup_ticks(self) -> int:
        return self.executor.warmup_ticks

    @property
    def period(self) -> int:
        return self.executor.period

    def attach(self) -> int:
        """Reserve a slot for a new client.

        The slot activates at the next phase-aligned tick on which its
        first sample is supplied; until then it is pending and consumes
        nothing.
        """
        if not self._free:
            raise RuntimeError(
                f"pool is full ({self.capacity} slots); detach a client "
                "first or raise the capacity")
        slot = self._free.pop(0)
        self._pending.append(slot)
        return slot

    def detach(self, slot: int) -> None:
        """Release a slot (active or pending).  Its history rows keep stale
        data until the next attach zeroes them."""
        if slot in self._active:
            del self._active[slot]
        elif slot in self._pending:
            self._pending.remove(slot)
        else:
            raise KeyError(f"slot {slot} is not attached")
        self._free.append(slot)
        self._free.sort()

    # -- advancing the streams -------------------------------------------

    def tick(self, samples: Mapping[int, np.ndarray]) -> List[SlotOutput]:
        """Advance every stream by one ``(channels,)`` sample: :meth:`advance`
        with one-sample blocks."""
        return self.advance({slot: np.asarray(sample)[None]
                             for slot, sample in samples.items()}, ticks=1)

    def advance(self, blocks: Mapping[int, np.ndarray],
                ticks: int) -> List[SlotOutput]:
        """Advance every stream by a block of ``k = ticks`` samples in one
        pass: one ``(capacity, channels, k)`` executor push, one kernel
        call per layer.

        ``blocks`` must hold one ``(k, channels)`` block for **every**
        active slot — the pool is barrier-synchronous, and enforcing the
        barrier here (instead of silently feeding zeros) is what lets the
        server apply backpressure per client.  A block for a *pending*
        slot is accepted only if the pool is aligned: the slot activates
        and its block starts at the first tick.  With no block at all the
        pool advances its phase by ``k`` ticks of zeros (toward alignment
        for a waiting slot).  A non-numeric block, a block of any other shape
        and a broken barrier all raise before any slot activates or any
        state moves.

        Returns the emitted frames in tick order (slot order within a
        tick), each with the exact tick it was emitted at.
        """
        channels = self.executor.channels
        for slot, block in blocks.items():
            if np.shape(block) != (ticks, channels):
                raise ValueError(
                    f"block for slot {slot} has shape {np.shape(block)}, "
                    f"expected ({ticks}, {channels})")
            dtype = np.asarray(block).dtype
            if dtype.kind not in "iuf":
                raise ValueError(f"block for slot {slot} is not numeric "
                                 f"(dtype {dtype})")
        if ticks < 1:
            raise ValueError(f"a block needs at least one tick, got {ticks}")
        supplied = set(blocks)
        # Pending slots whose first block arrived activate on an aligned
        # tick.
        joining = ([slot for slot in self._pending if slot in supplied]
                   if self.aligned else [])
        active = set(self._active) | set(joining)
        missing = active - supplied
        extra = supplied - active
        if missing:
            raise ValueError(f"missing samples for active slots "
                             f"{sorted(missing)} (barrier tick)")
        if extra:
            raise ValueError(f"samples supplied for slots {sorted(extra)} "
                             "which are not active this tick")
        for slot in joining:
            self._pending.remove(slot)
            self.executor.reset_slots([slot])
            self._active[slot] = 0

        batch = np.zeros((self.capacity, channels, ticks),
                         get_default_dtype())
        for slot in active:
            batch[slot] = np.asarray(blocks[slot]).T
        out = self.executor.push(batch)
        start = self.ticks
        self.ticks += ticks
        # A fresh stream emits at tick warmup_ticks and every period
        # after; the shared phase makes that the schedule of every slot.
        warmup, period = self.executor.warmup_ticks, self.executor.period
        first = max(start + 1, warmup)
        first += (warmup - first) % period
        emitted = range(first, self.ticks + 1, period)
        assert len(emitted) == out.shape[2], (
            f"executor emitted {out.shape[2]} frames over ticks "
            f"{start + 1}..{self.ticks}, the schedule says {len(emitted)}")

        outputs: List[SlotOutput] = []
        for column, tick in enumerate(emitted):
            for slot in sorted(active):
                age = self._active[slot] + tick - start
                outputs.append(SlotOutput(
                    slot=slot, frame=out[slot, :, column].copy(), tick=tick,
                    warm=age >= warmup))
        for slot in active:
            self._active[slot] += ticks
        return outputs

    def __repr__(self) -> str:
        return (f"StreamingPool(capacity={self.capacity}, "
                f"active={len(self._active)}, pending={len(self._pending)}, "
                f"ticks={self.ticks})")
