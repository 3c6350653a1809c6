"""Multi-tenant slot management over one batched streaming executor.

A :class:`StreamingPool` owns a :class:`repro.serving.StreamingExecutor`
built with ``batch == capacity`` and parks one client stream per batch
row.  Every :meth:`tick` advances *all* attached clients with a single
batched kernel call per layer — the amortization that makes one core
serve many low-rate sensor streams (the paper's 32 Hz PPG use case).

Attach/detach semantics
-----------------------

The executor's phase counters (conv-stride phases, pool-window fills) are
shared across the batch, so a row zeroed mid-stream behaves exactly like
a fresh stream only when its first sample lands on a tick that is a
multiple of ``total_stride``.  :meth:`attach` therefore reserves a slot
immediately but *activates* it (zeroes the row, starts consuming samples)
only at the next aligned tick; until then the slot is ``pending``.

Each output carries a ``warm`` flag: ``True`` once the slot has seen at
least ``warmup_ticks`` of its own samples, i.e. from the tick where a
fresh stream would have produced its first output.  Pre-warm frames of a
mid-stream attach are window-straddling mixtures of the zeroed history
and real samples — delivered (some applications want early estimates) but
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

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
    def free_slots(self) -> int:
        return len(self._free)

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
        """Release a slot (active or pending).  Its ring rows keep stale
        data until the next attach zeroes them."""
        if slot in self._active:
            del self._active[slot]
        elif slot in self._pending:
            self._pending.remove(slot)
        else:
            raise KeyError(f"slot {slot} is not attached")
        self._free.append(slot)
        self._free.sort()

    # -- the tick --------------------------------------------------------

    def tick(self, samples: Mapping[int, np.ndarray]) -> List[SlotOutput]:
        """Advance every stream by one sample.

        ``samples`` must hold one ``(channels,)`` sample for **every**
        active slot — the pool is barrier-synchronous, and enforcing the
        barrier here (instead of silently feeding zeros) is what lets the
        server apply backpressure per client.  A sample for a *pending*
        slot is consumed only if the tick is aligned (the slot activates
        and this is its first sample); supplying it on an unaligned tick
        is an error, since the pool cannot accept it yet.
        """
        active = set(self._active)
        supplied = set(samples)
        if self.aligned:
            # Pending slots whose first sample arrived activate now.
            for slot in list(self._pending):
                if slot in supplied:
                    self._pending.remove(slot)
                    self.executor.reset_slots([slot])
                    self._active[slot] = 0
                    active.add(slot)
        missing = active - supplied
        extra = supplied - active
        if missing:
            raise ValueError(f"missing samples for active slots "
                             f"{sorted(missing)} (barrier tick)")
        if extra:
            raise ValueError(f"samples supplied for slots {sorted(extra)} "
                             "which are not active this tick")

        batch = np.zeros((self.capacity, self.executor.channels, 1))
        for slot in active:
            batch[slot, :, 0] = np.asarray(samples[slot], dtype=np.float64)
        out = self.executor.push(batch)
        self.ticks += 1
        for slot in active:
            self._active[slot] += 1

        outputs: List[SlotOutput] = []
        if out.shape[2]:
            for slot in sorted(active):
                age = self._active[slot]
                outputs.append(SlotOutput(
                    slot=slot, frame=out[slot, :, -1].copy(),
                    tick=self.ticks,
                    warm=age >= self.executor.warmup_ticks))
        return outputs

    def __repr__(self) -> str:
        return (f"StreamingPool(capacity={self.capacity}, "
                f"active={len(self._active)}, pending={len(self._pending)}, "
                f"ticks={self.ticks})")
