"""Multi-tenant streaming inference server (stdlib asyncio, TCP + JSON).

One :class:`StreamServer` owns a :class:`repro.serving.StreamingPool` and
advances it with a barrier-synchronous tick loop: a tick runs only when
every *active* client has a sample queued, so all attached streams move
in lockstep and each tick is one batched kernel call per layer.

Protocol (newline-delimited JSON over TCP):

* on connect the server sends a hello::

      {"type": "hello", "slot": 3, "channels": 4,
       "warmup_ticks": 256, "period": 16, "pending": true}

* the client sends samples — either one ``(channels,)`` list per line, a
  ``(T, channels)`` list of lists, or ``{"type": "samples", "data": ...}``
  with the same payloads;
* the server answers with one line per emitted frame::

      {"type": "frame", "tick": 272, "warm": false, "data": [...]}

* ``{"type": "detach"}`` (or EOF) ends the session; queued samples are
  flushed through the pool first, then the connection closes.

Backpressure: each session buffers at most ``queue_size`` samples.  A
client that produces faster than the slowest co-tenant consumes fills its
queue, the server stops reading its socket, and TCP flow control pushes
back to the producer — no unbounded buffering anywhere.

Robustness: the barrier makes co-tenants each other's problem — one stuck
client stalls every aligned stream — so the server defends the barrier.
``client_timeout`` disconnects (with an error line) any client whose
socket stays silent longer than the budget, freeing its pool slot for the
waiting queue; oversized input lines (beyond ``max_line`` bytes) draw an
error instead of silently killing the reader task; and a client that dies
mid-tick is flushed and detached like a clean EOF, so the survivors'
barrier advances on the next sample.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional

import numpy as np

from ..nn.module import Module
from ..testing import faults
from .pool import StreamingPool

__all__ = ["StreamServer", "serve"]


class _Session:
    def __init__(self, slot: int, queue_size: int,
                 writer: asyncio.StreamWriter):
        self.slot = slot
        self.queue: asyncio.Queue = asyncio.Queue(queue_size)
        self.writer = writer
        self.closing = False
        self.done = asyncio.Event()


def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write((json.dumps(payload) + "\n").encode())


class StreamServer:
    """Serve a model to many concurrent streaming clients.

    Parameters
    ----------
    model:
        Fixed-dilation (or searched; exported automatically) network.
    capacity:
        Batch rows = maximum concurrent clients; further connections are
        refused with an error line.
    queue_size:
        Per-client sample buffer (the backpressure bound).
    max_sessions:
        When set, the server stops once this many sessions have fully
        detached and no client remains — a deterministic exit for tests
        and batch jobs.
    client_timeout:
        Idle budget in seconds: a client whose socket produces nothing for
        this long is sent an error line and disconnected, freeing its pool
        slot (an idle *active* client otherwise stalls the barrier for
        every co-tenant).  None (default) waits forever.
    max_line:
        Maximum input line length in bytes (the asyncio stream limit).  An
        oversized line draws an error line and a disconnect instead of the
        default behaviour (``LimitOverrunError`` silently killing the
        reader task while the connection lingers).
    """

    def __init__(self, model: Module, capacity: int = 8,
                 input_length: Optional[int] = None,
                 queue_size: int = 64,
                 max_sessions: Optional[int] = None,
                 client_timeout: Optional[float] = None,
                 max_line: int = 1 << 16):
        if client_timeout is not None and client_timeout <= 0:
            raise ValueError("client_timeout must be positive (or None)")
        self.pool = StreamingPool(model, capacity=capacity,
                                  input_length=input_length)
        self.queue_size = queue_size
        self.max_sessions = max_sessions
        self.client_timeout = client_timeout
        self.max_line = max_line
        self._sessions: Dict[int, _Session] = {}
        self._served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._ticker: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, host, port,
                                                  limit=self.max_line)
        self._ticker = asyncio.ensure_future(self._tick_loop())
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def wait_closed(self) -> None:
        """Block until the server stops (only happens with max_sessions)."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def close(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped is not None:
            self._stopped.set()

    # -- per-connection reader -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            slot = self.pool.attach()
        except RuntimeError as exc:
            _send(writer, {"type": "error", "error": str(exc)})
            await writer.drain()
            writer.close()
            return
        session = _Session(slot, self.queue_size, writer)
        self._sessions[slot] = session
        executor = self.pool.executor
        _send(writer, {"type": "hello", "slot": slot,
                       "channels": executor.channels,
                       "out_channels": executor.out_channels,
                       "warmup_ticks": executor.warmup_ticks,
                       "period": executor.period,
                       "receptive_field": executor.receptive_field,
                       "pending": not self.pool.aligned})
        await writer.drain()
        try:
            while True:
                try:
                    if self.client_timeout is not None:
                        line = await asyncio.wait_for(reader.readline(),
                                                      self.client_timeout)
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    _send(writer, {"type": "error",
                                   "error": f"idle timeout: no input for "
                                            f"{self.client_timeout:g}s"})
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # readline() wraps LimitOverrunError in ValueError; an
                    # unhandled one would kill this reader task silently
                    # while the connection lingered un-detached.
                    _send(writer, {"type": "error",
                                   "error": f"input line exceeds "
                                            f"{self.max_line} bytes"})
                    break
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError:
                    _send(writer, {"type": "error",
                                   "error": "malformed JSON line"})
                    break
                if isinstance(msg, dict):
                    if msg.get("type") == "detach":
                        break
                    data = msg.get("data")
                else:
                    data = msg
                frames = np.atleast_2d(np.asarray(data, dtype=np.float64))
                if frames.shape[1] != executor.channels:
                    _send(writer, {"type": "error",
                                   "error": f"expected {executor.channels} "
                                            f"channels, got {frames.shape[1]}"})
                    break
                for frame in frames:
                    await session.queue.put(frame)  # backpressure bound
                    self._kick()
        except ConnectionError:
            pass
        finally:
            session.closing = True
            self._kick()
            await session.done.wait()  # tick loop flushed + detached us
            try:
                await writer.drain()
                writer.close()
            except ConnectionError:
                pass

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- the barrier-synchronous tick loop --------------------------------

    def _collect(self):
        """Decide whether a tick can run; returns the samples to feed or
        None to wait.  Never consumes a sample it cannot feed."""
        pool = self.pool
        sessions = [self._sessions.get(slot) for slot in pool.active_slots]
        if any(s is None or s.queue.empty() for s in sessions):
            return None  # barrier: an active client has nothing queued
        samples = {s.slot: s.queue.get_nowait() for s in sessions}
        # Pending clients join at aligned ticks; their queued first sample
        # is consumed only then (the pool refuses it otherwise).
        progress = bool(samples)
        if pool.aligned:
            for slot in pool.pending_slots:
                session = self._sessions.get(slot)
                if session is not None and not session.queue.empty():
                    samples[slot] = session.queue.get_nowait()
                    progress = True
        elif not progress:
            # No active consumption this tick: advancing with zeros is
            # useful only to rotate phase toward alignment for a pending
            # client that already has data waiting.
            progress = any(
                self._sessions[slot].queue.qsize() > 0
                for slot in pool.pending_slots if slot in self._sessions)
        return samples if progress else None

    async def _tick_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                # Flush-and-detach sessions whose socket ended and whose
                # queue has drained.
                for session in list(self._sessions.values()):
                    if session.closing and session.queue.empty():
                        self.pool.detach(session.slot)
                        del self._sessions[session.slot]
                        self._served += 1
                        session.done.set()
                if (self.max_sessions is not None
                        and self._served >= self.max_sessions
                        and not self._sessions):
                    asyncio.ensure_future(self._shutdown())
                    return
                if not self._sessions:
                    break
                samples = self._collect()
                if samples is None:
                    break
                outputs = self.pool.tick(samples)
                fault = faults.fire("conn_drop", tick=self.pool.ticks)
                if fault is not None and self._sessions:
                    # Injected mid-tick connection loss: abort the chosen
                    # client's transport so its reader sees a reset — the
                    # exact failure mode of a client dying between ticks.
                    slot = fault.param("slot")
                    if slot not in self._sessions:
                        slot = min(self._sessions)
                    self._sessions[slot].writer.transport.abort()
                touched = set()
                for out in outputs:
                    session = self._sessions.get(out.slot)
                    if session is None:
                        continue
                    _send(session.writer,
                          {"type": "frame", "tick": out.tick,
                           "warm": out.warm, "data": out.frame.tolist()})
                    touched.add(out.slot)
                for slot in touched:
                    try:
                        await self._sessions[slot].writer.drain()
                    except (ConnectionError, KeyError):
                        pass
                # Yield so readers can refill queues between ticks.
                await asyncio.sleep(0)

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._ticker = None
        if self._stopped is not None:
            self._stopped.set()


async def serve(model: Module, host: str = "127.0.0.1", port: int = 0,
                **kwargs) -> None:
    """Convenience entry point: start a server and run until it stops."""
    server = StreamServer(model, **kwargs)
    address = await server.start(host, port)
    print(f"serving on {address[0]}:{address[1]} "
          f"(capacity {server.pool.capacity}, "
          f"warmup {server.pool.warmup_ticks} ticks, "
          f"period {server.pool.period})", flush=True)
    try:
        await server.wait_closed()
    finally:
        await server.close()
