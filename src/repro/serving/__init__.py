"""Streaming inference serving (ROADMAP item 4).

* :mod:`repro.serving.streaming` — history-tail streaming executor:
  O(K) MACs per new sample instead of re-running the receptive field,
  one kernel call per layer per chunk;
* :mod:`repro.serving.pool` — multi-tenant slot pool advancing many
  client streams by a block of samples with one batched kernel call per
  layer;
* :mod:`repro.serving.server` — asyncio TCP server (newline-JSON
  protocol, per-client attach/detach, warm-up flags, backpressure);
* :mod:`repro.serving.client` — matching test/smoke client.
"""

from .client import stream_samples
from .pool import SlotOutput, StreamingPool
from .server import StreamServer, serve
from .streaming import (
    StreamingExecutor,
    StreamingUnsupported,
    stream_module,
)

__all__ = [
    "SlotOutput",
    "StreamServer",
    "StreamingExecutor",
    "StreamingPool",
    "StreamingUnsupported",
    "serve",
    "stream_module",
    "stream_samples",
]
