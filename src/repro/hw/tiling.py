"""L1 tiling for the GAP8 memory hierarchy.

GAP8's cluster computes out of a 64 kB single-cycle L1 scratchpad; layers
whose working set exceeds it must be *tiled*: the NN-Tool flow splits each
convolution into (output-channel × time) tiles, double-buffers them
through the cluster DMA, and executes tile-by-tile.  This module
implements that tiling decision analytically:

* :func:`find_tiling` — the largest (channel, time) tile whose working set
  (double-buffered) fits L1, preferring time-major tiles (weights stay
  resident, maximizing reuse — the TCN-friendly case);
* :func:`tiling_traffic` — total DMA bytes moved for a layer under a
  tiling, including weight re-fetches when the kernel does not stay
  resident.

The GAP8 latency model derives every conv layer's DMA term from these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["TileSpec", "find_tiling", "tiling_traffic"]


@dataclass
class TileSpec:
    """One tiling decision for a conv layer."""
    channels: int        # output channels per tile
    time: int            # output samples per tile
    num_tiles: int
    weights_resident: bool  # kernel stays in L1 across all tiles
    working_set_bytes: int


def _tile_bytes(c_in: int, c_out_tile: int, k: int, dilation: int,
                t_tile: int) -> int:
    """Working set of one (channel, time) tile, double-buffered I/O.

    The input tile must include the receptive-field halo
    ``(k - 1) * dilation`` on the left of the time window.
    """
    halo = (k - 1) * dilation
    weights = c_out_tile * c_in * k + c_out_tile * 4
    inputs = c_in * (t_tile + halo)
    outputs = c_out_tile * t_tile
    # Double-buffering: two copies of the I/O tiles in flight.
    return weights + 2 * (inputs + outputs)


def find_tiling(c_in: int, c_out: int, k: int, dilation: int,
                t_out: int, l1_bytes: int = 64 * 1024) -> Optional[TileSpec]:
    """Choose the largest ``(channel, time)`` tile fitting L1.

    Execution model (NN-Tool style): the outer loop walks channel tiles —
    each tile's weight slice is DMA'd in exactly once — and the inner loop
    sweeps time tiles with those weights resident.  Larger channel tiles
    are preferred (fewer input re-reads), then larger time tiles (less
    halo overhead).

    Returns None when even a (1-channel, 1-sample) tile does not fit —
    the layer cannot execute from L1 at all (never the case for the
    paper's networks, but callers must handle it).
    """
    c_tile = c_out
    while c_tile >= 1:
        t_tile = t_out
        while t_tile >= 1:
            size = _tile_bytes(c_in, c_tile, k, dilation, t_tile)
            if size <= l1_bytes:
                num = math.ceil(c_out / c_tile) * math.ceil(t_out / t_tile)
                return TileSpec(channels=c_tile, time=t_tile, num_tiles=num,
                                weights_resident=(c_tile == c_out),
                                working_set_bytes=size)
            if t_tile == 1:
                break
            t_tile = max(1, t_tile // 2)
        if c_tile == 1:
            break
        c_tile = max(1, c_tile // 2)
    return None


def tiling_traffic(c_in: int, c_out: int, k: int, dilation: int,
                   t_in: int, t_out: int, tile: TileSpec) -> int:
    """Total L2→L1 DMA bytes for one layer under a tiling decision.

    Weight slices move exactly once (the channel-outer/time-inner sweep
    keeps each slice resident for its whole time sweep); the input window
    is re-read once per channel pass, plus the halo overlap once per time
    tile; outputs move once.
    """
    halo = (k - 1) * dilation
    weight_bytes = c_out * c_in * k + c_out * 4
    time_tiles = math.ceil(t_out / tile.time)
    channel_passes = math.ceil(c_out / tile.channels)

    input_traffic = channel_passes * c_in * (t_out + halo * time_tiles)
    output_traffic = c_out * t_out
    return input_traffic + output_traffic + weight_bytes
