"""Tests for the L1 tiling solver."""

import pytest

from repro.hw.tiling import TileSpec, find_tiling, tiling_traffic

L1 = 64 * 1024


class TestFindTiling:
    def test_small_layer_untiled(self):
        tile = find_tiling(c_in=4, c_out=8, k=3, dilation=1, t_out=32)
        assert tile.num_tiles == 1
        assert tile.weights_resident
        assert tile.channels == 8
        assert tile.time == 32

    def test_large_layer_gets_tiled(self):
        # 150x150x33 int8 weights = 742 kB >> 64 kB.
        tile = find_tiling(c_in=150, c_out=150, k=33, dilation=1, t_out=128)
        assert tile.num_tiles > 1
        assert tile.channels < 150

    def test_tile_fits_l1(self):
        for args in [(150, 150, 33, 1, 128), (88, 150, 5, 1, 128),
                     (64, 128, 17, 1, 64), (512, 512, 9, 2, 64)]:
            tile = find_tiling(*args)
            assert tile is not None
            assert tile.working_set_bytes <= L1

    def test_time_tiling_before_channel_tiling(self):
        """Medium layers shrink time first, keeping all weights resident."""
        # Weights 32*64*9 = 18 kB fit easily; a huge T forces time tiling.
        tile = find_tiling(c_in=32, c_out=64, k=9, dilation=1, t_out=100_000)
        assert tile.channels == 64
        assert tile.time < 100_000
        assert tile.weights_resident

    def test_impossible_tiling_returns_none(self):
        # A single output-channel slice of weights already exceeds L1.
        tile = find_tiling(c_in=70_000, c_out=4, k=1, dilation=1, t_out=4)
        assert tile is None

    def test_custom_l1_budget(self):
        generous = find_tiling(150, 150, 33, 1, 128, l1_bytes=10 * 1024 * 1024)
        assert generous.num_tiles == 1

    def test_halo_accounted(self):
        """Higher dilation inflates the input halo, shrinking the tile."""
        small_halo = find_tiling(64, 64, 9, 1, 4096)
        big_halo = find_tiling(64, 64, 9, 8, 4096)
        assert big_halo.working_set_bytes <= L1
        assert (big_halo.channels, big_halo.time) <= (small_halo.channels,
                                                      small_halo.time)

    def test_unfittable_halo_returns_none(self):
        """A receptive field whose halo alone exceeds L1 cannot tile."""
        assert find_tiling(64, 64, 9, 64, 4096) is None


class TestTilingTraffic:
    def test_untiled_traffic_is_operand_sizes(self):
        tile = find_tiling(4, 8, 3, 1, 32)
        traffic = tiling_traffic(4, 8, 3, 1, 32, 32, tile)
        weights = 8 * 4 * 3 + 8 * 4
        halo = 2
        assert traffic == 4 * (32 + halo) + 8 * 32 + weights

    def test_channel_passes_reread_input(self):
        """Channel tiling multiplies input traffic by the number of passes."""
        tile_full = TileSpec(channels=8, time=32, num_tiles=1,
                             weights_resident=True, working_set_bytes=0)
        tile_half = TileSpec(channels=4, time=32, num_tiles=2,
                             weights_resident=False, working_set_bytes=0)
        full = tiling_traffic(16, 8, 3, 1, 32, 32, tile_full)
        half = tiling_traffic(16, 8, 3, 1, 32, 32, tile_half)
        assert half > full

    def test_time_tiles_pay_halo_once_each(self):
        tile_one = TileSpec(channels=8, time=32, num_tiles=1,
                            weights_resident=True, working_set_bytes=0)
        tile_four = TileSpec(channels=8, time=8, num_tiles=4,
                             weights_resident=True, working_set_bytes=0)
        one = tiling_traffic(4, 8, 5, 2, 32, 32, tile_one)
        four = tiling_traffic(4, 8, 5, 2, 32, 32, tile_four)
        halo = (5 - 1) * 2
        assert four - one == 4 * halo * 3  # 3 extra halos * c_in

    def test_weights_move_once(self):
        """Weight traffic is independent of the tiling decision."""
        tile_a = find_tiling(150, 150, 33, 1, 128)
        traffic = tiling_traffic(150, 150, 33, 1, 128, 128, tile_a)
        weights = 150 * 150 * 33 + 150 * 4
        assert traffic > weights  # sanity: weights are included exactly once


class TestGAP8Integration:
    def test_calibration_holds_with_tiling(self):
        from repro.hw import GAP8Model
        from repro.models import restcn_fixed
        report = GAP8Model().estimate(restcn_fixed(None), (1, 88, 128))
        assert report.latency_ms == pytest.approx(1002, rel=0.15)
