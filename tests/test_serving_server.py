"""Multi-tenant pool semantics and the asyncio streaming server.

The pool tests pin the attach/detach/alignment contract (a mid-stream
attach is fresh-stream-equal only from a phase-aligned tick, pre-warm
frames are flagged); the server tests run real TCP round-trips with the
bundled client and check that concurrent tenants each get exactly the
frames a dedicated single-stream executor would have produced.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.autograd import get_default_dtype
from repro.nn import AvgPool1d, CausalConv1d, ReLU, Sequential
from repro.serving import StreamServer, StreamingExecutor, StreamingPool
from repro.serving.client import stream_samples

RNG = np.random.default_rng(321)

if np.dtype(get_default_dtype()) == np.float64:
    TOL = dict(atol=1e-12)
else:
    TOL = dict(atol=1e-4, rtol=1e-4)


def make_net(strided=False, seed=0):
    rng = np.random.default_rng(seed)
    if strided:
        return Sequential(CausalConv1d(2, 5, 3, stride=2, rng=rng), ReLU(),
                          CausalConv1d(5, 3, 3, stride=2, rng=rng)).eval()
    return Sequential(CausalConv1d(2, 5, 3, dilation=2, rng=rng), ReLU(),
                      CausalConv1d(5, 3, 3, dilation=4, rng=rng)).eval()


def fresh_frames(net, samples):
    """Per-tick frames a dedicated fresh stream would emit for (T, C)."""
    executor = StreamingExecutor(net, batch=1)
    out = executor.push(samples.T[None])
    return [out[0, :, i] for i in range(out.shape[2])]


class TestStreamingPool:
    def test_attach_until_full(self):
        pool = StreamingPool(make_net(), capacity=2)
        assert pool.attach() == 0
        assert pool.attach() == 1
        with pytest.raises(RuntimeError, match="full"):
            pool.attach()
        pool.detach(0)
        assert pool.attach() == 0

    def test_detach_unknown_slot(self):
        pool = StreamingPool(make_net(), capacity=2)
        with pytest.raises(KeyError):
            pool.detach(1)

    def test_barrier_missing_sample_raises(self):
        pool = StreamingPool(make_net(), capacity=2)
        a, b = pool.attach(), pool.attach()
        pool.tick({a: np.ones(2), b: np.ones(2)})  # both activate
        with pytest.raises(ValueError, match="missing"):
            pool.tick({a: np.ones(2)})

    def test_extra_sample_raises(self):
        pool = StreamingPool(make_net(), capacity=2)
        a = pool.attach()
        pool.tick({a: np.ones(2)})
        with pytest.raises(ValueError, match="not active"):
            pool.tick({a: np.ones(2), 1: np.ones(2)})

    def test_pending_waits_for_alignment(self):
        pool = StreamingPool(make_net(strided=True), capacity=2)
        stride = pool.executor.total_stride
        assert stride == 4
        a = pool.attach()
        pool.tick({a: RNG.standard_normal(2)})  # ticks=1: now unaligned
        b = pool.attach()
        assert b in pool.pending_slots
        with pytest.raises(ValueError, match="not active"):
            pool.tick({a: np.ones(2), b: np.ones(2)})
        while pool.ticks % stride:
            pool.tick({a: RNG.standard_normal(2)})
        pool.tick({a: RNG.standard_normal(2), b: RNG.standard_normal(2)})
        assert b in pool.active_slots

    def test_single_stream_matches_fresh_executor(self):
        net = make_net()
        pool = StreamingPool(net, capacity=3)
        slot = pool.attach()
        samples = RNG.standard_normal((9, 2))
        want = fresh_frames(net, samples)
        got = []
        for sample in samples:
            for out in pool.tick({slot: sample}):
                assert out.slot == slot
                got.append(out.frame)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.allclose(g, w, **TOL)

    def test_midstream_attach_is_fresh_stream_equal_once_warm(self):
        net = make_net(strided=True)
        pool = StreamingPool(net, capacity=2)
        stride = pool.executor.total_stride
        warmup = pool.executor.warmup_ticks
        a = pool.attach()
        for _ in range(2 * stride):  # advance to an aligned tick
            pool.tick({a: RNG.standard_normal(2)})
        b = pool.attach()
        samples_b = RNG.standard_normal((3 * stride, 2))
        want = fresh_frames(net, samples_b)
        got = []
        for sample in samples_b:
            outs = pool.tick({a: RNG.standard_normal(2), b: sample})
            for out in outs:
                if out.slot == b:
                    got.append(out)
        assert len(got) == len(want)
        for out, w in zip(got, want):
            assert np.allclose(out.frame, w, **TOL)
            # warm iff the slot has seen warmup_ticks of its own samples
            age = out.tick - 2 * stride
            assert out.warm == (age >= warmup)

    def test_outputs_only_for_active_slots(self):
        pool = StreamingPool(make_net(), capacity=3)
        a = pool.attach()
        outs = pool.tick({a: np.ones(2)})
        assert {o.slot for o in outs} <= {a}

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.ones(3), [1.0, [2.0]]],
                             ids=["2d", "wrong-channels", "ragged"])
    def test_malformed_sample_raises_before_any_state_moves(self, bad):
        pool = StreamingPool(make_net(), capacity=2)
        a = pool.attach()
        pool.tick({a: np.ones(2)})
        b = pool.attach()  # pending until its first sample
        tails = [state.tail.copy() for state in pool.executor._states]
        with pytest.raises(ValueError, match="shape|sequence"):
            pool.tick({a: np.ones(2), b: bad})
        assert pool.pending_slots == [b] and pool.active_slots == [a]
        assert pool.ticks == 1
        for state, tail in zip(pool.executor._states, tails):
            assert np.array_equal(state.tail, tail)

    @pytest.mark.parametrize("feed, message", [
        (lambda a, b: {a: np.ones(2), b: np.array(["a", "b"])},
         "not numeric"),
        (lambda a, b: {a: np.ones(2), b: np.ones(2), 2: np.ones(2)},
         "not active"),
        (lambda a, b: {b: np.ones(2)}, "missing"),
    ], ids=["non-numeric", "unattached-slot", "missing-active"])
    def test_rejected_tick_leaves_slots_unchanged(self, feed, message):
        pool = StreamingPool(make_net(), capacity=3)
        a = pool.attach()
        pool.tick({a: np.ones(2)})
        b = pool.attach()  # pending until its first sample
        tails = [state.tail.copy() for state in pool.executor._states]
        with pytest.raises(ValueError, match=message):
            pool.tick(feed(a, b))
        assert pool.pending_slots == [b] and pool.active_slots == [a]
        assert pool.ticks == 1
        for state, tail in zip(pool.executor._states, tails):
            assert np.array_equal(state.tail, tail)


class TestBlockAdvance:
    """``advance`` moves every stream by a whole block in one pass; it
    must emit exactly what the same samples fed one ``tick`` at a time
    emit: the same frames bit for bit, at the same ticks, with the same
    warm flags."""

    @staticmethod
    def segments(stride):
        """``(action, blocks, ticks)`` steps: slot 0 alone off alignment,
        slot 1 attaching mid-stream and waiting for an aligned tick, both
        together, slot 0 leaving, and slot 2 attaching with nobody active
        (a zero block up to alignment)."""
        def block(k):
            return RNG.standard_normal((k, 2))

        steps = [("attach", None, None), ("advance", {0: block(3)}, 3),
                 ("attach", None, None)]
        if (-3) % stride:
            steps.append(("advance", {0: block((-3) % stride)},
                          (-3) % stride))
        steps += [("advance", {0: block(13), 1: block(13)}, 13),
                  ("detach", 0, None), ("advance", {1: block(6)}, 6),
                  ("detach", 1, None), ("attach", None, None)]
        done = 3 + (-3) % stride + 13 + 6
        if (-done) % stride:
            steps.append(("advance", {}, (-done) % stride))
        steps.append(("advance", {0: block(9)}, 9))
        return steps

    @pytest.mark.parametrize("topology", ["dilated", "strided", "pooled"])
    def test_advance_equals_repeated_tick(self, topology):
        if topology == "pooled":  # pre-warm frames: warmup 5, period 4
            rng = np.random.default_rng(1)
            net = Sequential(CausalConv1d(2, 5, 3, stride=2, rng=rng),
                             ReLU(), AvgPool1d(3, 2)).eval()
        else:
            net = make_net(strided=topology == "strided")
        executor = StreamingExecutor(net)
        stride, warmup = executor.total_stride, executor.warmup_ticks
        assert (stride, warmup) == {"dilated": (1, 1), "strided": (4, 1),
                                    "pooled": (4, 5)}[topology]
        by_tick = StreamingPool(net, capacity=3)
        by_block = StreamingPool(net, capacity=3)
        ticked, blocked, joined = [], [], {}
        for action, blocks, ticks in self.segments(stride):
            if action == "attach":
                assert by_tick.attach() == by_block.attach()
                continue
            if action == "detach":
                by_tick.detach(blocks)
                by_block.detach(blocks)
                continue
            for slot in set(blocks) - set(by_block.active_slots):
                joined[slot] = by_block.ticks
            for i in range(ticks):
                ticked += by_tick.tick({slot: b[i]
                                        for slot, b in blocks.items()})
            outputs = by_block.advance(blocks, ticks)
            for out in outputs:  # the schedule and warm flags themselves
                assert (out.tick - warmup) % executor.period == 0
                assert out.warm == (out.tick - joined[out.slot] >= warmup)
            blocked += outputs
            assert by_block.ticks == by_tick.ticks
            assert by_block.active_slots == by_tick.active_slots
        assert joined[1] % stride == 0 and joined[1] > 0
        assert len(blocked) == len(ticked) > 0
        for got, want in zip(blocked, ticked):
            assert (got.slot, got.tick, got.warm) == \
                (want.slot, want.tick, want.warm)
            assert np.array_equal(got.frame, want.frame)

    def test_advance_validates_blocks(self):
        pool = StreamingPool(make_net(), capacity=2)
        a, b = pool.attach(), pool.attach()
        with pytest.raises(ValueError, match="expected \\(3, 2\\)"):
            pool.advance({a: np.ones((3, 2)), b: np.ones((2, 2))}, 3)
        with pytest.raises(ValueError, match="at least one tick"):
            pool.advance({a: np.ones((0, 2)), b: np.ones((0, 2))}, 0)
        assert pool.ticks == 0 and pool.pending_slots == [a, b]
        outs = pool.advance({a: np.ones((3, 2)), b: np.ones((3, 2))}, 3)
        assert [(o.slot, o.tick) for o in outs] == [
            (a, 1), (b, 1), (a, 2), (b, 2), (a, 3), (b, 3)]


def run(coro):
    return asyncio.run(coro)


class TestStreamServer:
    def test_partial_barrier_keeps_queued_samples(self):
        """A block blocked on one active client must not consume the other
        clients' samples: slot 0's first queued sample is row 0 of its
        next block, and what the block does not take stays queued."""
        from repro.serving.server import _Session

        first, later = RNG.standard_normal(2), RNG.standard_normal(2)
        second = RNG.standard_normal(2)

        async def scenario():
            server = StreamServer(make_net(), capacity=2)
            a, b = server.pool.attach(), server.pool.attach()
            server.pool.tick({a: np.ones(2), b: np.ones(2)})  # both active
            for slot in (a, b):
                server._sessions[slot] = _Session(slot, 4, writer=None)
            server._sessions[a].queue.put_nowait(first)
            server._sessions[a].queue.put_nowait(later)
            blocked = server._collect()     # b has nothing queued yet
            server._sessions[b].queue.put_nowait(second)
            block = server._collect()
            left = [server._sessions[slot].queue.qsize() for slot in (a, b)]
            return (a, b), blocked, block, left

        (a, b), blocked, block, left = run(scenario())
        assert blocked is None
        assert block is not None
        blocks, ticks = block
        assert ticks == 1  # the shallower queue bounds the block
        assert np.array_equal(blocks[a], first[None])
        assert np.array_equal(blocks[b], second[None])
        assert left == [1, 0]  # slot 0's second sample is still queued

    def test_single_client_round_trip(self):
        net = make_net()
        samples = RNG.standard_normal((10, 2))
        want = fresh_frames(net, samples)

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=1)
            host, port = await server.start()
            result = await stream_samples(host, port, samples)
            await server.wait_closed()
            return result

        result = run(scenario())
        assert result["error"] is None
        hello = result["hello"]
        assert hello["channels"] == 2
        assert hello["out_channels"] == 3
        assert hello["warmup_ticks"] == 1
        assert hello["period"] == 1
        frames = result["frames"]
        assert len(frames) == len(want)
        for msg, w in zip(frames, want):
            assert np.allclose(msg["data"], w, **TOL)
            assert msg["warm"] is True

    def test_concurrent_clients_each_get_their_own_frames(self):
        net = make_net()
        xs = [RNG.standard_normal((12, 2)) for _ in range(3)]
        wants = [fresh_frames(net, x) for x in xs]

        async def scenario():
            server = StreamServer(net, capacity=4, max_sessions=3)
            host, port = await server.start()
            results = await asyncio.gather(
                *(stream_samples(host, port, x) for x in xs))
            await server.wait_closed()
            return results

        results = run(scenario())
        for result, want in zip(results, wants):
            assert result["error"] is None
            assert len(result["frames"]) == len(want)
            for msg, w in zip(result["frames"], want):
                assert np.allclose(msg["data"], w, **TOL)

    def test_backpressure_bounded_queue_still_serves_everything(self):
        net = make_net()
        samples = RNG.standard_normal((50, 2))
        want = fresh_frames(net, samples)

        async def scenario():
            server = StreamServer(net, capacity=1, queue_size=4,
                                  max_sessions=1)
            host, port = await server.start()
            result = await stream_samples(host, port, samples, chunk=50)
            await server.wait_closed()
            return result

        result = run(scenario())
        assert len(result["frames"]) == len(want)
        for msg, w in zip(result["frames"], want):
            assert np.allclose(msg["data"], w, **TOL)

    @pytest.mark.parametrize("strided", [False, True],
                             ids=["dilated", "strided"])
    def test_two_client_burst_matches_fresh_executors(self, strided):
        """Both clients send everything at once; the server advances them
        in blocks bounded by the queues, and each still gets, bit for bit,
        the frames of a dedicated fresh executor."""
        net = make_net(strided=strided)
        xs = [RNG.standard_normal((61, 2)) for _ in range(2)]
        wants = [fresh_frames(net, x) for x in xs]

        async def scenario():
            server = StreamServer(net, capacity=2, queue_size=16,
                                  max_sessions=2)
            host, port = await server.start()
            results = await asyncio.gather(
                *(stream_samples(host, port, x, chunk=len(x)) for x in xs))
            await server.wait_closed()
            return results

        for result, want in zip(run(scenario()), wants):
            assert result["error"] is None
            assert len(result["frames"]) == len(want)
            for msg, w in zip(result["frames"], want):
                assert msg["warm"] is True
                assert np.array_equal(np.asarray(msg["data"], w.dtype), w)

    def test_server_full_refuses_with_error(self):
        net = make_net()

        async def scenario():
            server = StreamServer(net, capacity=1, max_sessions=1)
            host, port = await server.start()
            # First client occupies the only slot and idles.
            reader, writer = await asyncio.open_connection(host, port)
            hello = json.loads(await reader.readline())
            assert hello["type"] == "hello"
            second = await stream_samples(host, port, np.ones((2, 2)))
            writer.close()  # EOF -> first session detaches -> shutdown
            await server.wait_closed()
            return second

        second = run(scenario())
        assert second["error"] is not None
        assert "full" in second["error"]
        assert second["frames"] == []

    def test_wrong_channel_count_errors(self):
        net = make_net()

        async def scenario():
            server = StreamServer(net, capacity=1, max_sessions=1)
            host, port = await server.start()
            result = await stream_samples(host, port, np.ones((4, 3)))
            await server.wait_closed()
            return result

        result = run(scenario())
        assert "channels" in result["error"]

    def test_strided_model_flags_prewarm_frames(self):
        net = make_net(strided=True)
        warmup = StreamingExecutor(net).warmup_ticks
        samples = RNG.standard_normal((4 * warmup, 2))

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=1)
            host, port = await server.start()
            result = await stream_samples(host, port, samples)
            await server.wait_closed()
            return result

        result = run(scenario())
        assert result["hello"]["warmup_ticks"] == warmup
        for msg in result["frames"]:
            assert msg["warm"] == (msg["tick"] >= warmup)


class TestServerRobustness:
    """The barrier makes co-tenants each other's problem; these tests pin
    the defenses: idle-client timeouts free pool slots, oversized lines
    draw an error instead of silently killing the reader, and a client
    dying mid-stream never stalls the survivors' barrier."""

    def test_idle_client_disconnected_and_slot_freed(self):
        net = make_net()
        samples = RNG.standard_normal((6, 2))
        want = fresh_frames(net, samples)

        async def scenario():
            server = StreamServer(net, capacity=1, max_sessions=2,
                                  client_timeout=0.15)
            host, port = await server.start()
            # The idler occupies the only slot and sends nothing.
            reader, writer = await asyncio.open_connection(host, port)
            hello = json.loads(await reader.readline())
            assert hello["type"] == "hello"
            error = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert error["type"] == "error"
            assert "idle timeout" in error["error"]
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            writer.close()
            # Its slot is free again: a second client streams normally.
            result = await stream_samples(host, port, samples)
            await asyncio.wait_for(server.wait_closed(), 5)
            return result

        result = run(scenario())
        assert result["error"] is None
        assert len(result["frames"]) == len(want)
        for msg, w in zip(result["frames"], want):
            assert np.allclose(msg["data"], w, **TOL)

    def test_oversized_line_draws_error(self):
        net = make_net()

        async def scenario():
            server = StreamServer(net, capacity=1, max_sessions=1,
                                  max_line=64)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            json.loads(await reader.readline())  # hello
            writer.write(b"[" + b"[1.0, 1.0], " * 32 + b"[1.0, 1.0]]\n")
            await writer.drain()
            msg = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            writer.close()
            await asyncio.wait_for(server.wait_closed(), 5)
            return msg

        msg = run(scenario())
        assert msg["type"] == "error"
        assert "exceeds 64 bytes" in msg["error"]

    @pytest.mark.parametrize("line", [
        {"data": [[[1, 2], [1, 2]]]},   # (1, 2, 2): passes a shape[1] check
        {"data": "abc"},
        [[1, 2], [3]],                   # ragged
        [True, False],
        {"type": "samples"},             # no data at all
    ], ids=["3d", "string", "ragged", "bool", "missing"])
    def test_malformed_data_draws_error(self, line):
        async def scenario():
            server = StreamServer(make_net(), capacity=1, max_sessions=1)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            json.loads(await reader.readline())  # hello
            writer.write((json.dumps(line) + "\n").encode())
            await writer.drain()
            msg = json.loads(await asyncio.wait_for(reader.readline(), 5))
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            writer.close()
            await asyncio.wait_for(server.wait_closed(), 5)
            return msg

        msg = run(scenario())
        assert msg["type"] == "error"
        assert "2 channels" in msg["error"]

    def test_malformed_data_does_not_stall_cotenant(self):
        """A sample array of the wrong rank used to pass the channel check
        and kill the tick loop inside StreamingPool.tick, so every other
        client stopped receiving frames."""
        net = make_net()
        samples = RNG.standard_normal((12, 2))
        want = fresh_frames(net, samples)

        async def read_frames(reader, count):
            frames = []
            while len(frames) < count:
                msg = json.loads(await asyncio.wait_for(reader.readline(), 5))
                assert msg["type"] == "frame"
                frames.append(msg["data"])
            return frames

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=2)
            host, port = await server.start()
            sr, sw = await asyncio.open_connection(host, port)
            json.loads(await sr.readline())  # hello
            sw.write((json.dumps(samples[:6].tolist()) + "\n").encode())
            await sw.drain()
            frames = await read_frames(sr, 6)
            # A second client sends one malformed line mid-stream.
            br, bw = await asyncio.open_connection(host, port)
            json.loads(await br.readline())  # hello
            bw.write(b'{"data": [[[1, 2], [1, 2]]]}\n')
            await bw.drain()
            error = json.loads(await asyncio.wait_for(br.readline(), 5))
            bw.close()
            # The co-tenant keeps streaming to the end.
            sw.write((json.dumps(samples[6:].tolist()) + "\n").encode())
            sw.write(b'{"type": "detach"}\n')
            await sw.drain()
            frames += await read_frames(sr, len(want) - 6)
            assert await asyncio.wait_for(sr.readline(), 5) == b""
            sw.close()
            await asyncio.wait_for(server.wait_closed(), 5)
            return error, frames

        error, frames = run(scenario())
        assert error["type"] == "error"
        assert len(frames) == len(want)
        for got, w in zip(frames, want):
            assert np.allclose(got, w, **TOL)

    def test_client_dying_mid_stream_does_not_stall_cotenant(self):
        net = make_net()
        samples = RNG.standard_normal((12, 2))
        want = fresh_frames(net, samples)

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=2)
            host, port = await server.start()
            # The victim queues samples, then its connection dies abruptly
            # (no detach, no EOF handshake) mid-stream.
            vr, vw = await asyncio.open_connection(host, port)
            json.loads(await vr.readline())  # hello
            vw.write((json.dumps(np.ones((3, 2)).tolist()) + "\n").encode())
            await vw.drain()
            vw.transport.abort()
            # The co-tenant must still receive every one of its frames.
            result = await asyncio.wait_for(
                stream_samples(host, port, samples), 10)
            await asyncio.wait_for(server.wait_closed(), 10)
            return result

        result = run(scenario())
        assert result["error"] is None
        assert len(result["frames"]) == len(want)
        for msg, w in zip(result["frames"], want):
            assert np.allclose(msg["data"], w, **TOL)

    def test_injected_conn_drop_does_not_stall_survivor(self, monkeypatch):
        """The fault harness aborts a live transport server-side mid-tick
        (the exact failure mode of a client dying between ticks); the
        survivor's barrier must keep advancing."""
        from repro.testing import faults
        monkeypatch.setenv(faults.ENV_FAULTS, "conn_drop@tick=3")
        faults.reset()
        net = make_net()
        samples = RNG.standard_normal((10, 2))
        want = fresh_frames(net, samples)

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=2)
            host, port = await server.start()
            # Victim attaches first (slot 0, the fault's default target)
            # and queues plenty of samples.
            vr, vw = await asyncio.open_connection(host, port)
            json.loads(await vr.readline())  # hello
            vw.write((json.dumps(np.ones((20, 2)).tolist()) + "\n").encode())
            await vw.drain()
            survivor = asyncio.ensure_future(
                stream_samples(host, port, samples))
            try:  # drain the victim until the abort surfaces
                while await asyncio.wait_for(vr.readline(), 10):
                    pass
            except (ConnectionError, asyncio.TimeoutError):
                pass
            vw.close()
            result = await asyncio.wait_for(survivor, 10)
            await asyncio.wait_for(server.wait_closed(), 10)
            return result

        result = run(scenario())
        faults.reset()
        assert result["error"] is None
        assert len(result["frames"]) == len(want)

    def test_conn_drop_fires_in_a_block_that_jumps_over_its_tick(
            self, monkeypatch):
        """A client's 20 queued samples are one 20-tick block, so no
        block ends at tick 7; the fault still fires after the block that
        covers it, and the survivor streams on."""
        from repro.testing import faults
        monkeypatch.setenv(faults.ENV_FAULTS, "conn_drop@tick=7")
        faults.reset()
        net = make_net()
        samples = RNG.standard_normal((10, 2))

        async def scenario():
            server = StreamServer(net, capacity=2, max_sessions=2)
            host, port = await server.start()
            vr, vw = await asyncio.open_connection(host, port)
            json.loads(await vr.readline())  # hello
            vw.write((json.dumps(np.ones((20, 2)).tolist()) + "\n").encode())
            await vw.drain()
            frames = []
            try:
                while True:
                    line = await asyncio.wait_for(vr.readline(), 10)
                    if not line:
                        break
                    frames.append(json.loads(line))
            except ConnectionError:
                pass
            vw.close()
            result = await asyncio.wait_for(
                stream_samples(host, port, samples), 10)
            await asyncio.wait_for(server.wait_closed(), 10)
            return frames, result

        frames, result = run(scenario())
        faults.reset()
        assert all(f["tick"] < 7 for f in frames)  # cut at the block
        assert result["error"] is None
        assert len(result["frames"]) == len(fresh_frames(net, samples))

    def test_close_with_a_connected_client_returns(self):
        """close() with a client still connected: the handlers end (also
        when cancelled, as asyncio.run does on exit) instead of waiting
        for a tick loop that no longer runs, and the slot is freed."""
        net = make_net()

        async def scenario():
            server = StreamServer(net, capacity=2)
            host, port = await server.start()
            before = asyncio.all_tasks()
            reader, writer = await asyncio.open_connection(host, port)
            assert json.loads(await reader.readline())["type"] == "hello"
            handlers = asyncio.all_tasks() - before
            assert handlers
            await server.close()
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            writer.close()
            return server

        server = run(asyncio.wait_for(scenario(), 10))
        assert server.pool.active_slots == []
        assert server.pool.pending_slots == []

    @pytest.mark.parametrize("handler_first", [True, False],
                             ids=["handler-first", "loop-first"])
    def test_teardown_cancelling_loop_and_handler_together_returns(
            self, handler_first):
        """asyncio.run's teardown cancels every task in one sweep, in no
        set order.  When the connected handler's cancellation runs before
        the tick loop's, the handler's finally sees a live loop and waits
        on it: the cancelled loop must still release it."""
        net = make_net()

        async def scenario():
            server = StreamServer(net, capacity=2)
            host, port = await server.start()
            before = asyncio.all_tasks()
            reader, writer = await asyncio.open_connection(host, port)
            assert json.loads(await reader.readline())["type"] == "hello"
            handlers = list(asyncio.all_tasks() - before)
            assert handlers
            sweep = handlers + [server._ticker]
            for task in (sweep if handler_first else sweep[::-1]):
                task.cancel()
            try:
                await asyncio.wait_for(
                    asyncio.gather(*sweep, return_exceptions=True), 5)
            finally:
                writer.close()
            return server

        server = run(asyncio.wait_for(scenario(), 10))
        assert server.pool.active_slots == []
        assert server.pool.pending_slots == []
