"""Unit tests for the asyncio transport runtime itself.

The conformance suite proves the engines run on :class:`NetRuntime`;
these tests pin the transport's own contract -- address-book plumbing,
UDP-vs-TCP path selection, loss injection hooks, timer semantics, error
surfacing -- with plain processes instead of protocol roles.
"""

from __future__ import annotations

import asyncio
from typing import Hashable

import pytest

from repro.core.messages import Phase1a
from repro.core.rounds import RoundId
from repro.core.runtime import Process, Runtime
from repro.net.codec import CodecError, encode
from repro.net.transport import AddressBook, NetRuntime, loopback_book
from repro.smr.instances import IGossip


class Recorder(Process):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.got = []

    def on_phase1a(self, msg, src: Hashable) -> None:
        self.got.append((msg, src))

    def on_igossip(self, msg, src: Hashable) -> None:
        self.got.append((msg, src))


def _pair(loss_rate=0.0, mtu=1400):
    book = loopback_book(["a", "b"])
    book.placement.update({"pa": "a", "pb": "b", "pb2": "b"})
    ra = NetRuntime("a", book, seed=1, loss_rate=loss_rate, mtu=mtu)
    rb = NetRuntime("b", book, seed=2, loss_rate=loss_rate, mtu=mtu)
    return book, ra, rb


def test_address_book_json_roundtrip():
    book = AddressBook(
        nodes={"a": ("127.0.0.1", 4001)}, placement={"p": "a"}
    )
    assert AddressBook.from_json(book.to_json()) == book
    assert book.node_of("p") == "a"
    assert book.node_of("stranger") is None
    assert book.pids_on("a") == ["p"]


def test_node_spec_carries_every_engine_layer():
    """The ledger's ``inst-closed`` configuration survives the JSON spec a
    subprocess node is launched with: all five layers, none dropped."""
    import json

    from repro.core.sessions import SessionConfig
    from repro.net.cluster import (
        wall_clock_checkpoint,
        wall_clock_liveness,
        wall_clock_retransmit,
    )
    from repro.net.node import config_from_spec
    from repro.smr.instances import BatchingConfig, make_instances_config

    shape = dict(n_proposers=2, n_coordinators=3, n_acceptors=3, n_learners=2)
    config = make_instances_config(
        **shape,
        batching=BatchingConfig(max_batch=8, flush_interval=0.02, pipeline_depth=4),
        retransmit=wall_clock_retransmit(),
        checkpoint=wall_clock_checkpoint(interval=64, chunk_size=32),
        liveness=wall_clock_liveness(),
        sessions=SessionConfig(window=64),
    )
    layers = ("batching", "retransmit", "checkpoint", "liveness", "sessions")
    spec = {"shape": shape, **{name: vars(getattr(config, name)) for name in layers}}
    rebuilt = config_from_spec(json.loads(json.dumps(spec)))
    for name in ("topology", *layers):
        assert getattr(config, name) is not None, name
        assert getattr(rebuilt, name) == getattr(config, name), name
    # QuorumSystem and RoundSchedule compare by identity; both are pure
    # functions of the shape.
    assert repr(rebuilt.quorums) == repr(config.quorums)
    assert rebuilt.schedule.coordinators == config.schedule.coordinators


def test_runtime_satisfies_protocol():
    book, ra, _rb = _pair()
    assert isinstance(ra, Runtime)


def test_udp_and_tcp_path_selection():
    async def main():
        book, ra, rb = _pair(mtu=200)
        await ra.start()
        await rb.start()
        recorder = Recorder("pb", rb)
        Recorder("pa", ra)
        small = Phase1a(RoundId(0, 1, 0, 2))
        big = IGossip(tuple(f"cmd-{i:04d}" for i in range(40)), ())
        assert len(encode(("pa", "pb", small))) <= 200 < len(encode(("pa", "pb", big)))
        ra.send("pa", "pb", small)
        ra.send("pa", "pb", big)
        assert await rb.wait_until(lambda: len(recorder.got) == 2, timeout=5.0)
        assert ra.frames_udp == 1 and ra.frames_tcp == 1
        assert {type(m).__name__ for m, _ in recorder.got} == {"Phase1a", "IGossip"}
        assert all(src == "pa" for _, src in recorder.got)
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_datagram_buffer_is_capped_and_still_holds_the_largest_frame():
    """The receive buffer is the UDP maximum, not asyncio's 256 KiB (whose
    allocation per datagram makes latency depend on heap layout): a frame
    as large as a datagram can be still arrives whole."""
    from repro.net.transport import MAX_DATAGRAM

    async def main():
        book, ra, rb = _pair(mtu=60_000)
        await ra.start()
        await rb.start()
        assert rb._udp.max_size == MAX_DATAGRAM == 65_536
        recorder = Recorder("pb", rb)
        big = IGossip(tuple(f"cmd-{i:05d}" for i in range(4_500)), ())
        assert 50_000 < len(encode(("pa", "pb", big))) <= 60_000
        ra.send("pa", "pb", big)
        assert await rb.wait_until(lambda: len(recorder.got) == 1, timeout=5.0)
        assert ra.frames_udp == 1 and ra.frames_tcp == 0
        assert recorder.got[0][0] == big
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_same_node_delivery_skips_the_socket_but_stays_async():
    async def main():
        book, ra, rb = _pair()
        await rb.start()
        first = Recorder("pb", rb)
        second = Recorder("pb2", rb)
        first.send("pb2", Phase1a(RoundId()))
        assert second.got == []  # never delivered reentrantly
        assert await rb.wait_until(lambda: len(second.got) == 1, timeout=2.0)
        assert rb.frames_udp == 0 and rb.frames_tcp == 0
        await rb.stop()

    asyncio.run(main())


def test_drop_filters_and_self_send_immunity():
    async def main():
        book, ra, rb = _pair()
        await ra.start()
        await rb.start()
        recorder = Recorder("pb", rb)
        mine = Recorder("pa", ra)
        dropped = ra.add_drop_filter(lambda src, dst, msg: dst == "pb")
        ra.send("pa", "pb", Phase1a(RoundId()))
        ra.send("pa", "pa", Phase1a(RoundId()))  # self-sends never drop
        assert await ra.wait_until(lambda: len(mine.got) == 1, timeout=2.0)
        assert ra.metrics.messages_dropped == 1
        ra.remove_drop_filter(dropped)
        ra.send("pa", "pb", Phase1a(RoundId()))
        assert await rb.wait_until(lambda: len(recorder.got) == 1, timeout=2.0)
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_seeded_loss_rate_drops_remote_sends():
    async def main():
        book, ra, rb = _pair(loss_rate=1.0)
        await ra.start()
        await rb.start()
        Recorder("pb", rb)
        for _ in range(5):
            ra.send("pa", "pb", Phase1a(RoundId()))
        assert ra.metrics.messages_dropped == 5
        assert ra.frames_udp == 0
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_timers_fire_and_cancel():
    async def main():
        book, ra, _rb = _pair()
        await ra.start()
        fired = []
        ra.schedule(0.02, lambda: fired.append("kept"))
        cancelled = ra.schedule(0.02, lambda: fired.append("cancelled"))
        cancelled.cancel()
        assert await ra.wait_until(lambda: bool(fired), timeout=2.0)
        await asyncio.sleep(0.05)
        assert fired == ["kept"]
        with pytest.raises(ValueError):
            ra.schedule(-1.0, lambda: None)
        await ra.stop()

    asyncio.run(main())


def test_schedule_before_start_is_an_error():
    book, ra, _rb = _pair()
    with pytest.raises(RuntimeError):
        ra.schedule(0.1, lambda: None)


def test_handler_exceptions_surface_via_wait_until():
    async def main():
        book, ra, rb = _pair()
        await ra.start()
        await rb.start()
        Recorder("pb", rb)  # has no on_igossip? it does; use unhandled type
        ra.send("pa", "pb", RoundId(0, 9, 0, 1))  # no on_roundid handler
        with pytest.raises(TypeError):
            await rb.wait_until(lambda: False, timeout=2.0)
        assert rb.errors
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_undecodable_frame_is_recorded_not_fatal():
    async def main():
        book, ra, rb = _pair()
        await ra.start()
        await rb.start()
        recorder = Recorder("pb", rb)
        host, port = book.addr_of("b")
        transport, _ = await asyncio.get_running_loop().create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=(host, port)
        )
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(lambda _, ctx: loop_errors.append(ctx))
        hostile = [
            b"garbage-not-a-frame",
            b'RP\x03{"t":"Command","v":[1]}',  # a v1 object under the current header
            b"RP\x03" + b"[" * 50_000,  # would exhaust the stack
            encode(Phase1a(RoundId())),  # well-formed, but no (src, dst, msg) envelope
            encode(("pa", "pb")),
        ]
        for frame in hostile:
            transport.sendto(frame)
        await asyncio.sleep(0.05)
        # ...each recorded for diagnosis, none escaped into the event loop...
        assert [type(err) for err in rb.errors] == [CodecError] * len(hostile)
        assert not loop_errors
        rb.errors.clear()
        ra.send("pa", "pb", Phase1a(RoundId()))  # ...but the node still works
        assert await rb.wait_until(lambda: len(recorder.got) == 1, timeout=2.0)
        transport.close()
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_duplicate_pid_rejected():
    async def main():
        book, ra, _rb = _pair()
        await ra.start()
        Recorder("pa", ra)
        with pytest.raises(ValueError):
            Recorder("pa", ra)
        await ra.stop()

    asyncio.run(main())
