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
from tests.conftest import wire_frame


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
        assert len(wire_frame(("pa", "pb", small))) <= 200 < len(wire_frame(("pa", "pb", big)))
        ra.send("pa", "pb", small)
        ra.send("pa", "pb", big)
        assert await rb.wait_until(lambda: len(recorder.got) == 2, timeout=5.0)
        assert ra.frames_udp == 1 and ra.frames_tcp == 1
        assert {type(m).__name__ for m, _ in recorder.got} == {"Phase1a", "IGossip"}
        assert all(src == "pa" for _, src in recorder.got)
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


class _FakeUdp:
    """Stands in for a runtime's UDP socket (its ``_udp`` seam).

    Reads go to the real socket unless ``recv_script`` lists what
    ``recvfrom`` returns (bytes) or raises (an ``OSError``), and every read
    size is recorded.  Sends are recorded, not sent; while ``clogged``
    they fail with ``BlockingIOError`` as a full socket buffer's do.
    ``fileno`` and ``close`` are the real socket's, so the loop's reader
    and writer callbacks fire on it.
    """

    def __init__(self, sock, recv_script=None, clogged=False):
        self.sock = sock
        self.recv_script = recv_script
        self.clogged = clogged
        self.read_sizes = []
        self.send_attempts = []
        self.sent = []

    def recvfrom(self, size):
        self.read_sizes.append(size)
        if self.recv_script is None:
            return self.sock.recvfrom(size)
        item = self.recv_script.pop(0)
        if isinstance(item, OSError):
            raise item
        return item, ("127.0.0.1", 0)

    def sendto(self, data, addr):
        self.send_attempts.append(data)
        if self.clogged:
            raise BlockingIOError
        self.sent.append(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_datagram_buffer_is_capped_and_still_holds_the_largest_frame():
    """The receive buffer is the UDP maximum, not asyncio's 256 KiB (whose
    allocation per datagram makes latency depend on heap layout): a frame
    as large as a datagram can be still arrives whole."""
    from repro.net.transport import MAX_DATAGRAM

    async def main():
        book, ra, rb = _pair(mtu=60_000)
        await ra.start()
        await rb.start()
        rb._udp = spy = _FakeUdp(rb._udp)
        recorder = Recorder("pb", rb)
        big = IGossip(tuple(f"cmd-{i:05d}" for i in range(4_500)), ())
        assert 50_000 < len(wire_frame(("pa", "pb", big))) <= 60_000
        ra.send("pa", "pb", big)
        assert await rb.wait_until(lambda: len(recorder.got) == 1, timeout=5.0)
        assert ra.frames_udp == 1 and ra.frames_tcp == 0
        assert recorder.got[0][0] == big
        assert set(spy.read_sizes) == {MAX_DATAGRAM} == {65_536}
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


# -- the receive pump and the send queue ---------------------------------------


def test_a_queued_burst_is_delivered_in_order_by_one_reader_callback():
    """Datagrams that pile up while the loop is busy cost one readiness
    callback between them, not one loop iteration each, and keep their
    send order."""
    from repro.net.transport import PUMP_BATCH

    async def main():
        # An mtu of one message's frame: every message is its own datagram.
        book, ra, rb = _pair(mtu=len(wire_frame(("pa", "pb", Phase1a(RoundId(0, 10, 0, 2))))))
        await ra.start()
        delivered_per_call = []
        pump = rb._pump

        def counting_pump():
            before = len(recorder.got)
            pump()
            delivered_per_call.append(len(recorder.got) - before)

        rb._pump = counting_pump  # before start(): the reader it registers
        await rb.start()
        recorder = Recorder("pb", rb)
        burst = [Phase1a(RoundId(0, i, 0, 2)) for i in range(10, 42)]
        assert len(burst) <= PUMP_BATCH
        for msg in burst:  # no await in between: rb's reader cannot run
            ra.send("pa", "pb", msg)
        assert await rb.wait_until(lambda: len(recorder.got) == len(burst), timeout=5.0)
        assert [msg for msg, _ in recorder.got] == burst
        assert ra.frames_udp == len(burst)
        assert [n for n in delivered_per_call if n] == [len(burst)]
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_a_burst_beyond_the_default_receive_buffer_still_arrives():
    """The kernel's default UDP receive buffer holds about 250 small
    datagrams; a node's socket holds a recovery round's burst."""

    async def main():
        # An mtu of one message's frame: every message is its own datagram.
        book, ra, rb = _pair(mtu=len(wire_frame(("pa", "pb", Phase1a(RoundId(0, 100, 0, 2))))))
        await ra.start()
        await rb.start()
        recorder = Recorder("pb", rb)
        burst = [Phase1a(RoundId(0, i, 0, 2)) for i in range(100, 500)]
        for msg in burst:  # no await in between: nothing is read meanwhile
            ra.send("pa", "pb", msg)
        assert await rb.wait_until(lambda: len(recorder.got) == len(burst), timeout=5.0)
        assert [msg for msg, _ in recorder.got] == burst
        assert ra.frames_udp == len(burst)
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_a_refused_send_queues_and_flushes_fifo_behind_later_sends():
    msgs = [Phase1a(RoundId(0, i, 0, 2)) for i in range(4)]
    frames = [wire_frame(("pa", "pb", msg)) for msg in msgs]

    async def main():
        # An mtu of one message's frame: every message is its own datagram.
        book, ra, _rb = _pair(mtu=max(map(len, frames)))
        await ra.start()
        real = ra._udp
        ra._udp = fake = _FakeUdp(real, clogged=True)
        for msg in msgs[:3]:
            ra.send("pa", "pb", msg)
        await asyncio.sleep(0)  # the loop iteration's flush: three datagrams
        # Only the first datagram reached the socket; the next two queued
        # behind it without trying, so they cannot overtake it.
        assert len(fake.send_attempts) == 1 and fake.sent == []
        await asyncio.sleep(0.02)  # the writer fires, the socket still refuses
        assert fake.sent == [] and len(ra._sendq) == 3
        fake.clogged = False
        assert await ra.wait_until(lambda: len(fake.sent) == 3, timeout=2.0)
        ra.send("pa", "pb", msgs[3])  # queue empty again: straight to the socket
        await asyncio.sleep(0)
        # A lone message's datagram is a bundle of one envelope.
        assert fake.sent == frames
        assert not ra._sendq
        assert ra.frames_udp == 4 and ra.metrics.messages_dropped == 0
        # The flushed queue unregistered its writer callback.
        assert not asyncio.get_running_loop().remove_writer(real.fileno())
        ra._udp = real
        await ra.stop()

    asyncio.run(main())


def test_stop_unregisters_reader_and_writer_and_the_old_port_is_dead():
    async def main():
        book, ra, rb = _pair()
        await ra.start()
        await rb.start()
        recorder = Recorder("pb", rb)
        real = rb._udp
        fd = real.fileno()
        rb._udp = fake = _FakeUdp(real, clogged=True)
        rb.send("pb", "pa", Phase1a(RoundId()))
        await asyncio.sleep(0)  # flushed and refused: a writer is registered
        assert rb._sendq
        rb.send("pb", "pa", Phase1a(RoundId(0, 1, 0, 2)))  # held for a flush
        await rb.stop()
        loop = asyncio.get_running_loop()
        assert not loop.remove_reader(fd) and not loop.remove_writer(fd)
        assert rb._udp is None and real.fileno() == -1 and not rb._sendq
        rb.send("pb", "pa", Phase1a(RoundId()))  # after stop: a flush with no socket
        ra.send("pa", "pb", Phase1a(RoundId()))
        await asyncio.sleep(0.05)
        # The pending flushes dropped what they held and touched no socket.
        assert len(fake.send_attempts) == 1 and not rb._outbox
        assert recorder.got == [] and rb.errors == []
        await ra.stop()

    asyncio.run(main())


def test_a_failed_read_does_not_stop_the_pump_draining():
    """An ``OSError`` from ``recvfrom`` loses nothing but that read: the
    datagrams behind it are still delivered in the same callback."""

    async def main():
        book, ra, rb = _pair()
        await rb.start()
        recorder = Recorder("pb", rb)
        msgs = [Phase1a(RoundId(0, i, 0, 2)) for i in range(3)]
        frames = [wire_frame(("pa", "pb", msg)) for msg in msgs]
        real = rb._udp
        rb._udp = _FakeUdp(
            real,
            recv_script=[
                frames[0], ConnectionRefusedError(), frames[1], OSError(), frames[2],
                BlockingIOError(),
            ],
        )
        rb._pump()
        assert [msg for msg, _ in recorder.got] == msgs
        assert rb._udp.recv_script == [] and rb.errors == []
        rb._udp = real
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
