"""One datagram per destination node: bundling, its grammar and source binding.

A :class:`NetRuntime` holds what its roles send and writes one datagram
per destination node -- a bundle of ``(src, dst, msg)`` envelopes of at
most ``mtu`` bytes -- at the end of each receive-pump drain and once per
loop iteration for sends made outside a drain.  A message whose own
frame is over ``mtu`` still goes by TCP alone.  The receiver checks a
bundle whole before it delivers any of it, and accepts a datagram only
if every envelope's ``src`` is placed on the node at the datagram's
source address.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Hashable

from repro.core.messages import Phase1a
from repro.core.rounds import RoundId
from repro.core.runtime import Process
from repro.net import codec
from repro.net.cluster import Deployment, bootstrap_round
from repro.net.codec import CodecError, encode
from repro.net.transport import NetRuntime, loopback_book
from repro.smr.instances import I2b, IGossip, make_instances_config
from tests.conftest import cmd, wire_frame


class Recorder(Process):
    """Records every ``Phase1a``/``IGossip``; on a ``Phase1a`` whose round
    count is 99 it sends ``fanout`` (a list of ``(dst, msg)``) from its
    handler, i.e. inside the receive-pump drain that delivered it."""

    def __init__(self, pid, runtime, fanout=()):
        super().__init__(pid, runtime)
        self.got = []
        self.fanout = list(fanout)

    def on_phase1a(self, msg, src: Hashable) -> None:
        self.got.append((msg, src))
        if msg.rnd.count == 99:
            for dst, out in self.fanout:
                self.send(dst, out)

    def on_igossip(self, msg, src: Hashable) -> None:
        self.got.append((msg, src))


class _Spy:
    """A runtime's UDP socket (its ``_udp`` seam), recording every datagram
    it writes; reads come from ``script`` -- ``(data, source)`` pairs, then
    ``EAGAIN`` -- once one is set, and from the real socket before."""

    def __init__(self, sock):
        self.sock = sock
        self.sent: list[tuple[bytes, tuple[str, int]]] = []
        self.script: list[tuple[bytes, tuple[str, int]]] | None = None

    def sendto(self, data, addr):
        self.sent.append((data, addr))
        return self.sock.sendto(data, addr)

    def recvfrom(self, size):
        if self.script is None:
            return self.sock.recvfrom(size)
        if not self.script:
            raise BlockingIOError
        return self.script.pop(0)

    def __getattr__(self, name):
        return getattr(self.sock, name)


TRIGGER = Phase1a(RoundId(0, 99, 0, 2))


def _trio(mtu=1400):
    """Nodes a, b, c with pids pa, pb, pc; b's ``_udp`` is a :class:`_Spy`."""
    book = loopback_book(["a", "b", "c"])
    book.placement.update({"pa": "a", "pb": "b", "pc": "c"})
    return book, [NetRuntime(node, book, seed=i, mtu=mtu) for i, node in enumerate("abc")]


async def _started(runtimes):
    for runtime in runtimes:
        await runtime.start()
    runtimes[1]._udp = _Spy(runtimes[1]._udp)
    return runtimes[1]._udp


def _in_drain(fanout, mtu=1400, tcp=None):
    """pa triggers pb, whose handler sends *fanout* to pc inside its drain.

    Returns what pc received, what b wrote to its UDP socket and b's
    runtime; *tcp*, a list, collects the frames b hands its TCP path."""

    async def main():
        book, runtimes = _trio(mtu)
        ra, rb, rc = runtimes
        spy = await _started(runtimes)
        if tcp is not None:
            send_tcp = rb._send_tcp
            rb._send_tcp = lambda node, data: tcp.append(data) or send_tcp(node, data)
        Recorder("pb", rb, fanout)
        sink = Recorder("pc", rc)
        ra.send("pa", "pb", TRIGGER)
        assert await rc.wait_until(lambda: len(sink.got) == len(fanout), timeout=5.0)
        await asyncio.sleep(0.05)  # nothing more arrives
        assert rb.errors == [] and rc.errors == []
        for runtime in runtimes:
            await runtime.stop()
        return sink.got, spy.sent, rb

    return asyncio.run(main())


def _probes(k):
    return [Phase1a(RoundId(0, i, 0, 2)) for i in range(k)]


# -- sending: one datagram per destination --------------------------------------------


def test_messages_to_one_node_in_one_drain_leave_as_one_datagram_in_send_order():
    msgs = _probes(8)
    got, sent, rb = _in_drain([("pc", msg) for msg in msgs])
    assert [msg for msg, _ in got] == msgs
    assert all(src == "pb" for _, src in got)
    assert [data for data, _ in sent] == [wire_frame(*(("pb", "pc", msg) for msg in msgs))]
    assert rb.frames_udp == 1 and rb.frames_tcp == 0
    # Per-message accounting is unchanged: one send, its own frame's bytes.
    assert rb.metrics.total_messages == len(msgs)
    assert rb.metrics.total_bytes == sum(len(wire_frame(("pb", "pc", m))) for m in msgs)


def test_a_bundle_over_the_mtu_splits_into_datagrams_within_it_losing_nothing():
    mtu = 200
    msgs = _probes(40)
    got, sent, rb = _in_drain([("pc", msg) for msg in msgs], mtu=mtu)
    assert [msg for msg, _ in got] == msgs
    datagrams = [data for data, _ in sent]
    assert all(len(data) <= mtu for data in datagrams)
    assert 1 < len(datagrams) < len(msgs) // 2  # packed, not one per message
    envelopes = [codec.route("pb", "pc") + codec.prefixed(encode(m)) for m in msgs]
    assert datagrams == codec.bundles(envelopes, mtu)
    # Concatenated in order, the datagrams carry exactly the messages sent.
    unpacked = [codec.split(data) for data in datagrams]
    assert [codec.decode(payload) for fields in unpacked for payload in fields[2::3]] == msgs
    assert {(src, dst) for fields in unpacked for src, dst in zip(fields[0::3], fields[1::3])} == {
        ("pb", "pc")
    }
    assert rb.frames_udp == len(datagrams)


def test_a_frame_over_the_mtu_still_goes_by_tcp_alone():
    mtu = 200
    small = _probes(2)
    big = IGossip(tuple(f"cmd-{i:04d}" for i in range(40)), ())
    assert len(wire_frame(("pb", "pc", big))) > mtu
    tcp = []
    got, sent, rb = _in_drain(
        [("pc", small[0]), ("pc", big), ("pc", small[1])], mtu=mtu, tcp=tcp
    )
    assert sorted(map(repr, (m for m, _ in got))) == sorted(map(repr, (*small, big)))
    assert rb.frames_tcp == 1 and rb.frames_udp == 1  # the two small ones share one
    assert tcp == [wire_frame(("pb", "pc", big))]
    assert [data for data, _ in sent] == [wire_frame(("pb", "pc", small[0]), ("pb", "pc", small[1]))]


def test_a_send_outside_a_drain_is_on_the_socket_within_that_loop_iteration():
    """A timer's sends are flushed by a callback queued at its first send:
    before anything the timer queues after them, and before the loop polls
    for I/O again -- as one datagram per destination node."""

    async def main():
        book, runtimes = _trio()
        ra, rb, rc = runtimes
        spy = await _started(runtimes)
        msgs = _probes(3)
        seen = []

        def timer():
            for msg in msgs:
                rb.send("pb", "pa", msg)
            rb.send("pb", "pc", msgs[0])
            assert spy.sent == []  # held, not yet written
            asyncio.get_running_loop().call_soon(lambda: seen.append(list(spy.sent)))

        sinks = Recorder("pa", ra), Recorder("pc", rc)
        rb.schedule(0.0, timer)
        assert await rb.wait_until(lambda: bool(seen), timeout=2.0)
        a_bundle = wire_frame(*(("pb", "pa", msg) for msg in msgs))
        c_frame = wire_frame(("pb", "pc", msgs[0]))
        assert seen[0] == [(a_bundle, book.addr_of("a")), (c_frame, book.addr_of("c"))]
        assert await ra.wait_until(lambda: len(sinks[0].got) == 3 and len(sinks[1].got) == 1, 2.0)
        assert [msg for msg, _ in sinks[0].got] == msgs
        assert rb.frames_udp == 2 and rb.errors == []
        for runtime in runtimes:
            await runtime.stop()

    asyncio.run(main())


# -- receiving: a bundle is checked whole ------------------------------------------------


def test_a_malformed_bundle_delivers_none_of_its_envelopes():
    good = _probes(3)

    def envelope(src, dst, payload):
        return codec.prefixed(src) + codec.prefixed(dst) + codec.prefixed(payload)

    def frame(*envelopes):
        return codec.frame([envelope(src, dst, payload) for src, dst, payload in envelopes])

    ok = [(b"pa", b"pb", encode(msg)) for msg in good]
    malformed = {
        "empty bundle": codec.frame([]),
        "bad envelope among good ones": frame(ok[0], (b"pa", b"\xffpb", encode(good[1])), ok[2]),
        "message that is no message": frame(ok[0], (b"pa", b"pb", encode("hello"))),
        "half an envelope": frame(ok[0]) + codec.route("pa", "pb"),
        "nested bundle": frame(ok[0], (b"pa", b"pb", frame(ok[1], ok[2]))),
    }
    well_formed = frame(*ok)

    async def main():
        book, runtimes = _trio()
        ra, rb, _rc = runtimes
        spy = await _started(runtimes)
        recorder = Recorder("pb", rb)
        source = book.addr_of("a")
        spy.script = [(data, source) for data in malformed.values()]
        rb._pump()
        assert recorder.got == []
        assert [type(err) for err in rb.errors] == [CodecError] * len(malformed)
        rb.errors.clear()
        spy.script = [(well_formed, source)]  # the same envelopes, well formed
        rb._pump()
        assert [msg for msg, _ in recorder.got] == good and rb.errors == []
        assert rb.rejected == 0
        spy.script = None
        for runtime in runtimes:
            await runtime.stop()

    asyncio.run(main())


def test_a_handlers_exception_does_not_cost_the_rest_of_the_bundle():
    async def main():
        book, runtimes = _trio()
        ra, rb, _rc = runtimes
        spy = await _started(runtimes)
        recorder = Recorder("pb", rb)
        # RoundId is a registered value with no handler: delivering it raises.
        frame = wire_frame(("pa", "pb", RoundId(0, 1, 0, 2)), ("pa", "pb", TRIGGER))
        spy.script = [(frame, book.addr_of("a"))]
        rb._pump()
        assert [type(err) for err in rb.errors] == [TypeError]
        assert recorder.got == [(TRIGGER, "pa")]
        spy.script = None
        for runtime in runtimes:
            await runtime.stop()

    asyncio.run(main())


# -- source binding: src is the datagram's source node ---------------------------------


def test_forged_udp_votes_from_a_stranger_decide_nothing():
    """Two datagrams from a fresh UDP socket naming ``acc0`` and ``acc1``
    used to make ``learn0`` decide the intruder's value; they are dropped
    and counted now, and never raised."""
    evil = cmd("evil", "put", "x", 666)

    async def main():
        config = make_instances_config(1, 3, 3, 1)
        dep = await Deployment(config, seed=3).start()
        learner = dep.roles["learn0"]
        runtime = dep.runtime_of("learn0")
        rnd = bootstrap_round(config)
        stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for acceptor in ("acc0", "acc1"):
                frame = wire_frame((acceptor, "learn0", I2b(rnd, 5, evil)))
                stranger.sendto(frame, dep.book.addr_of(dep.book.node_of("learn0")))
            assert not await runtime.wait_until(lambda: 5 in learner.decided, timeout=0.5)
            assert not learner.has_delivered(evil)
            assert runtime.rejected == 2 and dep.errors() == []
        finally:
            stranger.close()
            await dep.stop()

    asyncio.run(main())


def test_a_datagram_naming_a_pid_of_another_node_is_rejected_whole():
    """From a's own socket, an envelope naming pc (placed on c) is dropped,
    and so is a bundle naming pa and pc: pa's envelope is not delivered
    either.  a's genuine datagrams are accepted."""

    async def main():
        book, runtimes = _trio()
        ra, rb, _rc = runtimes
        await _started(runtimes)
        recorder = Recorder("pb", rb)
        msgs = _probes(3)
        forged = [
            wire_frame(("pc", "pb", msgs[1])),
            wire_frame(("pa", "pb", msgs[1]), ("pc", "pb", msgs[2])),
        ]
        for data in forged:
            ra._udp.sendto(data, book.addr_of("b"))
        await asyncio.sleep(0.05)
        ra.send("pa", "pb", msgs[0])  # a's genuine datagram, after the forged ones
        assert await rb.wait_until(lambda: len(recorder.got) >= 1, timeout=2.0)
        await asyncio.sleep(0.05)
        assert recorder.got == [(msgs[0], "pa")]
        assert rb.rejected == len(forged) and rb.errors == []
        for runtime in runtimes:
            await runtime.stop()

    asyncio.run(main())
