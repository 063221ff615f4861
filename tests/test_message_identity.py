"""One object per message payload per node (``net/transport.py``, ``MessageTable``).

A multicoordinated round hands a node several copies of one value: the
identical "2a"s of a coordinator quorum at an acceptor, the identical
"2b"s of an acceptor quorum at a learner.  The sender is only in the
envelope, so the copies' payloads are byte-identical, and a runtime
decodes each payload once and hands every copy's handler that one
object.  Two halves are pinned here, as for commands and histories:

* identity where it is promised -- the copies one node receives, within
  a bound no stream of payloads can push, and never across nodes or for
  a value a handler could mutate;
* nothing *rests* on it: hostile frames deliver nothing, and the
  transport and codec suites pass with the table emptied before every
  lookup.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path
from typing import Hashable

import pytest

from repro.core.messages import Phase1a
from repro.core.rounds import RoundId
from repro.core.runtime import Process
from repro.cstruct.commands import Command
from repro.net import codec, transport
from repro.net.cluster import Deployment
from repro.net.codec import CodecContext, CodecError
from repro.net.transport import MESSAGE_GENERATION, AddressBook, NetRuntime
from repro.smr.instances import I2b, IPropose, make_instances_config
from tests.conftest import cmd, wire_frame

ACCEPTORS = ("acc0", "acc1", "acc2")


class Recorder(Process):
    """Records every message it is handed, with its sender."""

    def __init__(self, pid, runtime):
        super().__init__(pid, runtime)
        self.got = []

    def on_i2b(self, msg, src: Hashable) -> None:
        self.got.append((msg, src))

    on_phase1a = on_ipropose = on_i2b


def _learner_node(context=None):
    """A runtime for node ``l`` hosting ``learn0``, the acceptors on ``a``;
    its frames are handed to ``_on_frame`` directly, as the TCP path does."""
    book = AddressBook(
        nodes={"l": ("127.0.0.1", 1), "a": ("127.0.0.1", 2)},
        placement={"learn0": "l", **{acc: "a" for acc in ACCEPTORS}},
    )
    runtime = NetRuntime("l", book, codec_context=context)
    return runtime, Recorder("learn0", runtime)


def _vote(instance=5):
    return I2b(RoundId(0, 1, 0, 2), instance, cmd("c:1", "put", "k", 1))


# -- identity where it is promised ------------------------------------------------


def test_three_acceptors_identical_votes_at_one_learner_node_are_one_object(monkeypatch):
    runtime, learner = _learner_node()
    decodes = []
    decode = transport.decode  # the module global: the ledger tracer's seam
    monkeypatch.setattr(
        transport, "decode", lambda data, context=None: decodes.append(data) or decode(data, context)
    )
    for acceptor in ACCEPTORS:  # three datagrams, one per acceptor
        runtime._on_frame(wire_frame((acceptor, "learn0", _vote())))
    assert runtime.errors == []
    assert [src for _, src in learner.got] == list(ACCEPTORS)
    first, second, third = (msg for msg, _ in learner.got)
    assert first == _vote() and first is second is third
    assert len(decodes) == 1 and len(runtime.messages) == 1
    # Copies inside one bundle are one object too.
    runtime._on_frame(wire_frame(*((acc, "learn0", _vote(6)) for acc in ACCEPTORS)))
    assert learner.got[3][0] is learner.got[4][0] is learner.got[5][0]
    assert len(decodes) == 2


def test_a_learner_on_sockets_gets_one_object_per_decided_vote():
    """End to end: every acceptor's "2b" for an instance reaches
    ``learn0``'s node as its own datagram, and the copies are one object."""
    config = make_instances_config(1, 3, 3, 1)
    commands = [cmd(f"s:{i}", "put", f"k{i}", i) for i in range(12)]

    async def main():
        dep = await Deployment(config, seed=4).start()
        runtime = dep.runtime_of("learn0")
        votes: dict[int, list] = {}
        runtime.add_delivery_tap(
            lambda src, dst, msg: votes.setdefault(msg.instance, []).append(msg)
            if isinstance(msg, I2b) and dst == "learn0" else None
        )
        try:
            for command in commands:
                dep.cluster.propose(command)
            assert await runtime.wait_until(lambda: dep.cluster.everyone_delivered(commands), 10.0)
            await asyncio.sleep(0.05)  # the last votes past the deciding quorum
        finally:
            await dep.stop()
        assert dep.errors() == []
        return votes

    votes = asyncio.run(main())
    assert len(votes) >= len(commands)
    for copies in votes.values():
        assert len(copies) >= 2  # a quorum of acceptors' copies
        assert all(copy is copies[0] for copy in copies if copy == copies[0])


def test_two_runtimes_never_share_an_object():
    """A loopback deployment gives all its nodes one codec context; the
    table of decoded messages is each runtime's own."""
    context = CodecContext()
    (one, learner_one), (two, learner_two) = _learner_node(context), _learner_node(context)
    assert one.messages is not two.messages
    frame = wire_frame(("acc0", "learn0", _vote()))
    for runtime in (one, two, one, two):
        runtime._on_frame(frame)
    assert learner_one.got[0][0] is learner_one.got[1][0]
    assert learner_two.got[0][0] is learner_two.got[1][0]
    assert learner_one.got[0][0] == learner_two.got[0][0]
    assert learner_one.got[0][0] is not learner_two.got[0][0]


def test_the_table_stays_within_its_bound():
    runtime, learner = _learner_node()
    table = runtime.messages
    bound = 2 * MESSAGE_GENERATION

    def probe(count):
        runtime._on_frame(wire_frame(("acc0", "learn0", Phase1a(RoundId(0, count, 0, 2)))))
        return learner.got[-1][0]

    kept, first = probe(0), probe(1)
    for count in range(2, 10 * bound):
        probe(count)
        if count % (MESSAGE_GENERATION // 2) == 0:  # in use: asked for now and then
            assert probe(0) is kept
        assert len(table) <= bound
    assert probe(0) is kept
    # One nobody asked for since was evicted, and comes back equal.
    again = probe(1)
    assert again == first and again is not first
    # A payload over the runtime's mtu (what TCP carries) is never kept.
    big = IPropose(Command("big:1", "put", "k", "x" * runtime.mtu))
    runtime._on_frame(wire_frame(("acc0", "learn0", big)))
    runtime._on_frame(wire_frame(("acc0", "learn0", big)))
    assert learner.got[-1][0] == learner.got[-2][0] == big
    assert learner.got[-1][0] is not learner.got[-2][0]
    assert runtime.errors == []


@pytest.mark.parametrize(
    "arg",
    [[1, 2], {1, 2}, {"a": 1}, ((1, [2]),), []],
    ids=["list", "set", "dict", "list-in-tuple", "empty-list"],
)
def test_a_payload_holding_a_list_set_or_dict_is_never_shared(arg):
    runtime, learner = _learner_node()
    frame = wire_frame(("acc0", "learn0", IPropose(Command("m:1", "put", "k", arg))))
    runtime._on_frame(frame)
    runtime._on_frame(frame)
    (first, _), (second, _) = learner.got
    assert repr(first) == repr(second) and first is not second  # unhashable: no ==
    assert first.cmd is not second.cmd and len(runtime.messages) == 0
    if isinstance(first.cmd.arg, list):  # a handler mutating its copy...
        first.cmd.arg.append("mutated")
        runtime._on_frame(frame)  # ...is not seen by a later one
        assert learner.got[-1][0].cmd.arg == arg


@pytest.mark.parametrize("arg", [(1, 2), frozenset({1, 2}), '["l",1]', '["d"]'], ids=repr)
def test_an_immutable_payload_is_shared_even_when_a_string_spells_a_tag(arg):
    runtime, learner = _learner_node()
    frame = wire_frame(("acc0", "learn0", IPropose(Command("m:2", "put", "k", arg))))
    runtime._on_frame(frame)
    runtime._on_frame(frame)
    (first, _), (second, _) = learner.got
    assert first is second and first.cmd.arg == arg


# -- hostile frames deliver nothing -----------------------------------------------


def _good(instance):
    return codec.route("acc0", "learn0") + codec.prefixed(codec.encode(_vote(instance)))


HOSTILE = {
    # The frame ends inside the payload's length: 0x80 promises another byte.
    "truncated length": b"RP\x09\x01" + codec.route("acc0", "learn0") + b"\x80",
    "overlong length": b"RP\x09\x01" + codec.route("acc0", "learn0") + b"\x7f" + b"short",
    "length over four bytes": b"RP\x09\x01" + b"\x84\x80\x80\x80\x00",
    "non-minimal length": b"RP\x09\x01" + b"\x84\x00" + b"acc0",
    "non-UTF-8 pid": codec.frame([
        _good(1),
        codec.prefixed(b"acc\xff") + codec.prefixed(b"learn0") + codec.prefixed(codec.encode(_vote(2))),
    ]),
    "zero envelopes": codec.frame([]),
    "count over the envelopes": b"RP\x09\x02" + _good(1),
    "trailing partial envelope": codec.frame([_good(1)]) + codec.route("acc1", "learn0"),
    "frame nested as a payload": codec.frame([
        _good(1), codec.route("acc1", "learn0") + codec.prefixed(codec.frame([_good(2)])),
    ]),
    "payload that is no message": codec.frame([
        _good(1), codec.route("acc1", "learn0") + codec.prefixed(codec.encode(("acc0", 1))),
    ]),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_a_hostile_frame_delivers_none_of_its_envelopes(name):
    runtime, learner = _learner_node()
    with pytest.raises(CodecError):
        runtime._read(HOSTILE[name])
    runtime._on_frame(HOSTILE[name])
    assert learner.got == []
    assert [type(err) for err in runtime.errors] == [CodecError]
    assert len(runtime.messages) <= 1  # at most the good envelope's vote, decoded
    runtime.errors.clear()
    runtime._on_frame(wire_frame(("acc0", "learn0", _vote(1))))  # the node still works
    assert [msg for msg, _ in learner.got] == [_vote(1)] and runtime.errors == []


# -- and nothing rests on it -------------------------------------------------------


def test_transport_and_codec_suites_pass_with_the_table_emptied_before_every_lookup():
    """The codec round-trip, transport, bundling and drain suites, run
    again with every copy of a payload decoded afresh."""
    tests = Path(__file__).parent
    modules = [
        "test_codec_roundtrip.py", "test_net_runtime.py", "test_transport_conformance.py",
        "test_datagram_bundling.py", "test_drain_coalescing.py",
    ]
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", "usefixtures=emptied_message_table", *(str(tests / m) for m in modules),
        ],
        cwd=tests.parent,
        env={**os.environ, "CI": "quick"},  # skips the multi-second lossy/recovery socket cases
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]


def test_the_emptied_table_fixture_does_empty_it(emptied_message_table):
    runtime, learner = _learner_node()
    frame = wire_frame(("acc0", "learn0", _vote()))
    runtime._on_frame(frame)
    runtime._on_frame(frame)
    (first, _), (second, _) = learner.got
    assert first == second and first is not second
