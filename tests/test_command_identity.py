"""One object per command per process (``cstruct/commands.py``, ``InternTable``).

The wire codec decodes a command to the instance this process already
uses for it, so dict, set and tuple comparisons between a stored copy and
a fresh decode are pointer compares in C, not calls of the Python-level
``Command.__eq__``.  Two halves are pinned here:

* identity where it is promised -- two decodes, two positions in one
  frame, the sender's own object -- within a bound no stream of made-up
  cids can push;
* nothing *rests* on identity: a decode hands back exactly the value and
  types that were sent, and the equality, ordering, codec and checker
  suites pass with the table emptied before every lookup.

The last two tests are the guard on what identity buys: zero
``Command.__eq__`` calls in lattice operations against a decoded operand,
and a socket run of the generalized engine under 50 per command (it was
~1 700 before commands were canonical).
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generalized import DeltaConfig, GeneralizedConfig
from repro.core.quorums import QuorumSystem
from repro.core.rounds import RoundSchedule
from repro.core.sessions import SessionConfig
from repro.core.topology import Topology
from repro.cstruct.commands import INTERNED, Command, InternTable
from repro.cstruct.history import CommandHistory
from repro.net import codec
from repro.net.cluster import Deployment, wall_clock_checkpoint, wall_clock_retransmit
from repro.net.codec import CodecContext
from repro.smr.client import PipelinedClient
from repro.smr.machine import kv_conflict

CONTEXT = CodecContext(conflict=kv_conflict())
ARGS = [1, True, 1.0, "1", None, (1,)]


def _wire(obj):
    return codec.decode(codec.encode(obj), CONTEXT)


# -- identity where it is promised ----------------------------------------------


def test_two_decodes_of_one_frame_yield_one_object():
    frame = codec.encode(("acc0", "lrn1", Command("id:1", "put", "k", 7)))
    first, second = codec.decode(frame)[2], codec.decode(frame)[2]
    assert first is second


def test_equal_commands_inside_one_frame_are_one_object():
    ours, twin = Command("id:2", "put", "k", 7), Command("id:2", "put", "k", 7)
    assert ours is not twin
    decoded = _wire((ours, [twin], {"held": twin}))
    assert decoded[0] is decoded[1][0] is decoded[2]["held"]
    # The packer offered the sender's object first, so that is the instance.
    assert decoded[0] is ours


def test_a_history_shares_its_commands_with_its_decoded_copy():
    history = CommandHistory.of(
        kv_conflict(), *(Command(f"id:h{i}", "put", "hot", i) for i in range(6))
    )
    copy = _wire(history)
    assert copy == history and copy is not history
    assert all(a is b for a, b in zip(copy.cmds, history.cmds))


# -- and nothing rests on it -----------------------------------------------------


@pytest.mark.parametrize("arg", ARGS, ids=repr)
def test_arg_round_trips_type_exact_and_never_aliases(arg):
    """``1 == True == 1.0``: equal commands, one hash -- and three wire values."""
    for other in ARGS:  # whatever the table already holds under this cid
        _wire(Command("id:arg", "put", "k", other))
    decoded = _wire(Command("id:arg", "put", "k", arg))
    assert decoded.arg == arg and type(decoded.arg) is type(arg)
    assert repr(decoded) == repr(Command("id:arg", "put", "k", arg))


def test_an_unhashable_arg_still_decodes_uninterned():
    before = len(INTERNED)
    first, second = (_wire(Command("id:list", "put", "k", [1, 2])) for _ in range(2))
    assert first.arg == second.arg == [1, 2] and type(first.arg) is list
    assert first is not second  # built plain: no table entry can hold it
    assert len(INTERNED) == before


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.sampled_from(["", "1", "a:1"]),
)
_fields = st.one_of(_scalars, st.tuples(_scalars), st.lists(_scalars, max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_scalars, _scalars, _scalars, _fields), min_size=1, max_size=6))
def test_decoding_returns_what_was_sent_whatever_came_before(sent):
    """Colliding values in a shared table: each decode is still its own value."""
    for fields in sent:
        decoded = _wire(Command(*fields))
        assert (decoded.cid, decoded.op, decoded.key, decoded.arg) == fields
        assert type(decoded.arg) is type(fields[3])


def test_the_table_stays_within_its_bound():
    bound = 2 * INTERNED.generation
    kept = _wire(Command("id:kept", "put", "k", 0))
    first = _wire(Command("flood:0", "put", "k", 0))
    for i in range(1, 10 * bound):
        _wire(Command(f"flood:{i}", "put", "k", i))
        if i % (INTERNED.generation // 2) == 0:  # in use: asked for now and then
            assert _wire(Command("id:kept", "put", "k", 0)) is kept
        assert len(INTERNED) <= bound
    assert _wire(Command("id:kept", "put", "k", 0)) is kept
    # One nobody asked for since was evicted, and comes back equal.
    again = _wire(Command("flood:0", "put", "k", 0))
    assert again == first and again is not first


def test_an_evicted_command_is_rebuilt_equal():
    table = InternTable(generation=2)
    first = table.command("c:1", "put", "k", 1)
    assert table.command("c:1", "put", "k", 1) is first
    for i in range(2, 7):
        table.command(f"c:{i}", "put", "k", i)
    rebuilt = table.command("c:1", "put", "k", 1)
    assert rebuilt == first and rebuilt is not first and len(table) <= 4
    offered = Command("c:9", "put", "k", 9)
    assert table.command("c:9", "put", "k", 9, offered) is offered


def test_value_semantics_hold_with_the_table_emptied_before_every_lookup():
    """The equality, ordering, codec round-trip, transport and checker
    suites, run again with no two decodes sharing an object."""
    tests = Path(__file__).parent
    modules = [
        "test_commands.py", "test_codec_roundtrip.py", "test_checker.py",
        "test_history.py", "test_cset_and_seq.py", "test_net_runtime.py",
        "test_transport_conformance.py",
    ]
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", "usefixtures=emptied_intern_table", *(str(tests / m) for m in modules),
        ],
        cwd=tests.parent,
        env={**os.environ, "CI": "quick"},  # skips the multi-second lossy/recovery socket cases
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]


def test_the_emptied_table_fixture_does_empty_it(emptied_intern_table):
    frame = codec.encode(Command("id:3", "put", "k", 7))
    first, second = codec.decode(frame), codec.decode(frame)
    assert first == second and first is not second


# -- what identity buys -----------------------------------------------------------


def test_lattice_ops_against_a_decoded_operand_call_no_command_eq(command_eq_calls):
    rng = random.Random(11)
    cmds = [
        Command(f"lat:{i}", "put", "hot" if rng.random() < 0.3 else f"p{i}", i) for i in range(120)
    ]
    whole = CommandHistory.of(kv_conflict(), *cmds)
    part = CommandHistory.of(kv_conflict(), *cmds[:50])  # part ⊑ whole, interleaved in its order
    side = part.extend([Command("lat:side", "put", "elsewhere", 0)])  # compatible, not below
    assert part.leq(whole) and part.cmds != whole.cmds[:50] and not side.leq(whole)
    for ours in (whole, part, side):
        for theirs in (_wire(whole), _wire(part), _wire(side)):
            command_eq_calls[0] = 0
            below, compatible = ours.leq(theirs), ours.is_compatible(theirs)
            glb, lub = ours.glb(theirs), ours.lub(theirs)
            assert command_eq_calls[0] == 0, (len(ours), len(theirs))
            assert compatible and (glb == ours) == below == (lub == theirs)


def test_a_socket_run_stays_under_fifty_command_eq_calls_per_command(command_eq_calls):
    n = 200

    async def run() -> None:
        topology = Topology.build(2, 3, 3, 2)
        config = GeneralizedConfig(
            topology=topology,
            quorums=QuorumSystem(topology.acceptors),
            schedule=RoundSchedule(range(3), recovery_rtype=1),
            bottom=CommandHistory.bottom(kv_conflict()),
            retransmit=wall_clock_retransmit(),
            checkpoint=wall_clock_checkpoint(interval=64, chunk_size=32),
            delta=DeltaConfig(),
            sessions=SessionConfig(window=64),
        )
        deployment = Deployment(config, seed=5)
        await deployment.start()
        try:
            client = PipelinedClient("eq", deployment.cluster, window=8, session="eq")
            deployment.cluster.attach_client(client)
            rng = random.Random(5)
            client.submit([
                client.make_command("put", "hot" if rng.random() < 0.3 else f"p{i}", i)
                for i in range(n)
            ])
            assert await deployment.driver.wait_until(client.all_completed, timeout=60.0)
            assert not deployment.errors()
        finally:
            await deployment.stop()

    asyncio.run(run())
    assert command_eq_calls[0] < 50 * n, command_eq_calls[0] / n
