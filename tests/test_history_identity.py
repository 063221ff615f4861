"""One object per history value per process (``cstruct/history.py``).

Three accelerators sit between the wire and the engines, and none of them
may change a value:

* **decode** -- a ``["h", ...]`` payload is looked up in the codec
  context's :class:`HistoryTable`; equal payloads are one object, and a
  payload one command away from a cached history costs O(n) conflict
  checks, not the O(n²) of a build from ⊥;
* **derive** -- ``extend`` and ``without`` remember their last result on
  the history they were called on, weakly, so mirrors of one stream stay
  one object;
* **encode** -- the packed form is kept on the history.

Each is pinned twice: that it does what it promises (identity, the
conflict-call count, the bound), and that the value is what an unassisted
build gives -- by property, on hostile input, and by running the history,
codec, checker, parity and seed-replay suites with every table and memo
forgetting (``forgetful_history_tables``).
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Phase2a, Phase2b
from repro.core.rounds import RoundId
from repro.cstruct.commands import Command, ConflictRelation
from repro.cstruct.history import CommandHistory, HistoryTable
from repro.cstruct.sharding import ShardKeyConflict
from repro.net import codec
from repro.net.codec import CodecContext, CodecError
from repro.smr.machine import kv_conflict

RND = RoundId(mcount=0, count=1, coord=0, rtype=2)


def _history_frame(seq) -> bytes:
    """A ``["h", ...]`` frame carrying *seq* as it stands (canonical or not)."""
    packed = codec._pack_all("h", seq)
    return codec._HEADER + json.dumps(packed, separators=(",", ":")).encode("utf-8")


def _puts(prefix: str, n: int, key=lambda i: f"k{i % 7}") -> list[Command]:
    return [Command(f"{prefix}:{i:04d}", "put", key(i), i) for i in range(n)]


@pytest.fixture
def conflict_calls(monkeypatch):
    """A one-element list counting conflict-relation calls (cached or not)."""
    calls = [0]
    plain = ConflictRelation.__call__

    def counted(self, a, b):
        calls[0] += 1
        return plain(self, a, b)

    monkeypatch.setattr(ConflictRelation, "__call__", counted)
    return calls


# -- decode: equal payloads are one object ---------------------------------------


def test_equal_payloads_from_different_senders_and_messages_are_one_object():
    context = CodecContext(kv_conflict())
    sent = CommandHistory.of(kv_conflict(), *_puts("one", 12))
    frames = [
        codec.encode(("coord0", "acc1", Phase2a(RND, sent))),
        codec.encode(("coord2", "acc1", Phase2a(RND, sent))),
        codec.encode(("acc0", "lrn0", Phase2b(RND, sent))),
        codec.encode(CommandHistory.of(kv_conflict(), *sent.cmds)),  # an equal twin's bytes
    ]
    decoded = [codec.decode(frame, context) for frame in frames]
    values = [decoded[0][2].val, decoded[1][2].val, decoded[2][2].val, decoded[3]]
    assert all(value is values[0] for value in values)
    assert values[0] == sent and values[0] is not sent
    assert len(context.histories) == 1


def test_a_table_belongs_to_its_context():
    one, other = CodecContext(kv_conflict()), CodecContext(kv_conflict())
    frame = codec.encode(CommandHistory.of(kv_conflict(), *_puts("ctx", 5)))
    assert codec.decode(frame, one) is codec.decode(frame, one)
    assert codec.decode(frame, other) is not codec.decode(frame, one)
    assert codec.decode(frame, other) == codec.decode(frame, one)


def test_a_context_given_another_relation_forgets_the_old_ones_histories():
    context = CodecContext(kv_conflict())
    cmds = [Command("rel:1", "put", "a|b", 1), Command("rel:2", "put", "b|c", 2)]
    frame = _history_frame(cmds)
    commuting = codec.decode(frame, context)  # KeyConflict: different key strings
    context.conflict = ShardKeyConflict()
    ordered = codec.decode(frame, context)  # key sets share "b"
    assert commuting.predecessors(cmds[1]) == frozenset()
    assert ordered.predecessors(cmds[1]) == {cmds[0]}
    assert ordered == CommandHistory.of(ShardKeyConflict(), *cmds)


def test_decoding_without_a_context_allocates_none(monkeypatch):
    frame = codec.encode(("a", "b", Command("id:nc", "put", "k", 1)))

    def refuse(self, conflict=None):
        raise AssertionError("a CodecContext was built for one frame")

    monkeypatch.setattr(CodecContext, "__init__", refuse)
    assert codec.decode(frame)[2] == Command("id:nc", "put", "k", 1)
    with pytest.raises(CodecError):
        codec.decode(_history_frame(_puts("nc", 2)))  # still no relation to rebuild under


# -- decode: the value is CommandHistory.of's, whatever the table holds ------------

_KEYS = ["a", "b", "c", "a|b", "b|c", ""]
_commands = st.builds(
    Command,
    cid=st.integers(0, 11).map(lambda i: f"p:{i:02d}"),
    op=st.sampled_from(["put", "get"]),
    key=st.sampled_from(_KEYS),
    arg=st.none(),
)
_relations = st.sampled_from([kv_conflict(), ShardKeyConflict()])


@settings(max_examples=300, deadline=None)
@given(
    _relations,
    st.lists(_commands, max_size=10),
    st.lists(st.lists(st.integers(0, 9), max_size=10), max_size=4),
)
def test_decoded_value_equals_an_unassisted_build(conflict, seq, seeds):
    """Duplicates, non-canonical order, conflicting and commuting commands:
    whatever sub-histories the table already holds, a decode is the history
    ``CommandHistory.of`` builds -- same sequence, same digraph."""
    context = CodecContext(conflict)
    for picks in seeds:  # sub-histories of the payload, in payload and in other orders
        sub = [seq[i] for i in picks if i < len(seq)]
        codec.decode(codec.encode(CommandHistory.of(conflict, *sub)), context)
    decoded = codec.decode(_history_frame(seq), context)
    expected = CommandHistory.of(conflict, *seq)
    assert decoded == expected and decoded.cmds == expected.cmds
    assert decoded._preds == expected._preds
    assert decoded.command_set() == expected.command_set()
    assert codec.decode(_history_frame(expected.cmds), context) == expected


@settings(max_examples=200, deadline=None)
@given(_relations, st.lists(_commands, max_size=10, unique=True), st.data())
def test_delta_after_is_the_membership_filter(conflict, seq, data):
    whole = CommandHistory.of(conflict, *seq)
    picks = data.draw(st.lists(st.sampled_from(seq), max_size=10)) if seq else []
    for prefix in (
        CommandHistory.of(conflict, *picks),  # any sub-collection, rarely a prefix
        CommandHistory.of(conflict, *whole.cmds[: len(seq) // 2]),  # a genuine one
        CommandHistory.of(conflict, *(Command(c.cid, c.op, c.key, c.arg) for c in picks)),
    ):
        expected = tuple(c for c in whole.cmds if c not in prefix.command_set())
        assert whole.delta_after(prefix) == expected


@pytest.mark.parametrize(
    "payload",
    [
        ["h", 1, 2],
        ["h", None],
        ["h", ["l", 1]],
        ["h", ["Command", "x:1", "put", "k", ["l", 1]]],
        ["h", ["Command", "x:1", "put", "k", None], "x"],
        ["h", ["RoundId", 0, 1, 0, 2]],
    ],
    ids=repr,
)
def test_a_hostile_history_payload_raises_only_codec_error(payload):
    context = CodecContext(kv_conflict())
    held = CommandHistory.of(kv_conflict(), Command("x:1", "put", "k"))
    codec.decode(codec.encode(held), context)  # a neighbour the payload could try to extend
    frame = codec._HEADER + json.dumps(payload).encode("utf-8")
    with pytest.raises(CodecError):
        codec.decode(frame, context)


# -- decode: bounded, and linear next to a neighbour --------------------------------


def test_the_table_stays_within_its_bound_and_keeps_what_is_in_use():
    context = CodecContext(kv_conflict())
    table = context.histories
    bound = 2 * table.generation
    kept_frame = codec.encode(CommandHistory.of(kv_conflict(), *_puts("kept", 9)))
    first_frame = _history_frame(_puts("flood0", 3))
    kept, first = codec.decode(kept_frame, context), codec.decode(first_frame, context)
    for i in range(1, 10 * bound):
        codec.decode(_history_frame(_puts(f"flood{i}", 3)), context)
        if i % (table.generation // 2) == 0:  # in use: arrives now and then
            assert codec.decode(kept_frame, context) is kept
        assert len(table) <= bound
    assert codec.decode(kept_frame, context) is kept
    again = codec.decode(first_frame, context)  # nobody asked since: evicted, rebuilt equal
    assert again == first and again is not first


def test_an_evicted_history_is_rebuilt_equal():
    table, conflict = HistoryTable(generation=2), kv_conflict()
    seqs = [tuple(_puts(f"ev{i}", 4)) for i in range(6)]
    first = table.history(conflict, seqs[0])
    assert table.history(conflict, seqs[0]) is first
    for seq in seqs[1:]:
        table.history(conflict, seq)
    rebuilt = table.history(conflict, seqs[0])
    assert rebuilt == first and rebuilt is not first and len(table) <= 4


def test_decoding_next_to_a_cached_history_is_linear_in_conflict_calls(conflict_calls):
    """1 000 multi-key commands, one more than a cached history: the merge
    group's relation has no partition, so a build from ⊥ asks it about
    every pair (~500 000 calls); extending the neighbour asks about 1 000."""
    conflict = ShardKeyConflict()
    context = CodecContext(conflict)
    cmds = _puts("lin", 1000, key=lambda i: f"k{i % 40}|k{(i * 7) % 40}")
    base = CommandHistory.of(conflict, *cmds[:500], *cmds[501:])
    grown = base.extend([cmds[500]])  # lands mid-sequence, not at the tail
    assert grown.cmds.index(cmds[500]) < 999
    base_frame, grown_frame = codec.encode(base), codec.encode(grown)
    codec.decode(base_frame, context)
    conflict_calls[0] = 0
    decoded = codec.decode(grown_frame, context)
    assert conflict_calls[0] <= 3000
    assert decoded == grown and decoded._preds == grown._preds
    conflict_calls[0] = 0
    assert codec.decode(grown_frame, context) is decoded and conflict_calls[0] == 0


# -- derive: mirrors of one stream are one object -----------------------------------


def test_mirrors_extended_by_equal_suffixes_are_one_object():
    bottom = CommandHistory.bottom(kv_conflict())
    cmds = _puts("mir", 9, key=lambda i: "hot" if i % 3 == 0 else f"k{i}")
    suffixes = [cmds[:4], cmds[4:6], cmds[6:]]
    mirrors = [bottom, bottom, bottom]
    for suffix in suffixes:  # three peers report the same stream, interleaved
        mirrors = [mirror.extend(list(suffix)) for mirror in mirrors]
        assert mirrors[0] is mirrors[1] is mirrors[2]
    unmemoized = CommandHistory(tuple(cmds), kv_conflict())  # __post_init__: full rebuild
    assert mirrors[0] == unmemoized and mirrors[0]._preds == unmemoized._preds
    members = frozenset(cmds[:3])
    tails = [mirror.without(members) for mirror in mirrors]
    assert tails[0] is tails[1] is tails[2]
    assert tails[0] == unmemoized.stable_split(members)[1]
    assert mirrors[0].without(frozenset(cmds[:5])) == unmemoized.stable_split(cmds[:5])[1]


def test_a_different_suffix_is_a_different_history():
    bottom = CommandHistory.bottom(kv_conflict())
    a, b, c = _puts("dif", 3, key=lambda i: "hot")
    one = bottom.extend([a, b])
    assert bottom.extend([a, c]) == CommandHistory.of(kv_conflict(), a, c)
    assert bottom.extend([a, b]) == one  # the slot moved on; the value did not
    assert one.extend([a]) is one and one.extend([]) is one


def test_without_remembers_only_an_immutable_members_object():
    whole = CommandHistory.of(kv_conflict(), *_puts("mut", 6))
    members = set(whole.cmds[:2])
    short = whole.without(members)
    members.add(whole.cmds[2])
    assert whole.without(members) == whole.stable_split(frozenset(members))[1] != short


def test_bottom_does_not_pin_its_descendants():
    bottom = CommandHistory.bottom(kv_conflict())
    child = bottom.extend(_puts("pin", 5))
    grandchild = child.extend(_puts("pin2", 5))
    assert bottom.extend(_puts("pin", 5)) is child
    remembered = bottom.__dict__["_extended"][1]
    assert remembered() is child
    del child, grandchild
    gc.collect()
    assert remembered() is None
    assert bottom.extend(_puts("pin", 5)) == CommandHistory.of(kv_conflict(), *_puts("pin", 5))


def test_extend_still_accepts_a_generator():
    bottom = CommandHistory.bottom(kv_conflict())
    cmds = _puts("gen", 6)
    grown = bottom.extend(cmd for cmd in cmds)  # GenCoordinator._phase2start passes one
    assert grown == CommandHistory.of(kv_conflict(), *cmds)
    assert bottom.extend(cmd for cmd in cmds) is grown


# -- encode: packed once, same bytes --------------------------------------------------


def test_a_history_is_packed_once_and_encodes_to_the_same_bytes(monkeypatch):
    history = CommandHistory.of(kv_conflict(), *_puts("enc", 8))
    twin = CommandHistory.of(kv_conflict(), *history.cmds)
    first = codec.encode(Phase2a(RND, history))

    def refuse(tag, items):
        raise AssertionError("the history was packed again")

    monkeypatch.setattr(codec, "_pack_all", refuse)
    assert codec.encode(Phase2a(RND, history)) == first
    monkeypatch.undo()
    assert codec.encode(Phase2a(RND, twin)) == first


# -- nothing rests on any of it ---------------------------------------------------------


def test_the_forgetful_fixture_does_forget(forgetful_history_tables):
    context = CodecContext(kv_conflict())
    frame = codec.encode(CommandHistory.of(kv_conflict(), *_puts("fgt", 4)))
    first, second = codec.decode(frame, context), codec.decode(frame, context)
    assert first == second and first is not second and len(context.histories) == 0
    bottom = CommandHistory.bottom(kv_conflict())
    assert bottom.extend(first.cmds) is not bottom.extend(first.cmds)
    members = frozenset(first.cmds[:1])
    assert first.without(members) is not first.without(members)
    assert "_packed" not in first.__dict__ and codec.encode(first) == frame


def test_value_semantics_hold_with_every_table_and_memo_forgetting():
    """The history, digraph, codec (byte fuzz included), checker, engine
    parity and seed-replay suites, run again with no decode, ``extend`` or
    ``without`` ever answering from memory."""
    tests = Path(__file__).parent
    modules = [
        "test_history.py", "test_history_digraph.py", "test_codec_roundtrip.py",
        "test_checker.py", "test_gen_parity.py", "test_seed_replay.py",
    ]
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", "usefixtures=forgetful_history_tables", *(str(tests / m) for m in modules),
        ],
        cwd=tests.parent,
        env={**os.environ, "CI": "quick"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]
