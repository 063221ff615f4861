"""Wire round-trips for the whole message taxonomy -- auto-enumerated.

The message list is NOT written down here: it is recomputed from the
protolint taxonomy rule's registry (:func:`repro.lint.taxonomy.
message_names` over ``src/repro``), the same scan that enforces
handlers + docs rows.  Adding a new message dataclass therefore fails
this suite until it both registers with the codec (automatic for frozen
dataclasses in scanned modules) and gets a wire sample below -- a new
message can never silently lack wire support.

Also pins the header contract (magic + version rejection), the
canonical-bytes property for unordered containers, exact type fidelity
for nested containers, registration after first use, and the hostile-input
contract: whatever the bytes, ``decode`` returns a value or raises
``CodecError`` -- nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.node  # noqa: F401  (registers the Ctl* control messages)
from repro.core.messages import (
    ANY,
    CatchUp,
    Learned,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2aDelta,
    Phase2b,
    Phase2bDelta,
    Propose,
    ProposeBatch,
    ResyncRequest,
    VoteStamp,
)
from repro.core.checkpoint import (
    ICheckpoint,
    ISnapshotChunk,
    ISnapshotOffer,
    ISnapshotRequest,
    ITruncated,
)
from repro.core.liveness import Heartbeat
from repro.core.rounds import RoundId
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.lint.engine import Module, collect_files
from repro.lint.taxonomy import message_names
from repro.net import codec, transport
from repro.net.codec import CodecContext, CodecError
from repro.net.node import (
    CtlHello,
    CtlKeyOrders,
    CtlKeyOrdersReply,
    CtlOrders,
    CtlOrdersReply,
    CtlShutdown,
    CtlStart,
    CtlWelcome,
)
from repro.protocols.classic import C1a, C1b, C2a, C2b, CNack, CPropose
from repro.protocols.fast import F_ANY, F1a, F1b, F2a, F2b, FPropose
from repro.smr.instances import (
    Batch,
    I1a,
    I1b,
    I2a,
    I2b,
    ICatchUp,
    IDecided,
    IGossip,
    INack,
    IPropose,
    NOOP,
)
from repro.smr.machine import kv_conflict

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MESSAGES = sorted(
    message_names([Module.load(path) for path in collect_files([SRC])])
)

CMD = Command("wire-1", "put", "key", 41)
CMD2 = Command("wire-2", "get", "key", None)
RND = RoundId(mcount=0, count=3, coord=1, rtype=2)
HIGHER = RoundId(mcount=0, count=4, coord=2, rtype=1)
CONTEXT = CodecContext(conflict=kv_conflict())

# One representative instance per message, exercising every field --
# nested values, sentinels, optional quorums, batches.  A new message
# class must add its sample here (test_sample_exists fails otherwise).
MESSAGE_SAMPLES = {
    # core single-value protocol
    "Propose": Propose(CMD, frozenset({0, 1}), frozenset({"a0", "a1"})),
    "ProposeBatch": ProposeBatch((CMD, CMD2), frozenset({0}), None),
    "Phase1a": Phase1a(RND),
    "Phase1b": Phase1b(RND, RoundId(), CMD, "a0"),
    "Phase2a": Phase2a(RND, ANY, 1, frozenset({"a0", "a2"})),
    "Phase2b": Phase2b(RND, CMD, "a1", fresh=(CMD, CMD2)),
    "Nack": Nack(RND, HIGHER, "a2"),
    "Learned": Learned((CMD, CMD2), "l0", instance=9),
    "CatchUp": CatchUp(seen=7, rnd=RND, size=7, digest=0x1F2F3F4F5F6F7F),
    "Heartbeat": Heartbeat(sender=1),
    # delta wire protocol
    "Phase2aDelta": Phase2aDelta(RND, 3, 0xA1B2C3, (CMD, CMD2), 1),
    "Phase2bDelta": Phase2bDelta(RND, 3, 0xA1B2C3, (CMD,), "a1"),
    "VoteStamp": VoteStamp(RND, 5, 0xD4E5F6, "a2"),
    "ResyncRequest": ResyncRequest(RND, 3),
    # shared checkpoint / state transfer
    "ICheckpoint": ICheckpoint(12, frozenset({"learn0", "learn1"})),
    "ITruncated": ITruncated(5),
    "ISnapshotOffer": ISnapshotOffer(8),
    "ISnapshotRequest": ISnapshotRequest(8, (0, 2)),
    "ISnapshotChunk": ISnapshotChunk(8, 1, 3, (CMD, CMD2), (("key", 41),)),
    # multi-instance engine
    "IPropose": IPropose(CMD, frozenset({0, 1}), frozenset({"acc0"}), retry=True),
    "I1a": I1a(RND),
    "I1b": I1b(RND, "acc0", ((4, RND, CMD),), floor=2),
    "I2a": I2a(RND, 7, Batch((CMD, CMD2)), 1, reannounce=True),
    "I2b": I2b(RND, 7, CMD, "acc2"),
    "INack": INack(RND, HIGHER),
    "IDecided": IDecided(((3, CMD), (4, Batch((CMD, CMD2))), (5, NOOP))),
    "IGossip": IGossip((CMD,), (2, 5)),
    "ICatchUp": ICatchUp((1, 2, 3)),
    # net control plane
    "CtlHello": CtlHello("acc0"),
    "CtlWelcome": CtlWelcome(),
    "CtlStart": CtlStart(0),
    "CtlOrders": CtlOrders(),
    "CtlOrdersReply": CtlOrdersReply("learn0", (("learn0", (CMD, CMD2)),)),
    "CtlKeyOrders": CtlKeyOrders(),
    "CtlKeyOrdersReply": CtlKeyOrdersReply(
        "site0", ((0, 0, (("key", ("wire-1", "wire-2")),)),)
    ),
    "CtlShutdown": CtlShutdown(),
    # classic baseline
    "CPropose": CPropose(CMD),
    "C1a": C1a(2),
    "C1b": C1b(2, "acc0", ((0, 1, CMD),)),
    "C2a": C2a(2, 5, CMD),
    "C2b": C2b(2, 5, CMD, "acc0"),
    "CNack": CNack(2, 4),
    # fast baseline
    "FPropose": FPropose(CMD),
    "F1a": F1a(3),
    "F1b": F1b(3, 1, CMD, "acc0"),
    "F2a": F2a(3, F_ANY),
    "F2b": F2b(3, CMD, "acc1"),
}


def test_taxonomy_enumeration_found_the_vocabulary():
    # Guard against the scan silently matching nothing (wrong path, rule
    # refactor): the engine's core messages must be among the results.
    assert {"Phase1a", "IPropose", "CtlHello"} <= set(MESSAGES)


@pytest.mark.parametrize("name", MESSAGES)
def test_message_is_codec_registered(name):
    assert name in codec.registered_names(), (
        f"message {name} is not wire-registered: its module must be scanned "
        f"by repro.net.codec (register_module) at import time"
    )


@pytest.mark.parametrize("name", MESSAGES)
def test_message_has_wire_sample(name):
    assert name in MESSAGE_SAMPLES, (
        f"new message {name}: add a representative instance to "
        f"MESSAGE_SAMPLES so its wire round-trip is covered"
    )


@pytest.mark.parametrize("name", sorted(MESSAGE_SAMPLES))
def test_message_roundtrips(name):
    sample = MESSAGE_SAMPLES[name]
    decoded = codec.decode(codec.encode(sample), CONTEXT)
    assert decoded == sample
    assert type(decoded) is type(sample)


def test_no_stale_samples():
    assert set(MESSAGE_SAMPLES) <= set(MESSAGES), (
        "samples for classes that are no longer messages: "
        f"{sorted(set(MESSAGE_SAMPLES) - set(MESSAGES))}"
    )


def test_command_history_rides_the_wire():
    history = CommandHistory.of(kv_conflict(), CMD, CMD2, Command("w3", "put", "z", 3))
    msg = Phase2a(RND, history, 0, None)
    decoded = codec.decode(codec.encode(msg), CONTEXT)
    assert decoded.val == history
    with pytest.raises(CodecError):
        codec.decode(codec.encode(msg))  # no conflict relation provided


def test_sentinels_decode_by_identity():
    assert codec.decode(codec.encode(Phase2a(RND, ANY, 0, None))).val is ANY
    assert codec.decode(codec.encode(F2a(3, F_ANY))).val is F_ANY


def test_header_rejects_foreign_past_and_future_frames():
    frame = codec.encode(Phase1a(RND))
    with pytest.raises(CodecError):
        codec.decode(b"XX" + frame[2:])  # wrong magic
    # v1 (tagged objects) and v2/v3 (other message sets) are refused, not parsed
    for version in (1, 2, 3, codec.WIRE_VERSION + 1):
        with pytest.raises(CodecError):
            codec.decode(frame[:2] + bytes([version]) + frame[3:])
    with pytest.raises(CodecError):
        codec.decode(frame[:3] + b"{not json")
    with pytest.raises(CodecError):
        codec.decode(frame + b" ")  # nothing may follow the payload


HEADER = codec.MAGIC + bytes([codec.WIRE_VERSION])


@pytest.mark.parametrize(
    "payload",
    [
        b'{"t":"Command","v":[1]}',  # a v1 object under the current header
        b'["Command",1]',  # wrong arity
        b'["Command",1,2,3,4,5]',
        b"[]",  # no tag
        b'[["t"],1]',  # unhashable tag
        b"[7,1]",  # a tag that is no string
        b'["NoSuchMessage",1]',
        b'["f",["l",1]]',  # unhashable set element
        b'["d",1]',  # key without value
        b'["@","NOBODY"]',
        b'["@","ANY","ANY"]',
        b'["CommandSequence",["t","a","a"]]',  # __post_init__ refuses duplicates
        b'["t",{"a":1}]',  # an object where a value is required
        b"[" * 100_000,  # deeper than any interpreter stack
        b'["t",' * 5_000 + b"1" + b"]" * 5_000,  # valid JSON, too deep to unpack
        b"\xff\xfe",  # not UTF-8
        b"",
    ],
)
def test_malformed_payloads_raise_only_codec_error(payload):
    with pytest.raises(CodecError):
        codec.decode(HEADER + payload, CONTEXT)


def _decodes_or_refuses(frame: bytes) -> None:
    try:
        codec.decode(frame, CONTEXT)
    except CodecError:
        pass  # any other exception fails the test


SAMPLE_FRAMES = [
    codec.encode(("src", "dst", MESSAGE_SAMPLES[name])) for name in sorted(MESSAGE_SAMPLES)
]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_never_escape_codec_error(noise):
    _decodes_or_refuses(noise)
    _decodes_or_refuses(HEADER + noise)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SAMPLE_FRAMES), st.data())
def test_truncated_and_mutated_frames_never_escape_codec_error(frame, data):
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(CodecError):
        codec.decode(frame[:cut], CONTEXT)  # every proper prefix is incomplete
    at = data.draw(st.integers(0, len(frame) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != frame[at]))
    _decodes_or_refuses(frame[:at] + bytes([byte]) + frame[at + 1:])


# -- type fidelity ---------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        [("a", 1), ["b", (2,)]],  # tuple in list, list in list
        ([1, 2], (3, [4])),
        frozenset({(1, "x"), (2, "y")}),
        {frozenset({1}), frozenset()},  # set, not frozenset, of frozensets
        (True, 1, 1.0, False, 0, None),
        {1: "int key", "1": "str key", (1,): "tuple key", 2.5: [None]},
        {"digest": 0xFFFF_FFFF_FFFF_FFFF, "negative": -(2**63)},
        ((), [], frozenset(), set(), {}),
    ],
)
def test_nested_containers_keep_their_exact_types(value):
    def shape(v):
        if isinstance(v, dict):
            return (dict, sorted((repr(k), shape(k), shape(x)) for k, x in v.items()))
        if isinstance(v, (tuple, list)):
            return (type(v), [shape(x) for x in v])
        if isinstance(v, (set, frozenset)):
            return (type(v), sorted(map(repr, map(shape, v))))
        return type(v)

    decoded = codec.decode(codec.encode(value))
    assert decoded == value
    assert shape(decoded) == shape(value)


def test_types_outside_the_table_have_no_codec():
    class Pid(str):  # exact types only: a subclass would decode as its base
        pass

    for stranger in (Pid("acc0"), object(), b"bytes", 1 + 2j, (1, Pid("x"))):
        with pytest.raises(CodecError):
            codec.encode(stranger)


# -- registration ----------------------------------------------------------------


@dataclass(frozen=True)
class LateMessage:  # not in any module the codec scans
    rnd: RoundId
    cmds: tuple = ()


def test_class_registered_after_first_use_roundtrips():
    codec.encode(Phase1a(RND))  # the codec is in use: plans compile at registration, not import
    assert codec.register_message(LateMessage) is LateMessage
    assert codec.register_message(LateMessage) is LateMessage  # idempotent
    sample = LateMessage(HIGHER, (CMD, CMD2))
    decoded = codec.decode(codec.encode(("a", "b", sample)))
    assert decoded == ("a", "b", sample) and type(decoded[2]) is LateMessage


def test_name_collisions_are_refused():
    @dataclass(frozen=True)
    class Phase1a:  # noqa: F811 - the point: same name, different class
        rnd: int

    with pytest.raises(CodecError):
        codec.register_message(Phase1a)

    t = dataclass(frozen=True)(type("t", (), {}))  # the tuple tag
    with pytest.raises(CodecError):
        codec.register_message(t)
    assert codec.decode(codec.encode((1, 2))) == (1, 2)


def test_unordered_containers_have_canonical_bytes():
    a = Propose(CMD, frozenset({2, 0, 1}), frozenset({"a1", "a0"}))
    b = Propose(CMD, frozenset({1, 2, 0}), frozenset({"a0", "a1"}))
    assert codec.encode(a) == codec.encode(b)


# -- encode-once fan-out (net/transport.py) ----------------------------------------


class _CapturedSocket:
    def __init__(self):
        self.frames = []

    def sendto(self, data, addr):
        self.frames.append(data)


def test_fanout_encodes_each_message_once_and_sends_the_exact_frames(monkeypatch):
    peers = [f"peer{i}" for i in range(4)]
    book = transport.AddressBook(
        nodes={"here": ("127.0.0.1", 1), "there": ("127.0.0.1", 2)},
        placement={"me": "here", **{peer: "there" for peer in peers}},
    )
    runtime = transport.NetRuntime("here", book, mtu=1 << 20)
    runtime._udp = socket = _CapturedSocket()
    calls = []
    # The module global, looked up per call: the seam the ledger's tracer patches.
    monkeypatch.setattr(transport, "encode", lambda obj: calls.append(obj) or codec.encode(obj))
    for name in sorted(MESSAGE_SAMPLES):
        msg = MESSAGE_SAMPLES[name]
        del calls[:], socket.frames[:]
        for peer in peers:
            runtime.send("me", peer, msg)
        assert calls == [msg], f"{name}: one broadcast, {len(calls)} encodes"
        assert socket.frames == [codec.encode(("me", peer, msg)) for peer in peers], name
    assert runtime.frames_udp == len(MESSAGE_SAMPLES) * len(peers)
    assert runtime.metrics.total_bytes == sum(
        len(codec.encode(("me", peer, msg))) for msg in MESSAGE_SAMPLES.values() for peer in peers
    )
