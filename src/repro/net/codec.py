"""Versioned wire serialization for every protocol message (wire v9).

The codec round-trips every frozen-dataclass message in the taxonomy
(``docs/messages.md``) plus the value types they carry (``Command``,
``RoundId``, ``Batch``, c-structs, tuples/lists/sets/dicts).  A message's
*payload* is

    2 bytes magic ``RP`` | 1 byte wire version | UTF-8 JSON

and the JSON's grammar is *positional tagged arrays*: a scalar is the
JSON scalar, everything else an array whose first element names what it
is -- ``["I2a", rnd, instance, val, reannounce]`` (a registered
class, its ``init`` fields in declaration order, no field names),
``["t", ...]`` tuple, ``["l", ...]`` list, ``["f", ...]``/``["s", ...]``
frozenset/set and ``["d", k, v, ...]`` dict in canonical (``repr``-sorted)
order so equal values give identical bytes, ``["h", ...]`` history,
``["@", "ANY"]`` sentinel (``docs/transport.md``, *Wire format*).

A decoder refuses a payload whose magic or version is not its own, and
raises :class:`CodecError` -- only that -- on any payload it cannot
rebuild, so incompatible deployments and hostile bytes fail loudly
instead of mis-parsing or crashing a node.

The codec also owns the one frame grammar the transport
(:mod:`repro.net.transport`) writes: the same three header bytes, a
count, then that many (one or more) *envelopes* of three length-prefixed
fields each -- the ``src`` pid, the ``dst`` pid and the message's payload
(:func:`route`, :func:`prefixed`).  Bundling is concatenation (:func:`bundles`), and a
reader finds every payload without parsing any (:func:`split`), so a
node decodes each distinct payload once.  Datagram boundaries and the
TCP stream's own length prefix are the transport's.

Registration is automatic: :func:`register_module` scans a module for
frozen dataclasses (exactly the protolint taxonomy rule's notion of a
message class) and registers each by class name, compiling its pack and
unpack functions on the spot.  All message-bearing modules of the
repository are scanned at import time, so a *new* message dataclass is
wire-ready the moment it exists -- and the round-trip test suite
(auto-enumerated from the same taxonomy scan) fails if a message ever
needs codec support the scan cannot provide.

Two non-dataclass cases are handled specially:

* the distinguished phase-2a sentinels ``ANY`` and ``F_ANY`` encode by
  identity;
* :class:`~repro.cstruct.history.CommandHistory` encodes as its linear
  extension and is rebuilt at decode time against the *receiver's*
  conflict relation (passed via ``context``): the relation is engine
  configuration, identical on every node, and never shipped.  The
  context also owns the table that makes equal payloads decode to one
  object (``docs/transport.md``, *Decoded histories are canonical
  instances*).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Callable

from repro.core import checkpoint as _checkpoint
from repro.core import liveness as _liveness
from repro.core import messages as _messages
from repro.core import rounds as _rounds
from repro.core import sessions as _sessions
from repro.core.messages import ANY
from repro.cstruct import commands as _commands
from repro.cstruct import cset as _cset
from repro.cstruct import seq as _seq
from repro.cstruct.commands import ConflictRelation
from repro.cstruct.history import CommandHistory, HistoryTable
from repro.protocols import classic as _classic
from repro.protocols import fast as _fast
from repro.protocols.fast import F_ANY
from repro.smr import instances as _instances

MAGIC = b"RP"
WIRE_VERSION = 9
HEADER_LEN = len(MAGIC) + 1


class CodecError(ValueError):
    """Unknown type, unknown tag, or incompatible wire header."""


class CodecContext:
    """Receiver-side configuration the wire cannot carry.

    ``conflict`` rebuilds :class:`CommandHistory` payloads (the
    generalized engine's c-structs are canonical orders *under a
    relation*; every node is configured with the same relation, so only
    the linear extension travels).  ``histories`` is the receiver's
    table of decoded histories: every runtime decoding through this
    context gets one object per history value.
    """

    def __init__(self, conflict: ConflictRelation | None = None) -> None:
        self.conflict = conflict
        self.histories = HistoryTable()


_REGISTRY: dict[str, type] = {}
MESSAGES: set[type] = set()  # what an envelope may carry: registered classes, no container
_SCALARS = frozenset({type(None), bool, int, float, str})  # JSON carries these as they are


class _Packers(dict):
    """Exact type -> ``value -> tagged array``; any other type has no codec."""

    def __missing__(self, cls: type):
        raise CodecError(f"no codec for {cls.__module__}.{cls.__name__}")


class _Unpackers(dict):
    """Wire tag -> ``(tagged array, context) -> value``."""

    def __missing__(self, tag: Any):
        raise CodecError(f"unknown wire tag {tag!r}")


_PACKERS = _Packers()
_UNPACKERS = _Unpackers()


def register_message(cls: type, build: Callable[..., Any] | None = None) -> type:
    """Register one frozen dataclass for wire transport (by class name).

    Compiles the class's codec plan here, once: a pack and an unpack
    function with one slot per ``init`` field in declaration order, so no
    frame pays for ``fields()`` or an ``isinstance`` ladder.  A scalar
    passes through a slot untouched; anything else costs one table lookup,
    on its exact type (pack) or on its tag (unpack).  Unpacking constructs
    through ``cls(...)``, so ``__post_init__`` validation still runs -- or
    through *build*, called the same way, for a class whose instances do
    not all come from its constructor.
    """
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is None and name in _UNPACKERS:
        existing = "a container tag"
    if existing is not None and existing is not cls:
        raise CodecError(f"codec name collision: {name} ({existing} vs {cls})")
    names = [f.name for f in fields(cls) if f.init]
    packed = "".join(
        f", v if (v := o.{n}).__class__ in S else P[v.__class__](v)" for n in names
    )
    slots = "".join(f", v{i}" for i in range(len(names)))
    built = ", ".join(
        f"v{i} if v{i}.__class__ in S else U[v{i}[0]](v{i}, c)" for i in range(len(names))
    )
    plan = {"S": _SCALARS, "P": _PACKERS, "U": _UNPACKERS, "cls": build or cls}
    exec(  # generated like a dataclass's own __init__: source from fields(), once per class
        f"def pack(o):\n return [{name!r}{packed}]\n"
        f"def unpack(d, c):\n (_{slots}) = d\n return cls({built})\n",
        plan,
    )
    _REGISTRY[name], _PACKERS[cls], _UNPACKERS[name] = cls, plan["pack"], plan["unpack"]
    MESSAGES.add(cls)
    return cls


def register_module(module: Any) -> list[str]:
    """Register every frozen dataclass *defined* in *module*."""
    registered = []
    for _name, obj in sorted(vars(module).items()):
        if (
            isinstance(obj, type)
            and obj.__module__ == module.__name__
            and is_dataclass(obj)
            and obj.__dataclass_params__.frozen
        ):
            register_message(obj)
            registered.append(obj.__name__)
    return registered


def registered_names() -> frozenset[str]:
    """Every type name the codec can put on the wire."""
    return frozenset(_REGISTRY)


# -- containers, sentinels, histories ------------------------------------------


def _pack_all(tag: str, items: Any) -> list:
    return [tag, *[v if v.__class__ in _SCALARS else _PACKERS[v.__class__](v) for v in items]]


def _unpack_all(data: list, context: CodecContext) -> list:
    return [v if v.__class__ in _SCALARS else _UNPACKERS[v[0]](v, context) for v in data[1:]]


def _canonical(items: Any) -> list:
    # The codec must not leak set/dict iteration order into bytes: two
    # encodings of equal unordered containers are byte-identical.
    return sorted(items, key=repr)  # protolint: ignore[determinism]


def _unpack_dict(data: list, context: CodecContext) -> dict:
    flat = _unpack_all(data, context)
    if len(flat) % 2:
        raise CodecError("dict on the wire with a key and no value")
    return dict(zip(flat[::2], flat[1::2]))


def _unpack_history(data: list, context: CodecContext) -> CommandHistory:
    if context.conflict is None:
        raise CodecError(
            "CommandHistory on the wire needs a CodecContext with the "
            "receiver's conflict relation"
        )
    return context.histories.history(context.conflict, tuple(_unpack_all(data, context)))


def _pack_history(obj: CommandHistory) -> list:
    # Packed once per history: a full "2a"/"2b" answered to one peer at a
    # time (resync, catch-up) would re-pack every command per send.  The
    # list is shared between frames and never written to.
    packed = getattr(obj, "_packed", None)
    if packed is None:
        packed = _pack_all("h", obj.linear_extension())
        object.__setattr__(obj, "_packed", packed)
    return packed


_SENTINELS = {"ANY": ANY, "F_ANY": F_ANY}


def _unpack_sentinel(data: list, context: CodecContext) -> Any:
    _, name = data
    return _SENTINELS[name]


_PACKERS.update({
    tuple: lambda obj: _pack_all("t", obj),
    list: lambda obj: _pack_all("l", obj),
    frozenset: lambda obj: _pack_all("f", _canonical(obj)),
    set: lambda obj: _pack_all("s", _canonical(obj)),
    dict: lambda obj: _pack_all("d", [x for k in _canonical(obj) for x in (k, obj[k])]),
    CommandHistory: _pack_history,
    type(ANY): lambda obj: ["@", "ANY"],
    type(F_ANY): lambda obj: ["@", "F_ANY"],
})
_UNPACKERS.update({
    "t": lambda data, context: tuple(_unpack_all(data, context)),
    "l": _unpack_all,
    "f": lambda data, context: frozenset(_unpack_all(data, context)),
    "s": lambda data, context: set(_unpack_all(data, context)),
    "d": _unpack_dict,
    "h": _unpack_history,
    "@": _unpack_sentinel,
})

for _module in (
    _messages,
    _liveness,
    _checkpoint,
    _rounds,
    _sessions,
    _instances,
    _classic,
    _fast,
    _commands,
    _seq,
    _cset,
):
    register_module(_module)

# Commands are canonical instances (cstruct/commands.py, InternTable): a
# decode hands back the object this process already uses for the command,
# and an encode offers the table the sender's own, so the proposer's
# original, every later decode and every stored copy are one object.
_INTERNED = _commands.INTERNED.command
register_message(_commands.Command, build=_INTERNED)
_pack_command_fields = _PACKERS[_commands.Command]


def _pack_command(cmd: _commands.Command) -> list:
    _INTERNED(cmd.cid, cmd.op, cmd.key, cmd.arg, cmd)
    return _pack_command_fields(cmd)


_PACKERS[_commands.Command] = _pack_command


# -- message payloads ------------------------------------------------------------

_HEADER = MAGIC + bytes([WIRE_VERSION])
_DUMPS = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_LOADS = json.JSONDecoder().raw_decode
_NO_CONTEXT = CodecContext()  # decode(data, None): no relation, so it never holds a history


def encode(obj: Any) -> bytes:
    """One message object -> one versioned wire payload."""
    packed = obj if obj.__class__ in _SCALARS else _PACKERS[obj.__class__](obj)
    return _HEADER + _DUMPS(packed).encode("utf-8")


def _refuse_header(data: bytes) -> None:
    if len(data) < HEADER_LEN or data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a repro wire frame")
    version = data[len(MAGIC)]
    if version != WIRE_VERSION:
        raise CodecError(f"wire version {version} != supported {WIRE_VERSION}")


def decode(data: bytes, context: CodecContext | None = None) -> Any:
    """One wire payload -> the message object; raises only :class:`CodecError`."""
    if data[:HEADER_LEN] != _HEADER:
        _refuse_header(data)
    try:
        text = data.decode("utf-8")  # the header is ASCII: parse from behind it, no copy
        parsed, end = _LOADS(text, HEADER_LEN)
        if end != len(text):
            raise CodecError("trailing bytes after the payload")
        if parsed.__class__ in _SCALARS:
            return parsed
        return _UNPACKERS[parsed[0]](parsed, context or _NO_CONTEXT)
    except CodecError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, RecursionError) as exc:
        # Not JSON, or JSON of the wrong shape: arity, an empty or untagged
        # array, an object, an unhashable tag or element, nesting too deep,
        # a constructor refusing its arguments.
        raise CodecError(f"undecodable payload: {exc!r}") from exc


# -- frames: a count, then length-prefixed envelopes --------------------------------

#: Most bytes a length or count may take: 28 bits, far above any frame.
_VARINT_BYTES = 4

#: What the frame of one envelope holds besides it: the header, a count of 1.
LONE_OVERHEAD = HEADER_LEN + 1


def _varint(n: int) -> bytes:
    """*n* as an unsigned LEB128 varint: 7 bits a byte, least significant
    first, minimal -- one byte below 128, two below 16 384."""
    if n < 0x80:
        return bytes((n,))
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _varint_at(data: bytes, at: int) -> tuple[int, int]:
    """The varint at *at*: its value and the offset behind it.  Raises
    :class:`CodecError` unless it is minimal and at most ``_VARINT_BYTES``
    long, and runs off the end of *data* with ``IndexError``."""
    n = data[at]
    if n < 0x80:
        return n, at + 1
    n &= 0x7F
    for shift in range(7, 7 * _VARINT_BYTES, 7):
        at += 1
        byte = data[at]
        n |= (byte & 0x7F) << shift
        if byte < 0x80:
            if not byte:
                raise CodecError("a length that is not minimal")
            return n, at + 1
    raise CodecError(f"a length over {_VARINT_BYTES} bytes")


def prefixed(data: bytes) -> bytes:
    """*data* as one field: its length (a varint), then *data*."""
    return _varint(len(data)) + data


def route(src: str, dst: str) -> bytes:
    """An envelope's first two fields: the *src* and *dst* pids, UTF-8."""
    return prefixed(src.encode("utf-8")) + prefixed(dst.encode("utf-8"))


def frame(envelopes: list[bytes]) -> bytes:
    """The frame of *envelopes* (each ``route(src, dst) +
    prefixed(encode(msg))``): the header, their count, then each in order."""
    return b"".join((_HEADER, _varint(len(envelopes)), *envelopes))


def bundles(envelopes: list[bytes], limit: int) -> list[bytes]:
    """*envelopes*, in order, in as few frames of at most *limit* bytes as
    that order allows.

    Bundling is concatenation: no message is encoded again and nothing is
    parsed.  An envelope whose frame alone is over *limit* goes alone.
    """
    out: list[bytes] = []
    held: list[bytes] = []
    size = HEADER_LEN  # of the held envelopes' frame, but for its count
    for envelope in envelopes:
        size += len(envelope)
        if held and size + len(_varint(len(held) + 1)) > limit:
            out.append(frame(held))
            held, size = [], HEADER_LEN + len(envelope)
        held.append(envelope)
    out.append(frame(held))
    return out


def split(data: bytes) -> list:
    """A frame's envelopes, flat and in order: ``[src, dst, payload, src,
    dst, payload, ...]``, the pids as ``str`` and each payload the bytes
    its length names.

    The frame is checked whole and no payload is looked at: it raises
    :class:`CodecError` unless the header is this version's, the count is
    at least one and exactly that many envelopes of three fields each
    follow, every length within the frame and nothing after the last, and
    every pid is UTF-8 -- so every proper prefix of a frame is refused.
    Whether a payload holds a message is the reader's to check
    (:func:`decode`).
    """
    if data[:HEADER_LEN] != _HEADER:
        _refuse_header(data)
    fields: list = []
    end = len(data)
    try:
        count, at = _varint_at(data, HEADER_LEN)
        if not count:
            raise CodecError("a frame with no envelopes")
        for _ in range(count):
            size, at = _varint_at(data, at)  # a pid's length past the end
            src, at = data[at:at + size], at + size  # shows at the next read
            size, at = _varint_at(data, at)
            dst, at = data[at:at + size], at + size
            size, at = _varint_at(data, at)
            stop = at + size
            if stop > end:
                raise CodecError("a length runs past the end of the frame")
            fields += (src.decode(), dst.decode(), data[at:stop])
            at = stop
    except IndexError:
        raise CodecError("the frame ends before its last envelope") from None
    except UnicodeDecodeError:
        raise CodecError("a pid that is not UTF-8") from None
    if at != end:
        raise CodecError("bytes after the last envelope")
    return fields
