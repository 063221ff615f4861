"""Versioned wire serialization for every protocol message (wire v8).

The codec round-trips every frozen-dataclass message in the taxonomy
(``docs/messages.md``) plus the value types they carry (``Command``,
``RoundId``, ``Batch``, c-structs, tuples/lists/sets/dicts).  A frame is

    2 bytes magic ``RP`` | 1 byte wire version | UTF-8 JSON payload

and the payload's grammar is *positional tagged arrays*: a scalar is the
JSON scalar, everything else an array whose first element names what it
is -- ``["I2a", rnd, instance, val, reannounce]`` (a registered
class, its ``init`` fields in declaration order, no field names),
``["t", ...]`` tuple, ``["l", ...]`` list, ``["f", ...]``/``["s", ...]``
frozenset/set and ``["d", k, v, ...]`` dict in canonical (``repr``-sorted)
order so equal values give identical bytes, ``["h", ...]`` history,
``["@", "ANY"]`` sentinel (``docs/transport.md``, *Wire format*).

A decoder refuses a frame whose magic or version is not its own, and
raises :class:`CodecError` -- only that -- on any payload it cannot
rebuild, so incompatible deployments and hostile bytes fail loudly
instead of mis-parsing or crashing a node.

The codec maps one message object to one payload, and it also owns the
one frame grammar the transport (:mod:`repro.net.transport`) writes: a
*bundle*, the tuple ``(src, dst, msg, src, dst, msg, ...)`` of one or
more envelopes, built from each message's encoding without re-encoding
it (:func:`envelope`, :func:`seal`, :func:`bundles`) and checked whole
on the way in (:func:`unbundle`).  Length prefixes and datagram
boundaries are the transport's.

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
WIRE_VERSION = 8
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
_MESSAGES: set[type] = set()  # what a bundle may carry as an envelope's msg
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
    _MESSAGES.add(cls)
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


# -- framing-free encode/decode ------------------------------------------------

_HEADER = MAGIC + bytes([WIRE_VERSION])
_DUMPS = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_LOADS = json.JSONDecoder().raw_decode
_NO_CONTEXT = CodecContext()  # decode(data, None): no relation, so it never holds a history


def encode(obj: Any) -> bytes:
    """One message object -> one versioned wire payload."""
    packed = obj if obj.__class__ in _SCALARS else _PACKERS[obj.__class__](obj)
    return _HEADER + _DUMPS(packed).encode("utf-8")


def envelope(src: str, dst: str) -> bytes:
    """What ``encode((src, dst, msg))`` puts in front of *msg*'s own encoding."""
    return encode((src, dst))[:-1] + b","


def seal(opened: bytes, encoded: bytes) -> bytes:
    """``encode((src, dst, msg))`` from ``envelope(src, dst)`` and ``encode(msg)``:
    the frame of one envelope, a bundle of one (:func:`bundles` merges them).

    Byte-identical because a JSON array is its elements' encodings joined
    by ``,``: a transport fanning one message out encodes it once.
    """
    return b"".join((opened, encoded[HEADER_LEN:], b"]"))


def decode(data: bytes, context: CodecContext | None = None) -> Any:
    """One wire payload -> the message object; raises only :class:`CodecError`."""
    if len(data) < HEADER_LEN or data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a repro wire frame")
    version = data[len(MAGIC)]
    if version != WIRE_VERSION:
        raise CodecError(f"wire version {version} != supported {WIRE_VERSION}")
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


# -- frames: bundles of envelopes ----------------------------------------------

_BUNDLE_OPEN = _HEADER + b'["t",'
_OPEN = len(_BUNDLE_OPEN)


def bundles(frames: list[bytes], limit: int) -> list[bytes]:
    """Lone envelopes' frames (:func:`seal`'s), merged in order into as
    few frames of at most *limit* bytes as that order allows.

    Merging is byte-level: a frame's envelope is what lies between
    ``RP<v>["t",`` and the closing ``]``, so a bundle is
    ``encode((src1, dst1, msg1, src2, dst2, msg2, ...))`` and no message
    is encoded again.  A frame over *limit* goes alone, and a list of one
    frame is returned as it is.
    """
    if len(frames) == 1:
        return frames
    out: list[bytes] = []
    held: list[bytes] = []
    size = _OPEN
    for lone in frames:
        envelope = lone[_OPEN:-1]
        size += len(envelope) + 1  # its comma, or the closing bracket
        if held and size > limit:
            out.append(b"".join((_BUNDLE_OPEN, b",".join(held), b"]")))
            held, size = [], _OPEN + len(envelope) + 1
        held.append(envelope)
    out.append(b"".join((_BUNDLE_OPEN, b",".join(held), b"]")))
    return out


def unbundle(value: Any) -> tuple:
    """*value*, checked whole to be what :func:`decode` makes of a frame.

    Raises :class:`CodecError` unless *value* is a bundle: a tuple of one
    or more envelopes ``src, dst, msg`` laid flat, each a ``str`` source
    pid, a ``str`` destination pid and an instance of a registered message
    class (so a container -- a bundle inside a bundle among them -- is no
    message).  Envelope *i* is ``value[3 * i: 3 * i + 3]``.
    """
    size = len(value) if value.__class__ is tuple else 0
    if not size or size % 3:
        raise CodecError(f"not a bundle of (src, dst, msg) envelopes: {value!r:.200}")
    for i in range(0, size, 3):
        if (
            value[i].__class__ is not str
            or value[i + 1].__class__ is not str
            or value[i + 2].__class__ not in _MESSAGES
        ):
            raise CodecError(f"not a (src, dst, msg) envelope: {value[i:i + 3]!r:.200}")
    return value
