"""Commands and conflict relations.

Commands are the elements proposed to the agreement protocols.  A conflict
relation (Section 3.3: the symmetric relation ``≍``) states which pairs of
commands must be ordered; commuting pairs may be learned in either order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet


class _CommandCaches:
    """One slot per value memoized on a :class:`Command`, each unset until
    first computed: ``__hash__``'s, ``_sort_key``'s
    (``cstruct/history.py``), ``session_key``'s (``core/sessions.py``),
    ``command_hash``'s (``cstruct/digest.py``) and ``keys_of``'s
    (``cstruct/sharding.py``).  With the field slots ``Command`` itself
    declares, no command carries a ``__dict__``: a dict per command is
    what the second cache set on it used to cost.  An unset slot reads as
    ``AttributeError``, so ``session_key`` can keep ``None`` as an answer.
    """

    __slots__ = ("_hash", "_skey", "_session", "_chash", "_keys")


@dataclass(frozen=True, order=True, slots=True)
class Command(_CommandCaches):
    """An application command.

    Attributes:
        cid: Unique command identifier (ties break deterministically on it).
        op: Operation name, e.g. ``"put"``, ``"get"``, ``"inc"``.
        key: The datum the operation touches (used by key-based conflicts).
        arg: Optional hashable operation argument.
    """

    cid: str
    op: str = "put"
    key: str = ""
    arg: Any = None

    def __str__(self) -> str:
        suffix = f"={self.arg}" if self.arg is not None else ""
        target = f"({self.key}){suffix}" if self.key else suffix
        return f"{self.op}{target}#{self.cid}"

    def __hash__(self) -> int:
        # Commands live in the frozensets and dicts of every constraint
        # digraph; the generated dataclass hash would rebuild and hash the
        # field tuple on each lookup, which dominates lattice-op profiles.
        # Cache it once per instance (all fields are immutable), in its
        # slot (``_CommandCaches``), read directly: an unset slot raises.
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.cid, self.op, self.key, self.arg))
            object.__setattr__(self, "_hash", cached)
            return cached

    def __eq__(self, other: object) -> bool:
        # Same semantics as the generated dataclass __eq__, but with
        # identity and cached-hash prechecks: sequence walks compare many
        # unequal commands, and an integer compare rejects those without
        # building field tuples.
        if self is other:
            return True
        if other.__class__ is not Command:
            return NotImplemented
        if self.__hash__() != other.__hash__():
            return False
        return (self.cid, self.op, self.key, self.arg) == (
            other.cid, other.op, other.key, other.arg
        )


# -- canonical instances --------------------------------------------------------


class InternTable:
    """One :class:`Command` object per command per process (hash-consing).

    A command that crosses the wire is a fresh object per decode unless
    something hands back the one already in use -- and a fresh object makes
    every dict, set and tuple comparison against a stored copy miss
    CPython's ``is`` shortcut and run the Python-level ``__eq__`` above.
    The codec (``net/codec.py``) asks this table instead: comparisons
    between copies become pointer compares in C, and what is memoized on
    the object (hash, sort key, session key, digest hash) is computed once,
    not once per decode.

    The table answers only with a command *equal* to the one that would
    have been built -- its key holds the four fields themselves -- so a
    miss, an eviction or an emptied table costs speed, never correctness:
    equality and hashing stay by value, and nothing may rely on identity.
    ``type(arg)`` is part of the key because ``1 == True == 1.0`` and a
    decode must hand back the type that was sent.

    Bounded by two generations of ``generation`` entries each: a hit in
    the old generation is promoted, a full young generation becomes the
    old one and the old one is dropped.  A command in use outlives any
    number of others passing through; one not asked for while
    ``generation`` newer ones arrive goes, so a flood of made-up cids
    evicts and cannot grow the table.  No weak references: an entry costs
    one dict slot and its key tuple.
    """

    def __init__(self, generation: int = 2048) -> None:
        self.generation = generation
        self._young: dict[tuple, Command] = {}
        self._old: dict[tuple, Command] = {}

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def command(
        self, cid: str, op: str, key: str, arg: Any, offered: Command | None = None
    ) -> Command:
        """The process's instance of the command with these fields.

        The table's if it has one; otherwise *offered* (a sender's own
        object with exactly these fields) or a new command, which the
        table then keeps.  An unhashable field has no entry: the command
        is built plain, as if the table did not exist.
        """
        slot = (cid, op, key, arg, arg.__class__)
        try:
            cmd = self._young.get(slot)
        except TypeError:
            return Command(cid, op, key, arg) if offered is None else offered
        if cmd is None:
            cmd = self._old.get(slot)
            if cmd is None:
                cmd = Command(cid, op, key, arg) if offered is None else offered
            if len(self._young) >= self.generation:
                self._young, self._old = {}, self._young
            self._young[slot] = cmd
        return cmd


#: The process-wide table the wire codec decodes through.
INTERNED = InternTable()


class ConflictRelation:
    """Base class for symmetric conflict relations over commands.

    Subclasses whose :meth:`conflicts` does non-trivial work may opt into a
    bounded per-relation memo of pair lookups by setting ``cache_limit`` to
    a positive bound: ``__call__`` then caches ``conflicts(a, b)`` under
    both argument orders (the relation is symmetric) and clears the memo
    wholesale when it reaches the bound.  The predicate must be pure --
    cached relations may never observe a changed answer for a pair.  A
    memo pays only where the predicate costs more than a lookup of a
    pair tuple (:class:`CustomConflict`'s user function, the merge
    group's key sets); a field compare like :class:`KeyConflict`'s is
    cheaper uncached, and its memo would hold two entries per pair.
    """

    cache_limit: int = 0  # pairs memoized; 0 disables caching

    def conflicts(self, a: Command, b: Command) -> bool:
        raise NotImplementedError

    def partition(self, cmd: Command) -> Any | None:
        """A bucket key such that commands in different buckets never conflict.

        Histories index their commands by bucket so a new command is
        checked only against its own bucket (O(conflict candidates))
        instead of the whole history.  ``None`` means "no partition
        information": every existing command must be checked.  Soundness
        requirement: ``conflicts(a, b)`` implies
        ``partition(a) == partition(b)`` (completeness is not required --
        a bucket may contain non-conflicting commands).
        """
        return None

    def __call__(self, a: Command, b: Command) -> bool:
        if not self.cache_limit:
            return self.conflicts(a, b)
        cache: dict | None = getattr(self, "_pair_cache", None)
        if cache is None:
            cache = {}
            # Works for frozen-dataclass subclasses too; the memo is not a
            # dataclass field, so equality and hashing ignore it.
            object.__setattr__(self, "_pair_cache", cache)
        answer = cache.get((a, b))
        if answer is None:
            answer = self.conflicts(a, b)
            if len(cache) >= self.cache_limit:
                cache.clear()
            cache[(a, b)] = answer
            cache[(b, a)] = answer
        return answer


@dataclass(frozen=True)
class AlwaysConflict(ConflictRelation):
    """Every pair of distinct commands conflicts (total order / consensus)."""

    def conflicts(self, a: Command, b: Command) -> bool:
        return a != b

    def partition(self, cmd: Command) -> Any:
        return ""  # one bucket: everything conflicts with everything


@dataclass(frozen=True)
class NeverConflict(ConflictRelation):
    """No commands conflict (command-set semantics)."""

    def conflicts(self, a: Command, b: Command) -> bool:
        return False

    def partition(self, cmd: Command) -> Any:
        return cmd  # every command its own bucket: nothing conflicts


@dataclass(frozen=True)
class KeyConflict(ConflictRelation):
    """Commands conflict iff they touch the same key and one of them writes.

    Read-only operations (``op`` in :attr:`read_ops`) commute with each
    other; everything else on the same key conflicts.  This is the classic
    generic-broadcast conflict relation for a replicated key-value store.
    """

    read_ops: FrozenSet[str] = frozenset({"get", "read"})

    def conflicts(self, a: Command, b: Command) -> bool:
        # Keys first: most pairs end there, in C; then identity, which
        # spares the Python-level ``__eq__`` for a command and itself.
        if a.key != b.key or a is b or a == b:
            return False
        both_reads = a.op in self.read_ops and b.op in self.read_ops
        return not both_reads

    def partition(self, cmd: Command) -> Any:
        return cmd.key  # conflicts require equal keys


@dataclass(frozen=True)
class CustomConflict(ConflictRelation):
    """Conflict relation defined by an arbitrary symmetric predicate.

    The predicate is symmetrized defensively (``fn(a, b) or fn(b, a)``), so
    callers may pass one-sided definitions.  Equality of two
    ``CustomConflict`` instances is identity of the predicate.  The
    predicate must be pure: pair answers are memoized (``cache_limit``).
    """

    fn: Callable[[Command, Command], bool] = field(compare=True)
    cache_limit = 1 << 16

    def conflicts(self, a: Command, b: Command) -> bool:
        if a == b:
            return False
        return bool(self.fn(a, b) or self.fn(b, a))
