"""Key→group partitioning: the sharding lever of the conflict relation.

:class:`~repro.cstruct.commands.KeyConflict` already states that commands
on disjoint keys commute, so disjoint-key traffic can be sequenced by N
independent consensus groups with no loss of the generalized-consensus
guarantees.  This module holds the deployment-independent half of that
idea:

* :func:`keys_of` -- a command's key *set*.  Single-key commands are the
  overwhelming common case; a multi-key command (e.g. a cross-record
  transaction) writes its keys joined with ``"|"`` into ``Command.key``.
* :class:`ShardMap` -- the deterministic key→group hash.  Hashing is
  ``blake2b`` (like :func:`repro.cstruct.digest.command_hash`), not
  Python's salted ``hash()``: every client, router and OS-process node
  must map a key to the same group.
* :class:`ShardKeyConflict` -- :class:`KeyConflict` lifted to key sets:
  two commands conflict iff their key sets intersect and at least one of
  them writes.  This is the merge group's conflict relation -- the
  designated generalized engine that sequences cross-shard commands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet

from repro.cstruct.commands import Command, ConflictRelation

#: Separator joining the members of a multi-key ``Command.key``.
KEY_SEPARATOR = "|"


def split_key(key: str) -> tuple[str, ...]:
    """The member keys of a (possibly joined) ``Command.key`` field.

    A single key, or several joined with ``"|"`` (duplicates and empty
    segments are dropped; an empty field is the empty key set).
    """
    if not key:
        return ()
    if KEY_SEPARATOR not in key:
        return (key,)
    out: list[str] = []
    for member in key.split(KEY_SEPARATOR):
        if member and member not in out:
            out.append(member)
    return tuple(out)


def keys_of(cmd: Command) -> tuple[str, ...]:
    """The keys *cmd* touches, in their written order.

    A keyless command has an empty key set and conflicts with nothing
    key-based.  Memoized on the command: the router and the merge group's
    conflict relation ask once per routed command and once per compared
    pair.
    """
    keys = getattr(cmd, "_keys", None)
    if keys is None:
        keys = split_key(cmd.key)
        object.__setattr__(cmd, "_keys", keys)
    return keys


@lru_cache(maxsize=4096)
def key_group(key: str, n_groups: int) -> int:
    """The group owning *key*: a process-stable blake2b hash mod N.

    Stability across OS processes is load-bearing: the router, every
    replica and every test oracle must agree on ownership, and Python's
    builtin ``hash`` is salted per process.  A pure function of its
    arguments, cached within a bound: a hot key is hashed once, not once
    per routed command.
    """
    raw = key.encode("utf-8", "surrogatepass")
    digest = hashlib.blake2b(raw, digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_groups


@dataclass(frozen=True)
class ShardMap:
    """The key→group partition of an N-group sharded deployment."""

    n_groups: int

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")

    def group_of_key(self, key: str) -> int:
        return key_group(key, self.n_groups)

    def groups_of(self, cmd: Command) -> tuple[int, ...]:
        """The sorted distinct groups owning *cmd*'s keys."""
        return tuple(sorted({self.group_of_key(k) for k in keys_of(cmd)}))

    def is_cross_shard(self, cmd: Command) -> bool:
        return len(self.groups_of(cmd)) > 1

    def owned_keys(self, cmd: Command, group: int) -> tuple[str, ...]:
        """*cmd*'s keys owned by *group*, in written order."""
        return tuple(k for k in keys_of(cmd) if self.group_of_key(k) == group)

    def first_keys(self, group: int, count: int, prefix: str = "k") -> list[str]:
        """The first *count* keys ``<prefix><i>`` (i = 0, 1, ...) hashed to *group*.

        Placement is a hash, so a workload's per-group keys are searched,
        not assumed: ``k0..k3`` may all land in one group.
        """
        keys: list[str] = []
        i = 0
        while len(keys) < count:
            key = f"{prefix}{i}"
            if self.group_of_key(key) == group:
                keys.append(key)
            i += 1
        return keys


@dataclass(frozen=True)
class ShardKeyConflict(ConflictRelation):
    """Key-set conflicts: shared key + at least one write.

    The merge group's relation.  No ``partition`` override: a multi-key
    command belongs to several per-key buckets at once, and the bucket
    index demands one bucket per command (``conflicts(a, b)`` must imply
    ``partition(a) == partition(b)``) -- so every command is checked
    against the whole history.  The merge group only ever carries the
    cross-shard fraction of traffic, where that O(n) scan is cheap.
    """

    read_ops: FrozenSet[str] = frozenset({"get", "read"})
    cache_limit = 1 << 16

    def conflicts(self, a: Command, b: Command) -> bool:
        if a is b:
            return False
        a_keys, b_keys = keys_of(a), keys_of(b)
        if len(a_keys) == 1:  # the common case: no set is built for one key
            shared = a_keys[0] in b_keys
        elif len(b_keys) == 1:
            shared = b_keys[0] in a_keys
        else:
            shared = not set(a_keys).isdisjoint(b_keys)
        if not shared or a == b:  # keys first: most pairs end there, in C
            return False
        both_reads = a.op in self.read_ops and b.op in self.read_ops
        return not both_reads
