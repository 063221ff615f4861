"""Per-client dedup sessions with sliding windows.

Learners deduplicate deliveries with per-command *sets* (``_seen``, in
both engines) that grow without bound.  This module replaces them with the bounded shape
Raft's client sessions use (Ongaro's dissertation, ch. 6): commands
whose ids look like ``"<client>:<seq>"`` are tracked as per-client
interval runs of delivered sequence numbers under a sliding window --
O(window x active clients) retained cells however long the run --
while commands without a session id fall back to an exact overflow set.

The window is a contract with the client: a client may have at most
``window`` commands in flight, and sequence numbers are issued in
order.  Once a client's highest delivered sequence passes ``floor +
window`` the floor slides up and everything at or below it is treated
as delivered -- a retried command that stale would be (correctly, under
the contract) dropped as a duplicate.  :class:`repro.smr.client.Client`
with a ``session`` honors the contract by construction: its pipeline
window is bounded and sequences are stamped in issue order.

:class:`SessionMembers` is the matching *membership claim*: the compact
form of a checkpoint's command set (``ICheckpoint.members`` and
snapshot payloads), duck-typing the frozenset operations the
stable-prefix machinery uses (`in`, ``isdisjoint``, ``len``, union /
intersection) so `CommandHistory.stable_split` and friends take either
representation.  It is a value, not a message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.cstruct.commands import Command
from repro.cstruct.digest import (
    runs_add,
    runs_clamp,
    runs_contains,
    runs_count,
    runs_intersect,
    runs_issubset,
    runs_merge,
)

DEFAULT_WINDOW = 1024


@dataclass
class SessionConfig:
    """Enables bounded learner dedup via per-client session windows.

    ``window`` must exceed every client's maximum in-flight pipeline
    (see the module docstring); the generous default keeps the contract
    safe for any client this repository constructs.
    """

    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be positive")


def session_key(cmd: object) -> tuple[str, int] | None:
    """``(client, seq)`` when *cmd* carries a session id, else None.

    A session id is a command id of the form ``"<client>:<seq>"`` with a
    non-empty client part and a decimal sequence -- exactly what
    :class:`repro.smr.client.Client` stamps when given a ``session``.
    """
    if cmd.__class__ is Command:
        # Dedup, membership claims and checkpoints ask this of one command
        # ~150 times on its way through a cluster: parse its cid once.
        # None is a parsed answer, so a missing cache is the miss.
        try:
            return cmd._session
        except AttributeError:
            key = _parse_session(cmd.cid)
            object.__setattr__(cmd, "_session", key)
            return key
    return _parse_session(getattr(cmd, "cid", None))


def _parse_session(cid: object) -> tuple[str, int] | None:
    if not isinstance(cid, str):
        return None
    client, sep, tail = cid.rpartition(":")
    # ASCII digits in canonical form only: ``str.isdigit`` alone accepts
    # "²" (``int`` then raises) and "١٢" (``int`` gives 12), and "012" is
    # 12 too -- a wire-supplied cid must not crash a handler or share the
    # dedup slot of another command.  Anything else is tracked exactly.
    if not sep or not client or not (tail.isascii() and tail.isdigit()):
        return None
    if tail[0] == "0" and len(tail) > 1:
        return None
    return client, int(tail)


@dataclass(frozen=True)
class SessionMembers:
    """A compact membership claim over a delivered command set.

    ``clients`` maps client name -> normalized inclusive ``(lo, hi)``
    runs of delivered sequence numbers (sorted by name); ``extra``
    holds the delivered commands without session ids exactly.
    """

    clients: tuple = ()
    extra: frozenset = frozenset()

    def _index(self) -> dict:
        cache = getattr(self, "_client_index", None)
        if cache is None:
            cache = {name: runs for name, runs in self.clients}
            object.__setattr__(self, "_client_index", cache)
        return cache

    @classmethod
    def from_commands(cls, cmds: Iterable) -> "SessionMembers":
        clients: dict[str, list] = {}
        extra = set()
        for cmd in cmds:
            key = session_key(cmd)
            if key is None:
                extra.add(cmd)
            else:
                runs_add(clients.setdefault(key[0], []), key[1])
        return cls(
            clients=tuple(
                sorted(
                    (name, tuple(tuple(r) for r in runs))
                    for name, runs in clients.items()
                )
            ),
            extra=frozenset(extra),
        )

    def __contains__(self, cmd: object) -> bool:
        key = session_key(cmd)
        if key is None:
            return cmd in self.extra
        try:  # the hot path: checkpoint claims are asked per command
            index = self._client_index
        except AttributeError:
            index = self._index()
        runs = index.get(key[0])
        if not runs:
            return False
        seq = key[1]
        if seq < runs[0][0] or seq > runs[-1][1]:  # outside every run
            return False
        return runs_contains(runs, seq)

    def __len__(self) -> int:
        return sum(runs_count(runs) for _, runs in self.clients) + len(self.extra)

    def __bool__(self) -> bool:
        return bool(self.clients or self.extra)

    def isdisjoint(self, other: Iterable) -> bool:
        return not any(cmd in self for cmd in other)

    def union(self, other) -> "SessionMembers":
        if not isinstance(other, SessionMembers):
            other = SessionMembers.from_commands(other)
        merged = {name: runs for name, runs in self.clients}
        for name, runs in other.clients:
            mine = merged.get(name)
            merged[name] = runs_merge(mine, runs) if mine else runs
        return SessionMembers(
            tuple(sorted(merged.items())), self.extra | other.extra
        )

    def intersection(self, other) -> "SessionMembers":
        if not isinstance(other, SessionMembers):
            other = SessionMembers.from_commands(other)
        index = other._index()
        out = {}
        for name, runs in self.clients:
            theirs = index.get(name)
            if theirs:
                shared = runs_intersect(runs, theirs)
                if shared:
                    out[name] = shared
        return SessionMembers(
            tuple(sorted(out.items())), self.extra & other.extra
        )


def members_union(a, b):
    """Union over mixed frozenset / SessionMembers representations."""
    if isinstance(a, SessionMembers):
        return a.union(b)
    if isinstance(b, SessionMembers):
        return b.union(a)
    return a | b


def members_intersection(a, b):
    """Intersection over mixed frozenset / SessionMembers representations."""
    if isinstance(a, SessionMembers):
        return a.intersection(b)
    if isinstance(b, SessionMembers):
        return b.intersection(a)
    return a & b


class SessionDedup:
    """A bounded seen-set: per-client sliding windows + an overflow set.

    Drop-in for the learners' dedup sets: supports ``in``, ``add``
    (True when newly seen), ``update`` and ``len`` (the monotone count
    of distinct commands ever seen -- the learners' progress measure).
    Retained memory is O(window x clients + overflow) regardless of how
    many commands have passed through.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.window = window
        self._clients: dict[str, list] = {}  # name -> [floor, runs-list]
        self._extra: set = set()
        self._total = 0

    def __contains__(self, cmd: object) -> bool:
        key = session_key(cmd)
        if key is None:
            return cmd in self._extra
        state = self._clients.get(key[0])
        if state is None:
            return False
        floor, runs = state
        return key[1] <= floor or runs_contains(runs, key[1])

    def add(self, cmd: Hashable) -> bool:
        key = session_key(cmd)
        if key is None:
            if cmd in self._extra:
                return False
            self._extra.add(cmd)
            self._total += 1
            return True
        client, seq = key
        state = self._clients.setdefault(client, [-1, []])
        if seq <= state[0] or not runs_add(state[1], seq):
            return False
        self._total += 1
        top = state[1][-1][1]
        if top - self.window > state[0]:
            state[0] = top - self.window
            runs_clamp(state[1], state[0])
        return True

    def update(self, cmds: Iterable) -> None:
        for cmd in cmds:
            self.add(cmd)

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def retained(self) -> int:
        """Retained dedup cells: floors + interval endpoints + overflow.

        The boundedness metric E15 tracks: stays ~flat in history length
        under the window contract, unlike a seen-*set*'s cardinality.
        """
        return len(self._extra) + sum(
            1 + 2 * len(runs) for _, runs in self._clients.values()
        )

    def covers(self, members) -> bool:
        """Does this dedup state include every member of the claim?"""
        if isinstance(members, SessionMembers):
            for name, runs in members.clients:
                state = self._clients.get(name)
                if state is None:
                    return not runs
                floor, own = state
                cover = runs_merge(
                    ((0, floor),) if floor >= 0 else (), own
                )
                if not runs_issubset(runs, cover):
                    return False
            return all(cmd in self for cmd in members.extra)
        return all(cmd in self for cmd in members)

    def members(self) -> SessionMembers:
        """The membership claim for everything this dedup has seen."""
        clients = []
        for name in sorted(self._clients):
            floor, runs = self._clients[name]
            clients.append(
                (name, runs_merge(((0, floor),) if floor >= 0 else (), runs))
            )
        return SessionMembers(tuple(clients), frozenset(self._extra))

    def state(self) -> tuple:
        """A serializable snapshot of the dedup (rides checkpoints)."""
        return (
            tuple(
                sorted(
                    (name, floor, tuple(tuple(r) for r in runs))
                    for name, (floor, runs) in self._clients.items()
                )
            ),
            tuple(sorted(self._extra, key=repr)),
        )

    @classmethod
    def restore(cls, state: tuple, window: int) -> "SessionDedup":
        dedup = cls(window)
        clients, extra = state
        for name, floor, runs in clients:
            dedup._clients[name] = [floor, [list(r) for r in runs]]
            dedup._total += (floor + 1 if floor >= 0 else 0) + runs_count(runs)
        dedup._extra = set(extra)
        dedup._total += len(dedup._extra)
        return dedup
