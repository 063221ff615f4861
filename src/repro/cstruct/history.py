"""Command histories: the c-struct set of generic broadcast (Section 3.3).

A command history is a partially ordered set of commands in which every
conflicting pair (under a :class:`repro.cstruct.commands.ConflictRelation`)
is ordered.  Following Section 3.3.1 we represent histories as command
sequences; a sequence denotes the poset in which ``a ≺ b`` iff ``a`` and
``b`` conflict and ``a`` occurs first.

Semantics of the representation
-------------------------------

Two sequences denote the same history iff they contain the same commands
and order every conflicting pair identically; ``CommandHistory``
canonicalizes its sequence (a deterministic minimal-key linear extension of
the conflict order) so that ``__eq__``/``__hash__`` are structural.

The extension order has a direct characterization which all operators are
built on.  ``h ⊑ g`` (``g = h • σ`` for some σ) iff:

1. ``set(h) ⊆ set(g)``;
2. every conflicting pair of ``h`` keeps its relative order in ``g``;
3. every command of ``g`` outside ``h`` that conflicts with a command of
   ``h`` occurs after it in ``g`` (appended commands follow all conflicting
   existing ones).

Incremental constraint digraph
------------------------------

Every history carries, next to its canonical sequence, its *constraint
digraph*: a map ``_preds`` from each command to the frozenset of
conflicting commands ordered before it.  The digraph is built once per
command -- on :meth:`append`/:meth:`extend`, by checking the new command
against the existing ones -- and every later operation reuses it instead of
re-deriving conflict pairs, so no lattice operation between already-built
histories calls the conflict relation on a pair of shared commands again:

* ``h ⊑ g``  ⟺  ``set(h) ⊆ set(g)`` and ``g``'s predecessor sets restricted
  to ``h``'s commands equal ``h``'s (conditions 2-3 above collapse to
  per-command frozenset equality).  Cost: O(|h| + conflicts(h)) set
  operations, *independent of the suffix g \\ h* -- a suffix-diff walk from
  the shared prefix frontier.
* ``glb`` is a single greedy scan of one operand keeping exactly the
  commands whose predecessor sets are already kept on both sides:
  O(|h| + conflicts) with the result digraph obtained by restriction.
* compatibility and ``lub`` merge the two digraphs in one pass:
  ``h`` and ``g`` are compatible iff (a) no conflicting pair has one
  command exclusive to each side and (b) every shared command has
  *identical* predecessor sets in both; when they are, the union digraph is
  acyclic and the lub is its canonical (min-key Kahn) linear extension.
  Only check (a) calls the conflict relation, and only on the
  O(|h \\ g| · |g \\ h|) cross-exclusive pairs -- the suffix diff -- never
  on the shared prefix.

Correctness of the digraph characterizations (equality of predecessor sets
⟺ conditions 2-3; cross-exclusive conflict ⟺ incompatibility; acyclicity
of the merged digraph when the checks pass) is argued in the method
docstrings and executed against the paper-verbatim recursive operators of
:mod:`repro.cstruct.history_ops` by the property tests in
``tests/test_history_digraph.py``.

The paper's recursive ``Prefix``/``AreCompatible``/``⊔`` operators are kept
verbatim in :mod:`repro.cstruct.history_ops` and property-tested equivalent
to these direct implementations.

Shared derivations
------------------

An engine role keeps one mirror per peer of what is, most of the time,
one stream: an acceptor's three coordinator mirrors and a learner's three
acceptor mirrors are the same history, extended by the same suffixes and
truncated at the same base.  :meth:`CommandHistory.extend` and
:meth:`CommandHistory.without` therefore remember their last result on
the history they were called on -- keyed by the appended commands (by
value) and by the ``members`` object (by identity) -- so the second and
third mirror get the first one's object instead of building an equal
one, and every later comparison between the mirrors is ``self is other``.

The result is held through a :mod:`weakref`.  A strong reference would
chain every history to the ones derived from it, and the chain starts at
``config.bottom``, which lives as long as the process: one remembered
child would pin the whole run's histories.  Held weakly, a derivation is
shared exactly while some role still uses it and costs nothing after.
Like the :class:`HistoryTable` the wire codec decodes through, the memo
only ever answers with the value a fresh build would give; equality and
hashing stay by value and nothing may rely on two histories being one
object.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Iterable, Sequence

from repro.cstruct.base import CStruct, IncompatibleError
from repro.cstruct.commands import Command, ConflictRelation

Preds = dict[Command, frozenset[Command]]


def _sort_key(cmd: Command) -> tuple:
    """Deterministic total order on commands used for canonicalization.

    Memoized on the command (the ``repr`` of the argument is not free and
    canonical inserts consult keys repeatedly).
    """
    key = getattr(cmd, "_skey", None)
    if key is None:
        key = (cmd.cid, cmd.op, cmd.key, repr(cmd.arg))
        object.__setattr__(cmd, "_skey", key)
    return key


def _digraph_of(seq: Sequence[Command], conflict: ConflictRelation) -> Preds:
    """Per-command conflicting-predecessor sets of *seq*.

    Deduplicates (keeping first occurrences) and performs the one
    O(n·conflicts) pass over the sequence that every later lattice
    operation reuses.  The result depends only on the *history* denoted by
    *seq* (same commands, same order of conflicting pairs), not on the
    particular linear extension, because only conflicting pairs -- whose
    order is representation-invariant -- contribute edges.
    """
    preds: Preds = {}
    order: list[Command] = []
    for cmd in seq:
        if cmd in preds:
            continue
        preds[cmd] = frozenset(c for c in order if conflict(c, cmd))
        order.append(cmd)
    return preds


def _canonical_insert(
    seq, conflict: ConflictRelation, cmd: Command, key: tuple, buckets, bucket_key
) -> tuple[frozenset[Command], int]:
    """(predecessor set, canonical position) for inserting *cmd* into *seq*.

    With partition buckets the conflict checks touch only the command's
    bucket and the last-predecessor position is found by a backward scan
    (conflicting predecessors cluster near the tail of growing histories);
    without partition information the original full forward scan runs.
    """
    if bucket_key is None:
        plist: list[Command] = []
        last_conflict = -1
        for index, existing in enumerate(seq):
            if conflict(existing, cmd):
                plist.append(existing)
                last_conflict = index
        pset = frozenset(plist)
    else:
        pset = frozenset(c for c in buckets.get(bucket_key, ()) if conflict(c, cmd))
        last_conflict = -1
        if pset:
            for index in range(len(seq) - 1, -1, -1):
                if seq[index] in pset:
                    last_conflict = index
                    break
    position = len(seq)
    for index in range(last_conflict + 1, len(seq)):
        if key < _sort_key(seq[index]):
            position = index
            break
    return pset, position


def _kahn_min_key(preds: Preds) -> tuple[Command, ...]:
    """Canonical linear extension of a constraint digraph.

    Kahn's algorithm emitting, at every step, the minimal-``_sort_key``
    command among those whose conflicting predecessors have all been
    emitted; insertion order breaks exact key ties deterministically.
    O((V + E) log V).  Raises :class:`IncompatibleError` on a cycle (never
    for digraphs built from a sequence; defensively for merged digraphs).
    """
    indegree = {cmd: len(ps) for cmd, ps in preds.items()}
    succs: dict[Command, list[Command]] = {cmd: [] for cmd in preds}
    for cmd, ps in preds.items():
        for p in ps:
            succs[p].append(cmd)
    tie = {cmd: index for index, cmd in enumerate(preds)}
    heap = [
        (_sort_key(cmd), tie[cmd], cmd) for cmd, deg in indegree.items() if deg == 0
    ]
    heapq.heapify(heap)
    order: list[Command] = []
    while heap:
        _, _, node = heapq.heappop(heap)
        order.append(node)
        for succ in succs[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (_sort_key(succ), tie[succ], succ))
    if len(order) != len(preds):
        raise IncompatibleError("constraint digraph has a cycle")
    return tuple(order)


def _canonical(seq: Sequence[Command], conflict: ConflictRelation) -> tuple[Command, ...]:
    """Deterministic linear extension of the conflict order of *seq*.

    Equivalent sequences (same commands, same order of conflicting pairs)
    canonicalize identically because the digraph -- and hence the min-key
    Kahn order -- depends only on the induced partial order.
    """
    return _kahn_min_key(_digraph_of(seq, conflict))


def _unmatched(seq: Sequence[Command], sub: Sequence[Command]) -> list[Command] | None:
    """What is left of *seq* once *sub* is matched in it as a subsequence.

    The match is by identity, one pointer walk with no hashing and no
    ``==``: ``None`` when some command of *sub* found no partner, which
    says nothing about values (an equal copy is another object) -- callers
    settle that case by value.  When every command of *sub* is matched
    and *seq* holds no two equal commands, the leftovers are exactly the
    commands of *seq* that are not in *sub*: one equal to a matched
    command would be a second copy of it in *seq*.
    """
    n = len(sub)
    rest: list[Command] = []
    i = 0
    for cmd in seq:
        if i < n and cmd is sub[i]:
            i += 1
        else:
            rest.append(cmd)
    return rest if i == n else None


@dataclass(frozen=True)
class CommandHistory(CStruct):
    """A command history: canonical command sequence + constraint digraph.

    ``cmds`` is the canonical linear extension (the structural identity:
    ``__eq__``/``__hash__`` use it); ``_preds`` maps every command to the
    frozenset of conflicting commands ordered before it.  Both are built
    once in ``__post_init__`` (O(n²) conflict checks, untrusted input) or
    threaded through the ``_trusted`` fast paths (no conflict re-checks).
    """

    cmds: tuple[Command, ...]
    conflict: ConflictRelation
    _set: frozenset[Command] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )
    _preds: Preds = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        preds = _digraph_of(self.cmds, self.conflict)
        canonical = _kahn_min_key(preds)
        object.__setattr__(self, "cmds", canonical)
        object.__setattr__(self, "_set", frozenset(preds))
        object.__setattr__(self, "_preds", preds)

    def _index(self) -> tuple[dict, tuple | None]:
        """Lazily built append index: (conflict buckets, max sort key).

        The buckets group commands by ``conflict.partition`` so a new
        command is checked against its own bucket only; the max key makes
        the common append (a fresh command with the largest sort key --
        e.g. monotonically increasing ids) an O(1) tail insert.  Built on
        first use so short-lived lattice results (quorum glbs, merge
        candidates) never pay for it.
        """
        buckets = getattr(self, "_buckets", None)
        if buckets is None:
            grouped: dict = {}
            partition = self.conflict.partition
            max_key: tuple | None = None
            for cmd in self.cmds:
                grouped.setdefault(partition(cmd), []).append(cmd)
                key = _sort_key(cmd)
                if max_key is None or key > max_key:
                    max_key = key
            buckets = {bucket: tuple(members) for bucket, members in grouped.items()}
            object.__setattr__(self, "_buckets", buckets)
            object.__setattr__(self, "_max_key", max_key)
        return buckets, getattr(self, "_max_key")

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        cmds: tuple[Command, ...],
        conflict: ConflictRelation,
        preds: Preds,
        buckets: dict | None = None,
        max_key: tuple | None = None,
    ) -> "CommandHistory":
        """Build from an already-canonical sequence and its digraph.

        Used by :meth:`append`, :meth:`extend`, :meth:`glb` and
        :meth:`lub`, whose outputs are canonical by construction:
        ``append``/``extend`` perform canonical inserts; ``glb`` keeps a
        subsequence whose greedy candidate sets match the original's (any
        kept command has no dropped conflicting predecessor); ``lub`` emits
        a min-key Kahn order, which *is* the canonical order.  Each caller
        also supplies the digraph of its result, so no conflict pair is
        ever re-derived.  Property tests verify every claim against full
        re-canonicalization.

        The member set is copied from the digraph's keys, which carry
        their hashes: building it from *cmds* would call ``hash`` on
        every command again, once per lattice result.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "cmds", cmds)
        object.__setattr__(obj, "conflict", conflict)
        object.__setattr__(obj, "_set", frozenset(preds))
        object.__setattr__(obj, "_preds", preds)
        if buckets is not None:
            object.__setattr__(obj, "_buckets", buckets)
            object.__setattr__(obj, "_max_key", max_key)
        return obj

    @classmethod
    def bottom(cls, conflict: ConflictRelation) -> "CommandHistory":
        """The empty history ⊥ for the given conflict relation."""
        return cls((), conflict)

    @classmethod
    def of(cls, conflict: ConflictRelation, *cmds: Command) -> "CommandHistory":
        """``⊥ • ⟨cmds⟩``."""
        return cls.bottom(conflict).extend(cmds)

    def predecessors(self, cmd: Command) -> frozenset:
        """The conflicting commands ordered before *cmd* (∅ if absent).

        This is the constraint digraph's in-edge set -- final once *cmd*
        is in a learned history: histories only grow compatibly, and
        compatible histories agree on the predecessor set of every shared
        command, so any consumer (e.g. the shard layer's cross-group
        barrier execution) may act on it without waiting for more.
        """
        return self._preds.get(cmd, frozenset())

    def append(self, cmd: Command) -> "CommandHistory":
        """``self • cmd``: add *cmd* after every conflicting existing command.

        One O(n) conflict scan computes both the canonical insert position
        and the new command's predecessor set; existing commands' sets are
        unchanged (the new command is a successor of everything it
        conflicts with), so the digraph extends by a single entry.
        """
        if cmd in self._set:
            return self
        conflict = self.conflict
        buckets, max_key = self._index()
        key = _sort_key(cmd)
        bucket_key = conflict.partition(cmd)
        if max_key is None or key > max_key:
            # Tail insert: no existing command has a larger sort key, so
            # the canonical position is the end; conflicting predecessors
            # come from the command's bucket alone.
            candidates = (
                self.cmds if bucket_key is None else buckets.get(bucket_key, ())
            )
            pset = frozenset(c for c in candidates if conflict(c, cmd))
            new_cmds = self.cmds + (cmd,)
            new_max = key
        else:
            pset, position = _canonical_insert(
                self.cmds, conflict, cmd, key, buckets, bucket_key
            )
            new_cmds = self.cmds[:position] + (cmd,) + self.cmds[position:]
            new_max = max_key
        preds = dict(self._preds)
        preds[cmd] = pset
        new_buckets = dict(buckets)
        new_buckets[bucket_key] = new_buckets.get(bucket_key, ()) + (cmd,)
        return CommandHistory._trusted(
            new_cmds, self.conflict, preds, buckets=new_buckets, max_key=new_max
        )

    def extend(self, cmds: Iterable[Command]) -> "CommandHistory":
        """``self • ⟨c1, ..., cm⟩``, batched.

        Performs the canonical inserts on one working list and copies the
        digraph once, so extending by *m* commands costs O(m·n) conflict
        checks plus a single O(n + m) rebuild instead of *m* tuple/dict
        copies.  The last result is remembered on ``self`` (module
        docstring, *Shared derivations*): the same history extended again
        by an equal sequence is the same object.
        """
        cmds = tuple(cmds)
        known = self._recall("_extended")
        if known is not None and known[0] == cmds:
            return known[1]
        conflict = self.conflict
        seq: list[Command] | None = None
        preds: Preds | None = None
        seen: set[Command] | None = None
        buckets: dict | None = None
        max_key: tuple | None = None
        for cmd in cmds:
            if seq is None:
                if cmd in self._set:
                    continue
                seq = list(self.cmds)
                preds = dict(self._preds)
                seen = set(self._set)
                base_buckets, max_key = self._index()
                buckets = dict(base_buckets)
            if cmd in seen:
                continue
            key = _sort_key(cmd)
            bucket_key = conflict.partition(cmd)
            if max_key is None or key > max_key:
                candidates = seq if bucket_key is None else buckets.get(bucket_key, ())
                pset = frozenset(c for c in candidates if conflict(c, cmd))
                seq.append(cmd)
                max_key = key
            else:
                pset, position = _canonical_insert(
                    seq, conflict, cmd, key, buckets, bucket_key
                )
                seq.insert(position, cmd)
            seen.add(cmd)
            preds[cmd] = pset
            # Touched buckets become lists (O(1) appends across the batch)
            # and are tuple-ized once below -- not per command.
            members = buckets.get(bucket_key, ())
            if type(members) is not list:
                members = list(members)
                buckets[bucket_key] = members
            members.append(cmd)
        if seq is None:
            return self
        final_buckets = {
            bucket: tuple(members) if type(members) is list else members
            for bucket, members in buckets.items()
        }
        grown = CommandHistory._trusted(
            tuple(seq), conflict, preds, buckets=final_buckets, max_key=max_key
        )
        self._remember("_extended", cmds, grown)
        return grown

    # -- shared derivations -----------------------------------------------------

    def _remember(self, slot: str, key: Any, derived: "CommandHistory") -> None:
        """Note *derived* as what ``self`` last gave for *key* under *slot*."""
        object.__setattr__(self, slot, (key, weakref.ref(derived)))

    def _recall(self, slot: str) -> tuple[Any, "CommandHistory"] | None:
        """``(key, derived)`` last remembered under *slot*, while it lives."""
        memo = getattr(self, slot, None)
        if memo is not None:
            derived = memo[1]()
            if derived is not None:
                return memo[0], derived
        return None

    # -- order ----------------------------------------------------------------

    def _pred_counts(self) -> tuple[int, ...]:
        """Per-position predecessor-set sizes, computed once per instance."""
        counts = getattr(self, "_counts", None)
        if counts is None:
            preds = self._preds
            counts = tuple(len(preds[cmd]) for cmd in self.cmds)
            object.__setattr__(self, "_counts", counts)
        return counts

    def leq(self, other: CStruct) -> bool:
        """``self ⊑ other`` as one pointer walk over the two sequences.

        ``self ⊑ other`` iff ``self.cmds`` occurs as a subsequence of
        ``other.cmds`` with equal predecessor-set *sizes* at every matched
        position:

        * a canonical sequence orders every conflicting pair by position,
          and extending a history never changes an existing command's
          predecessor set, so ``self ⊑ other`` forces ``self``'s canonical
          sequence to appear as the restriction of ``other``'s (condition 2
          of the extension order ⟺ the subsequence match succeeds);
        * given the match, every predecessor of ``c`` in ``self`` is one in
          ``other`` (``preds_self[c] ⊆ preds_other[c]``), so size equality
          ⟺ set equality ⟺ no command outside ``self`` was ordered
          *before* ``c`` (condition 3).

        Cost: O(|other|) pointer comparisons and integer compares -- no
        hashing, no set operations, no conflict-relation calls, beyond the
        per-position counts each history computes once -- whenever a
        command shared by the two histories is one object in both.  It is
        on the simulator (objects travel by reference) and on sockets
        (the codec decodes to canonical instances, ``docs/transport.md``).
        That is best-effort, so a walk that runs out of ``other`` with a
        command of ``self`` unmatched is settled by value: absent from
        ``other``'s member set (one hash lookup -- the usual way to be
        false), or present as an equal copy or out of order, which the
        digraphs decide -- ``self ⊑ other`` iff every command of ``self``
        has the same predecessor set in both (the module docstring's
        characterization).  The walk never compares commands with ``==``:
        that is a Python-level call for every unequal pair it passes.
        """
        if not isinstance(other, CommandHistory):
            return NotImplemented
        self._require_same_relation(other)
        if self is other:
            return True
        sc, oc = self.cmds, other.cmds
        n = len(sc)
        if n > len(oc):
            return False
        if not n:
            return True
        if oc[0] is sc[0] and oc[n - 1] is sc[n - 1] and oc[:n] == sc:
            # Literal prefix: conditions 2-3 hold outright (every appended
            # command sits after every conflicting prefix command), and no
            # count check is needed -- extras only follow.  Tried only
            # when both ends already match: comparing the tuples stops at
            # the first unequal pair with a Python-level ``__eq__``.
            return True
        scounts = self._pred_counts()
        ocounts = other._pred_counts()
        i = 0
        expected = sc[0]
        for j, cmd in enumerate(oc):
            if cmd is expected:
                if scounts[i] != ocounts[j]:
                    return False
                i += 1
                if i == n:
                    return True
                expected = sc[i]
        if expected not in other._set:
            return False
        other_preds = other._preds
        return all(other_preds.get(cmd) == ps for cmd, ps in self._preds.items())

    # -- lattice ----------------------------------------------------------------

    def glb(self, other: "CommandHistory") -> "CommandHistory":
        """Greatest lower bound: the longest common prefix history.

        Greedy scan of ``self``: a command is kept iff it appears in both
        histories and *all* of its conflicting predecessors -- on either
        side -- were kept.  (A dropped predecessor on the ``self`` side is
        exactly a member of ``_preds[cmd]`` not kept; the predecessors on
        the ``other`` side are ``other._preds[cmd]``.)  The result digraph
        is the restriction of ``self``'s: a kept command's predecessors
        were all required kept.  O(|self| + conflicts) set operations, no
        conflict-relation calls.
        """
        self._require_same_relation(other)
        if self is other:
            return self
        # Directional fast paths: when one history extends the other (the
        # steady-state shape of quorum glbs, where peers lag on a shared
        # growth path) or equals it, the glb is the smaller history --
        # decided by one suffix-diff leq, no scan.
        if len(self.cmds) <= len(other.cmds):
            if self.leq(other):
                return self
        elif other.leq(self):
            return other
        kept: list[Command] = []
        kept_set: set[Command] = set()
        preds: Preds = {}
        other_set = other._set
        other_preds = other._preds
        for cmd in self.cmds:
            if cmd not in other_set:
                continue
            mine = self._preds[cmd]
            if not mine <= kept_set or not other_preds[cmd] <= kept_set:
                continue
            kept.append(cmd)
            kept_set.add(cmd)
            preds[cmd] = mine
        return CommandHistory._trusted(tuple(kept), self.conflict, preds)

    def _merged_digraph(self, other: "CommandHistory") -> Preds | None:
        """Union constraint digraph, or ``None`` when incompatible.

        Compatibility needs exactly two checks:

        * no conflicting pair with one command exclusive to each side --
          such a pair would have to be appended after the other on both
          sides at once (the only conflict-relation calls, on the
          cross-exclusive suffix diff);
        * every shared command has identical predecessor sets in both
          histories -- a predecessor present on one side only is either a
          shared command ordered oppositely (condition 2 violated) or a
          command the other side must append *after* the shared one
          (condition 3 violated).

        When both hold the union digraph is acyclic: any predecessor of a
        shared command is itself shared (its membership in the equal sets
        forces it into both histories), so a constraint path between
        shared commands stays inside the shared commands and is ordered
        identically by both operands; a cycle would therefore have to
        increase one operand's position monotonically all the way around.
        """
        self._require_same_relation(other)
        conflict = self.conflict
        other_set = other._set
        self_only = [c for c in self.cmds if c not in other_set]
        other_only = [c for c in other.cmds if c not in self._set]
        for u in self_only:
            for v in other_only:
                if conflict(u, v):
                    return None
        other_preds = other._preds
        if len(self_only) < len(self.cmds):  # the intersection is non-empty
            for cmd, ps in self._preds.items():
                if cmd not in other_set:
                    continue
                theirs = other_preds[cmd]
                if theirs is not ps and theirs != ps:
                    return None
        merged = dict(self._preds)
        for cmd in other_only:
            merged[cmd] = other_preds[cmd]
        return merged

    def is_compatible(self, other: CStruct) -> bool:
        if not isinstance(other, CommandHistory):
            return False
        self._require_same_relation(other)
        if self is other:
            return True
        # Containment (the steady-state case) implies compatibility and is
        # decidable by the O(n) suffix-diff leq, skipping the merge.
        smaller, larger = (
            (self, other) if len(self.cmds) <= len(other.cmds) else (other, self)
        )
        if smaller.leq(larger):
            return True
        return self._merged_digraph(other) is not None

    def lub(self, other: "CommandHistory") -> "CommandHistory":
        """Least upper bound: canonical linear extension of the merged digraph.

        Directional fast paths (one operand extends the other -- the
        steady-state shape of acceptor and learner merges) resolve with a
        single suffix-diff ``leq`` and no digraph rebuild; only genuinely
        diverging histories pay for the merge and the Kahn pass.
        """
        self._require_same_relation(other)
        if self is other:
            return self
        if not other.cmds:
            return self
        if not self.cmds:
            return other
        if len(self.cmds) >= len(other.cmds):
            if other.leq(self):
                return self
        elif self.leq(other):
            return other
        merged = self._merged_digraph(other)
        if merged is None:
            raise IncompatibleError(f"histories are incompatible: {self} vs {other}")
        return CommandHistory._trusted(_kahn_min_key(merged), self.conflict, merged)

    # -- contents ---------------------------------------------------------------

    def contains(self, cmd: Command) -> bool:
        return cmd in self._set

    def command_set(self) -> frozenset[Command]:
        return self._set

    def linear_extension(self) -> tuple[Command, ...]:
        """A sequential execution order consistent with the partial order."""
        return self.cmds

    def delta_after(self, prefix: "CommandHistory") -> tuple[Command, ...]:
        """Commands of ``self`` not in *prefix*, in execution order.

        With ``prefix ⊑ self`` the concatenation of *prefix*'s execution
        order and this delta is a linear extension of ``self`` -- the basis
        of incremental command execution in replicas.

        One identity pointer walk (no hashing) when *prefix*'s sequence
        occurs in ``self``'s object for object, which is what
        ``prefix ⊑ self`` gives between histories of one process; settled
        by membership otherwise.  The same tuple either way.
        """
        rest = _unmatched(self.cmds, prefix.cmds)
        if rest is None:
            rest = [cmd for cmd in self.cmds if cmd not in prefix._set]
        return tuple(rest)

    # -- stable-prefix truncation (checkpointing support) -----------------------

    def stable_split(self, members) -> tuple["CommandHistory", "CommandHistory"]:
        """Split into ``(prefix, tail)`` at the largest prefix inside *members*.

        ``prefix`` is the largest *downward-closed* sub-history whose
        commands all belong to *members*: a command is taken iff it is a
        member and every conflicting predecessor was taken.  That makes
        ``prefix ⊑ self`` by construction (conditions 2-3 of the extension
        order hold outright: kept commands keep their relative order, and a
        dropped command conflicting with a kept one can only be a
        *successor* -- a conflicting predecessor would have blocked the
        keep).  ``tail`` holds the remaining commands with the digraph
        edges into ``prefix`` dropped; those edges are implicit in the
        split (a genuine prefix orders every cross-conflicting pair
        prefix-first), so ``prefix • tail-order`` reconstructs ``self``
        exactly -- the invariant the checkpointing layer relies on, proven
        against the paper operators in ``tests/test_history_digraph.py``.

        ``prefix``'s canonical sequence is the restriction of ``self``'s
        (availability of prefix commands depends only on prefix commands,
        so the min-key Kahn order is preserved under restriction);
        ``tail``'s is re-derived by one Kahn pass because dropping the
        cross edges can *relax* its canonical order.  O(n) set operations
        plus O(|tail| log |tail|); no conflict-relation calls.
        """
        if not hasattr(members, "isdisjoint"):
            # Plain iterables are materialized; set-likes (including the
            # compact SessionMembers claims) are used through membership.
            members = frozenset(members)
        if not members or not self.cmds:
            return CommandHistory.bottom(self.conflict), self
        taken: list[Command] = []
        taken_set: set[Command] = set()
        for cmd in self.cmds:
            if cmd in members and self._preds[cmd] <= taken_set:
                taken.append(cmd)
                taken_set.add(cmd)
        if not taken:
            return CommandHistory.bottom(self.conflict), self
        if len(taken) == len(self.cmds):
            return self, CommandHistory.bottom(self.conflict)
        prefix_preds = {cmd: self._preds[cmd] for cmd in taken}
        prefix = CommandHistory._trusted(tuple(taken), self.conflict, prefix_preds)
        tail_preds: Preds = {
            cmd: self._preds[cmd] - taken_set
            for cmd in self.cmds
            if cmd not in taken_set
        }
        tail = CommandHistory._trusted(
            _kahn_min_key(tail_preds), self.conflict, tail_preds
        )
        return prefix, tail

    def without(self, members) -> "CommandHistory":
        """``self`` with its largest *members*-prefix truncated away.

        The tail of :meth:`stable_split`: exactly the commands that are
        not part of a downward-closed *members* prefix.  Identity when no
        member occurs at the history's frontier.  This is the per-message
        normalization of the checkpointing layer -- receivers strip their
        own stable base from incoming c-structs before comparing/merging.
        """
        if not hasattr(members, "isdisjoint"):
            members = frozenset(members)
        if not members or not self.cmds:
            return self
        # Remembered per *members* object, and only for an immutable one
        # (hashable by convention): the engines strip one base claim from
        # every mirror of a stream, and those mirrors are one history.
        known = self._recall("_truncated")
        if known is not None and known[0] is members:
            return known[1]
        if members.isdisjoint(self._set):
            tail = self
        else:
            tail = self.stable_split(members)[1]
        if members.__class__.__hash__ is not None:
            self._remember("_truncated", members, tail)
        return tail

    # -- plumbing ---------------------------------------------------------------

    def _require_same_relation(self, other: "CommandHistory") -> None:
        if self.conflict != other.conflict:
            raise ValueError(
                "cannot combine histories under different conflict relations: "
                f"{self.conflict!r} vs {other.conflict!r}"
            )

    def __len__(self) -> int:
        return len(self.cmds)

    def __str__(self) -> str:
        if not self.cmds:
            return "⊥"
        return "⟨" + ", ".join(str(c) for c in self.cmds) + "⟩"


class HistoryTable:
    """One :class:`CommandHistory` object per history value (hash-consing).

    What :class:`~repro.cstruct.commands.InternTable` is to a command,
    for the c-struct: the wire codec rebuilds a history from its linear
    extension, and asks this table first, so the k copies of one value a
    process receives (a coordinator's "2a" at every acceptor it hosts,
    an acceptor's "2b" at every learner it hosts) are one build
    and one object, and the lattice operations between them take their
    ``self is other`` exits.

    A value the table does not hold is rarely far from one it does: a
    history on the wire is the previous one plus a few commands.  So a
    miss extends the most recent entry whose sequence occurs in the
    payload (:func:`_unmatched`) by the commands it lacks -- O(m·n)
    conflict checks for m new commands against n, not the O(n²) of a
    build from ⊥ -- and keeps the result only if its sequence *is* the
    payload.  That test is exact, not a heuristic: a canonical sequence
    is a linear extension of its own history, so it fixes the digraph
    (the conflicting pairs, each in sequence order) and with it the
    history; whatever was extended, a candidate whose sequence equals
    the payload is the history :meth:`CommandHistory.of` builds from it.
    Anything else -- duplicates, a non-canonical order, no usable
    neighbour -- is built from ⊥ as before.

    Like the command table it only ever answers with an equal value, so
    a miss or an eviction costs speed, never correctness, and it is
    bounded the same way: two generations of ``generation`` entries, a
    hit in the old one promoted, the old one dropped when the young one
    fills.  A history still arriving outlives any number passing through;
    entries are whole histories, hence the small default.
    """

    NEIGHBOURS = 8  # most recent entries a miss tries to extend

    def __init__(self, generation: int = 16) -> None:
        self.generation = generation
        self._conflict: ConflictRelation | None = None  # the entries' relation
        self._young: dict[tuple, CommandHistory] = {}
        self._old: dict[tuple, CommandHistory] = {}

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def history(
        self, conflict: ConflictRelation, cmds: tuple[Command, ...]
    ) -> CommandHistory:
        """``CommandHistory.of(conflict, *cmds)``, the table's instance of it."""
        if conflict is not self._conflict:
            if conflict != self._conflict:
                self._young, self._old = {}, {}
            self._conflict = conflict
        found = self._young.get(cmds)
        if found is None:
            found = self._old.get(cmds)
            if found is None:
                found = self._build(conflict, cmds)
            self._keep(found)
        return found

    def _build(
        self, conflict: ConflictRelation, cmds: tuple[Command, ...]
    ) -> CommandHistory:
        recent = chain(reversed(self._young.values()), reversed(self._old.values()))
        for base in islice(recent, self.NEIGHBOURS):
            if len(base.cmds) > len(cmds):
                continue
            missing = _unmatched(cmds, base.cmds)
            if missing is None:
                continue
            candidate = base.extend(missing)
            if candidate.cmds == cmds:
                return candidate
            break
        return CommandHistory.of(conflict, *cmds)

    def _keep(self, hist: CommandHistory) -> None:
        if len(self._young) >= self.generation:
            self._young, self._old = {}, self._young
        self._young[hist.cmds] = hist
