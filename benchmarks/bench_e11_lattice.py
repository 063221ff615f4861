"""E11 -- lattice-operation scaling of the generalized engine.

Five claims are pinned here:

1. **End-to-end scaling** (CI guard): on the generalized and
   multicoordinated engines, 4x more commands must cost well under 12x the
   wall time at low conflict density (the pre-digraph implementation's
   O(n²)-per-event lattice ops scale far worse).  ``E11_QUICK=1`` runs a
   reduced grid for CI.
2. **End-to-end speedup vs the pre-PR implementation**: the incremental
   constraint-digraph ``CommandHistory`` must beat the pre-digraph
   pairwise-scan implementation (kept verbatim below as
   ``LegacyCommandHistory``) by >= 5x on a 200-command moderate-conflict
   workload, same engine, same protocol.
3. **Asymptotics**: between already-built histories the digraph ops make
   *zero* conflict-relation calls on shared commands (the legacy ops make
   O(n²) of them), measured with a counting conflict relation.
4. **Decoded operands**: claims 1-3 build both operands of every lattice
   op from shared ``Command`` objects, which is what the simulator does
   and what a socket deployment never did -- every decode was a fresh
   copy, and comparing copies ran the Python-level ``Command.__eq__``
   (~1 700 calls per command on the ledger's ``gen-closed``).  With one
   operand rebuilt through the wire codec the same ops make *zero*
   ``Command.__eq__`` calls and take at most 1.5x the shared-object time.
5. **Decoded histories**: a ``["h", ...]`` payload used to be rebuilt
   from ⊥ on every decode -- O(n²) conflict calls under a relation with
   no partition (the merge group's), ~19 times per command on the
   ledger's ``shard2-cross``.  Decoding a payload the context's table
   holds makes *zero* conflict calls and builds *zero* histories; decoding
   one that extends a held history by a command makes O(n) conflict
   calls (< 2.5x per doubling of n; a rebuild is 4x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from benchmarks.conftest import quick, run_experiment
from repro.bench.tables import format_table
from repro.bench.experiments import _e11_run, experiment_e11
from repro.cstruct.base import CStruct, IncompatibleError
from repro.cstruct.commands import Command, ConflictRelation, KeyConflict
from repro.cstruct.history import CommandHistory
from repro.cstruct.sharding import ShardKeyConflict
from repro.net import codec

QUICK = quick("E11")


# ---------------------------------------------------------------------------
# The pre-PR implementation, kept verbatim as the perf baseline
# ---------------------------------------------------------------------------


def _sort_key(cmd: Command) -> tuple:
    return (cmd.cid, cmd.op, cmd.key, repr(cmd.arg))


def _legacy_canonical(seq, conflict) -> tuple[Command, ...]:
    remaining = list(dict.fromkeys(seq))
    placed: list[Command] = []
    while remaining:
        best_index = -1
        best_key: tuple | None = None
        for index, cmd in enumerate(remaining):
            blocked = any(conflict(prev, cmd) for prev in remaining[:index])
            if blocked:
                continue
            key = _sort_key(cmd)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        placed.append(remaining.pop(best_index))
    return tuple(placed)


def _legacy_topological_order(edges) -> list[Command] | None:
    indegree = {node: 0 for node in edges}
    for successors in edges.values():
        for succ in successors:
            indegree[succ] += 1
    available = sorted(
        (node for node, deg in indegree.items() if deg == 0), key=_sort_key
    )
    order: list[Command] = []
    while available:
        node = available.pop(0)
        order.append(node)
        inserted = False
        for succ in sorted(edges[node], key=_sort_key):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                available.append(succ)
                inserted = True
        if inserted:
            available.sort(key=_sort_key)
    if len(order) != len(edges):
        return None
    return order


@dataclass(frozen=True)
class LegacyCommandHistory(CStruct):
    """The seed/PR-2 ``CommandHistory``: O(n²) pairwise conflict scans."""

    cmds: tuple[Command, ...]
    conflict: ConflictRelation
    _set: frozenset = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self) -> None:
        canonical = _legacy_canonical(self.cmds, self.conflict)
        object.__setattr__(self, "cmds", canonical)
        object.__setattr__(self, "_set", frozenset(canonical))

    @classmethod
    def _trusted(cls, cmds, conflict) -> "LegacyCommandHistory":
        obj = object.__new__(cls)
        object.__setattr__(obj, "cmds", cmds)
        object.__setattr__(obj, "conflict", conflict)
        object.__setattr__(obj, "_set", frozenset(cmds))
        return obj

    @classmethod
    def bottom(cls, conflict) -> "LegacyCommandHistory":
        return cls((), conflict)

    def append(self, cmd: Command) -> "LegacyCommandHistory":
        if cmd in self._set:
            return self
        last_conflict = -1
        for index, existing in enumerate(self.cmds):
            if self.conflict(existing, cmd):
                last_conflict = index
        position = len(self.cmds)
        key = _sort_key(cmd)
        for index in range(last_conflict + 1, len(self.cmds)):
            if key < _sort_key(self.cmds[index]):
                position = index
                break
        new_cmds = self.cmds[:position] + (cmd,) + self.cmds[position:]
        return LegacyCommandHistory._trusted(new_cmds, self.conflict)

    def leq(self, other: CStruct) -> bool:
        if not isinstance(other, LegacyCommandHistory):
            return NotImplemented
        if not self._set <= other._set:
            return False
        position = {cmd: index for index, cmd in enumerate(other.cmds)}
        for i, a in enumerate(self.cmds):
            for b in self.cmds[i + 1 :]:
                if self.conflict(a, b) and position[a] > position[b]:
                    return False
        for extra in other.cmds:
            if extra in self._set:
                continue
            for mine in self.cmds:
                if self.conflict(extra, mine) and position[extra] < position[mine]:
                    return False
        return True

    def glb(self, other: "LegacyCommandHistory") -> "LegacyCommandHistory":
        other_position = {cmd: index for index, cmd in enumerate(other.cmds)}
        kept: list[Command] = []
        kept_set: set[Command] = set()
        dropped: list[Command] = []
        for cmd in self.cmds:
            if cmd not in other._set:
                dropped.append(cmd)
                continue
            if any(self.conflict(cmd, d) for d in dropped):
                dropped.append(cmd)
                continue
            predecessors = (
                d for d in other.cmds[: other_position[cmd]] if self.conflict(d, cmd)
            )
            if any(d not in kept_set for d in predecessors):
                dropped.append(cmd)
                continue
            kept.append(cmd)
            kept_set.add(cmd)
        return LegacyCommandHistory._trusted(tuple(kept), self.conflict)

    def _constraint_edges(self, other):
        union = list(dict.fromkeys(self.cmds + other.cmds))
        pos_self = {cmd: index for index, cmd in enumerate(self.cmds)}
        pos_other = {cmd: index for index, cmd in enumerate(other.cmds)}
        edges: dict[Command, set[Command]] = {cmd: set() for cmd in union}

        def required_order(u, v, pos):
            u_in, v_in = u in pos, v in pos
            if u_in and v_in:
                return -1 if pos[u] < pos[v] else 1
            if u_in:
                return -1
            if v_in:
                return 1
            return 0

        for i, u in enumerate(union):
            for v in union[i + 1 :]:
                if not self.conflict(u, v):
                    continue
                order_a = required_order(u, v, pos_self)
                order_b = required_order(u, v, pos_other)
                if order_a and order_b and order_a != order_b:
                    return None
                order = order_a or order_b
                if order == -1:
                    edges[u].add(v)
                else:
                    edges[v].add(u)
        return edges

    def is_compatible(self, other: CStruct) -> bool:
        if not isinstance(other, LegacyCommandHistory):
            return False
        edges = self._constraint_edges(other)
        if edges is None:
            return False
        return _legacy_topological_order(edges) is not None

    def lub(self, other: "LegacyCommandHistory") -> "LegacyCommandHistory":
        edges = self._constraint_edges(other)
        order = _legacy_topological_order(edges) if edges is not None else None
        if order is None:
            raise IncompatibleError("incompatible legacy histories")
        return LegacyCommandHistory._trusted(tuple(order), self.conflict)

    def contains(self, cmd: Command) -> bool:
        return cmd in self._set

    def command_set(self) -> frozenset:
        return self._set

    def linear_extension(self) -> tuple[Command, ...]:
        return self.cmds

    def delta_after(self, prefix) -> tuple[Command, ...]:
        return tuple(cmd for cmd in self.cmds if cmd not in prefix._set)

    def __len__(self) -> int:
        return len(self.cmds)


# ---------------------------------------------------------------------------
# 1. End-to-end scaling sweep (the CI guard)
# ---------------------------------------------------------------------------


def test_e11_lattice_scaling(benchmark):
    if QUICK:
        n_grid, rates = (40, 160), (0.1,)
    else:
        n_grid, rates = (50, 100, 200), (0.1, 0.5)

    rows = run_experiment(
        benchmark,
        lambda: experiment_e11(n_grid=n_grid, conflict_rates=rates),
        "E11: commands x conflict density x engine (wall time)",
    )
    assert all(row["uncompleted"] == 0 for row in rows)
    low = min(rates)
    small, large = min(n_grid), max(n_grid)
    assert large == 4 * small  # the guard compares a 4x command spread
    for mode in ("generalized (single-coord)", "multicoordinated"):
        at = {
            row["commands"]: row
            for row in rows
            if row["mode"] == mode and row["conflict rate"] == low
        }
        ratio = at[large]["wall s"] / at[small]["wall s"]
        print(f"\n{mode}: {small}->{large} commands = {ratio:.1f}x wall time")
        # Coarse guard: 4x commands < 12x wall time.  The digraph engine
        # measures ~5-7x here; the pre-digraph implementation blows past
        # 12x (its per-event lattice work alone is O(n²)).
        assert ratio < 12.0


# ---------------------------------------------------------------------------
# 2. End-to-end speedup vs the pre-PR implementation
# ---------------------------------------------------------------------------


def test_e11_digraph_vs_legacy_speedup(benchmark):
    """>= 5x on a 200-command moderate-conflict generalized workload."""
    n_commands = 80 if QUICK else 200
    conflict_rate = 0.3

    def measure():
        digraph = _e11_run(
            "generalized (single-coord)", n_commands, conflict_rate
        )
        legacy = _e11_run(
            "generalized (single-coord)",
            n_commands,
            conflict_rate,
            bottom_factory=lambda: LegacyCommandHistory.bottom(KeyConflict()),
        )
        return digraph, legacy

    digraph, legacy = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert digraph["uncompleted"] == 0
    assert legacy["uncompleted"] == 0
    speedup = legacy["wall s"] / digraph["wall s"]
    print(
        f"\n{n_commands} commands @ conflict {conflict_rate}: "
        f"digraph {digraph['wall s']:.3f}s vs legacy {legacy['wall s']:.3f}s "
        f"= {speedup:.1f}x"
    )
    assert speedup >= 5.0


# ---------------------------------------------------------------------------
# 3. Conflict-relation calls per lattice op: O(conflicts) vs O(n²)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CountingConflict(ConflictRelation):
    """Key conflict that counts invocations (the lattice ops' unit of work)."""

    inner: ConflictRelation = field(default_factory=KeyConflict)
    calls: list = field(default_factory=lambda: [0], compare=False, hash=False)

    def conflicts(self, a: Command, b: Command) -> bool:
        self.calls[0] += 1
        return self.inner.conflicts(a, b)

    def partition(self, cmd: Command):
        return self.inner.partition(cmd)


def _grown_pair(cls, conflict, n: int, extra: int = 4):
    """Two histories sharing an n-command prefix, diverging by commuting tails."""
    shared = [Command(f"s{i:03d}", "put", f"k{i % 8}", i) for i in range(n)]
    base = cls.bottom(conflict)
    for cmd in shared:
        base = base.append(cmd)
    left = base
    right = base
    for i in range(extra):
        left = left.append(Command(f"l{i}", "put", f"xl{i}", i))
        right = right.append(Command(f"r{i}", "put", f"xr{i}", i))
    return base, left, right


def test_lattice_ops_make_no_conflict_calls_on_shared_commands():
    """Digraph leq/lub/is_compatible: conflict calls only on the suffix diff."""
    for n in (32, 128):
        conflict = _CountingConflict()
        base, left, right = _grown_pair(CommandHistory, conflict, n)

        conflict.calls[0] = 0
        assert base.leq(left) and base.leq(right)
        assert left.is_compatible(right)
        merged = left.lub(right)
        assert len(merged.command_set()) == n + 8
        digraph_calls = conflict.calls[0]

        legacy_conflict = _CountingConflict()
        lbase, lleft, lright = _grown_pair(LegacyCommandHistory, legacy_conflict, n)
        legacy_conflict.calls[0] = 0
        assert lbase.leq(lleft) and lbase.leq(lright)
        assert lleft.is_compatible(lright)
        lmerged = lleft.lub(lright)
        assert len(lmerged.command_set()) == n + 8
        legacy_calls = legacy_conflict.calls[0]

        print(
            f"\nleq+compat+lub at n={n}: digraph {digraph_calls} conflict "
            f"calls, legacy {legacy_calls}"
        )
        # Digraph: only the 4x4 cross-exclusive suffix pairs are checked,
        # independent of n.  Legacy: O(n²) pairwise re-derivation.
        assert digraph_calls <= 64
        assert legacy_calls > n * n / 2

    # And the legacy cost grows quadratically while the digraph's does not.
    measured = {}
    for n in (32, 128):
        for label, cls in (("digraph", CommandHistory), ("legacy", LegacyCommandHistory)):
            conflict = _CountingConflict()
            _, left, right = _grown_pair(cls, conflict, n)
            conflict.calls[0] = 0
            left.lub(right)
            measured[(label, n)] = conflict.calls[0]
    assert measured[("legacy", 128)] > 8 * measured[("legacy", 32)]
    assert measured[("digraph", 128)] <= measured[("digraph", 32)] + 8


# ---------------------------------------------------------------------------
# 4. Decoded operands: a copy off the wire costs what the shared object does
# ---------------------------------------------------------------------------


def test_lattice_ops_on_decoded_operands(monkeypatch):
    """One operand rebuilt through the codec: 0 ``Command.__eq__``, <= 1.5x time."""
    n, rounds = (128, 30) if QUICK else (512, 60)
    conflict = KeyConflict()
    base, left, right = _grown_pair(CommandHistory, conflict, n)
    context = codec.CodecContext(conflict=conflict)
    decoded = codec.decode(codec.encode(right), context)
    assert decoded == right and decoded is not right

    eq_calls = [0]
    by_value = Command.__eq__

    def counted(self, other):
        eq_calls[0] += 1
        return by_value(self, other)

    def ops(theirs: CommandHistory) -> None:
        assert base.leq(theirs) and not left.leq(theirs)
        assert left.is_compatible(theirs)
        assert len(left.glb(theirs)) == n and len(left.lub(theirs)) == n + 8

    def best_of(theirs: CommandHistory) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            ops(theirs)
            best = min(best, time.perf_counter() - start)
        return best

    operands = {"shared objects": right, "decoded operand": decoded}
    seconds = {label: best_of(theirs) for label, theirs in operands.items()}
    monkeypatch.setattr(Command, "__eq__", counted)  # after timing: counting costs a call
    rows = []
    for label, theirs in operands.items():
        eq_calls[0] = 0
        ops(theirs)
        rows.append(
            {"operands": label, "us": round(1e6 * seconds[label], 1), "Command.__eq__": eq_calls[0]}
        )
    print()
    print(format_table(rows, title=f"E11.4: leq + is_compatible + glb + lub at n={n}"))
    shared, rebuilt = rows
    assert rebuilt["Command.__eq__"] == 0
    assert rebuilt["us"] <= 1.5 * shared["us"]


# ---------------------------------------------------------------------------
# 5. Decoded histories: a payload seen before costs nothing, a grown one O(n)
# ---------------------------------------------------------------------------


def test_decoded_histories_are_looked_up_or_extended(monkeypatch):
    """Repeat decode: 0 conflict calls, 0 histories built.  One command
    more than a held history: conflict calls linear in n."""
    built = [0]
    trusted, post_init = CommandHistory._trusted.__func__, CommandHistory.__post_init__

    def counted_trusted(cls, *args, **kwargs):
        built[0] += 1
        return trusted(cls, *args, **kwargs)

    def counted_post_init(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(CommandHistory, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(CommandHistory, "__post_init__", counted_post_init)

    rows = []
    for n in (60, 120, 240) if QUICK else (250, 500, 1000):
        conflict = _CountingConflict(inner=ShardKeyConflict())  # no partition: full scans
        context = codec.CodecContext(conflict=conflict)
        cmds = [
            Command(f"m{i:04d}", "put", f"k{i % 40}|k{(i * 7) % 40}", i) for i in range(n + 1)
        ]
        held = CommandHistory.of(conflict, *cmds[: n // 2], *cmds[n // 2 + 1 :])
        grown = held.extend([cmds[n // 2]])  # the new command lands mid-sequence
        held_frame, grown_frame = codec.encode(held), codec.encode(grown)

        conflict.calls[0] = 0
        first = codec.decode(held_frame, context)
        rebuild_calls = conflict.calls[0]
        conflict.calls[0], built[0] = 0, 0
        assert codec.decode(held_frame, context) is first
        repeat_calls, repeat_built = conflict.calls[0], built[0]
        conflict.calls[0] = 0
        assert codec.decode(grown_frame, context) == grown
        rows.append({
            "n": n,
            "from ⊥: conflict calls": rebuild_calls,
            "repeat: conflict calls": repeat_calls,
            "repeat: histories built": repeat_built,
            "+1 command: conflict calls": conflict.calls[0],
        })
    print()
    print(format_table(rows, title="E11.5: decoding a history payload (ShardKeyConflict)"))
    for row in rows:
        assert row["repeat: conflict calls"] == 0 and row["repeat: histories built"] == 0
        assert row["from ⊥: conflict calls"] > row["n"] ** 2 / 4
    for small, large in zip(rows, rows[1:]):
        ratio = large["+1 command: conflict calls"] / small["+1 command: conflict calls"]
        assert ratio < 2.5
