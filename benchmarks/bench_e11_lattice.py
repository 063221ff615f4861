"""E11 -- lattice-operation scaling of the generalized engine.

Five claims are pinned here:

1. **End-to-end scaling** (CI guard): on the generalized and
   multicoordinated engines, 4x more commands must cost well under 12x the
   wall time at low conflict density (the pre-digraph implementation's
   O(n²)-per-event lattice ops scale far worse).  ``E11_QUICK=1`` runs a
   reduced grid for CI.
2. **End-to-end speedup vs the pre-PR implementation**: the incremental
   constraint-digraph ``CommandHistory`` must beat the pre-digraph
   pairwise-scan implementation (kept verbatim in ``benchmarks/conftest.py``
   as ``LegacyCommandHistory``) by >= 5x on a 200-command moderate-conflict
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
   ``Command.__eq__`` calls and take at most 1.5x the shared-object time
   (the median ratio over interleaved timings of both sides).
5. **Decoded histories**: a ``["h", ...]`` payload used to be rebuilt
   from ⊥ on every decode -- O(n²) conflict calls under a relation with
   no partition (the merge group's), ~19 times per command on the
   ledger's ``shard2-cross``.  Decoding a payload the context's table
   holds makes *zero* conflict calls and builds *zero* histories; decoding
   one that extends a held history by a command makes O(n) conflict
   calls (< 2.5x per doubling of n; a rebuild is 4x).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from benchmarks.conftest import LegacyCommandHistory, format_table, quick, run_experiment
from repro.core.generalized import build_generalized
from repro.cstruct.commands import Command, ConflictRelation, KeyConflict
from repro.cstruct.history import CommandHistory
from repro.cstruct.sharding import ShardKeyConflict
from repro.net import codec
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import kv_conflict
from repro.smr.workload import Workload, WorkloadConfig

QUICK = quick("E11")

#: Scaling sweep: run lengths (a 4x spread) x conflict densities.
N_GRID, CONFLICT_RATES = ((40, 160), (0.1,)) if QUICK else ((50, 100, 200), (0.1, 0.5))


def _e11_run(
    mode: str,
    n_commands: int,
    conflict_rate: float,
    seed: int = 13,
    window: int = 8,
    bottom_factory: Callable[[], object] | None = None,
    read_fraction: float = 0.2,
) -> dict:
    """One closed-loop saturation run; wall time isolates lattice-op cost.

    A :class:`repro.smr.client.PipelinedClient` keeps *window* commands in
    flight, so the engines run at arrival pressure rather than timer pace.
    ``bottom_factory`` lets callers swap the c-struct implementation under
    the *same* protocol (the E11 benchmark uses it to race the incremental
    digraph history against the pre-digraph pairwise-scan implementation).
    """
    sim = Simulation(seed=seed, max_events=20_000_000)
    if mode == "classic (instances)":
        rtype = 2
        cluster = build_smr(
            sim,
            n_proposers=2,
            n_coordinators=3,
            n_acceptors=3,
            n_learners=2,
            batching=BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=4),
        )
    else:
        bottom = (
            bottom_factory() if bottom_factory is not None
            else CommandHistory.bottom(kv_conflict())
        )
        rtype = 1 if mode.startswith("generalized") else 2
        cluster = build_generalized(
            sim, bottom=bottom, n_coordinators=3, n_acceptors=3, n_learners=2
        )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    client = PipelinedClient("e11", cluster, window=window)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            conflict_rate=conflict_rate,
            read_fraction=read_fraction,
            seed=seed,
        )
    )
    sim.run(until=5.0)  # let the round establish before loading it
    client.submit(workload.commands)
    target = len(workload.commands)
    start = time.perf_counter()
    completed = sim.run_until(
        lambda: len(client.completed) >= target, timeout=200.0 * n_commands
    )
    wall = time.perf_counter() - start
    return {
        "mode": mode,
        "commands": n_commands,
        "conflict rate": conflict_rate,
        "wall s": wall,
        "events": sim.events_processed,
        "makespan": sim.clock,
        "cmds / wall s": n_commands / wall if wall else float("inf"),
        "uncompleted": 0 if completed else target - len(client.completed),
    }


def experiment_e11(
    n_grid: tuple[int, ...], conflict_rates: tuple[float, ...], seed: int = 13
) -> list[dict]:
    """Scaling sweep: commands x conflict density x engine.

    The generalized/multicoordinated engines decide one ever-growing
    command history, so their per-event lattice work is the scaling
    bottleneck the incremental constraint digraph removes; the
    instance-per-command engine (constant-size values) is the baseline
    whose scaling was never lattice-bound.  Near-linear wall-time growth
    of the generalized modes at low conflict density is the headline
    claim, asserted below.
    """
    rows: list[dict] = []
    for mode in ("classic (instances)", "generalized (single-coord)", "multicoordinated"):
        for rate in conflict_rates:
            for n in n_grid:
                rows.append(_e11_run(mode, n, rate, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# 1. End-to-end scaling sweep (the CI guard)
# ---------------------------------------------------------------------------


def test_e11_lattice_scaling(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e11(N_GRID, CONFLICT_RATES),
        "E11: commands x conflict density x engine (wall time)",
    )
    assert all(row["uncompleted"] == 0 for row in rows)
    low = min(CONFLICT_RATES)
    small, large = min(N_GRID), max(N_GRID)
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

    def timed(theirs: CommandHistory) -> float:
        start = time.perf_counter()
        ops(theirs)
        return time.perf_counter() - start

    operands = {"shared objects": right, "decoded operand": decoded}
    # Both sides sampled in turn, the first of each pair alternating: a
    # stall of a shared host lands in one pair, and the median of the
    # pairs' ratios does not move with it.
    samples: dict[str, list[float]] = {label: [] for label in operands}
    for i in range(rounds):
        pair = list(operands.items())
        for label, theirs in pair[::-1] if i % 2 else pair:
            samples[label].append(timed(theirs))
    ratio = statistics.median(
        rebuilt / shared
        for shared, rebuilt in zip(samples["shared objects"], samples["decoded operand"])
    )
    monkeypatch.setattr(Command, "__eq__", counted)  # after timing: counting costs a call
    rows = []
    for label, theirs in operands.items():
        eq_calls[0] = 0
        ops(theirs)
        rows.append(
            {
                "operands": label,
                "best us": round(1e6 * min(samples[label]), 1),
                "median ratio": 1.0 if theirs is right else round(ratio, 2),
                "Command.__eq__": eq_calls[0],
            }
        )
    print()
    print(format_table(rows, title=f"E11.4: leq + is_compatible + glb + lub at n={n}"))
    shared, rebuilt = rows
    assert rebuilt["Command.__eq__"] == 0
    assert ratio <= 1.5


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
