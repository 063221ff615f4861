"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` file owns one experiment: its runner, its grid and
the assertions on the claim it regenerates (``benchmarks/README.md``
maps every file to its paper section and claim; ``README.md`` summarises
the paper).  The experiments are deterministic simulations, so every
benchmark runs its experiment exactly once (``pedantic(rounds=1)``) and
prints the regenerated table; the pytest-benchmark timing then reports
the harness cost of the experiment.  What two or more bench files share
lives here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.generalized import GeneralizedCluster, build_generalized
from repro.cstruct.base import CStruct, IncompatibleError
from repro.cstruct.commands import Command, ConflictRelation
from repro.cstruct.history import CommandHistory
from repro.protocols.generalized import build_generalized_paxos
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def quick(name: str) -> bool:
    """Quick mode for experiment *name*: ``<name>_QUICK`` set and not ``0``."""
    return os.environ.get(f"{name}_QUICK", "") not in ("", "0")


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") if value == value else "nan"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    parts = []
    if title:
        parts.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    parts.append(header)
    parts.append("-+-".join("-" * w for w in widths))
    for line in rendered:
        parts.append(" | ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(parts)


def run_experiment(benchmark, fn, title: str):
    """Execute *fn* once under the benchmark, print and return its rows."""
    rows = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(format_table(rows, title=title))
    return rows


def sample_peaks(cluster, period: float) -> tuple[dict[str, int], Callable[[], None]]:
    """Sample ``cluster.retained_state()`` every *period*, from now on.

    Returns the running peak of each kind and the sampler itself (call it
    once more for a final sample).
    """
    peaks: dict[str, int] = {}

    def sample() -> None:
        for key, value in cluster.retained_state().items():
            peaks[key] = max(peaks.get(key, 0), value)
        cluster.sim.schedule(period, sample)

    cluster.sim.schedule(period, sample)
    return peaks, sample


def fast_generalized_cluster(sim: Simulation) -> GeneralizedCluster:
    """Generalized Paxos with fast rounds: 2 coordinators, 4 acceptors."""
    return build_generalized_paxos(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=2,
        n_acceptors=4,
    )


def multicoord_cluster(sim: Simulation) -> GeneralizedCluster:
    """The multicoordinated generalized engine: 3 coordinators, 3 acceptors."""
    return build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
    )


# -- the seed's CommandHistory, kept verbatim as the E9/E11 perf baseline ------


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
