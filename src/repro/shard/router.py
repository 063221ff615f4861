"""The shard router: key-hashed dispatch over N engine groups.

The router is deployment-independent driver-side logic, not a protocol
role: it runs wherever proposals originate (the simulation driver, the
net cluster's driver node) and speaks to each group, and to the merge
group, through its :class:`~repro.core.cluster.Cluster` handle.  It adds **no wire messages** -- routing
is a client-side function of the deterministic key hash, so any router
instance anywhere makes the same decision.

Single-shard commands go straight to their group's proposer pipeline.
A cross-shard command is stamped with a monotone barrier id; the router
proposes the command itself to the merge group and a barrier
placeholder to every owning group (see :mod:`repro.shard.replica` for
how replicas splice the merge order at the barrier).
"""

from __future__ import annotations

from typing import Hashable

from repro.cstruct.commands import Command
from repro.cstruct.sharding import ShardMap, split_key
from repro.shard.replica import barrier_command

#: Metrics label of the merge group (cross-shard traffic).
MERGE_LABEL = "xs"


class ShardRouter:
    """Hashes commands to groups; stamps cross-shard barriers.

    Exposes the driving surface :class:`repro.smr.client.Client` expects
    of a cluster (``sim``, ``propose``, ``flush``) plus
    ``session_scope`` for the client's per-group session windows.
    """

    def __init__(self, sim, shard_map: ShardMap, groups, merge) -> None:
        self.sim = sim
        self.shard_map = shard_map
        self.groups = list(groups)
        self.merge = merge
        self.next_barrier = 0
        self.routed_single = 0
        self.routed_cross = 0

    def session_scope(self, key: str) -> str:
        """The session-window scope label for commands on *key*.

        One label per group (``g<N>``) plus one for cross-shard
        commands (``xs``): each scope is a distinct FIFO pipeline, so a
        session window's monotone-cid contract must hold per scope, not
        globally.
        """
        groups = sorted({self.shard_map.group_of_key(k) for k in split_key(key)})
        if len(groups) == 1:
            return f"g{groups[0]}"
        if not groups:
            return "g0"  # keyless commands ride group 0
        return MERGE_LABEL

    def propose(self, cmd: Command, delay: float = 0.0) -> None:
        groups = self.shard_map.groups_of(cmd)
        metrics = getattr(self.sim, "metrics", None)
        if len(groups) <= 1:
            gid = groups[0] if groups else 0
            self.routed_single += 1
            if metrics is not None:
                metrics.record_group(f"g{gid}")
            self.groups[gid].propose(cmd, delay=delay)
            return
        bid = self.next_barrier
        self.next_barrier += 1
        self.routed_cross += 1
        if metrics is not None:
            metrics.record_group(MERGE_LABEL)
        self.merge.propose(cmd, delay=delay)
        for gid in groups:
            self.groups[gid].propose(barrier_command(bid, gid, cmd), delay=delay)

    def flush(self) -> None:
        """Ship every group's (and the merge group's) partial batches."""
        for group in self.groups:
            group.flush()
        self.merge.flush()

    def stats(self) -> dict[str, Hashable]:
        return {
            "groups": len(self.groups),
            "routed_single": self.routed_single,
            "routed_cross": self.routed_cross,
            "barriers": self.next_barrier,
        }
