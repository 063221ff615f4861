"""Sharded deployment: N instance-engine groups + merge group.

A sharded cluster is N independent multicoordinated MultiPaxos groups
(the total-order engine of :mod:`repro.smr.instances`, role classes
unchanged) plus one generalized merge group
(:mod:`repro.core.generalized`) for cross-shard commands, a
:class:`~repro.shard.replica.ShardReplica` per (group, site) and a
:class:`~repro.shard.router.ShardRouter` in front.  :class:`ShardedGroups`
is that wiring, written once over "group handles + merge handle";
:class:`ShardedDeployment` builds it on a simulator and
:class:`repro.shard.net.ShardedLoopbackDeployment` on sockets.

Every group gets its own prefixed pid namespace (``g0.acc1``,
``xs.coord0``...) so all groups coexist in one runtime -- the same
naming the net deployment uses for per-process placement.

Groups run without checkpointing here: a sharded replica's durable
state spans two learners (its group's log and the merge history), and
the single-learner snapshot carrier cannot capture that pair
atomically.  Bounded-memory sharded groups are follow-up work.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.core.checkpoint import RetransmitConfig
from repro.core.cluster import Cluster, CountdownLatch, deploy
from repro.core.generalized import GeneralizedConfig
from repro.core.liveness import LivenessConfig
from repro.core.quorums import QuorumSystem
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.core.rounds import RoundSchedule
from repro.core.runtime import Runtime
from repro.core.topology import Topology
from repro.cstruct.history import CommandHistory
from repro.cstruct.sharding import ShardKeyConflict, ShardMap
from repro.shard.replica import ShardReplica
from repro.shard.router import ShardRouter
from repro.smr.instances import InstancesConfig

#: Pid prefix of the merge group.
MERGE_PREFIX = "xs"


def shard_topology(
    prefix: str,
    n_proposers: int,
    n_coordinators: int,
    n_acceptors: int,
    n_learners: int,
) -> Topology:
    """A :class:`Topology` whose pids live under ``<prefix>.``."""
    return Topology(
        proposers=tuple(f"{prefix}.prop{i}" for i in range(n_proposers)),
        coordinators=tuple(f"{prefix}.coord{i}" for i in range(n_coordinators)),
        acceptors=tuple(f"{prefix}.acc{i}" for i in range(n_acceptors)),
        learners=tuple(f"{prefix}.learn{i}" for i in range(n_learners)),
    )


def make_group_config(
    prefix: str,
    n_proposers: int = 1,
    n_coordinators: int = 2,
    n_acceptors: int = 3,
    n_learners: int = 2,
    batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    liveness: LivenessConfig = LivenessConfig(),
    f: int | None = None,
) -> InstancesConfig:
    """One shard group's instances-engine config under *prefix*."""
    topology = shard_topology(
        prefix, n_proposers, n_coordinators, n_acceptors, n_learners
    )
    return InstancesConfig(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors, f=f),
        schedule=RoundSchedule(range(n_coordinators), recovery_rtype=1),
        liveness=liveness,
        batching=batching,
        retransmit=retransmit,
    )


def make_merge_config(
    prefix: str = MERGE_PREFIX,
    n_proposers: int = 1,
    n_coordinators: int = 2,
    n_acceptors: int = 3,
    n_learners: int = 2,
    conflict: ShardKeyConflict | None = None,
    batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    liveness: LivenessConfig = LivenessConfig(),
    f: int | None = None,
    e: int | None = None,
) -> GeneralizedConfig:
    """The merge group's generalized-engine config under *prefix*.

    The bottom c-struct carries :class:`ShardKeyConflict` -- key-set
    conflicts -- so the merge history's constraint digraph is exactly
    the per-key ordering obligations the owning groups must splice.
    """
    topology = shard_topology(
        prefix, n_proposers, n_coordinators, n_acceptors, n_learners
    )
    if conflict is None:
        conflict = ShardKeyConflict(read_ops=frozenset({"get"}))
    return GeneralizedConfig(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors, f=f, e=e),
        schedule=RoundSchedule(range(n_coordinators), recovery_rtype=1),
        bottom=CommandHistory.bottom(conflict),
        liveness=liveness,
        batching=batching,
        retransmit=retransmit,
    )


def make_sharded_configs(
    n_groups: int,
    n_proposers: int = 1,
    n_coordinators: int = 2,
    n_acceptors: int = 3,
    n_learners: int = 2,
    batching: BatchingConfig = UNBATCHED,
    merge_batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    liveness: LivenessConfig = LivenessConfig(),
    f: int | None = None,
) -> list:
    """The N group configs (``g0.``, ``g1.``...) followed by the merge config.

    Every backend -- and every node of a subprocess cluster -- derives
    the identical list from the same shape.
    """
    shape = dict(
        n_proposers=n_proposers, n_coordinators=n_coordinators,
        n_acceptors=n_acceptors, n_learners=n_learners,
        retransmit=retransmit, liveness=liveness, f=f,
    )
    return [
        *(make_group_config(f"g{gid}", batching=batching, **shape) for gid in range(n_groups)),
        make_merge_config(batching=merge_batching, **shape),
    ]


def shard_replicas(
    shard_map: ShardMap,
    group_configs: list[InstancesConfig],
    merge_config: GeneralizedConfig,
    roles: Mapping[str, Any],
    machine_factory: Callable[[], Any] | None = None,
) -> Iterator[tuple[int, int, ShardReplica]]:
    """A ``(gid, site, replica)`` per (group, site) whose group learner and
    merge learner are both in *roles* -- all of them on a simulator or a
    loopback deployment, the co-sited ones on a subprocess node."""
    for gid, config in enumerate(group_configs):
        pairs = zip(config.topology.learners, merge_config.topology.learners)
        for site, (pid, merge_pid) in enumerate(pairs):
            if pid in roles and merge_pid in roles:
                machine = machine_factory() if machine_factory else None
                yield gid, site, ShardReplica(
                    gid, shard_map, roles[pid], roles[merge_pid], machine=machine
                )


class ShardedGroups:
    """Router, replica grid and the per-key audit over "groups + merge".

    *groups* and *merge* are the handles proposals go through (whole
    clusters on a simulator, the driver's handles on sockets); *roles*
    holds the learners the replicas subscribe to.
    """

    def __init__(
        self,
        sim: Runtime,
        shard_map: ShardMap,
        groups: list[Cluster],
        merge: Cluster,
        roles: Mapping[str, Any],
        machine_factory: Callable[[], Any] | None = None,
    ) -> None:
        self.sim = sim
        self.shard_map = shard_map
        self.groups = list(groups)
        self.merge = merge
        self.group_configs = [group.config for group in self.groups]
        self.merge_config = merge.config
        self.replicas: list[list[ShardReplica]] = [[] for _ in self.groups]  # [group][site]
        for gid, _site, replica in shard_replicas(
            shard_map, self.group_configs, self.merge_config, roles, machine_factory
        ):
            self.replicas[gid].append(replica)
        self.router = ShardRouter(sim, shard_map, self.groups, merge)

    def everyone_executed(self, cmds) -> bool:
        for cmd in cmds:
            groups = self.shard_map.groups_of(cmd) or (0,)
            for gid in groups:
                if not all(r.has_executed(cmd) for r in self.replicas[gid]):
                    return False
        return True

    def divergent_keys(self) -> list[tuple[int, str]]:
        """(group, key) pairs whose replicas disagree on the key's order.

        The sharded correctness invariant: must be empty after any run.
        """
        out: list[tuple[int, str]] = []
        for gid, replicas in enumerate(self.replicas):
            keys = sorted({k for r in replicas for k in r.key_orders})
            for key in keys:
                orders = {tuple(r.key_orders.get(key, ())) for r in replicas}
                if len(orders) > 1:
                    out.append((gid, key))
        return out

    def key_order(self, key: str) -> tuple[str, ...]:
        """The agreed cid order on *key* (first replica of its group)."""
        gid = self.shard_map.group_of_key(key)
        return tuple(self.replicas[gid][0].key_orders.get(key, ()))


class ShardedDeployment(ShardedGroups):
    """N engine groups + merge group + replicas + router, on one sim."""

    # run_until_executed's latch, fed by one on_execute + on_adopt
    # subscription per replica (made by the first run).
    _latch: CountdownLatch | None = None

    @classmethod
    def build(
        cls,
        sim: Runtime,
        n_groups: int,
        n_proposers: int = 1,
        n_coordinators: int = 2,
        n_acceptors: int = 3,
        n_learners: int = 2,
        batching: BatchingConfig = UNBATCHED,
        merge_batching: BatchingConfig = UNBATCHED,
        retransmit: RetransmitConfig = RetransmitConfig(),
        liveness: LivenessConfig = LivenessConfig(),
        machine_factory=None,
    ) -> "ShardedDeployment":
        configs = make_sharded_configs(
            n_groups,
            n_proposers=n_proposers,
            n_coordinators=n_coordinators,
            n_acceptors=n_acceptors,
            n_learners=n_learners,
            batching=batching,
            merge_batching=merge_batching,
            retransmit=retransmit,
            liveness=liveness,
        )
        *groups, merge = [deploy(sim, config) for config in configs]
        roles = {pid: role for handle in (*groups, merge) for pid, role in handle.roles.items()}
        return cls(sim, ShardMap(n_groups), groups, merge, roles, machine_factory)

    def start(self, delay: float = 0.0) -> "ShardedDeployment":
        """Bootstrap a multicoordinated round in every group."""
        for group in (*self.groups, self.merge):
            rnd = group.config.schedule.make_round(coord=0, count=1, rtype=2)
            group.start_round(rnd, delay=delay)
        return self

    def run_until_executed(self, cmds, timeout: float = 20_000.0) -> bool:
        """Run until :meth:`everyone_executed` holds, at O(1) per event.

        A :class:`~repro.core.cluster.CountdownLatch` over (replica,
        command) pairs, fed by each replica's execute observer and its
        group learner's adoptions, decides when the exact check runs; the
        run stops at the same event as one that checked after every event.
        """
        sites = [
            (gid, learner, replica)
            for gid, (group, replicas) in enumerate(zip(self.groups, self.replicas))
            for learner, replica in zip(group.learners, replicas)
        ]
        if self._latch is None:
            latch = self._latch = CountdownLatch(
                len(sites),
                lambda site, cmd: sites[site][2].has_executed(cmd),
                key=lambda cmd: cmd.cid,
            )
            for site, (_gid, learner, replica) in enumerate(sites):
                replica.on_execute(lambda cmd, _result, site=site: latch.note(site, cmd))
                learner.on_adopt(lambda _frontier, _cmds, site=site: latch.recount(site))
        cmds = list(cmds)
        owners = [self.shard_map.groups_of(cmd) or (0,) for cmd in cmds]
        wanted = [[cmd for cmd, gids in zip(cmds, owners) if gid in gids] for gid, _l, _r in sites]
        return self._latch.run(self.sim, wanted, timeout)

    def crash_group(self, gid: int, role: str, index: int = 0) -> str:
        """Crash one role process of group *gid*; returns its pid."""
        config = self.group_configs[gid]
        pid = getattr(config.topology, role)[index]
        self.sim.crash(pid)
        return pid
