"""Sharded deployment on real loopback sockets.

The N shard-group configs and the merge-group config on **one**
:class:`~repro.net.cluster.Deployment`: every role of every group gets
its own node (``g0.acc1``, ``xs.coord0``...), all proposers ride the
driver node, and every inter-role message crosses a real UDP/TCP socket
through the codec.  The driver-side surface is the same
:class:`~repro.shard.deploy.ShardedGroups` wiring (router, replica grid,
per-key audit) as the simulator deployment, so tests and clients drive
both backends identically.
"""

from __future__ import annotations

from repro.cstruct.sharding import ShardMap
from repro.net.cluster import Deployment, wall_clock_retransmit
from repro.net.transport import DEFAULT_MTU
from repro.shard.deploy import ShardedGroups, make_sharded_configs


class ShardedLoopbackDeployment(ShardedGroups, Deployment):
    """N shard groups + merge group, one runtime per node, real sockets."""

    def __init__(
        self,
        n_groups: int,
        seed: int = 0,
        loss_rate: float = 0.0,
        n_proposers: int = 1,
        n_coordinators: int = 2,
        n_acceptors: int = 3,
        n_learners: int = 2,
        mtu: int = DEFAULT_MTU,
    ) -> None:
        self.shard_map = ShardMap(n_groups)
        configs = make_sharded_configs(
            n_groups,
            n_proposers=n_proposers,
            n_coordinators=n_coordinators,
            n_acceptors=n_acceptors,
            n_learners=n_learners,
            retransmit=wall_clock_retransmit(),
        )
        Deployment.__init__(self, configs, seed=seed, loss_rate=loss_rate, mtu=mtu)

    async def start(self) -> "ShardedLoopbackDeployment":
        await Deployment.start(self)
        # The wiring subscribes replicas to live learners: only now.
        *groups, merge = self.clusters
        ShardedGroups.__init__(self, self.driver, self.shard_map, groups, merge, self.roles)
        return self

    async def run_until_executed(self, cmds, timeout: float = 30.0) -> bool:
        cmds = list(cmds)
        return await self.driver.wait_until(
            lambda: self.everyone_executed(cmds), timeout=timeout
        )
