#!/usr/bin/env python
"""A sharded key-value store: N engine groups behind a key-hashed router.

One consensus group totally orders every command through one coordinator
pipeline, so aggregate throughput is flat no matter how many machines
you add.  The ``repro.shard`` layer splits the keyspace over N
*independent* groups (each a full multicoordinated MultiPaxos engine,
role classes unchanged) and routes commands by key hash -- throughput
scales with the group count because the groups share nothing.

Commands touching keys of two or more groups cannot ride one group's
log.  The router proposes them to a generalized *merge group* and
plants a barrier placeholder in every owning group: replicas stall
their local stream at the barrier until the merge group has decided
the command's cross-shard order, then splice it in.  Per-key order
agrees at every replica of every group -- the demo checks it.

Run:  python examples/sharded_kv.py
"""

from repro import Simulation
from repro.shard import ShardedDeployment
from repro.smr.client import PipelinedClient


def main() -> None:
    sim = Simulation(seed=23)
    deployment = ShardedDeployment.build(sim, n_groups=3).start()
    sim.run(until=5.0)

    # One pipelined client per group, on keys that group owns.
    clients = []
    commands = []
    for gid in range(3):
        keys = deployment.shard_map.first_keys(gid, 2, prefix="item")
        client = PipelinedClient(f"client{gid}", deployment.router, window=4)
        client.watch_replica(deployment.replicas[gid][0])
        cmds = [
            client.make_command("put", keys[i % 2], i) for i in range(10)
        ]
        client.submit(cmds)
        clients.append(client)
        commands.extend(cmds)

    # Two cross-shard commands: each touches keys of two groups, so the
    # merge group decides their order and both groups splice it.
    cross = PipelinedClient("cross", deployment.router, window=2)
    for gid in range(3):
        cross.watch_replica(deployment.replicas[gid][0])
    k0, k1, k2 = (deployment.shard_map.first_keys(gid, 1, prefix="item")[0] for gid in range(3))
    xcmds = [
        cross.make_command("put", f"{k0}|{k1}", "swap-a"),
        cross.make_command("put", f"{k1}|{k2}", "swap-b"),
    ]
    cross.submit(xcmds)
    commands.extend(xcmds)

    assert deployment.run_until_executed(commands), "run must complete"

    print("router:", deployment.router.stats())
    print("commands per group:", dict(sim.metrics.commands_by_group))
    for gid in range(3):
        orders = {r.order_signature() for r in deployment.replicas[gid]}
        assert len(orders) == 1, "replicas of one group must agree exactly"
        print(f"  group {gid} executed {len(orders.pop())} commands")

    divergent = deployment.divergent_keys()
    assert divergent == [], f"per-key orders must agree: {divergent}"
    print("\nper-key order agrees at every replica of every group")
    print(f"cross-shard order on {k1}: {deployment.key_order(k1)}")
    barriers = sum(r.barriers_crossed for rs in deployment.replicas for r in rs)
    print(f"barriers crossed across all replicas: {barriers}")


if __name__ == "__main__":
    main()
