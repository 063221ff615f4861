"""E16 -- sharded multi-group consensus under a cross-shard mix.

The ``repro.shard`` layer runs N independent engine groups (role classes
unchanged) behind a key-hashed router, with a generalized merge group
deciding the order of cross-shard commands that owning groups splice at
barriers.  Claims pinned here at 4 groups (CI guards, quick mode
``E16_QUICK=1``):

1. **Zero divergence**: every run ends with all replicas of every group
   agreeing on every key's command order -- including the cross-shard
   rows, where the order is spliced from the merge group at barriers --
   and every client completes.
2. **One barrier per cross-shard command**: the router plants exactly
   as many barriers as it routes cross-shard commands.
3. **Graceful cross-shard degradation**: at 10% cross-shard commands
   the cluster still completes with throughput above 1/4 of the
   all-disjoint (0%) row's rate: the cross path costs a merge decision
   plus a barrier stall, not a collapse.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.cstruct.commands import Command
from repro.shard import ShardedDeployment
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import BatchingConfig

QUICK = quick("E16")

#: Cross-shard fractions and per-group load (quick: the 0% and 10% rows at
#: a lighter load).
FRACTIONS, CLIENTS_PER_GROUP, CMDS_PER_CLIENT = (
    ((0.0, 0.10), 2, 15) if QUICK else ((0.0, 0.01, 0.10), 3, 40)
)


def _e16_run(
    n_groups: int,
    clients_per_group: int,
    cmds_per_client: int,
    cross_fraction: float,
    seed: int,
) -> dict:
    """One closed-loop sharded run; aggregate throughput in virtual time.

    *clients_per_group* pipelined clients drive each group on keys owned
    by that group (``ShardMap.first_keys``).  With *cross_fraction* > 0 a
    dedicated cross client issues that fraction (of the single-shard
    total) as two-key commands spanning adjacent groups, exercising the
    merge group + barrier path under the same load.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    deployment = ShardedDeployment.build(
        sim,
        n_groups,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0, pipeline_depth=4),
    )
    deployment.start()
    sim.run(until=5.0)  # bootstrap rounds settle before load

    all_cmds: list[Command] = []
    clients: list[PipelinedClient] = []
    for gid in range(n_groups):
        keys = deployment.shard_map.first_keys(gid, 4)
        for c in range(clients_per_group):
            client = PipelinedClient(
                f"c{gid}.{c}", deployment.router, window=8
            )
            client.watch_replica(deployment.replicas[gid][0])
            cmds = [
                client.make_command("put", keys[i % len(keys)], i)
                for i in range(cmds_per_client)
            ]
            all_cmds.extend(cmds)
            client.submit(cmds)
            clients.append(client)

    n_cross = round(cross_fraction * len(all_cmds))
    if n_cross:
        cross = PipelinedClient("cx", deployment.router, window=4)
        for gid in range(n_groups):
            cross.watch_replica(deployment.replicas[gid][0])
        cross_keys = [
            deployment.shard_map.first_keys(gid, 1, prefix="x")[0]
            for gid in range(n_groups)
        ]
        cmds = [
            cross.make_command(
                "put",
                f"{cross_keys[i % n_groups]}|{cross_keys[(i + 1) % n_groups]}",
                i,
            )
            for i in range(n_cross)
        ]
        all_cmds.extend(cmds)
        cross.submit(cmds)
        clients.append(cross)

    start = sim.clock
    completed = deployment.run_until_executed(
        all_cmds, timeout=2_000.0 * max(1, cmds_per_client)
    )
    span = sim.clock - start
    return {
        "groups": n_groups,
        "clients": len(clients),
        "commands": len(all_cmds),
        "cross": n_cross,
        "completed": completed and all(c.all_completed() for c in clients),
        "divergent keys": len(deployment.divergent_keys()),
        "barriers": deployment.router.next_barrier,
        "span": round(span, 1),
        "throughput / ktime": round(1000.0 * len(all_cmds) / span, 1),
    }


def experiment_e16_cross(
    fractions: tuple[float, ...],
    clients_per_group: int,
    cmds_per_client: int,
    n_groups: int = 4,
    seed: int = 43,
) -> list[dict]:
    """Throughput vs cross-shard fraction at a fixed group count.

    Cross-shard commands cost a merge-group decision plus a barrier
    placeholder in every owning group, and replicas stall their local
    log at the barrier until the merge order arrives -- so throughput
    degrades gracefully with the cross fraction instead of collapsing.
    Every row must finish with zero per-key divergence across replicas.
    """
    rows: list[dict] = []
    for fraction in fractions:
        row = _e16_run(
            n_groups,
            clients_per_group,
            cmds_per_client,
            cross_fraction=fraction,
            seed=seed,
        )
        row["cross %"] = round(100.0 * fraction, 1)
        rows.append(row)
    base = rows[0]["throughput / ktime"]
    for row in rows:
        row["throughput vs 0%"] = round(row["throughput / ktime"] / base, 2)
    return rows


def test_e16_cross_shard_fraction(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e16_cross(FRACTIONS, CLIENTS_PER_GROUP, CMDS_PER_CLIENT),
        "E16b: throughput vs cross-shard fraction at 4 groups",
    )
    assert all(r["completed"] for r in rows)
    # The correctness invariant under mixing: per-key order agreement
    # across all replicas of all groups, including barrier splices.
    assert all(r["divergent keys"] == 0 for r in rows)

    baseline = next(r for r in rows if r["cross"] == 0)
    mixed = [r for r in rows if r["cross"] > 0]
    assert all(r["barriers"] == r["cross"] for r in mixed)
    # Graceful degradation, not collapse: even at the 10% mix the
    # aggregate rate stays above a quarter of the disjoint-key rate.
    for row in mixed:
        assert row["throughput / ktime"] >= baseline["throughput / ktime"] / 4, (
            f"cross fraction {row['cross %']}% collapsed throughput: {row}"
        )
