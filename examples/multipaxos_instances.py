#!/usr/bin/env python
"""Multicoordinated MultiPaxos: replication without a leader bottleneck.

The application-oriented reading of the paper (abstract, Section 4.1): a
replicated service runs one consensus instance per command.  Here each
command travels through a *randomly chosen* coordinator quorum and acceptor
quorum, so no process handles every command -- yet all replicas apply the
same total order, and crashing a coordinator mid-run changes nothing.

A second run turns on the batching + pipelining layer: commands ride in
batches of up to 6 through a pipeline of 3 in-flight instances, cutting the
per-command message cost several-fold at comparable latency.

A third run drops 30% of all messages: the reliability layer (proposer
retransmission, coordinator gossip, learner catch-up) still delivers every
command in the same total order at both replicas.

A fourth run turns on checkpointing: replicas snapshot every 12 delivered
instances and the cluster garbage-collects acceptor votes, coordinator
decision maps and learner logs below the collective frontier -- retained
state tracks the checkpoint window, not the history -- and a replica
restarted after the cluster truncated past its checkpoint converges by
snapshot install.

Run:  python examples/multipaxos_instances.py
"""

from repro import Simulation
from repro.core.reliability import UNBATCHED
from repro.cstruct import Command
from repro.sim.network import NetworkConfig
from repro.smr.instances import (
    BatchingConfig,
    CheckpointConfig,
    RetransmitConfig,
    build_smr,
)
from repro.smr.machine import KVStore
from repro.smr.replica import Replica


def main() -> None:
    sim = Simulation(seed=12)
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=5,
        n_learners=2,
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))

    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]

    commands = [Command(f"op{i}", "inc", f"counter{i % 4}") for i in range(24)]
    for index, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 3 * index)

    # Crash a coordinator mid-run; the multicoordinated round absorbs it.
    sim.schedule(30.0, lambda: cluster.coordinators[2].crash())

    assert cluster.run_until_delivered(commands, timeout=10_000)

    print("per-process load (fraction of commands handled):")
    for coordinator in cluster.coordinators:
        load = sim.metrics.commands_handled[coordinator.pid] / len(commands)
        state = "CRASHED" if not coordinator.alive else "up"
        print(f"  {coordinator.pid} [{state:>7}]: {load:5.2f} {'#' * int(load * 40)}")
    for acceptor in cluster.acceptors:
        load = acceptor.commands_accepted / len(commands)
        print(f"  {acceptor.pid}  [     up]: {load:5.2f} {'#' * int(load * 40)}")

    print("\nreplica agreement:")
    orders = [[c.cid for c in replica.executed] for replica in replicas]
    assert orders[0] == orders[1]
    print(f"  identical total order at both replicas ({len(orders[0])} commands)")
    print(f"  final counters: {dict(replicas[0].machine.snapshot())}")
    latencies = [sim.metrics.latency_of(c) for c in commands]
    print(f"  mean commit latency: {sum(latencies) / len(latencies):.2f} steps")

    # Heavy traffic: the same 48 commands arriving in bursts of 6, decided
    # by the plain engine and by the batching + pipelining layer.
    def heavy_traffic(batching):
        sim_ht = Simulation(seed=12)
        cluster_ht = build_smr(
            sim_ht, n_proposers=2, n_coordinators=3, n_acceptors=3,
            batching=batching,
        )
        cluster_ht.start_round(
            cluster_ht.config.schedule.make_round(coord=0, count=1, rtype=2)
        )
        replica = Replica(cluster_ht.learners[0], KVStore())
        burst = [Command(f"ht{i}", "inc", f"counter{i % 4}") for i in range(48)]
        for index, command in enumerate(burst):
            cluster_ht.propose(command, delay=5.0 + 2.0 * (index // 6))
        assert cluster_ht.run_until_delivered(burst, timeout=10_000)
        mean = sum(sim_ht.metrics.latency_of(c) for c in burst) / len(burst)
        return sim_ht.metrics.total_messages, mean, replica.machine.snapshot()

    plain_msgs, plain_lat, plain_state = heavy_traffic(UNBATCHED)
    batched_msgs, batched_lat, batched_state = heavy_traffic(
        BatchingConfig(max_batch=6, flush_interval=2.0, pipeline_depth=3)
    )
    assert batched_state == plain_state

    print("\nheavy traffic, 48 commands in bursts of 6:")
    print(f"  unbatched: {plain_msgs} messages, mean latency {plain_lat:.2f}")
    print(f"  batched:   {batched_msgs} messages, mean latency {batched_lat:.2f}")
    print(
        f"  batching + pipelining cut messages {plain_msgs / batched_msgs:.1f}x,"
        " identical final state"
    )

    # Message loss: 30% of all messages vanish.  Retransmission + gossip +
    # learner catch-up make the engine converge anyway.
    sim_loss = Simulation(seed=12, network=NetworkConfig(drop_rate=0.3))
    cluster_loss = build_smr(
        sim_loss, n_proposers=2, n_coordinators=3, n_acceptors=3, n_learners=2,
        batching=BatchingConfig(max_batch=6, flush_interval=2.0, pipeline_depth=3),
        retransmit=RetransmitConfig(),
    )
    cluster_loss.start_round(
        cluster_loss.config.schedule.make_round(coord=0, count=1, rtype=2)
    )
    replicas_loss = [
        Replica(learner, KVStore()) for learner in cluster_loss.learners
    ]
    lossy = [Command(f"ls{i}", "inc", f"counter{i % 4}") for i in range(24)]
    for index, command in enumerate(lossy):
        cluster_loss.propose(command, delay=5.0 + 2.0 * (index // 6))
    assert cluster_loss.run_until_delivered(lossy, timeout=20_000)
    assert replicas_loss[0].order_signature() == replicas_loss[1].order_signature()
    stats = cluster_loss.retransmission_stats()
    print("\nlossy network (30% of messages dropped):")
    print(
        f"  all {len(lossy)} commands delivered, identical order at both replicas"
    )
    print(
        f"  {sim_loss.metrics.messages_dropped} drops healed by"
        f" {stats['retransmissions']} retransmissions,"
        f" {stats['catchup_requests']} learner catch-ups,"
        f" {stats['gossip_rounds']} gossip rounds"
    )

    # -- run 4: checkpointing bounds memory; laggards install snapshots ----
    sim_ckpt = Simulation(seed=21, max_events=4_000_000)
    cluster_ckpt = build_smr(
        sim_ckpt,
        n_proposers=2,
        n_learners=3,
        batching=BatchingConfig(max_batch=4, flush_interval=1.5, pipeline_depth=4),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=12, gc_quorum=2),
    )
    cluster_ckpt.start_round(
        cluster_ckpt.config.schedule.make_round(coord=0, count=1, rtype=2)
    )
    replicas_ckpt = [
        Replica(learner, KVStore()) for learner in cluster_ckpt.learners
    ]
    first = [Command(f"cp{i}", "put", f"key{i}", i) for i in range(60)]
    for index, command in enumerate(first):
        cluster_ckpt.propose(command, delay=5.0 + 0.5 * index)
    assert cluster_ckpt.run_until_delivered(first, timeout=20_000)
    laggard = cluster_ckpt.learners[2]
    laggard.crash()
    second = [Command(f"cq{i}", "put", f"key{i}", -i) for i in range(60)]
    for index, command in enumerate(second):
        cluster_ckpt.propose(command, delay=1.0 + 0.5 * index)
    live = cluster_ckpt.learners[:2]
    assert sim_ckpt.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in second),
        timeout=sim_ckpt.clock + 20_000,
    )
    laggard.recover()
    assert sim_ckpt.run_until(
        lambda: all(laggard.has_delivered(c) for c in first + second),
        timeout=sim_ckpt.clock + 20_000,
    )
    ckpt_stats = cluster_ckpt.checkpoint_stats()
    retained = cluster_ckpt.retained_state()
    assert len({r.order_signature() for r in replicas_ckpt}) == 1
    print("\ncheckpointing (snapshot every 12 instances, GC quorum 2/3):")
    print(
        f"  {ckpt_stats['snapshots']} checkpoints taken; acceptor logs"
        f" truncated to floor {ckpt_stats['acceptor_floor']}"
        f" ({retained['acceptor journal']} journal entries retained of"
        f" {len(first) + len(second)} commands)"
    )
    print(
        f"  restarted laggard converged via {laggard.snapshot_installs}"
        " snapshot install(s); all three replica orders identical"
    )


if __name__ == "__main__":
    main()
