#!/usr/bin/env python
"""A replicated key-value store over Generic Broadcast (Section 3.3).

The paper's motivating application: commands on different keys commute and
may be learned in different orders at different replicas, yet all replicas
converge because conflicting commands (same key, at least one write) are
delivered in the same relative order everywhere.

The script broadcasts a mixed workload from two clients through a
Multicoordinated Generalized Paxos instance, applies it on three replicas
and shows that (a) every replica reaches the same state, (b) commuting
commands really were allowed to interleave differently.

Run:  python examples/replicated_kv.py
"""

from repro import Simulation, NetworkConfig
from repro.core.broadcast import GenericBroadcast
from repro.cstruct import Command
from repro.smr.client import Client
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica


def main() -> None:
    sim = Simulation(seed=11, network=NetworkConfig(jitter=0.8))
    service = GenericBroadcast.deploy(
        sim,
        conflict=kv_conflict(),
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=3,
    )
    service.start_round(service.cluster.config.schedule.make_round(0, 1, rtype=2))

    replicas = [
        Replica(learner, KVStore()) for learner in service.cluster.learners
    ]

    alice = Client("alice", service.cluster)
    bob = Client("bob", service.cluster)
    for client, replica in [(alice, replicas[0]), (bob, replicas[1])]:
        client.watch_replica(replica)

    commands = [
        alice.issue(Command("a1", "put", "apples", 3), delay=5.0),
        bob.issue(Command("b1", "put", "bananas", 7), delay=5.0),  # commutes with a1
        alice.issue(Command("a2", "inc", "apples", 2), delay=9.0),
        bob.issue(Command("b2", "inc", "bananas", 1), delay=9.0),
        alice.issue(Command("a3", "get", "apples"), delay=13.0),
        bob.issue(Command("b3", "get", "apples"), delay=13.0),  # two reads commute
    ]
    assert service.cluster.run_until_delivered(commands, timeout=2000)

    print("replica states:")
    for index, replica in enumerate(replicas):
        print(f"  replica {index}: {dict(replica.machine.snapshot())}")
    states = {replica.machine.snapshot() for replica in replicas}
    assert len(states) == 1, "replicas must converge"

    print("\nexecution orders (commuting commands may interleave differently):")
    for index, replica in enumerate(replicas):
        print(f"  replica {index}: {[c.cid for c in replica.executed]}")

    conflicting = [c for c in commands if c.key == "apples" and c.op != "get"]
    orders = [
        [c.cid for c in replica.executed if c in conflicting] for replica in replicas
    ]
    assert all(order == orders[0] for order in orders)
    print(f"\nconflicting commands ordered identically everywhere: {orders[0]}")

    latencies = {c.cid: alice.latency(c) or bob.latency(c) for c in commands}
    print(f"client-observed latencies (steps): {latencies}")


def production_parity_demo() -> None:
    """The production layers: batching + retransmission + checkpointing.

    A 150-command closed-loop run through the generalized engine with all
    three parity layers on: command groups ride one phase "2a" per batch,
    the run stays live at 15% message loss, and stable-prefix
    checkpointing keeps every role's retained history at the checkpoint
    window instead of the full run.
    """
    from repro.bench.workload import Workload, WorkloadConfig
    from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
    from repro.core.generalized import GenBatchingConfig, build_generalized
    from repro.cstruct.history import CommandHistory
    from repro.smr.client import PipelinedClient

    sim = Simulation(seed=17, network=NetworkConfig(drop_rate=0.15))
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_learners=3,
        batching=GenBatchingConfig(max_batch=8, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=25, gc_quorum=2),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype=2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("loadgen", cluster, window=12)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(n_commands=150, conflict_rate=0.3, read_fraction=0.2, seed=17)
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    assert sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=200_000
    ), "lossy batched run must converge"

    print("\n-- production parity demo (batch 8, drop 15%, checkpoint 25) --")
    print(f"messages/command: {sim.metrics.total_messages / 150:.1f}")
    print(f"reliability: {cluster.retransmission_stats()}")
    print(f"checkpoints: {cluster.checkpoint_stats()}")
    print(f"peak retained history now: {cluster.retained_state()}")
    states = {replica.machine.snapshot() for replica in replicas}
    assert len(states) == 1, "replicas must converge"
    retained = cluster.retained_state()
    assert retained["acceptor vval"] < 150, "history must be truncated"
    print("all replicas converged with window-bounded retained history")


if __name__ == "__main__":
    main()
    production_parity_demo()
