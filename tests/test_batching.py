"""Batching + pipelining layer: the multi-instance SMR engine."""

import pytest

from repro.core.reliability import UNBATCHED
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import Client
from repro.smr.instances import RETRY_LANE, Batch, BatchingConfig, build_smr
from repro.smr.machine import KVStore
from repro.smr.replica import Replica
from tests.conftest import cmd


def deploy(batching, seed=1, jitter=0.0, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_smr(sim, batching=batching, **kwargs)
    rnd = cluster.config.schedule.make_round(coord=0, count=1, rtype=2)
    cluster.start_round(rnd)
    return sim, cluster


def make_cmds(n):
    return [cmd(f"b{i}", "put", f"k{i}", i) for i in range(n)]


def test_batching_config_validation():
    """One config for both engines; ``pipeline_depth=None`` is unbounded."""
    with pytest.raises(ValueError):
        BatchingConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatchingConfig(flush_interval=0.0)
    with pytest.raises(ValueError):
        BatchingConfig(pipeline_depth=0)
    assert BatchingConfig(pipeline_depth=None).pipeline_depth is None
    assert UNBATCHED == BatchingConfig(max_batch=1, pipeline_depth=None)


# -- the instances engine --------------------------------------------------------


def test_size_triggered_flush_packs_one_instance():
    sim, cluster = deploy(BatchingConfig(max_batch=3, flush_interval=50.0))
    sim.run(until=10)
    commands = make_cmds(3)
    for command in commands:
        cluster.propose(command, delay=1.0, proposer=0)
    assert cluster.run_until_delivered(commands, timeout=500)
    # All three commands rode one batch in one instance: the flush happened
    # at proposal time (size trigger), not at the long timeout.
    proposer = cluster.proposers[0]
    assert proposer.batches_sent == 1
    decided = cluster.learners[0].decided
    assert decided[0] == Batch(tuple(commands))
    assert cluster.learners[0].delivered == commands


def test_timeout_flush_ships_partial_batch():
    batching = BatchingConfig(max_batch=8, flush_interval=4.0)
    sim, cluster = deploy(batching)
    sim.run(until=10)  # phase 1 completes; the queue drains early
    start = sim.clock
    commands = make_cmds(2)  # fewer than max_batch: only the timer flushes
    for command in commands:
        cluster.propose(command, delay=1.0, proposer=0)
    sim.run(until=start + 2)  # past the proposals, before the flush deadline
    assert cluster.proposers[0].batches_sent == 0  # still buffering
    assert cluster.run_until_delivered(commands, timeout=500)
    assert cluster.proposers[0].batches_sent == 1
    # Delivery waited for the flush timer: latency >= flush_interval.
    assert all(sim.metrics.latency_of(c) >= batching.flush_interval for c in commands)


def test_size_and_timeout_triggers_mix():
    """A full batch flushes immediately; the remainder flushes on time."""
    batching = BatchingConfig(max_batch=4, flush_interval=5.0)
    sim, cluster = deploy(batching)
    sim.run(until=10)
    commands = make_cmds(6)  # one full batch of 4 + partial batch of 2
    for command in commands:
        cluster.propose(command, delay=1.0, proposer=0)
    assert cluster.run_until_delivered(commands, timeout=500)
    proposer = cluster.proposers[0]
    assert proposer.batches_sent == 2
    learner = cluster.learners[0]
    assert learner.decided[0] == Batch(tuple(commands[:4]))
    assert learner.decided[1] == Batch(tuple(commands[4:]))
    assert learner.delivered == commands
    full = [sim.metrics.latency_of(c) for c in commands[:4]]
    partial = [sim.metrics.latency_of(c) for c in commands[4:]]
    assert max(full) < batching.flush_interval
    assert min(partial) >= batching.flush_interval


def test_explicit_flush_ships_buffered_commands():
    sim, cluster = deploy(BatchingConfig(max_batch=100, flush_interval=1000.0))
    sim.run(until=10)
    commands = make_cmds(3)
    for command in commands:
        cluster.propose(command, delay=1.0, proposer=0)
    sim.run(until=12)
    assert cluster.proposers[0].batches_sent == 0
    cluster.flush()
    assert cluster.run_until_delivered(commands, timeout=500)


def test_pipeline_window_bounds_inflight_instances():
    depth = 2
    sim, cluster = deploy(
        BatchingConfig(max_batch=1, flush_interval=1.0, pipeline_depth=depth)
    )
    max_inflight = 0

    def watch(_sim):
        nonlocal max_inflight
        for coordinator in cluster.coordinators:
            max_inflight = max(max_inflight, len(coordinator.assigned))

    sim.add_invariant_check(watch)
    sim.run(until=10)
    commands = make_cmds(10)
    for command in commands:
        cluster.propose(command, delay=1.0, proposer=0)  # all at once
    assert cluster.run_until_delivered(commands, timeout=2000)
    assert max_inflight == depth  # full window used, never exceeded
    assert cluster.learners[0].delivered == commands


def test_batched_engine_uses_fewer_messages_and_events():
    commands = make_cmds(24)

    def run(batching):
        sim, cluster = deploy(batching, seed=3)
        sim.run(until=10)
        for i, command in enumerate(commands):
            cluster.propose(command, delay=1.0 + 0.5 * i)
        assert cluster.run_until_delivered(commands, timeout=5000)
        return sim.metrics.total_messages, sim.events_processed

    unbatched_msgs, unbatched_events = run(UNBATCHED)
    batched_msgs, batched_events = run(BatchingConfig(max_batch=8, flush_interval=2.0))
    assert batched_msgs < unbatched_msgs / 2
    assert batched_events < unbatched_events / 2


def test_batched_delivery_order_identical_across_learners():
    sim, cluster = deploy(
        BatchingConfig(max_batch=3, flush_interval=2.0, pipeline_depth=2),
        n_learners=3,
        n_proposers=2,
        jitter=0.6,
        seed=9,
    )
    commands = make_cmds(12)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + (i % 3))
    assert cluster.run_until_delivered(commands, timeout=5000)
    orders = [learner.delivered for learner in cluster.learners]
    assert all(order == orders[0] for order in orders)
    assert sorted(orders[0], key=str) == sorted(commands, key=str)


def test_batched_replica_execution_matches_unbatched_state():
    operations = [
        cmd("1", "put", "x", 1),
        cmd("2", "inc", "x", 5),
        cmd("3", "cas", "x", (6, 7)),
        cmd("4", "inc", "y"),
        cmd("5", "put", "z", "v"),
    ]

    def final_state(batching):
        sim, cluster = deploy(batching, seed=2)
        replica = Replica(cluster.learners[0], KVStore())
        for i, operation in enumerate(operations):
            cluster.propose(operation, delay=5.0 + i, proposer=0)
        assert cluster.run_until_delivered(operations, timeout=1000)
        return replica.machine.snapshot()

    assert final_state(UNBATCHED) == final_state(
        BatchingConfig(max_batch=2, flush_interval=3.0)
    )


def test_proposer_recovery_reships_buffered_batch():
    """A crash with commands buffered loses them: a proposer keeps no
    stable state, so it recovers empty, and the client's resubmission is
    what ships the batch again."""
    sim, cluster = deploy(BatchingConfig(max_batch=10, flush_interval=100.0), n_proposers=1)
    sim.run(until=10)
    client = Client("c", cluster, retry_interval=20.0)
    client.watch_learner(cluster.learners[0])
    commands = make_cmds(3)
    for command in commands:
        client.issue(command, delay=1.0)
    sim.run(until=sim.clock + 2)  # buffered, crash before the flush deadline
    proposer = cluster.proposers[0]
    assert proposer._buffer == commands
    proposer.crash()
    proposer.recover()
    assert proposer._buffer == [] and proposer.batches_sent == 0  # recovered empty
    assert cluster.run_until_delivered(commands, timeout=500)
    assert proposer.batches_sent == 1
    assert cluster.learners[0].delivered == commands
    assert set(client.retries) == set(commands)


def test_batch_survives_coordinator_crash():
    sim, cluster = deploy(
        BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=2),
        seed=3,
    )
    commands = make_cmds(8)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * i)
    sim.schedule(15, lambda: cluster.coordinators[0].crash())
    assert cluster.run_until_delivered(commands, timeout=5000)


# -- retransmission-aware flow control (the reserved retry lane) --------------


def test_retry_lane_reserved_slots():
    """A full fresh pipeline must not block retries, and vice versa.

    Phase 1 completes on the live network first; then the acceptors are
    silenced so nothing decides -- assignments stay in flight and the
    window accounting is directly observable.
    """
    from repro.smr.instances import IPropose

    sim, cluster = deploy(BatchingConfig(max_batch=1, flush_interval=1.0, pipeline_depth=2))
    sim.run(until=10)  # phase 1 completes on the live network
    coordinator = cluster.coordinators[0]
    assert coordinator.phase1_done
    # Now cut the acceptors off so no instance can decide.
    sim.network.add_drop_filter(lambda src, dst, msg: str(dst).startswith("acc"))
    fresh = make_cmds(5)
    for i, command in enumerate(fresh):
        coordinator.on_ipropose(IPropose(command), "prop0")
    sim.run(until=sim.clock + 1)
    # The fresh window (2) is full; the surplus waits in the fresh queue.
    assert len(coordinator.assigned) == 2
    assert len(coordinator.pending) == 3
    # Retries still get through: they are served from the reserved lane.
    for i in range(RETRY_LANE):
        coordinator.on_ipropose(IPropose(cmd(f"r{i}", "put", "retry", i), retry=True), "prop0")
    assert len(coordinator.assigned) == 2 + RETRY_LANE
    assert len(coordinator._retry_inflight) == RETRY_LANE
    assert not coordinator.pending_retry
    # The retry lane is bounded too: one retry more waits.
    surplus = cmd("r-surplus", "put", "retry", -1)
    coordinator.on_ipropose(IPropose(surplus, retry=True), "prop0")
    assert len(coordinator.assigned) == 2 + RETRY_LANE
    assert [p.cmd for p in coordinator.pending_retry] == [surplus]


def test_retry_lane_served_before_fresh_backlog():
    """Draining order: recovery traffic first, then fresh proposals."""
    from repro.smr.instances import IPropose

    sim, cluster = deploy(BatchingConfig(max_batch=1, flush_interval=1.0, pipeline_depth=1))
    sim.run(until=10)
    coordinator = cluster.coordinators[0]
    sim.network.add_drop_filter(lambda src, dst, msg: str(dst).startswith("acc"))
    blocker = cmd("f0", "put", "x", 0)
    coordinator.on_ipropose(IPropose(blocker), "prop0")  # fills the window
    backlog = cmd("f1", "put", "x", 1)
    coordinator.on_ipropose(IPropose(backlog), "prop0")  # queued fresh
    retried = cmd("r0", "put", "x", 2)
    coordinator.on_ipropose(IPropose(retried, retry=True), "prop0")
    # The retry was assigned ahead of the queued fresh command.
    assert retried in coordinator._assigned_cmds
    assert backlog not in coordinator._assigned_cmds


def test_loss_recovery_throughput_with_retry_lane():
    """End to end under loss: retries and fresh traffic both complete."""
    from repro.smr.instances import RetransmitConfig

    sim = Simulation(
        seed=5, network=NetworkConfig(drop_rate=0.25), max_events=4_000_000
    )
    cluster = build_smr(
        sim,
        batching=BatchingConfig(max_batch=2, flush_interval=1.5, pipeline_depth=2),
        retransmit=RetransmitConfig(retry_interval=4.0),
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    commands = make_cmds(24)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + i)
    assert cluster.run_until_delivered(commands, timeout=20_000)
    orders = [tuple(learner.delivered) for learner in cluster.learners]
    assert all(order == orders[0] for order in orders)
