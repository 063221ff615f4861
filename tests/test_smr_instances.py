"""Multicoordinated MultiPaxos: one consensus instance per command."""

import pytest

from repro.core.liveness import LivenessConfig
from repro.core.rounds import ZERO, RoundId
from repro.cstruct.commands import Command
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import NOOP, build_smr
from repro.smr.machine import KVStore
from repro.smr.replica import Replica
from tests.conftest import cmd


def deploy(seed=1, jitter=0.0, liveness=None, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_smr(sim, liveness=liveness, **kwargs)
    return sim, cluster


def start_multi(cluster, count=1):
    rnd = cluster.config.schedule.make_round(coord=0, count=count, rtype=2)
    cluster.start_round(rnd)
    return rnd


def make_cmds(n, key_prefix="k"):
    return [cmd(f"c{i}", "put", f"{key_prefix}{i}", i) for i in range(n)]


def test_sequential_commands_three_steps_each():
    sim, cluster = deploy()
    start_multi(cluster)
    sim.run(until=10)
    commands = make_cmds(4)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=1.0 + 3 * i)
    assert cluster.run_until_delivered(commands, timeout=500)
    assert all(sim.metrics.latency_of(c) == 3.0 for c in commands)


def test_learners_deliver_identical_total_order():
    sim, cluster = deploy(n_learners=3, jitter=0.6, seed=9, n_proposers=2)
    start_multi(cluster)
    commands = make_cmds(6)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * (i // 2))
    assert cluster.run_until_delivered(commands, timeout=3000)
    orders = [learner.delivered for learner in cluster.learners]
    assert all(order == orders[0] for order in orders)


def test_each_command_delivered_exactly_once():
    sim, cluster = deploy(n_proposers=2, jitter=0.8, seed=4, liveness=LivenessConfig())
    start_multi(cluster)
    commands = make_cmds(8)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * (i // 2))
    assert cluster.run_until_delivered(commands, timeout=3000)
    delivered = cluster.learners[0].delivered
    assert sorted(delivered, key=str) == sorted(commands, key=str)


def test_coordinator_crash_does_not_stall_multicoordinated_round():
    sim, cluster = deploy()
    start_multi(cluster)
    sim.run(until=10)
    cluster.coordinators[1].crash()
    commands = make_cmds(3)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=1.0 + 3 * i)
    assert cluster.run_until_delivered(commands, timeout=500)


def test_leader_crash_recovered_by_failure_detector():
    sim, cluster = deploy(liveness=LivenessConfig(), seed=3)
    start_multi(cluster)
    commands = make_cmds(10)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 4 * i)
    sim.schedule(15, lambda: cluster.coordinators[0].crash())
    assert cluster.run_until_delivered(commands, timeout=5000)


def test_instance_races_resolved_with_load_balancing():
    decided_all = 0
    for seed in range(8):
        sim, cluster = deploy(
            seed=seed, jitter=0.8, n_proposers=2, n_acceptors=5,
            liveness=LivenessConfig(),
        )
        cluster.set_load_balancing(True)
        start_multi(cluster)
        commands = make_cmds(8)
        for i, command in enumerate(commands):
            cluster.propose(command, delay=5.0 + 2 * (i // 2))
        assert cluster.run_until_delivered(commands, timeout=3000), f"seed {seed}"
        decided_all += 1
    assert decided_all == 8


def test_load_balancing_bounds_acceptor_load():
    """E4's acceptor claim, end-to-end: no acceptor sees every command."""
    sim, cluster = deploy(n_proposers=2, n_acceptors=5, liveness=LivenessConfig())
    cluster.set_load_balancing(True)
    start_multi(cluster)
    commands = make_cmds(30)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered(commands, timeout=10_000)
    loads = [a.commands_accepted / len(commands) for a in cluster.acceptors]
    assert max(loads) < 1.0
    assert max(loads) <= 0.5 + 1 / 5 + 0.15  # bound + racing slack


def test_replica_execution_matches_across_learners():
    sim, cluster = deploy(n_learners=2, seed=2)
    start_multi(cluster)
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    commands = [
        cmd("1", "put", "x", 1),
        cmd("2", "inc", "x", 5),
        cmd("3", "cas", "x", (6, 7)),
    ]
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 3 * i)
    assert cluster.run_until_delivered(commands, timeout=500)
    assert replicas[0].machine.snapshot() == replicas[1].machine.snapshot()
    assert replicas[0].machine.get("x") == 7


def test_acceptor_recovery_preserves_votes():
    sim, cluster = deploy(liveness=LivenessConfig())
    start_multi(cluster)
    commands = make_cmds(3)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 3 * i)
    assert cluster.run_until_delivered(commands, timeout=500)
    acceptor = cluster.acceptors[0]
    votes_before = dict(acceptor.votes)
    acceptor.crash()
    acceptor.recover()
    assert acceptor.votes == votes_before


def test_round_validation():
    sim, cluster = deploy()
    rnd = cluster.config.schedule.make_round(coord=0, count=1, rtype=2)
    with pytest.raises(ValueError):
        cluster.coordinators[0].start_round(ZERO)
    cluster.coordinators[0].start_round(rnd)
    with pytest.raises(ValueError):
        cluster.coordinators[0].start_round(rnd)


def test_noop_never_delivered():
    sim, cluster = deploy(liveness=LivenessConfig(), seed=6, jitter=0.8, n_proposers=2)
    start_multi(cluster)
    commands = make_cmds(6)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * (i // 2))
    assert cluster.run_until_delivered(commands, timeout=3000)
    assert NOOP not in cluster.learners[0].delivered


def test_learner_detects_conflicting_decision():
    sim, cluster = deploy()
    start_multi(cluster)
    commands = make_cmds(1)
    cluster.propose(commands[0], delay=5.0)
    assert cluster.run_until_delivered(commands, timeout=500)
    from repro.smr.instances import I2b

    learner = cluster.learners[0]
    bad = cmd("evil", "put", "x", 666)
    rnd = RoundId(0, 9, 0, 1)
    with pytest.raises(AssertionError):
        for acc in ["acc0", "acc1", "acc2"]:
            learner.on_i2b(I2b(rnd, 0, bad, acc), acc)
