"""Classic Paxos baseline (Section 2.1): multi-instance SMR protocol."""

import pytest

from repro.core.liveness import LivenessConfig
from repro.protocols.classic import NOOP, build_classic_paxos
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import cmd

A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)
C = cmd("c", "put", "y", 3)


def deploy(seed=1, liveness=None, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig())
    cluster = build_classic_paxos(sim, liveness=liveness, **kwargs)
    return sim, cluster


def test_single_command_three_steps_steady_state():
    sim, cluster = deploy()
    cluster.start_round(1)
    sim.run(until=10)  # phase 1 for all instances completes
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_delivered([A], timeout=100)
    assert sim.metrics.latency_of(A) == 3.0


def test_commands_delivered_in_same_order_at_all_learners():
    sim, cluster = deploy(n_learners=3)
    cluster.start_round(1)
    for i, command in enumerate([A, B, C]):
        cluster.propose(command, delay=5.0 + 2 * i)
    assert cluster.run_until_delivered([A, B, C], timeout=300)
    orders = [learner.delivered for learner in cluster.learners]
    assert all(order == orders[0] for order in orders)


def test_one_instance_per_command():
    sim, cluster = deploy()
    cluster.start_round(1)
    for i, command in enumerate([A, B, C]):
        cluster.propose(command, delay=5.0 + 2 * i)
    assert cluster.run_until_delivered([A, B, C], timeout=300)
    decided = cluster.learners[0].decided
    assert sorted(decided) == [0, 1, 2]
    assert set(decided.values()) == {A, B, C}


def test_duplicate_proposals_assigned_once():
    sim, cluster = deploy()
    cluster.start_round(1)
    cluster.propose(A, delay=5.0)
    cluster.propose(A, delay=9.0)
    assert cluster.run_until_delivered([A], timeout=200)
    sim.run(until=sim.clock + 30)
    values = list(cluster.learners[0].decided.values())
    assert values.count(A) == 1


def test_leader_failover_with_failure_detector():
    sim, cluster = deploy(liveness=LivenessConfig())
    cluster.propose(A, delay=10.0)
    assert cluster.run_until_delivered([A], timeout=1000)
    cluster.coordinators[0].crash()
    cluster.propose(B, delay=5.0)
    assert cluster.run_until_delivered([B], timeout=2000)
    assert cluster.learners[0].delivered == [A, B]


def test_new_leader_completes_chosen_but_unfinished_instances():
    """The new leader re-proposes values found in phase 1b answers."""
    sim, cluster = deploy(liveness=LivenessConfig())
    cluster.propose(A, delay=10.0)
    assert cluster.run_until_delivered([A], timeout=1000)
    # Crash the leader right after it assigns B to an instance but while
    # the 2a messages may still be undelivered to some learners.
    cluster.propose(B, delay=1.0)
    leader = cluster.coordinators[0]
    sim.run_until(lambda: 1 in leader.assigned or B in leader.assigned.values(), timeout=200)
    leader.crash()
    assert cluster.run_until_delivered([B], timeout=3000)
    assert cluster.learners[0].delivered == [A, B]


def test_gap_filled_with_noop_after_failover():
    """Instances left empty by a dead leader are closed with no-ops."""
    sim, cluster = deploy(liveness=LivenessConfig(), n_acceptors=3)
    cluster.propose(A, delay=10.0)
    assert cluster.run_until_delivered([A], timeout=1000)
    leader = cluster.coordinators[0]
    # Manually poke an instance assignment whose 2a never goes out: crash
    # the leader while cutting it off from all acceptors.
    for acc in cluster.acceptors:
        sim.network.block(leader.pid, acc.pid)
    cluster.propose(B, delay=1.0)
    sim.run(until=sim.clock + 5)
    leader.crash()
    sim.network.heal()
    assert cluster.run_until_delivered([B], timeout=3000)
    delivered = cluster.learners[0].delivered
    assert delivered[0] == A and B in delivered
    assert NOOP not in delivered  # no-ops close instances silently


def test_acceptor_minority_failure_tolerated():
    sim, cluster = deploy(n_acceptors=5)
    cluster.start_round(1)
    sim.run(until=10)
    cluster.acceptors[0].crash()
    cluster.acceptors[1].crash()
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_delivered([A], timeout=200)


def test_acceptor_majority_failure_blocks():
    sim, cluster = deploy(n_acceptors=3)
    cluster.start_round(1)
    sim.run(until=10)
    cluster.acceptors[0].crash()
    cluster.acceptors[1].crash()
    cluster.propose(A, delay=1.0)
    assert not cluster.run_until_delivered([A], timeout=200)


def test_acceptor_recovery_restores_votes():
    sim, cluster = deploy()
    cluster.start_round(1)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    acceptor = cluster.acceptors[0]
    acceptor.crash()
    acceptor.recover()
    assert acceptor.rnd == 1
    assert acceptor.votes[0] == (1, A)


def test_round_ownership_round_robin():
    sim, cluster = deploy(n_coordinators=3)
    owners = [cluster.coordinators[(r - 1) % 3] for r in (1, 2, 3)]
    assert [c.owns(r) for c, r in zip(owners, (1, 2, 3))] == [True] * 3
    assert not cluster.coordinators[0].owns(2)
    assert cluster.coordinators[0].my_round_above(1) == 4


def test_start_round_validation():
    sim, cluster = deploy(n_coordinators=3)
    with pytest.raises(ValueError):
        cluster.coordinators[0].start_round(2)  # not the owner
    cluster.coordinators[0].start_round(1)
    with pytest.raises(ValueError):
        cluster.coordinators[0].start_round(1)  # not above current


def test_consistency_assertion_guards_instances():
    sim, cluster = deploy()
    cluster.start_round(1)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    learner = cluster.learners[0]
    from repro.protocols.classic import C2b

    with pytest.raises(AssertionError):
        for i, acc in enumerate(["acc0", "acc1", "acc2"]):
            learner.on_c2b(C2b(rnd=9, instance=0, val=B), acc)
