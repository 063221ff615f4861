"""Fast Paxos baseline (Section 2.2)."""

import pytest

from repro.protocols.fast import F_ANY, build_fast_paxos, _pick, F1b, FastConfig
from repro.core.topology import Topology
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import cmd

A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)


def deploy(seed=1, jitter=0.0, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_fast_paxos(sim, **kwargs)
    return sim, cluster


def test_fast_decision_two_steps():
    sim, cluster = deploy(n_acceptors=4)
    cluster.start_round(1)
    sim.run(until=10)
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_decided(timeout=100)
    assert sim.metrics.latency_of(A) == 2.0


def test_classic_round_decision_three_steps():
    sim, cluster = deploy(n_acceptors=4, fast_rounds=lambda r: False)
    cluster.start_round(1)
    sim.run(until=10)
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_decided(timeout=100)
    assert sim.metrics.latency_of(A) == 3.0


def test_any_value_broadcast_in_fast_round():
    sim, cluster = deploy(n_acceptors=4)
    cluster.start_round(1)
    sim.run(until=10)
    assert cluster.coordinators[0].sent
    assert all(1 in acc._any_open for acc in cluster.acceptors)


def test_fast_quorum_larger_than_classic():
    sim, cluster = deploy(n_acceptors=4)
    assert cluster.config.fast_quorum_size == 3
    assert cluster.config.classic_quorum_size == 3
    sim, cluster = deploy(n_acceptors=8)
    assert cluster.config.fast_quorum_size == 6
    assert cluster.config.classic_quorum_size == 5


def test_fast_round_needs_fast_quorum_of_acceptors():
    sim, cluster = deploy(n_acceptors=4)  # E=1: tolerate one failure
    cluster.start_round(1)
    sim.run(until=10)
    cluster.acceptors[0].crash()
    cluster.acceptors[1].crash()  # two failures exceed E
    cluster.propose(A, delay=1.0)
    assert not cluster.run_until_decided(timeout=100)


def test_one_acceptor_failure_still_fast():
    sim, cluster = deploy(n_acceptors=4)
    cluster.start_round(1)
    sim.run(until=10)
    cluster.acceptors[0].crash()
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_decided(timeout=100)


def test_collision_then_coordinated_recovery_decides():
    recovered_runs = 0
    for seed in range(20):
        sim, cluster = deploy(
            seed=seed, jitter=0.9, n_acceptors=4, n_proposers=2,
            fast_rounds=lambda r: r == 1,
        )
        cluster.start_round(1)
        cluster.propose(A, delay=6.0, proposer=0)
        cluster.propose(B, delay=6.0, proposer=1)
        assert cluster.run_until_decided(timeout=500), f"seed {seed}"
        assert cluster.decision() in (A, B)
        recovered_runs += bool(
            sum(c.collisions_recovered for c in cluster.coordinators)
        )
    assert recovered_runs > 0


def test_collision_then_uncoordinated_recovery_decides():
    for seed in range(20):
        sim, cluster = deploy(
            seed=seed, jitter=0.9, n_acceptors=4, n_proposers=2,
            uncoordinated=True, fast_rounds=lambda r: True,
        )
        cluster.start_round(1)
        cluster.propose(A, delay=6.0, proposer=0)
        cluster.propose(B, delay=6.0, proposer=1)
        assert cluster.run_until_decided(timeout=500), f"seed {seed}"


def test_collision_then_restart_recovery_decides():
    for seed in range(20):
        sim, cluster = deploy(
            seed=seed, jitter=0.9, n_acceptors=4, n_proposers=2,
            fast_rounds=lambda r: r == 1, recovery="restart",
        )
        cluster.start_round(1)
        cluster.propose(A, delay=6.0, proposer=0)
        cluster.propose(B, delay=6.0, proposer=1)
        assert cluster.run_until_decided(timeout=500), f"seed {seed}"


def test_fast_collision_wastes_disk_writes():
    """Section 4.2: the losing value was accepted, hence written to disk."""
    wasted_seen = False
    for seed in range(20):
        sim, cluster = deploy(
            seed=seed, jitter=0.9, n_acceptors=4, n_proposers=2,
            fast_rounds=lambda r: r == 1,
        )
        cluster.start_round(1)
        cluster.propose(A, delay=6.0, proposer=0)
        cluster.propose(B, delay=6.0, proposer=1)
        assert cluster.run_until_decided(timeout=500)
        if not sum(c.collisions_recovered for c in cluster.coordinators):
            continue
        decision = cluster.decision()
        wasted = sum(
            sum(1 for _, val in acc.accept_log if val != decision)
            for acc in cluster.acceptors
        )
        assert wasted >= 1
        wasted_seen = True
    assert wasted_seen


def test_consecutive_rounds_share_owner():
    topology = Topology.build(1, 2, 4, 1)
    config = FastConfig(
        topology=topology, n_acceptors=4, f=1, e=1, fast_rounds=lambda r: True
    )
    assert config.owner(1) == config.owner(2) == 0
    assert config.owner(3) == config.owner(4) == 1
    assert config.owner(5) == 0


def test_pick_rule_free_on_initial_state():
    topology = Topology.build(1, 1, 4, 1)
    config = FastConfig(
        topology=topology, n_acceptors=4, f=1, e=1, fast_rounds=lambda r: True
    )
    msgs = {f"acc{i}": F1b(2, 0, None) for i in range(3)}
    assert _pick(config, msgs).free


def test_pick_rule_dominant_value():
    topology = Topology.build(1, 1, 4, 1)
    config = FastConfig(
        topology=topology, n_acceptors=4, f=1, e=1, fast_rounds=lambda r: r == 1
    )
    msgs = {
        "acc0": F1b(2, 1, A),
        "acc1": F1b(2, 1, A),
        "acc2": F1b(2, 1, A),
        "acc3": F1b(2, 1, B),
    }
    pick = _pick(config, msgs)
    assert not pick.free and pick.value == A


def test_learner_consistency_assertion():
    sim, cluster = deploy(n_acceptors=4)
    cluster.start_round(1)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_decided(timeout=100)
    from repro.protocols.fast import F2b

    learner = cluster.learners[0]
    with pytest.raises(AssertionError):
        for acc in ["acc0", "acc1", "acc2"]:
            learner.on_f2b(F2b(5, B), acc)
