"""Edge paths of the protocol engines: nacks, adoption, stale messages."""

from repro.core.generalized import build_generalized
from repro.core.messages import ANY, Learned, Nack, Phase1a, Phase2a
from repro.core.multicoordinated import build_consensus
from repro.core.reliability import BatchingConfig
from repro.core.rounds import ZERO
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict
from tests.conftest import cmd

A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)


def test_any_is_a_singleton():
    from repro.core.messages import _AnyValue

    assert _AnyValue() is ANY
    assert repr(ANY) == "ANY"


def test_acceptor_nacks_stale_1a():
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    high = cluster.config.schedule.make_round(1, 2, 1)
    cluster.start_round(high, coordinator=1)
    sim.run(until=10)
    low = cluster.config.schedule.make_round(0, 1, 1)
    acceptor = cluster.acceptors[0]
    acceptor.deliver(Phase1a(low), "coord0")
    sim.run(until=15)
    # The stale coordinator learns about the higher round via the nack.
    assert cluster.coordinators[0].highest_seen >= high


def test_acceptor_nacks_stale_2a():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(kv_conflict()))
    high = cluster.config.schedule.make_round(1, 2, 1)
    cluster.start_round(high, coordinator=1)
    sim.run(until=10)
    low = cluster.config.schedule.make_round(0, 1, 1)
    stale = Phase2a(low, CommandHistory.bottom(kv_conflict()))
    cluster.acceptors[0].deliver(stale, "coord0")
    sim.run(until=15)
    assert cluster.coordinators[0].highest_seen >= high


def test_coordinator_adopts_round_via_1b():
    """A coordinator of a multicoordinated round joins when 1b arrive,
    even though another coordinator sent the 1a."""
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    rnd = cluster.config.schedule.make_round(0, 1, 2)
    cluster.start_round(rnd)  # coordinator 0 sends the 1a
    sim.run(until=10)
    assert cluster.coordinators[1].crnd == rnd
    assert cluster.coordinators[2].crnd == rnd


def test_learned_notification_clears_unserved():
    sim = Simulation(seed=1)
    cluster = build_generalized(
        sim, bottom=CommandHistory.bottom(kv_conflict())
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    sim.run(until=sim.clock + 5)  # let the Learned notifications arrive
    for coordinator in cluster.coordinators:
        assert A not in coordinator._unserved
        assert A in coordinator._learned_cmds


def test_learned_message_handled_even_without_liveness():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(kv_conflict()))
    cluster.coordinators[0].deliver(Learned((A,)), "learn0")
    assert A in cluster.coordinators[0]._learned_cmds


def test_duplicate_propose_is_idempotent():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(kv_conflict()))
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    for _ in range(3):
        cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    coordinator = cluster.coordinators[0]
    assert coordinator.known_cmds.count(A) == 1


def test_acceptor_ignores_duplicate_2a_content():
    sim = Simulation(seed=1, network=NetworkConfig(duplicate_rate=0.6))
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(kv_conflict()))
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    # Exactly one acceptance batch per acceptor despite duplicates.
    for acceptor in cluster.acceptors:
        assert acceptor.storage.write_counts["vval"] <= 2


def test_consensus_cluster_decision_none_before_learning():
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    assert cluster.decision() is None
    assert cluster.decided_values() == []


def test_zero_round_never_adopted():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(kv_conflict()))
    assert cluster.coordinators[0].crnd == ZERO
    assert cluster.acceptors[0].rnd == ZERO
    cluster.propose(A, delay=5.0)
    sim.run(until=20)
    # Without a started round nothing can be accepted or learned.
    assert all(a.vval.is_bottom() for a in cluster.acceptors)
    assert all(l.learned.is_bottom() for l in cluster.learners)


def test_nack_carries_higher_round():
    """A stale 1a draws a Nack naming the acceptor's own, higher round."""
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    acceptor = cluster.acceptors[0]
    high = cluster.config.schedule.make_round(1, 5, 1)
    acceptor.deliver(Phase1a(high), "coord1")
    nacks = []

    def observe(src, dst, msg):
        if isinstance(msg, Nack):
            nacks.append((dst, msg))
        return False

    sim.network.add_drop_filter(observe)
    acceptor.deliver(Phase1a(cluster.config.schedule.make_round(0, 1, 1)), "coord0")
    assert nacks == [("coord0", Nack(high))]


def test_simulation_is_deterministic_per_seed():
    def run(seed):
        sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.8))
        cluster = build_generalized(
            sim, bottom=CommandHistory.bottom(kv_conflict()), n_proposers=2
        )
        cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
        cluster.propose(A, delay=5.0, proposer=0)
        cluster.propose(B, delay=5.0, proposer=1)
        cluster.run_until_delivered([A, B], timeout=1000)
        return (
            str(cluster.learners[0].learned),
            sim.metrics.total_messages,
            sim.clock,
        )

    assert run(3) == run(3)


def test_crashed_gen_proposer_accepts_nothing():
    """A command proposed to a crashed batching proposer is a lost client
    message: buffered, it would arm a flush timer that fires dead and is
    never cleared, and every partial batch after recovery would wait
    behind it forever."""
    sim = Simulation(seed=1)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_proposers=1,
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    proposer = cluster.proposers[0]
    sim.schedule(5.0, proposer.crash)
    cluster.propose(A, delay=6.0)
    sim.schedule(10.0, proposer.recover)
    cluster.propose(B, delay=12.0)
    assert cluster.run_until_delivered([B], timeout=500)
    assert proposer._flush_timer is None
    assert not any(learner.has_delivered(A) for learner in cluster.learners)
