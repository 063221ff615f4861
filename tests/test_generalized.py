"""Multicoordinated Generalized Paxos (Section 3.2)."""

import pytest

from repro.core.checkpoint import RetransmitConfig
from repro.core.generalized import build_generalized
from repro.core.invariants import attach_generalized_oracle
from repro.core.messages import Phase2aDelta
from repro.core.reliability import BatchingConfig
from repro.core.rounds import RoundSchedule
from repro.cstruct.commands import KeyConflict
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import ENGINES, cmd

REL = KeyConflict()
A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)
C = cmd("c", "put", "y", 3)
D = cmd("d", "put", "z", 4)
GENERALIZED = next(engine for engine in ENGINES if engine.name == "generalized")


def deploy(seed=1, jitter=0.0, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_generalized(
        sim, bottom=CommandHistory.bottom(REL), **kwargs
    )
    return sim, cluster


def start(cluster, rtype, coord=0, count=1):
    rnd = cluster.config.schedule.make_round(coord=coord, count=count, rtype=rtype)
    cluster.start_round(rnd)
    return rnd


# -- learning in each round kind -----------------------------------------------


@pytest.mark.parametrize("rtype", [1, 2])
def test_classic_rounds_learn_all_commands(rtype):
    sim, cluster = deploy()
    oracle = attach_generalized_oracle(sim, cluster, [A, B, C])
    start(cluster, rtype)
    for i, command in enumerate([A, B, C]):
        cluster.propose(command, delay=5.0 + 3 * i)
    assert cluster.run_until_delivered([A, B, C], timeout=300)
    for learner in cluster.learners:
        assert learner.learned.command_set() == {A, B, C}


def test_classic_latency_is_three_steps():
    sim, cluster = deploy()
    start(cluster, 2)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=100)
    assert sim.metrics.latency_of(A) == 3.0


def test_fast_round_latency_is_two_steps():
    sim, cluster = deploy(n_acceptors=4)
    start(cluster, 0)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=100)
    assert sim.metrics.latency_of(A) == 2.0


def test_conflicting_commands_learned_in_same_order_everywhere():
    sim, cluster = deploy(n_learners=3)
    start(cluster, 2)
    cluster.propose(A, delay=5.0)
    cluster.propose(B, delay=9.0)
    assert cluster.run_until_delivered([A, B], timeout=300)
    orders = [
        [c for c in learner.learned.linear_extension() if c in (A, B)]
        for learner in cluster.learners
    ]
    assert all(order == orders[0] for order in orders)


def test_learned_histories_pairwise_compatible_under_jitter():
    sim, cluster = deploy(seed=7, jitter=1.0, n_learners=3, n_proposers=3)
    oracle = attach_generalized_oracle(sim, cluster, [A, B, C, D])
    start(cluster, 2)
    for i, command in enumerate([A, B, C, D]):
        cluster.propose(command, delay=5.0 + i)
    cluster.run_until_delivered([A, B, C, D], timeout=1000)
    values = cluster.learned_structs()
    for i, left in enumerate(values):
        for right in values[i + 1 :]:
            assert left.is_compatible(right)


# -- multicoordination: availability and glb-based acceptance ----------------------


def test_multicoordinated_round_survives_coordinator_crash():
    sim, cluster = deploy()
    start(cluster, 2)
    sim.run(until=10)
    cluster.coordinators[2].crash()
    cluster.propose(A, delay=1.0)
    assert cluster.run_until_delivered([A], timeout=100)


def test_multicoordinated_round_blocked_without_coord_quorum():
    """No coordinator quorum of the round is up, so the round cannot serve
    A; only the leader's single-coordinated recovery round (Section 4.3)
    does, once A has aged past ``stuck_timeout``."""
    sim, cluster = deploy()
    rnd = start(cluster, 2)
    sim.run(until=10)
    cluster.coordinators[1].crash()
    cluster.coordinators[2].crash()
    cluster.propose(A, delay=1.0)
    leader = cluster.coordinators[0]
    stuck_timeout = cluster.config.liveness.stuck_timeout
    assert not cluster.run_until_delivered([A], timeout=sim.clock + 1.0 + stuck_timeout)
    assert leader.rounds_started == 1 and leader.crnd == rnd
    assert cluster.run_until_delivered([A], timeout=200)
    assert leader.rounds_started == 2
    assert leader.crnd > rnd and leader.crnd.coord == 0 and leader.crnd.rtype == 1
    assert all(acceptor.vrnd == leader.crnd for acceptor in cluster.acceptors)


def test_acceptor_accepts_glb_of_coordinator_quorum():
    """With commuting commands, partial forwarding still makes progress."""
    sim, cluster = deploy()
    start(cluster, 2)
    sim.run(until=10)
    # A reaches only coordinators {0, 1}; C reaches only {1, 2}.  Each is
    # forwarded by a full quorum, so both must be learned.
    from repro.core.messages import ProposeBatch

    cluster.coordinators[0].deliver(ProposeBatch((A,), coord_quorum=frozenset({0, 1})), "test")
    cluster.coordinators[1].deliver(ProposeBatch((A,), coord_quorum=frozenset({0, 1})), "test")
    cluster.coordinators[1].deliver(ProposeBatch((C,), coord_quorum=frozenset({1, 2})), "test")
    cluster.coordinators[2].deliver(ProposeBatch((C,), coord_quorum=frozenset({1, 2})), "test")
    sim.metrics.record_propose(A, sim.clock)
    sim.metrics.record_propose(C, sim.clock)
    assert cluster.run_until_delivered([A, C], timeout=100)


# -- collisions (Section 4.2) ---------------------------------------------------------


def test_commuting_concurrent_commands_do_not_collide():
    sim, cluster = deploy(seed=3, jitter=1.0, n_proposers=2)
    start(cluster, 2)
    cluster.propose(C, delay=6.0, proposer=0)
    cluster.propose(D, delay=6.0, proposer=1)
    assert cluster.run_until_delivered([C, D], timeout=300)
    assert sum(a.collisions_detected for a in cluster.acceptors) == 0


def test_conflicting_concurrent_commands_collide_and_recover():
    collided = 0
    for seed in range(12):
        sim, cluster = deploy(seed=seed, jitter=1.0, n_proposers=2)
        oracle = attach_generalized_oracle(sim, cluster, [A, B])
        start(cluster, 2)
        cluster.propose(A, delay=6.0, proposer=0)
        cluster.propose(B, delay=6.0, proposer=1)
        assert cluster.run_until_delivered([A, B], timeout=1000), f"seed {seed}"
        collided += sum(a.collisions_detected for a in cluster.acceptors)
    assert collided > 0


def test_fast_round_collision_recovered_by_leader():
    sim, cluster = deploy(
        seed=4, jitter=1.0, n_proposers=2, n_acceptors=4,
    )
    oracle = attach_generalized_oracle(sim, cluster, [A, B])
    start(cluster, 0)
    cluster.propose(A, delay=6.0, proposer=0)
    cluster.propose(B, delay=6.0, proposer=1)
    assert cluster.run_until_delivered([A, B], timeout=2000)


# -- liveness (Section 4.3) -----------------------------------------------------------


def test_leader_bootstraps_first_round_on_demand():
    sim, cluster = deploy()
    cluster.propose(A, delay=5.0)  # no round started manually
    assert cluster.run_until_delivered([A], timeout=500)


def test_leader_crash_triggers_new_round():
    sim, cluster = deploy()
    start(cluster, 1)  # single-coordinated, owned by coordinator 0
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=500)
    cluster.coordinators[0].crash()
    cluster.propose(B, delay=1.0)
    assert cluster.run_until_delivered([B], timeout=2000)
    assert cluster.coordinators[1].rounds_started >= 1


def test_acceptor_recovery_rejoins_via_higher_mcount():
    sim, cluster = deploy()
    start(cluster, 1)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=500)
    acceptor = cluster.acceptors[0]
    acceptor.crash()
    sim.run(until=sim.clock + 5)
    acceptor.recover()
    assert acceptor.rnd.mcount == 1
    # Crash another acceptor: the recovered one is now needed for quorums.
    cluster.acceptors[1].crash()
    cluster.propose(B, delay=1.0)
    assert cluster.run_until_delivered([B], timeout=3000)
    assert acceptor.vval.contains(B)


# -- stability and incremental growth ---------------------------------------------------


def test_learned_only_grows():
    sim, cluster = deploy()
    snapshots = []

    def snapshot(sim_):
        snapshots.append(cluster.learners[0].learned)

    sim.add_invariant_check(snapshot)
    start(cluster, 2)
    for i, command in enumerate([A, C, B, D]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, B, C, D], timeout=500)
    for previous, current in zip(snapshots, snapshots[1:]):
        assert previous.leq(current)


def test_learn_callback_delivers_each_command_once():
    sim, cluster = deploy()
    delivered = []
    cluster.learners[0].on_deliver(delivered.append)
    start(cluster, 2)
    for i, command in enumerate([A, B, C]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, B, C], timeout=500)
    assert sorted(delivered, key=str) == sorted([A, B, C], key=str)
    assert len(delivered) == len(set(delivered))


def test_coordinator_keeps_no_stable_state():
    sim, cluster = deploy()
    start(cluster, 2)
    for i, command in enumerate([A, B, C]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, B, C], timeout=500)
    assert all(c.storage.write_count == 0 for c in cluster.coordinators)


def test_acceptor_writes_once_per_accept_batch():
    sim, cluster = deploy()
    start(cluster, 2)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=100)
    for acceptor in cluster.acceptors:
        assert acceptor.storage.write_counts["vval"] >= 1


# -- incremental learner frontier ----------------------------------------------


def test_redundant_2b_deliveries_fire_no_callbacks():
    """Duplicate/echoed "2b" messages must not refire learn events."""
    from repro.core.messages import Phase2b

    sim, cluster = deploy()
    learner = cluster.learners[0]
    events = []
    learner.on_deliver(events.append)
    rnd = start(cluster, 2)
    for i, command in enumerate([A, C]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, C], timeout=500)
    learned_before = learner.learned
    events_before = list(events)
    # Redeliver every acceptor's current vote (equal but distinct structs).
    for acceptor in cluster.acceptors:
        copy = CommandHistory(acceptor.vval.cmds, acceptor.vval.conflict)
        learner.on_phase2b(Phase2b(rnd, copy), acceptor.pid)
    assert events == events_before
    assert learner.learned == learned_before


def test_learner_grows_after_redundant_deliveries():
    """The exhausted-vote cache must not block later genuine growth."""
    from repro.core.messages import Phase2b

    sim, cluster = deploy()
    learner = cluster.learners[0]
    rnd = start(cluster, 2)
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=500)
    for acceptor in cluster.acceptors:
        learner.on_phase2b(Phase2b(rnd, acceptor.vval), acceptor.pid)
    cluster.propose(D, delay=1.0)
    assert cluster.run_until_delivered([A, D], timeout=500)
    assert learner.learned.contains(D)


def test_learner_handles_duplicated_network_messages():
    sim, cluster = deploy(seed=4)
    sim.network.config.duplicate_rate = 1.0  # every remote message twice
    start(cluster, 2)
    for i, command in enumerate([A, B, C, D]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, B, C, D], timeout=2000)


# -- one proposal message, one forwarding rule ----------------------------------


def test_a_retried_command_is_forwarded_the_instant_it_arrives():
    """A retry is a one-command ``ProposeBatch`` and is forwarded like any
    proposal, at the end of its delivery batch: on the simulator, in the
    same virtual instant, not after the proposers' batch deadline."""
    sim, cluster = deploy(
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
        retransmit=RetransmitConfig(retry_interval=5.0, max_interval=5.0),
    )
    start(cluster, 2)
    sim.run(until=5)
    proposer = cluster.proposers[0]
    # The first transmission reaches nobody; the retry is what arrives.
    sim.network.add_drop_filter(
        lambda src, dst, msg: src == proposer.pid and proposer.retransmissions == 0
    )
    coords = set(cluster.config.topology.coordinators)
    arrived, forwarded = {}, {}

    def on_delivery(src, dst, msg):
        if dst in coords and GENERALIZED.is_proposal(msg) and A in GENERALIZED.proposed(msg):
            arrived.setdefault(dst, sim.clock)

    def on_send(src, dst, msg):
        if src in coords and isinstance(msg, Phase2aDelta) and A in msg.cmds:
            forwarded.setdefault(src, sim.clock)
        return False

    sim.add_delivery_tap(on_delivery)
    sim.network.add_drop_filter(on_send)
    proposer.propose(A)
    proposer.flush()
    assert cluster.run_until_delivered([A], timeout=100)
    assert proposer.retransmissions >= 1
    assert arrived and forwarded == arrived


def test_a_lossy_run_proposes_with_proposebatch_only():
    sim, cluster = deploy(
        seed=2,
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
        retransmit=RetransmitConfig(retry_interval=4.0),
    )
    sim.network.config.drop_rate = 0.2
    start(cluster, 2)
    commands = [cmd(f"l{i}", "put", f"k{i % 3}", i) for i in range(30)]
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 0.5 * i)
    assert cluster.run_until_delivered(commands, timeout=5_000)
    by_type = sim.metrics.messages_by_type
    assert cluster.retransmission_stats()["retransmissions"] > 0
    assert by_type["ProposeBatch"] > 0 and "Propose" not in by_type
