"""Cross-validation across the implementation hierarchy.

The generalized engine restricted in various ways must agree with the
specialized implementations:

* generalized engine + ValueStruct ≈ the Section 3.1 consensus engine
  (first command decided, all learners agree);
* generalized engine + AlwaysConflict histories ≈ total-order broadcast
  ≈ the Classic Paxos baseline's delivery order semantics;
* CommandHistory under AlwaysConflict ≈ CommandSequence; under
  NeverConflict ≈ CommandSet (checked on protocol outputs, not just the
  algebra).
"""

import pytest

from repro.core.generalized import build_generalized
from repro.core.multicoordinated import build_consensus
from repro.cstruct.commands import AlwaysConflict, NeverConflict
from repro.cstruct.cset import CommandSet
from repro.cstruct.history import CommandHistory
from repro.cstruct.seq import CommandSequence
from repro.cstruct.value import ValueStruct
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import cmd

A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)
C = cmd("c", "put", "y", 3)


@pytest.mark.parametrize("rtype", [1, 2])
def test_generalized_with_value_struct_decides_like_consensus(rtype):
    """One instance of generalized consensus over the value c-struct."""
    sim = Simulation(seed=4)
    cluster = build_generalized(
        sim, bottom=ValueStruct.bottom(), n_coordinators=3, n_acceptors=3
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    for learner in cluster.learners:
        assert learner.learned == ValueStruct(A)
    # The consensus engine on the same schedule and workload agrees.
    sim2 = Simulation(seed=4)
    consensus = build_consensus(sim2, n_coordinators=3, n_acceptors=3)
    consensus.start_round(consensus.config.schedule.make_round(0, 1, rtype))
    consensus.propose(A, delay=5.0)
    assert consensus.run_until_decided(timeout=200)
    assert consensus.decision() == A
    assert sim.metrics.latency_of(A) == sim2.metrics.latency_of(A)


def test_value_struct_absorbs_later_commands():
    """With ValueStruct, later proposals do not change the learned value."""
    sim = Simulation(seed=5)
    cluster = build_generalized(
        sim, bottom=ValueStruct.bottom(), n_coordinators=3, n_acceptors=3
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 1))
    cluster.propose(A, delay=5.0)
    assert cluster.run_until_delivered([A], timeout=200)
    cluster.propose(B, delay=1.0)
    sim.run(until=sim.clock + 30)
    for learner in cluster.learners:
        assert learner.learned == ValueStruct(A)


def test_always_conflict_histories_give_total_order():
    sim = Simulation(seed=6, network=NetworkConfig(jitter=0.4))
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(AlwaysConflict()),
        n_coordinators=3,
        n_acceptors=3,
        n_learners=3,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cmds = [A, B, C]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered(cmds, timeout=500)
    orders = [learner.learned.linear_extension() for learner in cluster.learners]
    assert all(order == orders[0] for order in orders)


def test_sequence_cstruct_runs_the_engine():
    """CommandSequence works directly as the engine's c-struct."""
    sim = Simulation(seed=7)
    cluster = build_generalized(
        sim, bottom=CommandSequence.bottom(), n_coordinators=3, n_acceptors=3
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 1))
    cmds = [A, B, C]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered(cmds, timeout=500)
    assert cluster.learners[0].learned.cmds == (A, B, C)


def test_command_set_cstruct_runs_the_engine():
    """CommandSet (everything commutes) never collides even under jitter."""
    sim = Simulation(seed=8, network=NetworkConfig(jitter=1.0))
    cluster = build_generalized(
        sim, bottom=CommandSet.bottom(), n_coordinators=3, n_acceptors=3,
        n_proposers=3,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cmds = [A, B, C]
    for command in cmds:
        cluster.propose(command, delay=5.0)
    assert cluster.run_until_delivered(cmds, timeout=500)
    assert sum(a.collisions_detected for a in cluster.acceptors) == 0
    assert cluster.learners[0].learned.command_set() == {A, B, C}


def test_history_never_conflict_equals_command_set_outcome():
    """Two engines, two c-struct sets, same semantics -> same learned sets."""
    outcomes = []
    for bottom in (CommandSet.bottom(), CommandHistory.bottom(NeverConflict())):
        sim = Simulation(seed=9, network=NetworkConfig(jitter=0.7))
        cluster = build_generalized(
            sim, bottom=bottom, n_coordinators=3, n_acceptors=3, n_proposers=2
        )
        cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
        for command in (A, B, C):
            cluster.propose(command, delay=5.0)
        assert cluster.run_until_delivered([A, B, C], timeout=500)
        outcomes.append(cluster.learners[0].learned.command_set())
    assert outcomes[0] == outcomes[1]
