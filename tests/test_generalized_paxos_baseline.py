"""Generalized Paxos baseline (Section 2.3): the single-coordinated config."""

import pytest

from repro.core.rounds import RoundKind
from repro.cstruct.commands import KeyConflict
from repro.cstruct.history import CommandHistory
from repro.protocols.generalized import (
    build_generalized_paxos,
    generalized_paxos_schedule,
)
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import cmd

REL = KeyConflict()
A = cmd("a", "put", "x", 1)
B = cmd("b", "put", "x", 2)
C = cmd("c", "put", "y", 3)


def deploy(seed=1, jitter=0.0, **kwargs):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_generalized_paxos(
        sim, bottom=CommandHistory.bottom(REL), **kwargs
    )
    return sim, cluster


def test_schedule_has_no_multicoordinated_rounds():
    schedule = generalized_paxos_schedule(3)
    for rtype in range(6):
        rnd = schedule.make_round(coord=0, count=1, rtype=rtype)
        assert schedule.kind(rnd) is not RoundKind.MULTI


def test_classic_rounds_are_single_coordinated():
    schedule = generalized_paxos_schedule(3)
    rnd = schedule.make_round(coord=1, count=1, rtype=2)
    assert schedule.coord_quorums(rnd) == (frozenset({1}),)


def test_fast_round_learns_commuting_commands_in_two_steps():
    sim, cluster = deploy()
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 0))
    sim.run(until=10)
    for i, command in enumerate([A, C]):
        cluster.propose(command, delay=1.0 + 0.1 * i)
    assert cluster.run_until_delivered([A, C], timeout=200)
    assert sim.metrics.latency_of(A) == 2.0
    assert sim.metrics.latency_of(C) == 2.0


def test_commuting_commands_survive_reordering_without_collision():
    """The motivation of Generalized Paxos: commutable commands never collide."""
    sim, cluster = deploy(seed=4, jitter=1.0, n_proposers=2)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 0))
    sim.run(until=10)
    commuting = [cmd(str(i), "put", f"k{i}", i) for i in range(6)]
    for i, command in enumerate(commuting):
        cluster.propose(command, delay=1.0 + i)
    assert cluster.run_until_delivered(commuting, timeout=1000)
    assert sum(a.collisions_detected for a in cluster.acceptors) == 0


def test_classic_round_serializes_conflicts():
    sim, cluster = deploy()
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 1))
    for i, command in enumerate([A, B]):
        cluster.propose(command, delay=5.0 + 4 * i)
    assert cluster.run_until_delivered([A, B], timeout=300)
    histories = cluster.learned_structs()
    orders = [
        [c for c in h.linear_extension() if c in (A, B)] for h in histories
    ]
    assert all(order == orders[0] for order in orders)


def test_single_coordinator_crash_blocks_classic_round():
    """Contrast with the multicoordinated engine: no redundancy here."""
    sim, cluster = deploy()
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 1))
    sim.run(until=10)
    cluster.coordinators[0].crash()
    cluster.propose(A, delay=1.0)
    assert not cluster.run_until_delivered([A], timeout=100)
