"""Randomized fault-injection runs under the safety oracles.

Each run drives a protocol through a jittery, lossy network with random
crash/recovery events while the oracles from :mod:`repro.core.invariants`
check Nontriviality, Stability and Consistency after *every* delivered
message.  Liveness is *not* asserted under message loss (the paper only
guarantees it under eventual reliability); safety must hold regardless.
"""

import random

import pytest

from repro.core.generalized import build_generalized
from repro.core.invariants import attach_consensus_oracle, attach_generalized_oracle
from repro.core.multicoordinated import build_consensus
from repro.cstruct.commands import KeyConflict
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from tests.conftest import cmd

REL = KeyConflict()


def _random_faults(sim, cluster, rng, horizon, crashables):
    """Schedule random crash/recover pairs on *crashables* (keep quorums)."""
    for process in crashables:
        if rng.random() < 0.5:
            down = rng.uniform(5, horizon / 2)
            up = down + rng.uniform(5, horizon / 3)
            sim.schedule(down, process.crash)
            sim.schedule(up, process.recover)


@pytest.mark.parametrize("seed", range(6))
def test_consensus_safety_under_chaos(seed):
    rng = random.Random(seed)
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(jitter=rng.uniform(0, 1.5), drop_rate=0.05),
    )
    cluster = build_consensus(sim, n_proposers=2, n_coordinators=3, n_acceptors=3)
    values = [cmd(f"v{i}", "put", "x", i) for i in range(3)]
    oracle = attach_consensus_oracle(sim, cluster, values)
    rtype = rng.choice([1, 2])
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    for i, value in enumerate(values):
        for retry in range(3):
            cluster.propose(value, delay=5.0 + i + retry * 40, proposer=i % 2)
    # one acceptor and one non-essential coordinator may bounce
    _random_faults(sim, cluster, rng, 100, [cluster.acceptors[2], cluster.coordinators[2]])
    sim.run(until=300)  # oracle raises on any safety violation
    decided = cluster.decided_values()
    assert all(v in values for v in decided)


@pytest.mark.parametrize("seed", range(6))
def test_generalized_safety_under_chaos(seed):
    rng = random.Random(seed + 100)
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(jitter=rng.uniform(0, 1.2), drop_rate=0.03),
    )
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(REL),
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=2,
    )
    commands = [
        cmd(f"c{i}", "put", rng.choice(["hot", f"k{i}"]), i) for i in range(6)
    ]
    oracle = attach_generalized_oracle(sim, cluster, commands)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rng.choice([1, 2])))
    for i, command in enumerate(commands):
        for retry in range(3):
            cluster.propose(command, delay=6.0 + 3 * i + retry * 80)
    _random_faults(sim, cluster, rng, 120, [cluster.acceptors[1], cluster.coordinators[1]])
    sim.run(until=500)
    for left in cluster.learners:
        for right in cluster.learners:
            assert left.learned.is_compatible(right.learned)


@pytest.mark.parametrize("seed", range(4))
def test_fast_rounds_safety_under_chaos(seed):
    rng = random.Random(seed + 200)
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=1.0, drop_rate=0.02))
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(REL),
        n_proposers=2,
        n_coordinators=2,
        n_acceptors=4,
        n_learners=2,
    )
    commands = [cmd(f"c{i}", "put", "hot", i) for i in range(4)]
    oracle = attach_generalized_oracle(sim, cluster, commands)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 0))
    for i, command in enumerate(commands):
        for retry in range(3):
            cluster.propose(command, delay=6.0 + 2 * i + retry * 80)
    sim.run(until=500)
    for left in cluster.learners:
        for right in cluster.learners:
            assert left.learned.is_compatible(right.learned)
