"""``IDecided``: one decision message, any number of ``(instance, value)``
entries.

A peer learner answers a catch-up request with every listed instance it
knows in one ``IDecided``; a coordinator answers a gossip with every
decided command and hole it knows in one ``IDecided``; and each entry of
a multi-entry message still passes the consistency oracle.
"""

from __future__ import annotations

import pytest

from repro.core.reliability import UNBATCHED
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import (
    BatchingConfig,
    I2b,
    ICatchUp,
    IDecided,
    IGossip,
    RetransmitConfig,
    build_smr,
)
from tests.conftest import cmd

# Proposer retries and coordinator gossip far apart: within a test, peer
# learners' catch-up answers are the only IDecided that can reach a
# learner.
QUIET = RetransmitConfig(
    retry_interval=500.0, max_interval=500.0, gossip_interval=500.0, catchup_interval=3.0
)


def deploy(n_learners=3, retransmit=QUIET, batching=UNBATCHED):
    sim = Simulation(seed=1, network=NetworkConfig(), max_events=2_000_000)
    cluster = build_smr(sim, n_learners=n_learners, retransmit=retransmit, batching=batching)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    return sim, cluster


def decide(sim, cluster, n):
    """Propose *n* commands one by one; return them once every learner
    and coordinator holds their decisions."""
    commands = [cmd(f"c{i}", "put", f"k{i}", i) for i in range(n)]
    for i, command in enumerate(commands):
        cluster.propose(command, delay=1.0 + 3 * i, proposer=0)
    assert cluster.run_until_delivered(commands, timeout=200.0)
    sim.run(until=sim.clock + 5.0)  # the coordinators' copies of the votes land
    return commands


def observe(sim, kinds):
    """Record every non-local message of *kinds* as ``(src, dst, msg)``."""
    seen = []

    def record(src, dst, msg):
        if isinstance(msg, kinds):
            seen.append((src, dst, msg))
        return False

    sim.network.add_drop_filter(record)
    return seen


@pytest.mark.parametrize(
    "batching", [UNBATCHED, BatchingConfig(max_batch=2, flush_interval=1.0)], ids=["single", "batched"]
)
def test_peer_answers_a_catchup_request_with_one_idecided_covering_it(batching):
    sim, cluster = deploy(batching=batching)
    laggard = cluster.learners[2]
    peers = cluster.learners[:2]
    # The laggard misses every vote for instances 0-3 (acceptors' catch-up
    # re-sends included) and hears the later ones.
    sim.network.add_drop_filter(
        lambda src, dst, msg: dst == laggard.pid and isinstance(msg, I2b) and msg.instance < 4
    )
    seen = observe(sim, (ICatchUp, IDecided))
    commands = decide(sim, cluster, 5 * batching.max_batch)
    assert laggard.delivered == commands

    # One IDecided per peer per request, covering every listed instance.
    for peer in peers:
        requests = [m for src, dst, m in seen if (src, dst) == (laggard.pid, peer.pid)]
        answers = [m for src, dst, m in seen if (src, dst) == (peer.pid, laggard.pid)]
        assert [m.instances for m in requests] == [(0, 1, 2, 3)]
        assert [m.entries for m in answers] == [tuple((i, peer.decided[i]) for i in range(4))]


def test_coordinator_answers_a_gossip_of_known_holes_with_one_idecided():
    sim, cluster = deploy(n_learners=1)
    decide(sim, cluster, 4)
    coordinator, peer = cluster.coordinators[0], cluster.coordinators[1]
    seen = observe(sim, IDecided)
    # Holes 0, 2 and 3 are known here; 9 is not, and is left out.
    coordinator.on_igossip(IGossip((), (0, 2, 3, 9)), peer.pid)
    assert [(src, dst) for src, dst, _ in seen] == [(coordinator.pid, peer.pid)]
    assert seen[0][2].entries == tuple((i, coordinator.decided[i]) for i in (0, 2, 3))


def test_gossip_answer_covers_decided_observed_commands_and_holes_together():
    sim, cluster = deploy(n_learners=1)
    commands = decide(sim, cluster, 4)
    coordinator, peer = cluster.coordinators[0], cluster.coordinators[1]
    seen = observe(sim, IDecided)
    # Command 3 is decided (instance 3), and so is hole 1 -- one answer,
    # in instance order; the undecided observed command is adopted instead.
    fresh = cmd("fresh", "put", "k9", 9)
    coordinator.on_igossip(IGossip((commands[3], fresh), (1,)), peer.pid)
    assert [m.entries for _, _, m in seen] == [((1, commands[1]), (3, commands[3]))]
    assert fresh in coordinator._observed


@pytest.mark.parametrize("role", ["coordinators", "learners"])
def test_a_conflicting_entry_in_a_multi_entry_idecided_is_a_violation(role):
    sim, cluster = deploy(n_learners=1, retransmit=RetransmitConfig())
    commands = decide(sim, cluster, 2)
    receiver = getattr(cluster, role)[0]
    assert 1 in receiver.decided
    forged = IDecided(((0, commands[0]), (1, cmd("forged", "put", "k1", 7))))
    with pytest.raises(AssertionError, match="consistency violation in instance 1"):
        receiver.on_idecided(forged, cluster.config.topology.coordinators[1])
