"""Generalized engine: phase-2b votes go to the learners only.

In the generalized algorithm a vote is for the learners; collisions in a
multicoordinated round are the acceptors' to detect (Section 4.2), and
this engine runs no coordinated recovery.  So coordinators learn rounds
from ``Phase1b`` and ``Nack`` and progress from ``Learned``, never from a
vote -- these tests pin the routing and that liveness does not need it.
"""

from __future__ import annotations

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import build_generalized
from repro.core.messages import Phase2b, Phase2bDelta
from repro.core.reliability import BatchingConfig
from repro.core.sessions import SessionConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def _cmds(n, start=0):
    return [Command(f"r{i % 3}:{i // 3}", "put", f"k{i % 4}", i) for i in range(start, start + n)]


def test_no_vote_reaches_a_coordinator_with_every_layer_on():
    sim = Simulation(seed=2, max_events=5_000_000)
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
        sessions=SessionConfig(window=64),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    coordinators = {c.pid for c in cluster.coordinators}
    learners = {l.pid for l in cluster.learners}
    votes: dict[str, int] = {"coordinator": 0, "learner": 0}

    def tap(src, dst, msg):
        if isinstance(msg, (Phase2b, Phase2bDelta)):
            if dst in coordinators:
                votes["coordinator"] += 1
            elif dst in learners:
                votes["learner"] += 1

    sim.add_delivery_tap(tap)
    workload = _cmds(80)
    for i, cmd in enumerate(workload):
        cluster.propose(cmd, delay=5.0 + 0.7 * i)
    assert cluster.run_until_delivered(workload, timeout=5_000.0)
    assert votes["learner"] > 0
    assert votes["coordinator"] == 0


def test_coordinators_recover_a_round_without_vote_echoes():
    """Two of three coordinators crash mid-run: the survivor's recovery
    round wins above the round the run started in.  The two come back with
    no round state, and then the survivor crashes too: a recovered leader
    must find a round above the survivor's from ``Nack``s alone.  Every
    command is delivered."""
    sim = Simulation(seed=4, network=NetworkConfig(jitter=0.3), max_events=5_000_000)
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        retransmit=RetransmitConfig(),
    )
    first = cluster.config.schedule.make_round(0, 1, 2)
    cluster.start_round(first)
    workload = _cmds(60)
    for i, cmd in enumerate(workload):
        cluster.propose(cmd, delay=5.0 + 1.5 * i)
    sim.schedule(30.0, cluster.coordinators[0].crash)
    sim.schedule(32.0, cluster.coordinators[1].crash)
    sim.schedule(70.0, cluster.coordinators[0].recover)
    sim.schedule(75.0, cluster.coordinators[1].recover)
    sim.run(until=85.0)
    survivor_round = max(a.vrnd for a in cluster.acceptors)
    assert survivor_round > first and survivor_round.coord == 2
    cluster.coordinators[2].crash()
    assert cluster.run_until_delivered(workload, timeout=20_000.0)
    winner = max(a.vrnd for a in cluster.acceptors)
    assert winner > survivor_round and winner.coord in (0, 1)
