"""Section 4.5's deployment scenarios as round-schedule configurations.

"Clustered systems": ranges of fast RTypes so fast rounds follow fast
rounds (uncoordinated recovery chains); "conflict-prone": every round
single-coordinated.  The RType interpretation lives in
:class:`repro.core.rounds.RoundTypePolicy`, exactly as Section 4.5
suggests reinterpreting the RType field.
"""

import pytest

from repro.core.generalized import build_generalized
from repro.core.rounds import RoundKind, RoundSchedule, RoundTypePolicy
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict
from tests.conftest import cmd


def clustered_schedule(n_coordinators=3) -> RoundSchedule:
    """RTypes 0..4 all fast; 5+ single-coordinated; recovery stays fast."""
    policy = RoundTypePolicy(fast_rtypes=frozenset(range(5)), multi_rtypes=frozenset())
    return RoundSchedule(range(n_coordinators), policy=policy, recovery_rtype=1)


def conflict_prone_schedule(n_coordinators=3) -> RoundSchedule:
    """Everything single-coordinated (no fast, no multi)."""
    policy = RoundTypePolicy(fast_rtypes=frozenset(), multi_rtypes=frozenset())
    return RoundSchedule(range(n_coordinators), policy=policy, recovery_rtype=7)


def test_clustered_policy_maps_rtype_range_to_fast():
    schedule = clustered_schedule()
    for rtype in range(5):
        assert schedule.kind(schedule.make_round(0, 1, rtype)) is RoundKind.FAST
    assert schedule.kind(schedule.make_round(0, 1, 5)) is RoundKind.SINGLE


def test_conflict_prone_policy_has_no_decentralized_rounds():
    schedule = conflict_prone_schedule()
    for rtype in range(8):
        assert schedule.kind(schedule.make_round(0, 1, rtype)) is RoundKind.SINGLE


def test_fast_recovery_rtype_keeps_rounds_fast():
    """Section 4.5: NextRound can stay fast for uncoordinated recovery."""
    policy = RoundTypePolicy(fast_rtypes=frozenset(range(5)), multi_rtypes=frozenset())
    schedule = RoundSchedule(range(3), policy=policy)  # no recovery override
    rnd = schedule.make_round(0, 1, 2)
    assert schedule.is_fast(schedule.next_round(rnd))


def test_clustered_deployment_stays_fast_without_conflicts():
    """Spontaneous ordering: fast rounds never need recovery."""
    sim = Simulation(seed=3)  # zero jitter = spontaneous order
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=4,
        schedule=clustered_schedule(),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 0))
    cmds = [cmd(f"c{i}", "put", "hot", i) for i in range(8)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 3 * i)
    assert cluster.run_until_delivered(cmds, timeout=2000)
    assert all(sim.metrics.latency_of(c) == 2.0 for c in cmds)
    assert sum(c.rounds_started for c in cluster.coordinators) == 1


def test_conflict_prone_deployment_serializes_everything():
    sim = Simulation(seed=4, network=NetworkConfig(jitter=1.0))
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        n_proposers=2,
        schedule=conflict_prone_schedule(),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 1))
    cmds = [cmd(f"c{i}", "put", "hot", i) for i in range(6)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 2 * (i // 2))
    assert cluster.run_until_delivered(cmds, timeout=3000)
    # Single-coordinated rounds cannot collide on ordering.
    assert sum(a.collisions_detected for a in cluster.acceptors) == 0


def test_round_numbers_partitioned_among_coordinators():
    """Section 4.5's conflict-prone scheme: rounds striped by coordinator."""
    schedule = conflict_prone_schedule()
    rounds = [
        schedule.make_round(coord=c, count=k, rtype=1)
        for k in range(1, 4)
        for c in range(3)
    ]
    assert len(set(rounds)) == len(rounds)
    assert sorted(rounds) == sorted(rounds, key=lambda r: (r.mcount, r.count, r.coord, r.rtype))


def test_mcount_dominates_round_order_across_incarnations():
    """Section 4.4: a recovered acceptor's MCount bump outranks old rounds."""
    schedule = clustered_schedule()
    old = schedule.make_round(coord=2, count=99, rtype=4)
    recovered = schedule.make_round(coord=0, count=1, rtype=0, mcount=1)
    assert old < recovered
