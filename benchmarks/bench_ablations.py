"""Ablations over the design choices DESIGN.md calls out.

A1 -- coordinator redundancy: how many coordinator crashes a
      multicoordinated round absorbs for nc = 3, 5 (the paper's claim that
      any minority of coordinators may fail, Section 4.1);
A2 -- recovery round type: retrying a collided multicoordinated round with
      another multicoordinated round risks colliding again; Section 4.2
      recommends single-coordinated successors, which our schedules default
      to;
A3 -- learner quorum enumeration: the learner may enumerate all acceptor
      quorums or use the largest-votes heuristic; both learn everything,
      enumeration may merely learn *earlier*;
A4 -- message complexity: per-command messages as the acceptor count grows,
      for single- vs multicoordinated rounds (the redundancy cost behind
      E1's message column).
"""

from unittest import mock

from repro.bench.tables import format_table
from repro.core import generalized
from repro.core.generalized import build_generalized
from repro.core.multicoordinated import build_consensus
from repro.core.rounds import RoundSchedule
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def _ablation_a1() -> list[dict]:
    rows = []
    for n_coordinators in (3, 5):
        for crashes in range(n_coordinators):
            sim = Simulation(seed=1)
            cluster = build_consensus(
                sim, n_coordinators=n_coordinators, n_acceptors=3
            )
            rnd = cluster.config.schedule.make_round(0, 1, 2)
            cluster.start_round(rnd)
            sim.run(until=10)
            for i in range(crashes):
                cluster.coordinators[i].crash()
            cluster.propose(Command("a", "put", "x", 1), delay=1.0)
            decided = cluster.run_until_decided(timeout=100)
            rows.append(
                {
                    "nc": n_coordinators,
                    "coordinator crashes": crashes,
                    "decides": decided,
                    "paper": crashes <= (n_coordinators - 1) // 2,
                }
            )
    return rows


def test_a1_coordinator_redundancy(benchmark):
    rows = benchmark.pedantic(_ablation_a1, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="A1: multicoordinated rounds vs coordinator crashes"))
    for row in rows:
        assert row["decides"] == row["paper"], row


def _ablation_a2() -> list[dict]:
    """Collided multicoordinated rounds: single vs multi recovery rounds."""
    rows = []
    for recovery_rtype, label in ((1, "single-coordinated"), (2, "multicoordinated")):
        decided = 0
        rounds_used = 0
        trials = 20
        for seed in range(trials):
            sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.9))
            schedule = RoundSchedule(range(3), recovery_rtype=recovery_rtype)
            cluster = build_consensus(
                sim, n_proposers=2, n_coordinators=3, n_acceptors=3, schedule=schedule
            )
            cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
            cluster.propose(Command("a", "put", "x", 1), delay=6.0, proposer=0)
            cluster.propose(Command("b", "put", "x", 2), delay=6.0, proposer=1)
            decided += cluster.run_until_decided(timeout=400)
            rounds_used += max(
                (acc.vrnd.count for acc in cluster.acceptors), default=0
            )
        rows.append(
            {
                "recovery rtype": label,
                "decided": f"{decided}/{trials}",
                "mean final round count": rounds_used / trials,
            }
        )
    return rows


def test_a2_recovery_round_type(benchmark):
    rows = benchmark.pedantic(_ablation_a2, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="A2: recovery round type after a collision"))
    single = next(r for r in rows if r["recovery rtype"] == "single-coordinated")
    assert single["decided"] == "20/20"


def _ablation_a3() -> list[dict]:
    rows = []
    for limit, label in ((64, "exhaustive enumeration"), (0, "largest-votes heuristic")):
        sim = Simulation(seed=2, network=NetworkConfig(jitter=0.8))
        cluster = build_generalized(
            sim,
            bottom=CommandHistory.bottom(kv_conflict()),
            n_coordinators=3,
            n_acceptors=5,
        )
        cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
        cmds = [Command(f"c{i}", "put", f"k{i}", i) for i in range(12)]
        for i, command in enumerate(cmds):
            cluster.propose(command, delay=5.0 + 3 * i)
        with mock.patch.object(generalized, "LEARNER_ENUMERATION_LIMIT", limit):
            learned_all = cluster.run_until_delivered(cmds, timeout=2000)
        latencies = [sim.metrics.latency_of(c) for c in cmds]
        rows.append(
            {
                "learner strategy": label,
                "all learned": learned_all,
                "mean latency": sum(latencies) / len(latencies),
            }
        )
    return rows


def test_a3_learner_enumeration(benchmark):
    rows = benchmark.pedantic(_ablation_a3, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="A3: learner quorum enumeration vs heuristic"))
    assert all(row["all learned"] for row in rows)
    exhaustive = rows[0]["mean latency"]
    heuristic = rows[1]["mean latency"]
    assert exhaustive <= heuristic + 0.5  # enumeration never slower (modulo noise)


def _ablation_a4() -> list[dict]:
    rows = []
    for n_acceptors in (3, 5, 7):
        for rtype, label in ((1, "single-coordinated"), (2, "multicoordinated")):
            sim = Simulation(seed=1)
            cluster = build_consensus(
                sim, n_coordinators=3, n_acceptors=n_acceptors
            )
            cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
            sim.run(until=15)
            before = sim.metrics.total_messages
            cmd = Command("a", "put", "x", 1)
            cluster.propose(cmd, delay=1.0)
            cluster.run_until_decided(timeout=100)
            rows.append(
                {
                    "n acceptors": n_acceptors,
                    "round kind": label,
                    "messages / command": sim.metrics.total_messages - before,
                }
            )
    return rows


def test_a4_message_complexity(benchmark):
    rows = benchmark.pedantic(_ablation_a4, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="A4: per-command message complexity"))
    for n in (3, 5, 7):
        single = next(
            r["messages / command"]
            for r in rows
            if r["n acceptors"] == n and r["round kind"] == "single-coordinated"
        )
        multi = next(
            r["messages / command"]
            for r in rows
            if r["n acceptors"] == n and r["round kind"] == "multicoordinated"
        )
        assert multi > single  # redundancy costs messages...
        assert multi < 4 * single  # ...but within a small constant factor
