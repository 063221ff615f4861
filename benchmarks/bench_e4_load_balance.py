"""E4 -- load balance (Section 4.1).

Paper claims: in Classic Paxos every command passes through the leader
(load 1.0).  With multicoordinated rounds and random quorum selection each
coordinator handles at most 1/2 + 1/nc of the commands and each acceptor
at most 1/2 + 1/n.  Fast rounds balance worse: every acceptor must process
more than 3/4 of the commands.
"""

from __future__ import annotations

import random

from benchmarks.conftest import run_experiment
from repro.core.generalized import build_generalized
from repro.core.quorums import QuorumSystem
from repro.cstruct.history import CommandHistory
from repro.protocols.classic import build_classic_paxos
from repro.sim.scheduler import Simulation
from repro.smr.instances import build_smr
from repro.smr.machine import kv_conflict
from repro.smr.workload import Workload, WorkloadConfig


def _e4_classic_leader(n_commands: int = 40) -> list[dict]:
    sim = Simulation(seed=3)
    cluster = build_classic_paxos(sim, n_coordinators=3, n_acceptors=5)
    cluster.start_round(1)
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    loads = [
        sim.metrics.commands_handled[c.pid] / n_commands for c in cluster.coordinators
    ]
    return [
        {
            "mode": "classic (leader)",
            "process": "coordinator",
            "max load": max(loads),
            "paper bound": 1.0,
            "source": "measured end-to-end",
        }
    ]


def _e4_multicoord_coordinators(n_commands: int = 40) -> list[dict]:
    sim = Simulation(seed=3)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=5,
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    nc = len(cluster.coordinators)
    loads = [
        sim.metrics.commands_handled[c.pid] / n_commands for c in cluster.coordinators
    ]
    return [
        {
            "mode": "multicoordinated",
            "process": "coordinator",
            "max load": max(loads),
            "paper bound": 0.5 + 1.0 / nc,
            "source": "measured end-to-end",
        }
    ]


def _e4_assignment_model(n_commands: int = 20_000) -> list[dict]:
    """Per-command quorum assignment (the paper's probabilistic claim).

    C-structs are cumulative, so in the single-instance generalized engine
    every acceptor eventually stores every command; the paper's per-command
    acceptor-load claim lives in the one-instance-per-command world, which
    this sampling model reproduces exactly.
    """

    rng = random.Random(42)
    rows: list[dict] = []
    nc, n = 3, 5
    quorums = QuorumSystem(range(n))
    coord_counts = [0] * nc
    acc_counts = [0] * n
    c_size = nc // 2 + 1
    for _ in range(n_commands):
        for c in rng.sample(range(nc), c_size):
            coord_counts[c] += 1
        for a in rng.sample(range(n), quorums.classic_quorum_size):
            acc_counts[a] += 1
    rows.append(
        {
            "mode": "multicoordinated",
            "process": "coordinator",
            "max load": max(coord_counts) / n_commands,
            "paper bound": 0.5 + 1.0 / nc,
            "source": "assignment model",
        }
    )
    rows.append(
        {
            "mode": "multicoordinated",
            "process": "acceptor",
            "max load": max(acc_counts) / n_commands,
            "paper bound": 0.5 + 1.0 / n,
            "source": "assignment model",
        }
    )
    fast_counts = [0] * n
    for _ in range(n_commands):
        for a in rng.sample(range(n), quorums.fast_quorum_size):
            fast_counts[a] += 1
    rows.append(
        {
            "mode": "fast",
            "process": "acceptor",
            "max load": max(fast_counts) / n_commands,
            "paper bound": 0.75,  # lower bound: every acceptor sees > 3/4
            "source": "assignment model",
        }
    )
    return rows


def _e4_multicoord_instances(n_commands: int = 30) -> list[dict]:
    """End-to-end acceptor load on the instance-per-command SMR engine."""

    sim = Simulation(seed=3)
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=5,
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=10_000)
    loads = [a.commands_accepted / n_commands for a in cluster.acceptors]
    return [
        {
            "mode": "multicoordinated",
            "process": "acceptor",
            "max load": max(loads),
            "paper bound": 0.5 + 1.0 / 5,
            "source": "measured end-to-end (SMR instances)",
        }
    ]


def experiment_e4() -> list[dict]:
    """Per-process load under random quorum selection."""
    rows = _e4_classic_leader()
    rows += _e4_multicoord_coordinators()
    rows += _e4_multicoord_instances()
    rows += _e4_assignment_model()
    return rows


def test_e4_load_balance(benchmark):
    rows = run_experiment(benchmark, experiment_e4, "E4: per-process load fractions")
    classic = next(r for r in rows if r["mode"] == "classic (leader)")
    assert classic["max load"] == 1.0
    for row in rows:
        if row["mode"] == "multicoordinated":
            assert row["max load"] <= row["paper bound"] + 0.05, row
    fast = next(r for r in rows if r["mode"] == "fast")
    assert fast["max load"] >= fast["paper bound"]  # bound is a lower bound
    multi_acc = next(
        r for r in rows if r["mode"] == "multicoordinated" and r["process"] == "acceptor"
    )
    assert multi_acc["max load"] < fast["max load"]
