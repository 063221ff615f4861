"""E1 -- learning latency in communication steps (Sections 1, 2, 3.1).

Paper claims: Classic Paxos and both classic round kinds of
Multicoordinated Paxos learn in 3 communication steps (with phase 1
amortized); fast rounds learn in 2.  Multicoordination adds *no* latency
over the single-coordinated baseline.
"""

from __future__ import annotations

from typing import Callable

from benchmarks.conftest import run_experiment
from repro.core.generalized import build_generalized
from repro.core.multicoordinated import build_consensus
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.protocols.classic import build_classic_paxos
from repro.protocols.fast import build_fast_paxos
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def _e1_run(cluster, rnd, run_until: Callable) -> tuple[float, int]:
    """One command's propose-to-learn latency and the messages it cost.

    *cluster* is warmed up in round *rnd* until t=15, the command is
    proposed one step later, and ``run_until(cluster, cmd)`` runs the
    simulation until it is learned.
    """
    sim = cluster.sim
    cluster.start_round(rnd)
    sim.run(until=15)
    before = sim.metrics.total_messages
    cmd = Command("e1", "put", "x", 1)
    cluster.propose(cmd, delay=1.0)
    run_until(cluster, cmd)
    return sim.metrics.latency_of(cmd), sim.metrics.total_messages - before


def _until_delivered(cluster, cmd: Command) -> None:
    cluster.run_until_delivered([cmd], timeout=200)


def _until_decided(cluster, cmd: Command) -> None:
    cluster.run_until_decided(timeout=200)


def experiment_e1() -> list[dict]:
    """Steady-state propose-to-learn latency, unit-latency network."""

    def consensus(rtype: int, n_acceptors: int = 3) -> tuple[float, int]:
        cluster = build_consensus(Simulation(seed=1), n_coordinators=3, n_acceptors=n_acceptors)
        return _e1_run(cluster, cluster.config.schedule.make_round(0, 1, rtype), _until_decided)

    def generalized(rtype: int) -> tuple[float, int]:
        cluster = build_generalized(
            Simulation(seed=1),
            bottom=CommandHistory.bottom(kv_conflict()),
            n_coordinators=3,
            n_acceptors=3,
        )
        return _e1_run(cluster, cluster.config.schedule.make_round(0, 1, rtype), _until_delivered)

    def classic() -> tuple[float, int]:
        cluster = build_classic_paxos(Simulation(seed=1), n_coordinators=3, n_acceptors=3)
        return _e1_run(cluster, 1, _until_delivered)

    def fast() -> tuple[float, int]:
        return _e1_run(build_fast_paxos(Simulation(seed=1), n_acceptors=4), 1, _until_decided)

    runs = [
        ("Classic Paxos (baseline)", 3, classic),
        ("MC Paxos, single-coordinated round", 3, lambda: consensus(1)),
        ("MC Paxos, multicoordinated round", 3, lambda: consensus(2)),
        ("MC Paxos, fast round", 2, lambda: consensus(0, n_acceptors=4)),
        ("Fast Paxos (baseline)", 2, fast),
        ("MC Generalized Paxos, multicoordinated", 3, lambda: generalized(2)),
        ("Generalized Paxos, fast round", 2, lambda: generalized(0)),
    ]
    rows: list[dict] = []
    for protocol, paper, run in runs:
        latency, msgs = run()
        rows.append({"protocol": protocol, "steps": latency, "messages": msgs, "paper": paper})
    return rows


def test_e1_latency(benchmark):
    rows = run_experiment(benchmark, experiment_e1, "E1: propose-to-learn latency")
    by_protocol = {row["protocol"]: row for row in rows}
    for row in rows:
        assert row["steps"] == row["paper"], row
    multi = by_protocol["MC Paxos, multicoordinated round"]["steps"]
    single = by_protocol["MC Paxos, single-coordinated round"]["steps"]
    fast = by_protocol["Fast Paxos (baseline)"]["steps"]
    assert multi == single == 3
    assert fast == 2
