"""E7 -- collision recovery cost (Sections 2.2, 4.2).

Paper claims: after a fast-round collision, restarting the next round from
scratch costs four extra communication steps; coordinated recovery (2b
messages reread as 1b messages) costs two; uncoordinated recovery
(acceptors pick and accept directly) costs one.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.cstruct.commands import Command
from repro.protocols.fast import build_fast_paxos
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation


def _e7_run(strategy: str, seed: int) -> tuple[bool, float | None]:
    """One forced-concurrency fast-round run; returns (collided, latency)."""
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.9))
    uncoordinated = strategy == "uncoordinated"
    recovery = {
        "restart": "restart",
        "coordinated": "coordinated",
        "uncoordinated": "none",
    }[strategy]
    cluster = build_fast_paxos(
        sim,
        n_acceptors=4,
        n_proposers=2,
        fast_rounds=(lambda r: True) if uncoordinated else (lambda r: r == 1),
        uncoordinated=uncoordinated,
        recovery=recovery,
    )
    cluster.start_round(1)
    a = Command("a", "put", "x", 1)
    b = Command("b", "put", "x", 2)
    cluster.propose(a, delay=6.0, proposer=0)
    cluster.propose(b, delay=6.0, proposer=1)
    decided = cluster.run_until_decided(timeout=500)
    collided = (
        sum(c.collisions_recovered for c in cluster.coordinators) > 0
        or sum(acc.wasted_disk_writes for acc in cluster.acceptors) > 0
    )
    if not decided:
        return collided, None
    decision = cluster.decision()
    return collided, sim.metrics.latency_of(decision)


def experiment_e7(n_seeds: int = 40) -> list[dict]:
    """Decision latency of collided fast rounds per recovery strategy."""
    expectations = {"restart": 4, "coordinated": 2, "uncoordinated": 1}
    rows: list[dict] = []
    for strategy, extra in expectations.items():
        latencies = []
        collided_runs = 0
        for seed in range(n_seeds):
            collided, latency = _e7_run(strategy, seed)
            if collided and latency is not None:
                collided_runs += 1
                latencies.append(latency)
        rows.append(
            {
                "strategy": strategy,
                "collided runs": collided_runs,
                "mean latency (collided)": sum(latencies) / max(len(latencies), 1),
                "paper extra steps": extra,
            }
        )
    return rows


def test_e7_recovery_cost(benchmark):
    rows = run_experiment(
        benchmark, experiment_e7, "E7: collided-run decision latency per strategy"
    )
    by_strategy = {row["strategy"]: row for row in rows}
    assert all(row["collided runs"] > 0 for row in rows)
    restart = by_strategy["restart"]["mean latency (collided)"]
    coordinated = by_strategy["coordinated"]["mean latency (collided)"]
    uncoordinated = by_strategy["uncoordinated"]["mean latency (collided)"]
    # The ordering (and roughly the spacing) of the paper's step counts.
    assert uncoordinated < coordinated < restart
    assert restart - coordinated > 1.0  # ~2 extra steps
    assert coordinated - uncoordinated > 0.5  # ~1 extra step
