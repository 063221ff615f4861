"""E5 -- collisions vs conflict rate, and wasted disk writes (Sections 2.2, 4.2).

Paper claims: collisions only involve *conflicting* commands proposed
concurrently.  Fast-round collisions are inherently more expensive: the
colliding values were already accepted (written to stable storage) and are
then discarded, while multicoordinated collisions are detected at the
acceptors before acceptance and waste (almost) no disk write.
"""

from __future__ import annotations

from benchmarks.conftest import (
    fast_generalized_cluster,
    multicoord_cluster,
    run_experiment,
)
from repro.core.multicoordinated import build_consensus
from repro.cstruct.commands import Command
from repro.protocols.fast import build_fast_paxos
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.workload import Workload, WorkloadConfig


def _e5_run(mode: str, conflict_rate: float, seed: int) -> dict:
    jitter = 1.2
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    if mode == "fast":
        cluster = fast_generalized_cluster(sim)
        rtype = 0
    else:
        cluster = multicoord_cluster(sim)
        rtype = 2
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=30,
            conflict_rate=conflict_rate,
            arrival="burst",
            burst_size=2,
            period=8.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    learned = [
        c for c in workload.commands if sim.metrics.learn_time(c) is not None
    ]
    vote_writes = sum(a.storage.write_counts["vval"] for a in cluster.acceptors)
    latencies = [sim.metrics.latency_of(c) for c in learned]
    mean_hop = 1.0 + jitter / 2
    return {
        "mode": mode,
        "conflict rate": conflict_rate,
        "collisions": sum(a.collisions_detected for a in cluster.acceptors),
        "extra rounds": sum(c.rounds_started for c in cluster.coordinators) - 1,
        "writes / cmd / acceptor": vote_writes
        / max(len(learned), 1)
        / len(cluster.acceptors),
        "mean latency (steps)": sum(latencies)
        / max(len(latencies), 1)
        / mean_hop,
        "unlearned": len(workload.commands) - len(learned),
    }


def experiment_e5(
    conflict_rates: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0), seed: int = 2
) -> list[dict]:
    """Collision behaviour of fast vs multicoordinated rounds."""
    rows: list[dict] = []
    for mode in ("fast", "multicoordinated"):
        for rate in conflict_rates:
            rows.append(_e5_run(mode, rate, seed))
    return rows


def _e5_waste_run(mode: str, seed: int) -> tuple[int, int]:
    """(collided?, wasted acceptor disk writes) for one two-proposer race."""
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.9))
    if mode == "fast":
        cluster = build_fast_paxos(
            sim, n_acceptors=4, n_proposers=2, fast_rounds=lambda r: r == 1
        )
        cluster.start_round(1)
    else:
        cluster = build_consensus(sim, n_proposers=2, n_coordinators=3, n_acceptors=3)
        cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cluster.propose(Command("a", "put", "x", 1), delay=6.0, proposer=0)
    cluster.propose(Command("b", "put", "x", 2), delay=6.0, proposer=1)
    cluster.run_until_decided(timeout=500)
    decision = cluster.decision()
    if mode == "fast":
        collided = sum(c.collisions_recovered for c in cluster.coordinators) > 0
    else:
        collided = sum(acc.collisions_detected for acc in cluster.acceptors) > 0
    wasted = sum(
        sum(1 for _, val in acc.accept_log if val != decision)
        for acc in cluster.acceptors
    )
    return int(collided), wasted


def experiment_e5_waste(n_seeds: int = 40) -> list[dict]:
    """Section 4.2's key asymmetry, at the consensus level.

    Fast-round collisions happen *after* acceptance: the losing value was
    written to disk.  Multicoordinated collisions are detected before
    acceptance: no disk write is wasted.
    """
    rows: list[dict] = []
    for mode in ("fast", "multicoordinated"):
        collided_runs = 0
        wasted_total = 0
        for seed in range(n_seeds):
            collided, wasted = _e5_waste_run(mode, seed)
            if collided:
                collided_runs += 1
                wasted_total += wasted
        rows.append(
            {
                "mode": mode,
                "collided runs": collided_runs,
                "wasted disk writes / collision": wasted_total / max(collided_runs, 1),
            }
        )
    return rows


def test_e5_conflict_sweep(benchmark):
    rows = run_experiment(
        benchmark, experiment_e5, "E5: conflict-rate sweep (burst arrivals, jitter)"
    )
    assert all(row["unlearned"] == 0 for row in rows)
    fast = {row["conflict rate"]: row for row in rows if row["mode"] == "fast"}
    multi = {
        row["conflict rate"]: row for row in rows if row["mode"] == "multicoordinated"
    }
    # At zero conflict nothing collides and fast is faster.
    assert fast[0.0]["extra rounds"] == 0
    assert fast[0.0]["mean latency (steps)"] < multi[0.0]["mean latency (steps)"]
    # At full conflict, fast rounds pay for recovery.
    assert fast[1.0]["extra rounds"] >= 1
    assert fast[1.0]["mean latency (steps)"] > fast[0.0]["mean latency (steps)"] + 1
    # Multicoordinated rounds detect collisions but keep latency stable.
    assert multi[1.0]["collisions"] >= 1
    assert multi[1.0]["mean latency (steps)"] < multi[0.0]["mean latency (steps)"] + 1


def test_e5_wasted_disk_writes(benchmark):
    rows = run_experiment(
        benchmark, experiment_e5_waste, "E5b: wasted disk writes per collision"
    )
    fast = next(r for r in rows if r["mode"] == "fast")
    multi = next(r for r in rows if r["mode"] == "multicoordinated")
    assert fast["collided runs"] > 0 and multi["collided runs"] > 0
    assert fast["wasted disk writes / collision"] >= 1.0
    assert multi["wasted disk writes / collision"] < 0.5
