"""E8 -- round-type crossover (Section 4.5).

Paper claims: in "clustered" settings (spontaneous message order, i.e. no
jitter) fast rounds win even under conflicts; in conflict-prone settings
with message inversions, classic rounds win and fast rounds pay recovery
penalties.  Multicoordinated rounds hold classic latency everywhere while
additionally tolerating coordinator crashes (E3).
"""

from __future__ import annotations

from benchmarks.conftest import (
    fast_generalized_cluster,
    multicoord_cluster,
    run_experiment,
)
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.workload import Workload, WorkloadConfig


def _e8_run(mode: str, jitter: float, conflict_rate: float, seed: int = 6) -> dict:
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    if mode == "fast":
        cluster = fast_generalized_cluster(sim)
        rtype = 0
    elif mode == "multicoordinated":
        cluster = multicoord_cluster(sim)
        rtype = 2
    else:
        cluster = multicoord_cluster(sim)
        rtype = 1
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=24,
            conflict_rate=conflict_rate,
            arrival="burst",
            burst_size=2,
            period=8.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    learned = [c for c in workload.commands if sim.metrics.latency_of(c) is not None]
    latencies = [sim.metrics.latency_of(c) for c in learned]
    mean_hop = 1.0 + jitter / 2
    return {
        "round kind": mode,
        "jitter": jitter,
        "conflict rate": conflict_rate,
        "mean latency (steps)": sum(latencies) / max(len(latencies), 1) / mean_hop,
        "unlearned": len(workload.commands) - len(learned),
    }


def experiment_e8(
    jitters: tuple[float, ...] = (0.0, 1.5),
    conflict_rates: tuple[float, ...] = (0.0, 1.0),
    seed: int = 6,
) -> list[dict]:
    """Clustered vs conflict-prone settings (Section 4.5)."""
    rows: list[dict] = []
    for mode in ("fast", "multicoordinated", "single-coordinated"):
        for jitter in jitters:
            for rate in conflict_rates:
                rows.append(_e8_run(mode, jitter, rate, seed))
    return rows


def test_e8_crossover(benchmark):
    rows = run_experiment(benchmark, experiment_e8, "E8: jitter x conflict sweep")
    table = {
        (row["round kind"], row["jitter"], row["conflict rate"]): row for row in rows
    }
    assert all(row["unlearned"] == 0 for row in rows)
    # Clustered system: fast wins regardless of conflicts.
    assert table[("fast", 0.0, 0.0)]["mean latency (steps)"] == 2.0
    assert table[("fast", 0.0, 1.0)]["mean latency (steps)"] == 2.0
    # Conflict-prone system: fast degrades past the classic rounds.
    fast_bad = table[("fast", 1.5, 1.0)]["mean latency (steps)"]
    multi_bad = table[("multicoordinated", 1.5, 1.0)]["mean latency (steps)"]
    single_bad = table[("single-coordinated", 1.5, 1.0)]["mean latency (steps)"]
    assert fast_bad > multi_bad
    assert fast_bad > single_bad
    # Multicoordinated rounds keep ~3-step latency across the grid.
    for jitter in (0.0, 1.5):
        for rate in (0.0, 1.0):
            latency = table[("multicoordinated", jitter, rate)]["mean latency (steps)"]
            assert latency <= 3.4
