"""E3 -- availability under a coordinator crash (Sections 1, 4.1).

Paper claims: if the single leader of a classic round fails, commands stop
being learned until the failure is suspected, a new leader elected and a
new round's phase 1 completed.  A multicoordinated round keeps a live
coordinator quorum and suffers *no* interruption; fast rounds bypass
coordinators entirely.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.core.generalized import build_generalized
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict
from repro.smr.workload import Workload, WorkloadConfig


def _availability_run(
    rtype: int,
    seed: int = 5,
    crash_at: float = 60.0,
    n_commands: int = 40,
    period: float = 4.0,
) -> dict:
    cluster_kind = {0: "fast", 1: "single-coordinated", 2: "multicoordinated"}[rtype]
    sim = Simulation(seed=seed)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3 if rtype != 0 else 4,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(n_commands=n_commands, period=period, seed=seed)
    )
    workload.schedule_on(cluster)
    sim.schedule(crash_at, lambda: cluster.coordinators[0].crash())
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    times = sorted(
        t
        for t in (sim.metrics.learn_time(c) for c in workload.commands)
        if t is not None
    )
    gaps = [b - a for a, b in zip(times, times[1:])]
    unlearned = sum(
        1 for c in workload.commands if sim.metrics.learn_time(c) is None
    )
    return {
        "round kind": cluster_kind,
        "max learning gap": max(gaps) if gaps else float("nan"),
        "baseline period": period,
        "interruption": (max(gaps) if gaps else 0.0) - period,
        "unlearned": unlearned,
    }


def experiment_e3(seed: int = 5) -> list[dict]:
    """Crash one coordinator mid-run; measure the learning interruption."""
    return [
        _availability_run(rtype=1, seed=seed),
        _availability_run(rtype=2, seed=seed),
        _availability_run(rtype=0, seed=seed),
    ]


def test_e3_availability(benchmark):
    rows = run_experiment(
        benchmark, experiment_e3, "E3: learning gap around a coordinator crash"
    )
    by_kind = {row["round kind"]: row for row in rows}
    single_gap = by_kind["single-coordinated"]["interruption"]
    multi_gap = by_kind["multicoordinated"]["interruption"]
    fast_gap = by_kind["fast"]["interruption"]
    # Single-coordinated rounds stall for roughly the failure-detector
    # timeout plus a round change; the decentralized rounds do not stall.
    assert single_gap > 5 * max(multi_gap, 1e-9)
    assert multi_gap <= 1.0
    assert fast_gap <= 1.0
    assert all(row["unlearned"] == 0 for row in rows)
