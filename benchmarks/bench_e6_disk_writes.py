"""E6 -- disk writes (Sections 4.1, 4.4).

Paper claims: coordinators never write to stable storage (crashed
coordinators simply come back as fresh ones), and neither do proposers,
which are clients (a crashed proposer's commands are resubmitted by its
client); acceptors write once per
acceptance; with the MCount/mCount scheme of Section 4.4 acceptors write
the round watermark once at startup plus once per recovery, instead of on
every phase-1b/round change.

Both engines are measured.  The generalized rows compare the naive and
the §4.4 round-number schedules.  The instances row runs checkpointing
and crashes and recovers a coordinator mid-run: it comes back fresh and
relearns the garbage-collection floor from the learners' checkpoint
advertisements (or from phase 1, when it starts a round), not from disk.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.core.generalized import build_generalized
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation
from repro.smr.instances import CheckpointConfig, build_smr
from repro.smr.machine import kv_conflict
from repro.smr.workload import Workload, WorkloadConfig


def _e6_run(reduce_disk_writes: bool, with_recovery: bool, seed: int = 4) -> dict:
    sim = Simulation(seed=seed)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        reduce_disk_writes=reduce_disk_writes,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=30, period=4.0, seed=seed))
    workload.schedule_on(cluster)
    if with_recovery:
        sim.schedule(50, lambda: cluster.acceptors[0].crash())
        sim.schedule(70, lambda: cluster.acceptors[0].recover())
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    n_cmds = len(workload.commands)
    coord_writes = sum(c.storage.write_count for c in cluster.coordinators)
    vote_writes = sum(a.storage.write_counts["vval"] for a in cluster.acceptors)
    round_writes = sum(
        a.storage.write_counts["rnd"] + a.storage.write_counts["mcount"]
        for a in cluster.acceptors
    )
    return {
        "engine": "generalized",
        "config": ("§4.4 reduced" if reduce_disk_writes else "naive rnd-on-disk")
        + (" + recovery" if with_recovery else ""),
        "proposer writes": sum(p.storage.write_count for p in cluster.proposers),
        "coordinator writes": coord_writes,
        "vote writes (total)": vote_writes,
        "rnd/mcount writes": round_writes,
        "vote writes / cmd / acceptor": vote_writes / n_cmds / len(cluster.acceptors),
        "unlearned": sum(
            1 for c in workload.commands if sim.metrics.learn_time(c) is None
        ),
    }


def _e6_instances_run(seed: int = 4) -> dict:
    sim = Simulation(seed=seed)
    cluster = build_smr(sim, checkpoint=CheckpointConfig(interval=5))
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=30, period=4.0, seed=seed))
    workload.schedule_on(cluster)
    sim.schedule(50, lambda: cluster.coordinators[0].crash())
    sim.schedule(70, lambda: cluster.coordinators[0].recover())
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    n_cmds = len(workload.commands)
    vote_writes = sum(a.storage.write_counts["vote"] for a in cluster.acceptors)
    return {
        "engine": "instances",
        "config": "checkpointing + coordinator crash",
        "proposer writes": sum(p.storage.write_count for p in cluster.proposers),
        "coordinator writes": sum(c.storage.write_count for c in cluster.coordinators),
        "vote writes (total)": vote_writes,
        "rnd/mcount writes": sum(a.storage.write_counts["rnd"] for a in cluster.acceptors),
        "vote writes / cmd / acceptor": vote_writes / n_cmds / len(cluster.acceptors),
        "unlearned": sum(
            1 for c in workload.commands if sim.metrics.learn_time(c) is None
        ),
    }


def experiment_e6() -> list[dict]:
    """Disk writes: coordinators never write; §4.4 removes phase-1b writes."""
    return [
        _e6_run(reduce_disk_writes=True, with_recovery=False),
        _e6_run(reduce_disk_writes=False, with_recovery=False),
        _e6_run(reduce_disk_writes=True, with_recovery=True),
        _e6_instances_run(),
    ]


def test_e6_disk_writes(benchmark):
    rows = run_experiment(benchmark, experiment_e6, "E6: disk writes per configuration")
    reduced = next(r for r in rows if r["config"] == "§4.4 reduced")
    naive = next(r for r in rows if r["config"] == "naive rnd-on-disk")
    recovery = next(r for r in rows if "recovery" in r["config"])
    # Proposers and coordinators never touch stable storage.
    assert all(row["proposer writes"] == 0 for row in rows)
    assert all(row["coordinator writes"] == 0 for row in rows)
    # §4.4 reduces round-number writes to the startup writes only.
    assert reduced["rnd/mcount writes"] <= 2 * 3  # at most startup + round change
    assert naive["rnd/mcount writes"] > 3 * reduced["rnd/mcount writes"]
    # Recovery costs exactly one extra mcount write.
    assert recovery["rnd/mcount writes"] == reduced["rnd/mcount writes"] + 1
    # Roughly one vote write per command per acceptor in steady state.
    assert 0.5 <= reduced["vote writes / cmd / acceptor"] <= 1.5
    assert all(row["unlearned"] == 0 for row in rows)
