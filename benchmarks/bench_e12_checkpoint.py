"""E12 -- checkpointing & log truncation: bounded retained state.

The paper's protocols assume replicas keep the full decided history; so
did the engine until the checkpointing subsystem.  This benchmark
regenerates the bounded-memory claim on a multi-thousand-command run:

* with a ``CheckpointConfig`` the peak retained per-process journal/vote
  state tracks the checkpoint *window* (interval + in-flight slack) and
  stays flat in the total run length, while the unbounded engine's peak
  is O(total instances);
* a learner crashed mid-run and restarted after the cluster truncated
  past its durable checkpoint still converges -- through chunked snapshot
  install plus suffix replay -- to the identical replica order.

``E12_QUICK=1`` (the CI job) runs the reduced grid below.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment, sample_peaks
from repro.core.checkpoint import CheckpointConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import KVStore
from repro.smr.replica import Replica
from repro.smr.workload import Workload, WorkloadConfig

QUICK = quick("E12")

#: Quick mode (the CI job): 2000 commands, one checkpoint interval; the
#: full run sweeps two intervals at 2400 commands.
N_COMMANDS, INTERVALS = (2000, (50,)) if QUICK else (2400, (50, 200))


def _e12_run(
    label: str,
    checkpoint: CheckpointConfig | None,
    n_commands: int,
    seed: int = 17,
    crash_learner: bool = False,
    sample_period: float = 10.0,
    timeout: float = 100_000.0,
) -> dict:
    """One long-run workload; peak retained per-instance state is sampled.

    With ``crash_learner`` the third learner goes down mid-run, the
    cluster truncates past its durable checkpoint, and the learner is
    restarted -- it must converge through snapshot install + suffix
    replay to the identical replica order.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=3,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0, pipeline_depth=8),
        checkpoint=checkpoint,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands, arrival="burst", burst_size=6, period=1.0, seed=seed
        )
    )
    workload.schedule_on(cluster)
    peaks, _ = sample_peaks(cluster, sample_period)

    victim = cluster.learners[2]
    span = workload.span
    if crash_learner:
        sim.schedule(span / 3, victim.crash)
        sim.schedule(2 * span / 3, victim.recover)
    all_delivered = cluster.run_until_delivered(workload.commands, timeout=timeout)
    signatures = {r.order_signature() for r in replicas}
    stats = cluster.checkpoint_stats() if checkpoint is not None else {}
    return {
        "engine": label,
        "commands": n_commands,
        "delivered": all_delivered,
        "orders agree": len(signatures) == 1,
        "peak acceptor journal": peaks.get("acceptor journal", 0),
        "peak acceptor votes": peaks.get("acceptor votes", 0),
        "peak coord decided": peaks.get("coordinator decided", 0),
        "peak learner decided": peaks.get("learner decided", 0),
        "snapshots": stats.get("snapshots", 0),
        "installs": stats.get("installs", 0),
        "final floor": stats.get("acceptor_floor", 0),
    }


def experiment_e12(
    n_commands: int, intervals: tuple[int, ...], seed: int = 17
) -> list[dict]:
    """Retained state vs checkpoint interval on a multi-thousand-command run.

    The seed engine retains every acceptor vote and decision forever, so
    its peak per-process journal is O(total commands).  With a
    ``CheckpointConfig`` the peak must track the checkpoint *window*
    (interval + in-flight slack) -- flat in the total run length -- and a
    learner restarted from below the truncation frontier must converge by
    snapshot install to the identical order (asserted below).
    """

    rows = [_e12_run("unbounded (no checkpoint)", None, n_commands, seed=seed)]
    for interval in intervals:
        rows.append(
            _e12_run(
                f"checkpoint every {interval}",
                CheckpointConfig(interval=interval, gc_quorum=2),
                n_commands,
                seed=seed,
            )
        )
    rows.append(
        _e12_run(
            f"checkpoint {intervals[0]} + laggard restart",
            CheckpointConfig(interval=intervals[0], gc_quorum=2, chunk_size=128),
            n_commands,
            seed=seed,
            crash_learner=True,
        )
    )
    return rows


def test_e12_checkpoint_sweep(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e12(N_COMMANDS, INTERVALS),
        "E12: retained state vs checkpoint interval (bounded-memory claim)",
    )
    baseline = next(r for r in rows if r["engine"].startswith("unbounded"))
    checkpointed = [r for r in rows if not r["engine"].startswith("unbounded")]
    restarted = next(r for r in rows if "laggard restart" in r["engine"])

    # Everything delivers and every replica applies the same total order --
    # including the laggard that had to install a snapshot.
    assert all(r["delivered"] for r in rows)
    assert all(r["orders agree"] for r in rows)
    assert restarted["installs"] >= 1

    # The unbounded engine retains the whole history (one journal entry
    # per decided instance, ~commands / max_batch of them).
    assert baseline["peak acceptor journal"] >= baseline["commands"] / 8 - 16
    # The checkpointed engines retain O(window): the peak never exceeds
    # the checkpoint interval plus a small in-flight/advertisement slack,
    # independent of the total command count.
    for row in checkpointed:
        assert row["peak acceptor journal"] < baseline["peak acceptor journal"] / 2
        assert row["snapshots"] >= 1
        assert row["final floor"] > 0
    tightest = min(checkpointed, key=lambda r: r["peak acceptor journal"])
    # interval 50 window: peak must stay within ~window + pipeline slack.
    assert tightest["peak acceptor journal"] <= 50 + 32
