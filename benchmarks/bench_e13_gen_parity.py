"""E13 -- generalized-engine parity: c-struct batching + bounded history.

Two claims of the production parity layer are pinned here:

1. **Batching throughput** (CI guard): with ``max_batch`` > 1 whole
   command groups ride one phase "2a" (one ``CommandHistory.extend`` per
   batch instead of one message and one lattice extension per command), so
   at moderate conflict density the batched engine must complete a
   closed-loop workload at **>= 2x** the unbatched commands-per-wall-second
   rate -- and with well under half the messages and simulation events per
   command.
2. **Bounded retained history** (CI guard): with stable-prefix
   checkpointing the peak retained history-lattice state (acceptor
   ``vval``, learner ``learned``, coordinator ``cval``, acceptor delta
   journal) tracks the checkpoint *window* and stays flat as the run
   length grows, while the unbounded engine's peak is O(total commands);
   a learner restarted after the cluster truncated past its checkpoint
   converges through chunked snapshot install to a compatible replica
   (same conflicting-command order, same machine state).

``E13_QUICK=1`` (the CI job) runs the reduced grid below; the full run
sweeps two conflict densities and three run lengths.
"""

from __future__ import annotations

import time

from benchmarks.conftest import quick, run_experiment, sample_peaks
from repro.core.checkpoint import CheckpointConfig
from repro.core.generalized import build_generalized
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica
from repro.smr.workload import Workload, WorkloadConfig

QUICK = quick("E13")

#: E13a: commands per run and conflict densities (quick: one density).
N_COMMANDS, CONFLICT_RATES = (160, (0.3,)) if QUICK else (200, (0.1, 0.3))
#: E13b: run lengths.
MEMORY_N_GRID = (300, 600) if QUICK else (400, 800, 1200)


def _e13_run(
    label: str,
    n_commands: int,
    conflict_rate: float,
    batching: BatchingConfig = UNBATCHED,
    checkpoint: CheckpointConfig | None = None,
    seed: int = 19,
    window: int = 16,
    sample_period: float = 10.0,
    crash_learner: bool = False,
    n_learners: int = 2,
) -> dict:
    """One closed-loop saturation run on the generalized engine.

    A :class:`repro.smr.client.PipelinedClient` keeps *window* commands in
    flight so batches fill on arrival pressure; peak retained
    history-lattice state is sampled periodically.  With ``crash_learner``
    the last learner goes down mid-run, the cluster truncates past its
    durable checkpoint, and the learner is restarted -- it must converge
    through snapshot install to a compatible replica.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        n_learners=n_learners,
        batching=batching,
        checkpoint=checkpoint,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    client = PipelinedClient("e13", cluster, window=window)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            conflict_rate=conflict_rate,
            read_fraction=0.2,
            seed=seed,
        )
    )
    sim.run(until=5.0)  # let the round establish before loading it
    client.submit(workload.commands)
    peaks, sample = sample_peaks(cluster, sample_period)

    victim = cluster.learners[-1]
    if crash_learner:
        # Crash once a third of the run is delivered; restart at two
        # thirds, after the cluster has truncated past the victim.
        sim.run_until(
            lambda: len(cluster.learners[0].delivered) >= n_commands // 3,
            timeout=200.0 * n_commands,
        )
        victim.crash()
        sim.run_until(
            lambda: len(cluster.learners[0].delivered) >= 2 * n_commands // 3,
            timeout=200.0 * n_commands,
        )
        victim.recover()
    start = time.perf_counter()
    completed = sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands),
        timeout=200.0 * n_commands,
    )
    wall = time.perf_counter() - start
    sample()
    hot_orders = {
        tuple(c for c in replica.executed if c.key == workload.config.hot_key)
        for replica in replicas
    }
    stats = cluster.checkpoint_stats() if checkpoint is not None else {}
    return {
        "engine": label,
        "commands": n_commands,
        "conflict rate": conflict_rate,
        "completed": completed,
        "wall s": wall,
        "events": sim.events_processed,
        "msgs / cmd": sim.metrics.total_messages / n_commands,
        "cmds / wall s": n_commands / wall if wall else float("inf"),
        "peak retained history": max(
            peaks.get("acceptor vval", 0),
            peaks.get("learner learned", 0),
            peaks.get("coordinator cval", 0),
        ),
        "peak acceptor journal": peaks.get("acceptor journal", 0),
        "orders agree": len(hot_orders) == 1,
        "states agree": len({r.machine.snapshot() for r in replicas}) == 1,
        "snapshots": stats.get("snapshots", 0),
        "installs": stats.get("installs", 0),
        "final floor": stats.get("acceptor_floor", 0),
    }


def experiment_e13(
    n_commands: int, conflict_rates: tuple[float, ...], seed: int = 19
) -> list[dict]:
    """Batch size x conflict density on the generalized engine.

    Without batching every proposal costs one ``extend`` plus one 2a/2b
    round trip of its own; with ``max_batch`` > 1 whole command
    groups ride one phase "2a" (one ``CommandHistory.extend`` per batch),
    so events and messages per command drop by ~the batch size and
    end-to-end throughput rises well over the 2x acceptance bar (asserted
    below at moderate conflict density).
    """

    grid: list[tuple[str, BatchingConfig]] = [
        ("unbatched", UNBATCHED),
        ("batch 4", BatchingConfig(max_batch=4, flush_interval=2.0)),
        ("batch 8", BatchingConfig(max_batch=8, flush_interval=2.0)),
    ]
    rows: list[dict] = []
    for rate in conflict_rates:
        for label, batching in grid:
            rows.append(
                _e13_run(label, n_commands, rate, batching=batching, seed=seed)
            )
    return rows


def experiment_e13_memory(
    n_grid: tuple[int, ...],
    interval: int = 50,
    conflict_rate: float = 0.3,
    seed: int = 19,
) -> list[dict]:
    """Retained history vs run length: window-bounded vs unbounded.

    The unbounded engine's peak retained history (acceptor ``vval``,
    learner ``learned``, coordinator ``cval``) grows linearly with the
    run; with stable-prefix checkpointing it must track the checkpoint
    *window* -- flat across run lengths.  The final row restarts a laggard
    learner below the truncation floor: it must converge through chunked
    snapshot install to a compatible replica.
    """

    batching = BatchingConfig(max_batch=8, flush_interval=1.0)
    rows: list[dict] = []
    for n in n_grid:
        rows.append(
            _e13_run(f"unbounded, {n} cmds", n, conflict_rate, batching=batching, seed=seed)
        )
        rows.append(
            _e13_run(
                f"checkpoint {interval}, {n} cmds",
                n,
                conflict_rate,
                batching=batching,
                checkpoint=CheckpointConfig(interval=interval, gc_quorum=2),
                seed=seed,
            )
        )
    rows.append(
        _e13_run(
            f"checkpoint {interval} + laggard restart",
            n_grid[0],
            conflict_rate,
            batching=batching,
            checkpoint=CheckpointConfig(interval=interval, gc_quorum=2, chunk_size=64),
            seed=seed,
            crash_learner=True,
            n_learners=3,
        )
    )
    return rows


def test_e13_batching_throughput(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e13(N_COMMANDS, CONFLICT_RATES),
        "E13a: generalized batching sweep (batch size x conflict density)",
    )
    assert all(r["completed"] for r in rows)
    assert all(r["orders agree"] and r["states agree"] for r in rows)
    for rate in {r["conflict rate"] for r in rows}:
        of_rate = [r for r in rows if r["conflict rate"] == rate]
        unbatched = next(r for r in of_rate if r["engine"] == "unbatched")
        batched = next(r for r in of_rate if r["engine"] == "batch 8")
        # The acceptance bar: >= 2x end-to-end throughput at every
        # measured conflict density (measured ~4-5x), plus the mechanism
        # that delivers it -- under half the per-command message count.
        assert batched["cmds / wall s"] >= 2.0 * unbatched["cmds / wall s"], (
            f"conflict {rate}: batched {batched['cmds / wall s']:.0f} < "
            f"2x unbatched {unbatched['cmds / wall s']:.0f} cmds/s"
        )
        assert batched["msgs / cmd"] < unbatched["msgs / cmd"] / 2
        assert batched["events"] < unbatched["events"] / 2


def test_e13_checkpoint_bounded_history(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e13_memory(MEMORY_N_GRID),
        "E13b: retained history vs run length (bounded-memory claim)",
    )
    assert all(r["completed"] for r in rows)
    assert all(r["orders agree"] and r["states agree"] for r in rows)

    unbounded = [r for r in rows if r["engine"].startswith("unbounded")]
    bounded = [r for r in rows if r["engine"].startswith("checkpoint") and "laggard" not in r["engine"]]
    restarted = next(r for r in rows if "laggard" in r["engine"])

    # Unbounded: peak retained history is the whole run (every role holds
    # the full command history at the end).
    for row in unbounded:
        assert row["peak retained history"] >= row["commands"] - 1
    # Checkpointed: the peak tracks the window (interval + in-flight
    # slack), *independent of run length* -- flat across the grid.
    for row in bounded:
        assert row["snapshots"] >= 1
        assert row["final floor"] > 0
        assert row["peak retained history"] <= 50 + 64
        assert row["peak acceptor journal"] <= 50 + 64
    spread = {r["peak retained history"] for r in bounded}
    assert max(spread) - min(spread) <= 32, (
        f"checkpointed peak should be flat in run length, got {sorted(spread)}"
    )

    # The laggard restarted below the truncation floor converged through
    # at least one chunked snapshot install.
    assert restarted["installs"] >= 1
