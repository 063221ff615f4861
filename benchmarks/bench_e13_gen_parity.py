"""E13 -- generalized-engine parity: c-struct batching + bounded history.

Two claims of the production parity layer are pinned here:

1. **Batching throughput** (CI guard): with a ``GenBatchingConfig`` whole
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

``E13_QUICK=1`` (the CI job) runs a reduced grid; the full run sweeps two
conflict densities and three run lengths.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.bench.experiments import experiment_e13, experiment_e13_memory

QUICK = quick("E13")


def _throughput_sweep():
    if QUICK:
        return experiment_e13(n_commands=160, conflict_rates=(0.3,))
    return experiment_e13()


def _memory_sweep():
    if QUICK:
        return experiment_e13_memory(n_grid=(300, 600))
    return experiment_e13_memory()


def test_e13_batching_throughput(benchmark):
    rows = run_experiment(
        benchmark,
        _throughput_sweep,
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
        _memory_sweep,
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
