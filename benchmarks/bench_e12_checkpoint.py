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

``E12_QUICK=1`` (the CI job) runs a 2000-command sweep with a single
checkpoint interval; the full run sweeps two intervals at 2400 commands.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.bench.experiments import experiment_e12

QUICK = quick("E12")


def _sweep():
    if QUICK:
        return experiment_e12(n_commands=2000, intervals=(50,))
    return experiment_e12()


def test_e12_checkpoint_sweep(benchmark):
    rows = run_experiment(
        benchmark,
        _sweep,
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
