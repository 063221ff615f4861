"""E15 -- delta wire protocol: O(delta) hot paths, digest catch-up, sessions.

The generalized engine's senders ship only unsent suffixes stamped by
(size, digest) of what was already sent, stamped polls are answered by
an O(1) ``VoteStamp``, and a ``SessionConfig`` replaces the learners'
unbounded seen-sets with sliding per-client windows.  Claims pinned here
(CI guards, quick mode ``E15_QUICK=1``):

1. **Idle-tick bytes O(1)**: idle catch-up bytes per tick are flat in
   history length, and small in absolute terms (stamps, not votes).
2. **Per-command 2a/2b payload O(delta)**: flat in history length.
3. **Bounded dedup**: with sessions, learner retained dedup cells stay
   flat across a 3x-longer run (seen-set: linear).  These rows also
   checkpoint, so they pin that garbage collection keeps both delta
   streams: zero resync requests.

Wire bytes are each simulator send's real codec frame length.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.bench.experiments import experiment_e15, experiment_e15_sessions

QUICK = quick("E15")


def _wire_sweep():
    if QUICK:
        return experiment_e15(n_grid=(100, 400))
    return experiment_e15()


def test_e15_wire_scaling(benchmark):
    rows = run_experiment(
        benchmark,
        _wire_sweep,
        "E15a: bytes-on-wire and events/cmd vs history length",
    )
    assert all(r["completed"] and r["orders agree"] for r in rows)

    # O(1) idle ticks and O(delta) payloads -- flat across the grid
    # (measured byte-identical; 1.25x allows schedule jitter).
    for metric in ("idle B / tick", "2a/2b B / cmd"):
        values = [r[metric] for r in rows]
        assert max(values) <= 1.25 * min(values), (
            f"{metric} not flat in history length: {values}"
        )
    assert rows[-1]["idle B / tick"] < 1_000  # absolute: stamps, not votes

    # The mechanism fired, and never needed mismatch repair on a clean run.
    for row in rows:
        assert row["delta 2b"] > 0 and row["stamps"] > 0
        assert row["resyncs"] == 0


def test_e15_sessions_bounded_dedup(benchmark):
    rows = run_experiment(
        benchmark,
        experiment_e15_sessions,
        "E15b: learner dedup memory, seen-set vs session windows",
    )
    assert all(r["completed"] and r["orders agree"] for r in rows)

    seen_set = [r for r in rows if r["mode"].startswith("seen-set")]
    sessions = [r for r in rows if r["mode"].startswith("sessions")]

    # The legacy seen-set retains one cell per distinct command ever
    # delivered: 3x the run, 3x the cells.
    assert seen_set[-1]["retained dedup"] >= 2.5 * seen_set[0]["retained dedup"]
    # Session windows: flat across the 3x-longer run, and far below the
    # command count (floors + interval endpoints per active client).
    assert sessions[-1]["retained dedup"] <= sessions[0]["retained dedup"] + 4
    assert sessions[-1]["retained dedup"] < sessions[-1]["commands"] // 4
    # Bonus of the compact membership claim: idle checkpoint chatter
    # (ICheckpoint.members) stays flat instead of growing with history.
    assert sessions[-1]["idle B / tick"] <= 1.25 * sessions[0]["idle B / tick"]
    # Every row checkpoints under load, and GC at either end of a delta
    # stream moves no stamp: a clean run never needs mismatch repair.
    assert [r["resyncs"] for r in rows] == [0] * len(rows)

