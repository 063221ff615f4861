"""E15 -- delta wire protocol: O(delta) hot paths, digest catch-up, sessions.

The cumulative generalized engine re-ships its full c-struct on every
accept, re-announce and catch-up answer, so per-command wire bytes and
idle chatter grow linearly with history length.  With a ``DeltaConfig``
senders ship only unsent suffixes stamped by (size, digest) of what was
already sent, stamped polls are answered by an O(1) ``VoteStamp``, and a
``SessionConfig`` replaces the learners' unbounded seen-sets with
sliding per-client windows.  Claims pinned here (CI guards, quick mode
``E15_QUICK=1``):

1. **Idle-tick bytes O(1)**: the delta cluster's idle catch-up bytes per
   tick are flat in history length (cumulative: linear growth).
2. **Per-command 2a/2b payload O(delta)**: flat in history length
   (cumulative: linear), with **>= 2x fewer simulation events per
   command at history length 400**.
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

    cumulative = [r for r in rows if r["mode"].startswith("cumulative")]
    delta = [r for r in rows if r["mode"].startswith("delta")]
    small, large = cumulative[0], cumulative[-1]
    growth = large["commands"] / small["commands"]

    # Cumulative: O(history) -- idle-tick bytes and per-command payload
    # grow with history length (at least half the command-count ratio).
    assert large["idle B / tick"] >= (growth / 2) * small["idle B / tick"]
    assert large["2a/2b B / cmd"] >= (growth / 2) * small["2a/2b B / cmd"]

    # Delta: O(1) idle ticks and O(delta) payloads -- flat across the
    # grid (measured byte-identical; 1.25x allows schedule jitter).
    for metric in ("idle B / tick", "2a/2b B / cmd"):
        values = [r[metric] for r in delta]
        assert max(values) <= 1.25 * min(values), (
            f"delta {metric} not flat in history length: {values}"
        )
    assert delta[-1]["idle B / tick"] < 1_000  # absolute: stamps, not votes

    # The mechanism fired, and never needed mismatch repair on a clean run.
    for row in delta:
        assert row["delta 2b"] > 0 and row["stamps"] > 0
        assert row["resyncs"] == 0

    # >= 2x fewer events per command at the longest history (the hot
    # paths do O(delta) work and idle polls are suppressed).
    assert large["events / cmd"] >= 2.0 * delta[-1]["events / cmd"], (
        f"delta events/cmd {delta[-1]['events / cmd']} not 2x better than "
        f"cumulative {large['events / cmd']} at history {large['commands']}"
    )


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

