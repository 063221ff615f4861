"""Smoke tests for the experiment runners (small parameterizations).

Each runner lives in its ``benchmarks/bench_e*.py`` file next to the
grid and the assertions it regenerates; root collection never reaches
those files, and several run only as side CI jobs.  These tests keep
every runner under unit-test coverage with reduced workloads, so a
regression in an experiment runner fails fast here.
"""

import json

from benchmarks.bench_e1_latency import experiment_e1
from benchmarks.bench_e2_quorums import experiment_e2
from benchmarks.bench_e3_availability import _availability_run
from benchmarks.bench_e4_load_balance import experiment_e4
from benchmarks.bench_e5_collisions import _e5_run
from benchmarks.bench_e6_disk_writes import experiment_e6
from benchmarks.bench_e7_recovery import _e7_run
from benchmarks.bench_e8_crossover import _e8_run
from benchmarks.bench_e9_batching import experiment_e9
from benchmarks.bench_e10_loss import experiment_e10
from benchmarks.bench_e11_lattice import experiment_e11
from benchmarks.bench_e12_checkpoint import experiment_e12
from benchmarks.bench_e13_gen_parity import experiment_e13, experiment_e13_memory
from benchmarks.bench_e15_delta import experiment_e15, experiment_e15_sessions
from benchmarks.bench_e16_shard import experiment_e16_cross
from benchmarks.bench_e17_soak import QUICK_ROWS, _as_json, experiment_e17


def test_e1_shapes():
    rows = experiment_e1()
    assert len(rows) == 7
    for row in rows:
        assert row["steps"] == row["paper"]


def test_e2_small_range():
    rows = experiment_e2(range(3, 6))
    assert [row["n"] for row in rows] == [3, 4, 5]
    for row in rows:
        assert row["classic/multicoord quorum"] <= row["fast quorum"]


def test_e3_single_run():
    row = _availability_run(rtype=2, n_commands=10, crash_at=25.0)
    assert row["unlearned"] == 0
    assert row["interruption"] <= 1.0


def test_e4_rows_have_bounds():
    rows = experiment_e4()
    assert {row["mode"] for row in rows} == {"classic (leader)", "multicoordinated", "fast"}
    for row in rows:
        assert 0.0 < row["max load"] <= 1.0


def test_e5_single_cell():
    row = _e5_run("multicoordinated", conflict_rate=0.0, seed=1)
    assert row["unlearned"] == 0
    assert row["collisions"] == 0


def test_e6_rows():
    rows = experiment_e6()
    assert all(row["coordinator writes"] == 0 for row in rows)


def test_e7_single_run_returns_latency_or_none():
    collided, latency = _e7_run("coordinated", seed=0)
    assert isinstance(collided, bool)
    assert latency is None or latency > 0


def test_e8_single_cell():
    row = _e8_run("single-coordinated", jitter=0.0, conflict_rate=1.0, seed=2)
    assert row["unlearned"] == 0
    assert row["mean latency (steps)"] == 3.0


def test_e9_one_jitter():
    rows = {row["engine"]: row for row in experiment_e9(jitters=(0.8,))}
    assert all(row["unlearned"] == 0 for row in rows.values())
    deep, unbatched = rows["batch 8 / depth 4"], rows["unbatched"]
    assert deep["cmds / 100 events"] > 2 * unbatched["cmds / 100 events"]


def test_e10_one_drop_rate():
    rows = experiment_e10(drop_rates=(0.3,))
    assert all(r["delivered %"] == 100.0 and r["orders agree"] for r in rows)
    assert all(r["retransmissions"] > 0 for r in rows)


def test_e11_one_cell_per_engine():
    rows = experiment_e11((20,), (0.1,))
    assert len(rows) == 3
    assert all(r["uncompleted"] == 0 for r in rows)


def test_e12_short_run():
    rows = experiment_e12(300, (20,))
    unbounded, checkpointed, restarted = rows
    assert all(r["delivered"] and r["orders agree"] for r in rows)
    assert checkpointed["peak acceptor journal"] < unbounded["peak acceptor journal"] / 2
    assert restarted["installs"] >= 1


def test_e13_one_density():
    rows = {row["engine"]: row for row in experiment_e13(40, (0.3,))}
    assert all(r["completed"] and r["orders agree"] and r["states agree"] for r in rows.values())
    assert rows["batch 8"]["msgs / cmd"] < rows["unbatched"]["msgs / cmd"] / 2


def test_e13_memory_one_length():
    unbounded, bounded, restarted = experiment_e13_memory((80,), interval=20)
    assert all(r["completed"] and r["states agree"] for r in (unbounded, bounded, restarted))
    assert bounded["peak retained history"] < unbounded["peak retained history"]
    assert restarted["installs"] >= 1


def test_e15_two_lengths():
    rows = experiment_e15((20, 40))
    assert all(r["completed"] and r["orders agree"] and r["resyncs"] == 0 for r in rows)
    assert rows[0]["idle B / tick"] == rows[1]["idle B / tick"]


def test_e15_sessions_short_runs():
    rows = {row["mode"]: row for row in experiment_e15_sessions(base=20, interval=10)}
    assert all(r["completed"] and r["resyncs"] == 0 for r in rows.values())
    assert rows["sessions, 60 cmds"]["retained dedup"] < rows["seen-set, 60 cmds"]["retained dedup"]


def test_e16_two_groups():
    rows = experiment_e16_cross((0.0, 0.10), 1, 10, n_groups=2)
    assert all(r["completed"] and r["divergent keys"] == 0 for r in rows)
    assert rows[1]["barriers"] == rows[1]["cross"] > 0


def test_e17_one_seed_per_engine_replays_the_recorded_rows():
    rows = experiment_e17(1, 8, 48)
    recorded = json.loads(QUICK_ROWS.read_text())["soak"]
    # Quick mode runs two seeds per engine; the first of each is this run.
    assert _as_json(rows) == recorded[::2]
