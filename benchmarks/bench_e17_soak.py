"""E17 -- randomized fault soak: nemesis episodes + trace-checked runs.

A :class:`repro.sim.nemesis.Nemesis` composes adversarial faults over
the simulated network -- asymmetric and symmetric partitions, targeted
leader / learner-quorum isolation, flapping links, per-link latency
skew, staggered crash storms -- from seeded ``mixed_soak`` schedules,
against all three deployment shapes (instances engine, generalized
engine, 2-group sharded cluster).  Every run records an append-only
event trace and is audited offline by :mod:`repro.core.checker`.

Claims pinned here (CI guards, quick mode ``E17_QUICK=1``):

1. **Liveness after heal**: once the nemesis heals, every submitted
   command completes (client-visible), on every engine, every seed.
2. **Zero checker violations**: per-key total order across replicas and
   groups, prefix-compatibility across crash/recovery and checkpoint
   adoptions, result agreement + witness replay, real-time order.
3. **Bounded memory**: on the checkpointing engines the peak retained
   per-process state tracks the checkpoint window, not the run length.
4. **Scale**: the full mode drives >= 1000 fault episodes in total.

Every test dumps its rows into ``BENCH_e17.json`` (cwd) for offline
before/after comparison.
"""

from __future__ import annotations

from benchmarks.conftest import dump_rows, quick, run_experiment
from repro.bench.experiments import experiment_e17

QUICK = quick("E17")

BENCH_JSON = "BENCH_e17.json"

#: Full mode: 6 runs x 60 episodes x 3 engines = 1080 episodes.
RUNS_PER_ENGINE = 2 if QUICK else 6
EPISODES_PER_RUN = 8 if QUICK else 60
N_CMDS = 48 if QUICK else 120

#: Retained-state ceiling on the checkpointing engines: the checkpoint
#: window (interval 32) plus in-flight slack, far below the 120-command
#: run length an unbounded engine would retain.
MAX_RETAINED = 96


def _soak():
    return experiment_e17(
        runs_per_engine=RUNS_PER_ENGINE,
        episodes_per_run=EPISODES_PER_RUN,
        n_cmds=N_CMDS,
    )


def test_e17_randomized_soak(benchmark):
    rows = run_experiment(
        benchmark, _soak, "E17: randomized nemesis soak, trace-checked"
    )
    dump_rows(BENCH_JSON, "soak", rows)

    assert {r["engine"] for r in rows} == {"instances", "generalized", "sharded"}
    total_episodes = sum(r["episodes"] for r in rows)
    if not QUICK:
        assert total_episodes >= 1000, f"only {total_episodes} episodes"

    for row in rows:
        # Liveness: the cluster serves every command once the nemesis
        # heals (within the post-heal budget).
        assert row["completed after heal"], f"wedged after heal: {row}"
        # Safety: the offline checker found no violation in the trace.
        assert row["violations"] == 0, f"checker violations: {row}"
        # The nemesis actually did something in every run.
        assert row["nemesis lines"] >= row["episodes"], f"idle nemesis: {row}"

    # Bounded memory on the checkpointing engines.
    for row in rows:
        if row["engine"] in ("instances", "generalized"):
            assert row["peak retained"] <= MAX_RETAINED, (
                f"retained state {row['peak retained']} exceeds the "
                f"checkpoint-window bound {MAX_RETAINED}: {row}"
            )

    # Zero per-key divergence on the sharded rows (same invariant E16
    # guards, now under composed faults).
    for row in rows:
        if row["engine"] == "sharded":
            assert row["divergent keys"] == 0, f"divergence: {row}"
