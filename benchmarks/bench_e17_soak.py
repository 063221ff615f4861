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
5. **Seed replay**: the quick-mode rows are a pure function of the code,
   so they must equal ``tests/checker_fixtures/e17_quick_rows.json``
   field for field (checker events, done clock, peak retained...).  A
   change that alters a seeded run fails here; one that means to
   re-records the fixture and says so.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import quick, run_experiment
from repro.chaos import mixed_soak
from repro.core.checker import TraceRecorder, check_trace
from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import build_generalized
from repro.core.liveness import LivenessConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.shard import ShardedDeployment
from repro.sim.nemesis import ClusterView, Nemesis
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import build_smr
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica

QUICK = quick("E17")

#: Full mode: 6 runs x 60 episodes x 3 engines = 1080 episodes.
RUNS_PER_ENGINE = 2 if QUICK else 6
EPISODES_PER_RUN = 8 if QUICK else 60
N_CMDS = 48 if QUICK else 120

#: Retained-state ceiling on the checkpointing engines: the checkpoint
#: window (interval 32) plus in-flight slack, far below the 120-command
#: run length an unbounded engine would retain.
MAX_RETAINED = 96

#: The quick-mode rows, as recorded (section ``"soak"``).
QUICK_ROWS = (
    Path(__file__).resolve().parent.parent
    / "tests" / "checker_fixtures" / "e17_quick_rows.json"
)


def _e17_fault_configs():
    """Shared reliability/liveness tuning for the soak deployments."""
    retransmit = RetransmitConfig(retry_interval=4.0)
    liveness = LivenessConfig(
        heartbeat_period=2.0,
        suspect_timeout=8.0,
        stuck_timeout=10.0,
    )
    checkpoint = CheckpointConfig(interval=32, chunk_size=16)
    return retransmit, liveness, checkpoint


def _e17_workload(make_command, n_cmds: int, n_keys: int = 5) -> list:
    """A mixed put/inc/get/cas stream over a small key set.

    Reads and CAS make the checker's witness replay meaningful: a
    divergent order almost surely changes some recorded result.
    """
    cmds = []
    for i in range(n_cmds):
        key = f"k{i % n_keys}"
        kind = i % 4
        if kind == 0:
            cmds.append(make_command("put", key, i))
        elif kind == 1:
            cmds.append(make_command("inc", key, None))
        elif kind == 2:
            cmds.append(make_command("get", key, None))
        else:
            cmds.append(make_command("cas", key, (i - 4, i)))
    return cmds


def _e17_row(
    engine: str,
    seed: int,
    episodes: int,
    cmds,
    completed: bool,
    report,
    nem,
    horizon: float,
    done_clock: float,
    retained: int | None,
) -> dict:
    return {
        "engine": engine,
        "seed": seed,
        "episodes": episodes,
        "commands": len(cmds),
        "completed after heal": completed,
        "violations": len(report.violations),
        "checker events": report.events,
        "nemesis lines": len(nem.log),
        "heal horizon": round(horizon, 1),
        "done clock": round(done_clock, 1),
        "heal-to-done": round(max(0.0, done_clock - horizon), 1),
        "peak retained": retained if retained is not None else "",
    }


#: engine label -> (build call, whether the client completes at execution
#: -- ``watch_replica`` -- or at learn time -- ``watch_learner``).  Both
#: completion points stay exercised under faults, one per engine.
_E17_ENGINES = {
    "instances": (build_smr, True),
    "generalized": (
        lambda sim, **shape: build_generalized(
            sim, CommandHistory.bottom(kv_conflict()), **shape
        ),
        False,
    ),
}


def _e17_engine_run(
    engine: str,
    seed: int,
    episodes: int,
    n_cmds: int,
    mean_gap: float = 5.0,
    mean_duration: float = 6.0,
) -> dict:
    """One nemesis soak on *engine* (a key of ``_E17_ENGINES``), trace-checked."""
    build, complete_at_execute = _E17_ENGINES[engine]
    retransmit, liveness, checkpoint = _e17_fault_configs()
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(latency=1.0, jitter=0.5),
        max_events=30_000_000,
    )
    cluster = build(
        sim,
        n_proposers=1,
        n_coordinators=2,
        n_acceptors=3,
        n_learners=2,
        retransmit=retransmit,
        liveness=liveness,
        checkpoint=checkpoint,
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=2, rtype=2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]

    recorder = TraceRecorder(sim)
    recorder.attach(cluster, replicas=replicas)

    client = PipelinedClient("c0", cluster, window=4, retry_interval=16.0)
    if complete_at_execute:
        client.watch_replica(replicas[0])
    else:
        client.watch_learner(cluster.learners[0])
    cmds = _e17_workload(client.make_command, n_cmds)
    for cmd in cmds:
        recorder.note_propose(cmd)
    client.submit(cmds)

    view = ClusterView.of(cluster)
    nem = Nemesis(sim, view, seed=seed)
    horizon = nem.apply(
        mixed_soak(view, seed=seed, episodes=episodes,
                   mean_gap=mean_gap, mean_duration=mean_duration)
    )
    sim.run_until(lambda: sim.clock >= horizon, timeout=horizon + 1)
    nem.heal()
    completed = sim.run_until(
        lambda: client.all_completed(), timeout=sim.clock + 8_000.0
    )
    recorder.note_client(client)

    report = check_trace(recorder.events)
    retained = max(cluster.retained_state().values())
    return _e17_row(
        engine, seed, episodes, cmds, completed, report, nem,
        horizon, sim.clock, retained,
    )


def _e17_sharded_run(
    seed: int,
    episodes: int,
    n_cmds: int,
    n_groups: int = 2,
    cross_every: int = 10,
    mean_gap: float = 5.0,
    mean_duration: float = 6.0,
) -> dict:
    """One nemesis soak on a sharded deployment, trace-checked.

    Faults hit group and merge roles alike; cross-shard commands keep
    the merge path exercised while partitions and crash storms land.
    The sharded groups run without checkpointing (see
    ``repro.shard.deploy``), so no retained-state bound is claimed here.
    """

    retransmit, liveness, _ = _e17_fault_configs()
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(latency=1.0, jitter=0.5),
        max_events=30_000_000,
    )
    deployment = ShardedDeployment.build(
        sim, n_groups, retransmit=retransmit, liveness=liveness
    ).start()

    recorder = TraceRecorder(sim)
    recorder.attach_sharded(deployment)

    per_group = [deployment.shard_map.first_keys(gid, 2) for gid in range(n_groups)]
    flat = [key for keys in per_group for key in keys]
    cmds = []
    for i in range(n_cmds):
        if cross_every and i % cross_every == cross_every - 1:
            a = per_group[i % n_groups][0]
            b = per_group[(i + 1) % n_groups][0]
            cmds.append(Command(f"x{i}", "put", f"{a}|{b}", i))
        else:
            cmds.append(Command(f"c{i}", "put", flat[i % len(flat)], i))
    for cmd in cmds:
        recorder.note_propose(cmd)

    view = ClusterView.of(deployment)
    nem = Nemesis(sim, view, seed=seed)
    horizon = nem.apply(
        mixed_soak(view, seed=seed, episodes=episodes,
                   mean_gap=mean_gap, mean_duration=mean_duration)
    )
    spacing = max(0.5, horizon / max(1, len(cmds)))
    for j, cmd in enumerate(cmds):
        deployment.router.propose(cmd, delay=2.0 + spacing * j)

    sim.run_until(lambda: sim.clock >= horizon, timeout=horizon + 1)
    nem.heal()
    completed = deployment.run_until_executed(cmds, timeout=sim.clock + 8_000.0)

    report = check_trace(recorder.events)
    row = _e17_row(
        "sharded", seed, episodes, cmds, completed, report, nem,
        horizon, sim.clock, None,
    )
    row["divergent keys"] = len(deployment.divergent_keys())
    return row


def experiment_e17(
    runs_per_engine: int, episodes_per_run: int, n_cmds: int, base_seed: int = 23
) -> list[dict]:
    """Randomized nemesis soak across all three deployment shapes.

    Every run drives a mixed workload while a seeded :class:`Nemesis`
    composes partitions, flapping links, latency skew and crash storms,
    then heals and requires (1) every command completes -- liveness
    restored, (2) the offline trace checker finds zero violations, and
    (3) retained per-process state stays bounded by the checkpoint
    window on the checkpointing engines.
    """
    rows: list[dict] = []
    for offset, engine in enumerate(_E17_ENGINES):
        for i in range(runs_per_engine):
            rows.append(
                _e17_engine_run(engine, base_seed + 100 * offset + i, episodes_per_run, n_cmds)
            )
    for i in range(runs_per_engine):
        rows.append(
            _e17_sharded_run(base_seed + 200 + i, episodes_per_run, n_cmds)
        )
    return rows


def _as_json(rows: list[dict]) -> list[dict]:
    """*rows* as the fixture stores them: values that are not JSON scalars
    become their ``str``."""
    return [
        {
            key: value if isinstance(value, (int, float, bool, str)) else str(value)
            for key, value in row.items()
        }
        for row in rows
    ]


def test_e17_randomized_soak(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e17(RUNS_PER_ENGINE, EPISODES_PER_RUN, N_CMDS),
        "E17: randomized nemesis soak, trace-checked",
    )
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

    if QUICK:
        # Same seed, same run: the rows equal the recorded ones.
        assert _as_json(rows) == json.loads(QUICK_ROWS.read_text())["soak"]
