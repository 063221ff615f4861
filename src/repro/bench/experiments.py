"""Experiment runners E1-E8: one function per quantitative claim.

The paper (a theory TR) contains no empirical tables or figures; its
evaluation is the set of quantitative claims analysed in Sections 1-4.
DESIGN.md numbers them E1-E8; every function here regenerates the
corresponding rows on the simulator, and EXPERIMENTS.md records the
paper-claim vs measured outcome.  The ``benchmarks/`` directory wraps these
functions with pytest-benchmark.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable

from repro.bench.workload import Workload, WorkloadConfig
from repro.chaos import mixed_soak
from repro.core.checker import TraceRecorder, check_trace
from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import (
    DeltaConfig,
    GenBatchingConfig,
    GeneralizedCluster,
    build_generalized,
)
from repro.core.liveness import LivenessConfig
from repro.core.multicoordinated import build_consensus
from repro.core.quorums import QuorumSystem, paper_quorum_sizes
from repro.core.sessions import SessionConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.net.codec import encode
from repro.protocols.classic import build_classic_paxos
from repro.protocols.fast import build_fast_paxos
from repro.protocols.generalized import build_generalized_paxos
from repro.shard import ShardedDeployment
from repro.sim.nemesis import ClusterView, Nemesis
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica

Row = dict


def _wall_clock() -> float:
    """Host seconds, for the rows whose measurement *is* wall time (E11,
    E13): read around a run and reported, never fed back into it, so the
    run itself stays a function of its seed."""
    return time.perf_counter()  # protolint: ignore[determinism]


# ---------------------------------------------------------------------------
# E1 -- learning latency in communication steps (Sections 1, 2.1-2.2, 3.1)
# ---------------------------------------------------------------------------


def _e1_run(cluster, rnd, run_until: Callable) -> tuple[float, int]:
    """One command's propose-to-learn latency and the messages it cost.

    *cluster* is warmed up in round *rnd* until t=15, the command is
    proposed one step later, and ``run_until(cluster, cmd)`` runs the
    simulation until it is learned.
    """
    sim = cluster.sim
    cluster.start_round(rnd)
    sim.run(until=15)
    before = sim.metrics.total_messages
    cmd = Command("e1", "put", "x", 1)
    cluster.propose(cmd, delay=1.0)
    run_until(cluster, cmd)
    return sim.metrics.latency_of(cmd), sim.metrics.total_messages - before


def _until_delivered(cluster, cmd: Command) -> None:
    cluster.run_until_delivered([cmd], timeout=200)


def _until_decided(cluster, cmd: Command) -> None:
    cluster.run_until_decided(timeout=200)


def experiment_e1() -> list[Row]:
    """Steady-state propose-to-learn latency, unit-latency network."""

    def consensus(rtype: int, n_acceptors: int = 3) -> tuple[float, int]:
        cluster = build_consensus(Simulation(seed=1), n_coordinators=3, n_acceptors=n_acceptors)
        return _e1_run(cluster, cluster.config.schedule.make_round(0, 1, rtype), _until_decided)

    def generalized(rtype: int) -> tuple[float, int]:
        cluster = build_generalized(
            Simulation(seed=1),
            bottom=CommandHistory.bottom(kv_conflict()),
            n_coordinators=3,
            n_acceptors=3,
        )
        return _e1_run(cluster, cluster.config.schedule.make_round(0, 1, rtype), _until_delivered)

    def classic() -> tuple[float, int]:
        cluster = build_classic_paxos(Simulation(seed=1), n_coordinators=3, n_acceptors=3)
        return _e1_run(cluster, 1, _until_delivered)

    def fast() -> tuple[float, int]:
        return _e1_run(build_fast_paxos(Simulation(seed=1), n_acceptors=4), 1, _until_decided)

    runs = [
        ("Classic Paxos (baseline)", 3, classic),
        ("MC Paxos, single-coordinated round", 3, lambda: consensus(1)),
        ("MC Paxos, multicoordinated round", 3, lambda: consensus(2)),
        ("MC Paxos, fast round", 2, lambda: consensus(0, n_acceptors=4)),
        ("Fast Paxos (baseline)", 2, fast),
        ("MC Generalized Paxos, multicoordinated", 3, lambda: generalized(2)),
        ("Generalized Paxos, fast round", 2, lambda: generalized(0)),
    ]
    rows: list[Row] = []
    for protocol, paper, run in runs:
        latency, msgs = run()
        rows.append({"protocol": protocol, "steps": latency, "messages": msgs, "paper": paper})
    return rows


# ---------------------------------------------------------------------------
# E2 -- quorum-size requirements (Section 2.2, abstract)
# ---------------------------------------------------------------------------


def experiment_e2(n_range: range = range(3, 14)) -> list[Row]:
    """Quorum sizes for n acceptors under n > 2E + F."""
    rows: list[Row] = []
    for n in n_range:
        sizes = paper_quorum_sizes(n)
        system = QuorumSystem(range(n))
        system.check_assumptions(exhaustive=n <= 7)
        rows.append(
            {
                "n": n,
                "F (classic failures)": sizes["F"],
                "E (fast failures)": sizes["E"],
                "classic/multicoord quorum": sizes["classic_quorum"],
                "fast quorum": sizes["fast_quorum"],
                "ceil(3n/4)": math.ceil(3 * n / 4),
                "balanced ceil((2n+1)/3)": sizes["balanced_quorum"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E3 -- availability under a coordinator crash (Sections 1, 4.1)
# ---------------------------------------------------------------------------


def _availability_run(
    rtype: int,
    seed: int = 5,
    crash_at: float = 60.0,
    n_commands: int = 40,
    period: float = 4.0,
) -> Row:
    cluster_kind = {0: "fast", 1: "single-coordinated", 2: "multicoordinated"}[rtype]
    sim = Simulation(seed=seed)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3 if rtype != 0 else 4,
        liveness=LivenessConfig(),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(n_commands=n_commands, period=period, seed=seed)
    )
    workload.schedule_on(cluster)
    sim.schedule(crash_at, lambda: cluster.coordinators[0].crash())
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    times = sorted(
        t
        for t in (sim.metrics.learn_time(c) for c in workload.commands)
        if t is not None
    )
    gaps = [b - a for a, b in zip(times, times[1:])]
    unlearned = sum(
        1 for c in workload.commands if sim.metrics.learn_time(c) is None
    )
    return {
        "round kind": cluster_kind,
        "max learning gap": max(gaps) if gaps else float("nan"),
        "baseline period": period,
        "interruption": (max(gaps) if gaps else 0.0) - period,
        "unlearned": unlearned,
    }


def experiment_e3(seed: int = 5) -> list[Row]:
    """Crash one coordinator mid-run; measure the learning interruption."""
    return [
        _availability_run(rtype=1, seed=seed),
        _availability_run(rtype=2, seed=seed),
        _availability_run(rtype=0, seed=seed),
    ]


# ---------------------------------------------------------------------------
# E4 -- load balance (Section 4.1)
# ---------------------------------------------------------------------------


def _e4_classic_leader(n_commands: int = 40) -> list[Row]:
    sim = Simulation(seed=3)
    cluster = build_classic_paxos(sim, n_coordinators=3, n_acceptors=5)
    cluster.start_round(1)
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    loads = [
        sim.metrics.commands_handled[c.pid] / n_commands for c in cluster.coordinators
    ]
    return [
        {
            "mode": "classic (leader)",
            "process": "coordinator",
            "max load": max(loads),
            "paper bound": 1.0,
            "source": "measured end-to-end",
        }
    ]


def _e4_multicoord_coordinators(n_commands: int = 40) -> list[Row]:
    sim = Simulation(seed=3)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=5,
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=5_000)
    nc = len(cluster.coordinators)
    loads = [
        sim.metrics.commands_handled[c.pid] / n_commands for c in cluster.coordinators
    ]
    return [
        {
            "mode": "multicoordinated",
            "process": "coordinator",
            "max load": max(loads),
            "paper bound": 0.5 + 1.0 / nc,
            "source": "measured end-to-end",
        }
    ]


def _e4_assignment_model(n_commands: int = 20_000) -> list[Row]:
    """Per-command quorum assignment (the paper's probabilistic claim).

    C-structs are cumulative, so in the single-instance generalized engine
    every acceptor eventually stores every command; the paper's per-command
    acceptor-load claim lives in the one-instance-per-command world, which
    this sampling model reproduces exactly.
    """

    rng = random.Random(42)
    rows: list[Row] = []
    nc, n = 3, 5
    quorums = QuorumSystem(range(n))
    coord_counts = [0] * nc
    acc_counts = [0] * n
    c_size = nc // 2 + 1
    for _ in range(n_commands):
        for c in rng.sample(range(nc), c_size):
            coord_counts[c] += 1
        for a in rng.sample(range(n), quorums.classic_quorum_size):
            acc_counts[a] += 1
    rows.append(
        {
            "mode": "multicoordinated",
            "process": "coordinator",
            "max load": max(coord_counts) / n_commands,
            "paper bound": 0.5 + 1.0 / nc,
            "source": "assignment model",
        }
    )
    rows.append(
        {
            "mode": "multicoordinated",
            "process": "acceptor",
            "max load": max(acc_counts) / n_commands,
            "paper bound": 0.5 + 1.0 / n,
            "source": "assignment model",
        }
    )
    fast_counts = [0] * n
    for _ in range(n_commands):
        for a in rng.sample(range(n), quorums.fast_quorum_size):
            fast_counts[a] += 1
    rows.append(
        {
            "mode": "fast",
            "process": "acceptor",
            "max load": max(fast_counts) / n_commands,
            "paper bound": 0.75,  # lower bound: every acceptor sees > 3/4
            "source": "assignment model",
        }
    )
    return rows


def _e4_multicoord_instances(n_commands: int = 30) -> list[Row]:
    """End-to-end acceptor load on the instance-per-command SMR engine."""

    sim = Simulation(seed=3)
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=5,
        liveness=LivenessConfig(),
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(WorkloadConfig(n_commands=n_commands, seed=3))
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=10_000)
    loads = [a.commands_accepted / n_commands for a in cluster.acceptors]
    return [
        {
            "mode": "multicoordinated",
            "process": "acceptor",
            "max load": max(loads),
            "paper bound": 0.5 + 1.0 / 5,
            "source": "measured end-to-end (SMR instances)",
        }
    ]


def experiment_e4() -> list[Row]:
    """Per-process load under random quorum selection."""
    rows = _e4_classic_leader()
    rows += _e4_multicoord_coordinators()
    rows += _e4_multicoord_instances()
    rows += _e4_assignment_model()
    return rows


# ---------------------------------------------------------------------------
# E5 -- collisions and wasted disk writes vs conflict rate (Sections 2.2, 4.2)
# ---------------------------------------------------------------------------


def _fast_generalized_cluster(sim: Simulation) -> GeneralizedCluster:
    return build_generalized_paxos(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=2,
        n_acceptors=4,
        liveness=LivenessConfig(),
    )


def _multicoord_cluster(sim: Simulation) -> GeneralizedCluster:
    return build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        liveness=LivenessConfig(),
    )


def _e5_run(mode: str, conflict_rate: float, seed: int) -> Row:
    jitter = 1.2
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    if mode == "fast":
        cluster = _fast_generalized_cluster(sim)
        rtype = 0
    else:
        cluster = _multicoord_cluster(sim)
        rtype = 2
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=30,
            conflict_rate=conflict_rate,
            arrival="burst",
            burst_size=2,
            period=8.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    learned = [
        c for c in workload.commands if sim.metrics.learn_time(c) is not None
    ]
    vote_writes = sum(a.storage.write_counts["vval"] for a in cluster.acceptors)
    latencies = [sim.metrics.latency_of(c) for c in learned]
    mean_hop = 1.0 + jitter / 2
    return {
        "mode": mode,
        "conflict rate": conflict_rate,
        "collisions": sum(a.collisions_detected for a in cluster.acceptors),
        "extra rounds": sum(c.rounds_started for c in cluster.coordinators) - 1,
        "writes / cmd / acceptor": vote_writes
        / max(len(learned), 1)
        / len(cluster.acceptors),
        "mean latency (steps)": sum(latencies)
        / max(len(latencies), 1)
        / mean_hop,
        "unlearned": len(workload.commands) - len(learned),
    }


def experiment_e5(
    conflict_rates: tuple[float, ...] = (0.0, 0.3, 0.6, 1.0), seed: int = 2
) -> list[Row]:
    """Collision behaviour of fast vs multicoordinated rounds."""
    rows: list[Row] = []
    for mode in ("fast", "multicoordinated"):
        for rate in conflict_rates:
            rows.append(_e5_run(mode, rate, seed))
    return rows


def _e5_waste_run(mode: str, seed: int) -> tuple[int, int]:
    """(collided?, wasted acceptor disk writes) for one two-proposer race."""
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.9))
    if mode == "fast":
        cluster = build_fast_paxos(
            sim, n_acceptors=4, n_proposers=2, fast_rounds=lambda r: r == 1
        )
        cluster.start_round(1)
    else:
        cluster = build_consensus(sim, n_proposers=2, n_coordinators=3, n_acceptors=3)
        cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cluster.propose(Command("a", "put", "x", 1), delay=6.0, proposer=0)
    cluster.propose(Command("b", "put", "x", 2), delay=6.0, proposer=1)
    cluster.run_until_decided(timeout=500)
    decision = cluster.decision()
    if mode == "fast":
        collided = sum(c.collisions_recovered for c in cluster.coordinators) > 0
    else:
        collided = sum(acc.collisions_detected for acc in cluster.acceptors) > 0
    wasted = sum(
        sum(1 for _, val in acc.accept_log if val != decision)
        for acc in cluster.acceptors
    )
    return int(collided), wasted


def experiment_e5_waste(n_seeds: int = 40) -> list[Row]:
    """Section 4.2's key asymmetry, at the consensus level.

    Fast-round collisions happen *after* acceptance: the losing value was
    written to disk.  Multicoordinated collisions are detected before
    acceptance: no disk write is wasted.
    """
    rows: list[Row] = []
    for mode in ("fast", "multicoordinated"):
        collided_runs = 0
        wasted_total = 0
        for seed in range(n_seeds):
            collided, wasted = _e5_waste_run(mode, seed)
            if collided:
                collided_runs += 1
                wasted_total += wasted
        rows.append(
            {
                "mode": mode,
                "collided runs": collided_runs,
                "wasted disk writes / collision": wasted_total / max(collided_runs, 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E6 -- disk writes (Sections 4.1, 4.4)
# ---------------------------------------------------------------------------


def _e6_run(reduce_disk_writes: bool, with_recovery: bool, seed: int = 4) -> Row:
    sim = Simulation(seed=seed)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        liveness=LivenessConfig(),
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
        "config": ("§4.4 reduced" if reduce_disk_writes else "naive rnd-on-disk")
        + (" + recovery" if with_recovery else ""),
        "coordinator writes": coord_writes,
        "vote writes (total)": vote_writes,
        "rnd/mcount writes": round_writes,
        "vote writes / cmd / acceptor": vote_writes / n_cmds / len(cluster.acceptors),
        "unlearned": sum(
            1 for c in workload.commands if sim.metrics.learn_time(c) is None
        ),
    }


def experiment_e6() -> list[Row]:
    """Disk writes: coordinators never write; §4.4 removes phase-1b writes."""
    return [
        _e6_run(reduce_disk_writes=True, with_recovery=False),
        _e6_run(reduce_disk_writes=False, with_recovery=False),
        _e6_run(reduce_disk_writes=True, with_recovery=True),
    ]


# ---------------------------------------------------------------------------
# E7 -- collision recovery cost (Sections 2.2, 4.2)
# ---------------------------------------------------------------------------


def _e7_run(strategy: str, seed: int) -> tuple[bool, float | None]:
    """One forced-concurrency fast-round run; returns (collided, latency)."""
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=0.9))
    uncoordinated = strategy == "uncoordinated"
    recovery = {
        "restart": "restart",
        "coordinated": "coordinated",
        "uncoordinated": "none",
    }[strategy]
    cluster = build_fast_paxos(
        sim,
        n_acceptors=4,
        n_proposers=2,
        fast_rounds=(lambda r: True) if uncoordinated else (lambda r: r == 1),
        uncoordinated=uncoordinated,
        recovery=recovery,
    )
    cluster.start_round(1)
    a = Command("a", "put", "x", 1)
    b = Command("b", "put", "x", 2)
    cluster.propose(a, delay=6.0, proposer=0)
    cluster.propose(b, delay=6.0, proposer=1)
    decided = cluster.run_until_decided(timeout=500)
    collided = (
        sum(c.collisions_recovered for c in cluster.coordinators) > 0
        or sum(acc.wasted_disk_writes for acc in cluster.acceptors) > 0
    )
    if not decided:
        return collided, None
    decision = cluster.decision()
    return collided, sim.metrics.latency_of(decision)


def experiment_e7(n_seeds: int = 40) -> list[Row]:
    """Decision latency of collided fast rounds per recovery strategy."""
    expectations = {"restart": 4, "coordinated": 2, "uncoordinated": 1}
    rows: list[Row] = []
    for strategy, extra in expectations.items():
        latencies = []
        collided_runs = 0
        for seed in range(n_seeds):
            collided, latency = _e7_run(strategy, seed)
            if collided and latency is not None:
                collided_runs += 1
                latencies.append(latency)
        rows.append(
            {
                "strategy": strategy,
                "collided runs": collided_runs,
                "mean latency (collided)": sum(latencies) / max(len(latencies), 1),
                "paper extra steps": extra,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E8 -- round-type crossover (Section 4.5)
# ---------------------------------------------------------------------------


def _e8_run(mode: str, jitter: float, conflict_rate: float, seed: int = 6) -> Row:
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    if mode == "fast":
        cluster = _fast_generalized_cluster(sim)
        rtype = 0
    elif mode == "multicoordinated":
        cluster = _multicoord_cluster(sim)
        rtype = 2
    else:
        cluster = _multicoord_cluster(sim)
        rtype = 1
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=24,
            conflict_rate=conflict_rate,
            arrival="burst",
            burst_size=2,
            period=8.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    cluster.run_until_delivered(workload.commands, timeout=20_000)
    learned = [c for c in workload.commands if sim.metrics.latency_of(c) is not None]
    latencies = [sim.metrics.latency_of(c) for c in learned]
    mean_hop = 1.0 + jitter / 2
    return {
        "round kind": mode,
        "jitter": jitter,
        "conflict rate": conflict_rate,
        "mean latency (steps)": sum(latencies) / max(len(latencies), 1) / mean_hop,
        "unlearned": len(workload.commands) - len(learned),
    }


def experiment_e8(
    jitters: tuple[float, ...] = (0.0, 1.5),
    conflict_rates: tuple[float, ...] = (0.0, 1.0),
    seed: int = 6,
) -> list[Row]:
    """Clustered vs conflict-prone settings (Section 4.5)."""
    rows: list[Row] = []
    for mode in ("fast", "multicoordinated", "single-coordinated"):
        for jitter in jitters:
            for rate in conflict_rates:
                rows.append(_e8_run(mode, jitter, rate, seed))
    return rows


# ---------------------------------------------------------------------------
# E9 -- batching and pipelining throughput (Section 4.1's "heavy traffic")
# ---------------------------------------------------------------------------


def _e9_run(
    label: str,
    batching: BatchingConfig | None,
    jitter: float,
    n_commands: int = 60,
    seed: int = 7,
) -> Row:
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        liveness=LivenessConfig(),
        batching=batching,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            arrival="burst",
            burst_size=4,
            period=2.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    delivered = cluster.run_until_delivered(workload.commands, timeout=30_000)
    learn_times = [
        t
        for t in (sim.metrics.learn_time(c) for c in workload.commands)
        if t is not None
    ]
    makespan = (max(learn_times) - workload.config.start) if learn_times else float("nan")
    events = sim.events_processed
    return {
        "engine": label,
        "jitter": jitter,
        "makespan": makespan,
        "events": events,
        "messages": sim.metrics.total_messages,
        "cmds / 100 events": 100.0 * n_commands / events,
        "cmds / step": n_commands / makespan if makespan else float("nan"),
        "collisions": sum(a.collisions_detected for a in cluster.acceptors),
        "unlearned": 0 if delivered else len(workload.commands) - len(learn_times),
    }


def experiment_e9(
    jitters: tuple[float, ...] = (0.0, 0.8), seed: int = 7
) -> list[Row]:
    """Throughput of the instance-per-command engine with batching/pipelining.

    Sweeps batch size x pipeline depth x collision pressure (network jitter
    makes concurrently proposed commands race for instances).  The batched,
    pipelined engine must beat the unbatched engine on commands delivered
    per simulation event -- the protocol does less work per command -- at
    equal command counts.
    """

    grid: list[tuple[str, BatchingConfig | None]] = [
        ("unbatched", None),
        ("batch 4 / depth 1", BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=1)),
        ("batch 4 / depth 2", BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=2)),
        ("batch 8 / depth 4", BatchingConfig(max_batch=8, flush_interval=2.0, pipeline_depth=4)),
    ]
    rows: list[Row] = []
    for jitter in jitters:
        for label, batching in grid:
            rows.append(_e9_run(label, batching, jitter, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# E10 -- liveness under message loss (Section 2.1.1's fair-lossy model)
# ---------------------------------------------------------------------------


def _e10_run(
    label: str,
    drop_rate: float,
    batching: BatchingConfig | None,
    retransmit: RetransmitConfig | None,
    n_commands: int = 48,
    seed: int = 11,
    timeout: float = 20_000.0,
) -> Row:
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(drop_rate=drop_rate),
        max_events=4_000_000,
    )
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=2,
        liveness=LivenessConfig(),
        batching=batching,
        retransmit=retransmit,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            arrival="burst",
            burst_size=4,
            period=3.0,
            seed=seed,
        )
    )
    workload.schedule_on(cluster)
    all_delivered = cluster.run_until_delivered(workload.commands, timeout=timeout)
    undelivered = sum(
        1
        for c in workload.commands
        if not all(learner.has_delivered(c) for learner in cluster.learners)
    )
    stats = cluster.retransmission_stats()
    learn_times = [
        t
        for t in (sim.metrics.learn_time(c) for c in workload.commands)
        if t is not None
    ]
    return {
        "engine": label,
        "drop rate": drop_rate,
        "delivered %": 100.0 * (n_commands - undelivered) / n_commands,
        "orders agree": len({r.order_signature() for r in replicas}) == 1,
        "makespan": (max(learn_times) - workload.config.start)
        if all_delivered
        else float("inf"),
        "msgs / cmd": sim.metrics.total_messages / n_commands,
        "retransmissions": stats["retransmissions"],
        "catch-ups": stats["catchup_requests"],
        "gossip": stats["gossip_rounds"],
    }


def experiment_e10(
    drop_rates: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5), seed: int = 11
) -> list[Row]:
    """Delivery under a fair-lossy network, with and without retransmission.

    A 48-command bursty workload is pushed through the multi-instance
    engine at increasing drop rates.  The seed engine (no retransmission)
    strands commands as soon as an ``IPropose`` can be lost on every link;
    the reliability layer (proposer retransmission + coordinator gossip +
    learner catch-up) must deliver 100% at every drop rate < 1 with all
    replicas applying the same total order, at a bounded messages-per-
    command overhead versus the loss-free baseline.
    """

    rows: list[Row] = []
    for drop_rate in drop_rates:
        rows.append(
            _e10_run("seed (no retransmit)", drop_rate, None, None, seed=seed)
        )
        rows.append(
            _e10_run("reliable", drop_rate, None, RetransmitConfig(), seed=seed)
        )
        rows.append(
            _e10_run(
                "reliable + batch 8/4",
                drop_rate,
                BatchingConfig(max_batch=8, flush_interval=2.0, pipeline_depth=4),
                RetransmitConfig(),
                seed=seed,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E11 -- lattice-operation scaling of the generalized engine (ROADMAP item)
# ---------------------------------------------------------------------------


def _e11_run(
    mode: str,
    n_commands: int,
    conflict_rate: float,
    seed: int = 13,
    window: int = 8,
    bottom_factory: Callable[[], object] | None = None,
    read_fraction: float = 0.2,
) -> Row:
    """One closed-loop saturation run; wall time isolates lattice-op cost.

    A :class:`repro.smr.client.PipelinedClient` keeps *window* commands in
    flight, so the engines run at arrival pressure rather than timer pace.
    ``bottom_factory`` lets callers swap the c-struct implementation under
    the *same* protocol (the E11 benchmark uses it to race the incremental
    digraph history against the pre-digraph pairwise-scan implementation).
    """
    sim = Simulation(seed=seed, max_events=20_000_000)
    if mode == "classic (instances)":
        rtype = 2
        cluster = build_smr(
            sim,
            n_proposers=2,
            n_coordinators=3,
            n_acceptors=3,
            n_learners=2,
            liveness=LivenessConfig(),
            batching=BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=4),
        )
    else:
        bottom = (
            bottom_factory() if bottom_factory is not None
            else CommandHistory.bottom(kv_conflict())
        )
        rtype = 1 if mode.startswith("generalized") else 2
        cluster = build_generalized(
            sim, bottom=bottom, n_coordinators=3, n_acceptors=3, n_learners=2
        )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))
    client = PipelinedClient("e11", cluster, window=window)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            conflict_rate=conflict_rate,
            read_fraction=read_fraction,
            seed=seed,
        )
    )
    sim.run(until=5.0)  # let the round establish before loading it
    client.submit(workload.commands)
    target = len(workload.commands)
    start = _wall_clock()
    completed = sim.run_until(
        lambda: len(client.completed) >= target, timeout=200.0 * n_commands
    )
    wall = _wall_clock() - start
    return {
        "mode": mode,
        "commands": n_commands,
        "conflict rate": conflict_rate,
        "wall s": wall,
        "events": sim.events_processed,
        "makespan": sim.clock,
        "cmds / wall s": n_commands / wall if wall else float("inf"),
        "uncompleted": 0 if completed else target - len(client.completed),
    }


def experiment_e11(
    n_grid: tuple[int, ...] = (50, 100, 200),
    conflict_rates: tuple[float, ...] = (0.1, 0.5),
    seed: int = 13,
) -> list[Row]:
    """Scaling sweep: commands x conflict density x engine.

    The generalized/multicoordinated engines decide one ever-growing
    command history, so their per-event lattice work is the scaling
    bottleneck this PR's incremental constraint digraph removes; the
    instance-per-command engine (constant-size values) is the baseline
    whose scaling was never lattice-bound.  Near-linear wall-time growth
    of the generalized modes at low conflict density is the headline
    claim, asserted by ``benchmarks/bench_e11_lattice.py``.
    """
    rows: list[Row] = []
    for mode in ("classic (instances)", "generalized (single-coord)", "multicoordinated"):
        for rate in conflict_rates:
            for n in n_grid:
                rows.append(_e11_run(mode, n, rate, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# E12 -- checkpointing / log truncation: bounded retained state (ROADMAP item)
# ---------------------------------------------------------------------------


def _sample_peaks(cluster, period: float) -> tuple[dict[str, int], Callable[[], None]]:
    """Sample ``cluster.retained_state()`` every *period*, from now on.

    Returns the running peak of each kind and the sampler itself (call it
    once more for a final sample).
    """
    peaks: dict[str, int] = {}

    def sample() -> None:
        for key, value in cluster.retained_state().items():
            peaks[key] = max(peaks.get(key, 0), value)
        cluster.sim.schedule(period, sample)

    cluster.sim.schedule(period, sample)
    return peaks, sample


def _e12_run(
    label: str,
    checkpoint: CheckpointConfig | None,
    n_commands: int = 2400,
    seed: int = 17,
    crash_learner: bool = False,
    sample_period: float = 10.0,
    timeout: float = 100_000.0,
) -> Row:
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
        liveness=LivenessConfig(),
        batching=BatchingConfig(max_batch=8, flush_interval=1.0, pipeline_depth=8),
        retransmit=RetransmitConfig(),
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
    peaks, _ = _sample_peaks(cluster, sample_period)

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
    n_commands: int = 2400,
    intervals: tuple[int, ...] = (50, 200),
    seed: int = 17,
) -> list[Row]:
    """Retained state vs checkpoint interval on a multi-thousand-command run.

    The seed engine retains every acceptor vote and decision forever, so
    its peak per-process journal is O(total commands).  With a
    ``CheckpointConfig`` the peak must track the checkpoint *window*
    (interval + in-flight slack) -- flat in the total run length -- and a
    learner restarted from below the truncation frontier must converge by
    snapshot install to the identical order (``bench_e12_checkpoint.py``
    asserts both).
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


# ---------------------------------------------------------------------------
# E13 -- generalized-engine parity: c-struct batching + stable-prefix GC
# ---------------------------------------------------------------------------


def _e13_run(
    label: str,
    n_commands: int,
    conflict_rate: float,
    batching: GenBatchingConfig | None = None,
    retransmit: RetransmitConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
    seed: int = 19,
    window: int = 16,
    sample_period: float = 10.0,
    crash_learner: bool = False,
    n_learners: int = 2,
) -> Row:
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
        retransmit=retransmit,
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
    peaks, sample = _sample_peaks(cluster, sample_period)

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
    start = _wall_clock()
    completed = sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands),
        timeout=200.0 * n_commands,
    )
    wall = _wall_clock() - start
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
    n_commands: int = 200,
    conflict_rates: tuple[float, ...] = (0.1, 0.3),
    seed: int = 19,
) -> list[Row]:
    """Batch size x conflict density on the generalized engine.

    Without batching every proposal costs one ``extend`` plus one 2a/2b
    round trip of its own; with a :class:`GenBatchingConfig` whole command
    groups ride one phase "2a" (one ``CommandHistory.extend`` per batch),
    so events and messages per command drop by ~the batch size and
    end-to-end throughput rises well over the 2x acceptance bar
    (``benchmarks/bench_e13_gen_parity.py`` asserts it at moderate
    conflict density).
    """

    grid: list[tuple[str, GenBatchingConfig | None]] = [
        ("unbatched", None),
        ("batch 4", GenBatchingConfig(max_batch=4, flush_interval=2.0)),
        ("batch 8", GenBatchingConfig(max_batch=8, flush_interval=2.0)),
    ]
    rows: list[Row] = []
    for rate in conflict_rates:
        for label, batching in grid:
            rows.append(
                _e13_run(label, n_commands, rate, batching=batching, seed=seed)
            )
    return rows


def experiment_e13_memory(
    n_grid: tuple[int, ...] = (400, 800, 1200),
    interval: int = 50,
    conflict_rate: float = 0.3,
    seed: int = 19,
) -> list[Row]:
    """Retained history vs run length: window-bounded vs unbounded.

    The unbounded engine's peak retained history (acceptor ``vval``,
    learner ``learned``, coordinator ``cval``) grows linearly with the
    run; with stable-prefix checkpointing it must track the checkpoint
    *window* -- flat across run lengths.  The final row restarts a laggard
    learner below the truncation floor: it must converge through chunked
    snapshot install to a compatible replica.
    """

    batching = GenBatchingConfig(max_batch=8, flush_interval=1.0)
    rows: list[Row] = []
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
                retransmit=RetransmitConfig(),
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
            retransmit=RetransmitConfig(),
            checkpoint=CheckpointConfig(interval=interval, gc_quorum=2, chunk_size=64),
            seed=seed,
            crash_learner=True,
            n_learners=3,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# E15 -- delta wire protocol: O(delta) hot paths, digest catch-up, sessions
# ---------------------------------------------------------------------------

_E15_HOT = ("Phase2a", "Phase2b", "Phase2aDelta", "Phase2bDelta")


def _e15_sizer():
    """Real codec frame lengths, memoized per unique c-struct payload.

    Cumulative senders re-ship the *same* ``vval``/``cval`` object on
    every poll answer and re-announce until their next accept, so caching
    by payload identity keeps the byte accounting exact while avoiding
    re-encoding hundreds of megabytes of repeated history.  The cache
    holds a reference to each payload so an ``id`` is never reused.
    """

    cache: dict = {}

    def size(msg) -> int:
        payload = getattr(msg, "val", None)
        if payload is None:
            return len(encode(msg))
        key = (type(msg).__name__, id(payload))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = (len(encode(msg)), payload)
        return hit[0]

    return size


def _e15_conflicting_orders(learners, commands, key: str) -> set[tuple]:
    """Per-learner delivered order restricted to *key* (the agreed part)."""
    wanted = {c for c in commands if c.key == key}
    orders = set()
    for learner in learners:
        seen: set = set()
        order = []
        for cmd in learner.delivered:
            if cmd in wanted and cmd not in seen:
                seen.add(cmd)
                order.append(cmd)
        orders.add(tuple(order))
    return orders


def _e15_run(
    label: str,
    n_commands: int,
    delta: DeltaConfig | None = None,
    sessions: SessionConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
    seed: int = 31,
    spacing: float = 24.0,
    idle_span: float = 120.0,
) -> Row:
    """One trickle-load-then-idle run with every wire byte accounted.

    Commands arrive *spacing* time units apart -- slow enough that the
    reliability layer's periodic chatter (catch-up polls, 2a re-announce)
    runs between arrivals, exactly the regime where the cumulative
    protocol's O(history) payloads dominate.  After the load completes
    the cluster sits idle for *idle_span* and the per-tick idle bytes are
    measured: O(history) cumulative vs O(1) stamped under a
    ``DeltaConfig``.  Wire bytes use the real codec length of every
    simulator send (``Metrics.sizer``), so the numbers are the ones the
    ``repro.net`` transport would put on loopback sockets.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    sim.metrics.sizer = _e15_sizer()
    retransmit = RetransmitConfig(catchup_interval=2.0)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=retransmit,
        checkpoint=checkpoint,
        delta=delta,
        sessions=sessions,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    commands = [
        Command(f"e15c{i % 4}:{i // 4}", "put", f"k{i % 8}", i)
        for i in range(n_commands)
    ]
    for i, cmd in enumerate(commands):
        cluster.propose(cmd, delay=5.0 + i * spacing)
    completed = cluster.run_until_delivered(
        commands, timeout=60.0 + 4.0 * spacing * n_commands
    )

    load_events = sim.events_processed
    load_hot = sum(sim.metrics.bytes_by_type[t] for t in _E15_HOT)
    load_fulls = sum(sim.metrics.messages_by_type[t] for t in ("Phase2a", "Phase2b"))
    idle_start = sim.metrics.total_bytes
    sim.run(until=sim.clock + idle_span)
    idle_bytes = sim.metrics.total_bytes - idle_start
    ticks = (idle_span / retransmit.catchup_interval) * len(cluster.learners)
    stats = cluster.delta_stats()
    return {
        "mode": label,
        "commands": n_commands,
        "completed": completed,
        "orders agree": len(
            _e15_conflicting_orders(cluster.learners, commands, "k0")
        )
        == 1,
        "events / cmd": round(load_events / n_commands, 1),
        "2a/2b B / cmd": round(load_hot / n_commands),
        "full 2a+2b / cmd": round(load_fulls / n_commands, 2),
        "idle B / tick": round(idle_bytes / ticks, 1),
        "wire MB": round(sim.metrics.total_bytes / 1e6, 2),
        "delta 2b": stats["delta_2b"],
        "stamps": stats["stamps_confirmed"] + stats["acceptor_stamps_sent"],
        "resyncs": stats["resyncs_sent"] + stats["acceptor_resyncs"],
        "retained dedup": cluster.retained_dedup(),
    }


def experiment_e15(
    n_grid: tuple[int, ...] = (100, 200, 400),
    seed: int = 31,
) -> list[Row]:
    """Bytes-on-wire and events/command vs history length.

    Cumulative mode re-ships the full c-struct on every accept, every 2a
    re-announce and every catch-up answer, so per-command wire bytes and
    idle-tick bytes grow linearly with history length.  Delta mode
    (``DeltaConfig``) ships only unsent suffixes and answers matching
    stamped polls with an O(1) ``VoteStamp`` -- both curves must go flat
    (``benchmarks/bench_e15_delta.py`` asserts it).
    """

    rows: list[Row] = []
    for n in n_grid:
        rows.append(_e15_run(f"cumulative, {n} cmds", n, seed=seed))
        rows.append(
            _e15_run(
                f"delta, {n} cmds",
                n,
                delta=DeltaConfig(idle_poll_every=8),
                seed=seed,
            )
        )
    return rows


def experiment_e15_sessions(
    base: int = 120,
    interval: int = 40,
    seed: int = 33,
) -> list[Row]:
    """Learner dedup memory: seen-*set* vs bounded session windows.

    Both conditions run delta + checkpointing; the only difference is
    ``SessionConfig``.  The legacy seen-set's retained cells grow with
    the run (checkpointing bounds the *history lattice*, not the dedup
    set), while the session windows stay ~flat across a 3x-longer run.
    """

    rows: list[Row] = []
    for n in (base, 3 * base):
        for label, sessions in (
            ("seen-set", None),
            ("sessions", SessionConfig(window=32)),
        ):
            rows.append(
                _e15_run(
                    f"{label}, {n} cmds",
                    n,
                    delta=DeltaConfig(),
                    sessions=sessions,
                    checkpoint=CheckpointConfig(interval=interval, gc_quorum=2),
                    seed=seed,
                    spacing=3.0,
                    idle_span=60.0,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# E16 -- sharded multi-group consensus: cross-shard fraction (repro.shard)
# ---------------------------------------------------------------------------


def _e16_run(
    n_groups: int,
    clients_per_group: int,
    cmds_per_client: int,
    cross_fraction: float = 0.0,
    seed: int = 41,
) -> Row:
    """One closed-loop sharded run; aggregate throughput in virtual time.

    *clients_per_group* pipelined clients drive each group on keys owned
    by that group (``ShardMap.first_keys``).  With *cross_fraction* > 0 a
    dedicated cross client issues that fraction (of the single-shard
    total) as two-key commands spanning adjacent groups, exercising the
    merge group + barrier path under the same load.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    deployment = ShardedDeployment.build(
        sim,
        n_groups,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0, pipeline_depth=4),
    )
    deployment.start()
    sim.run(until=5.0)  # bootstrap rounds settle before load

    all_cmds: list[Command] = []
    clients: list[PipelinedClient] = []
    for gid in range(n_groups):
        keys = deployment.shard_map.first_keys(gid, 4)
        for c in range(clients_per_group):
            client = PipelinedClient(
                f"c{gid}.{c}", deployment.router, window=8
            )
            client.watch_replica(deployment.replicas[gid][0])
            cmds = [
                client.make_command("put", keys[i % len(keys)], i)
                for i in range(cmds_per_client)
            ]
            all_cmds.extend(cmds)
            client.submit(cmds)
            clients.append(client)

    n_cross = round(cross_fraction * len(all_cmds))
    if n_cross:
        cross = PipelinedClient("cx", deployment.router, window=4)
        for gid in range(n_groups):
            cross.watch_replica(deployment.replicas[gid][0])
        cross_keys = [
            deployment.shard_map.first_keys(gid, 1, prefix="x")[0]
            for gid in range(n_groups)
        ]
        cmds = [
            cross.make_command(
                "put",
                f"{cross_keys[i % n_groups]}|{cross_keys[(i + 1) % n_groups]}",
                i,
            )
            for i in range(n_cross)
        ]
        all_cmds.extend(cmds)
        cross.submit(cmds)
        clients.append(cross)

    start = sim.clock
    completed = deployment.run_until_executed(
        all_cmds, timeout=2_000.0 * max(1, cmds_per_client)
    )
    span = sim.clock - start
    return {
        "groups": n_groups,
        "clients": len(clients),
        "commands": len(all_cmds),
        "cross": n_cross,
        "completed": completed and all(c.all_completed() for c in clients),
        "divergent keys": len(deployment.divergent_keys()),
        "barriers": deployment.router.next_barrier,
        "span": round(span, 1),
        "throughput / ktime": round(1000.0 * len(all_cmds) / span, 1),
    }


def experiment_e16_cross(
    fractions: tuple[float, ...] = (0.0, 0.01, 0.10),
    n_groups: int = 4,
    clients_per_group: int = 3,
    cmds_per_client: int = 40,
    seed: int = 43,
) -> list[Row]:
    """Throughput vs cross-shard fraction at a fixed group count.

    Cross-shard commands cost a merge-group decision plus a barrier
    placeholder in every owning group, and replicas stall their local
    log at the barrier until the merge order arrives -- so throughput
    degrades gracefully with the cross fraction instead of collapsing.
    Every row must finish with zero per-key divergence across replicas.
    """
    rows: list[Row] = []
    for fraction in fractions:
        row = _e16_run(
            n_groups,
            clients_per_group,
            cmds_per_client,
            cross_fraction=fraction,
            seed=seed,
        )
        row["cross %"] = round(100.0 * fraction, 1)
        rows.append(row)
    base = rows[0]["throughput / ktime"]
    for row in rows:
        row["throughput vs 0%"] = round(row["throughput / ktime"] / base, 2)
    return rows


# ---------------------------------------------------------------------------
# E17 -- randomized fault soak: nemesis episodes + trace-checked consistency
# ---------------------------------------------------------------------------


def _e17_fault_configs():
    """Shared reliability/liveness tuning for the soak deployments."""
    retransmit = RetransmitConfig(retry_interval=4.0)
    liveness = LivenessConfig(
        heartbeat_period=2.0,
        suspect_timeout=8.0,
        check_period=2.0,
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
) -> Row:
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
) -> Row:
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
) -> Row:
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
    runs_per_engine: int = 2,
    episodes_per_run: int = 8,
    n_cmds: int = 48,
    base_seed: int = 23,
) -> list[Row]:
    """Randomized nemesis soak across all three deployment shapes.

    Every run drives a mixed workload while a seeded :class:`Nemesis`
    composes partitions, flapping links, latency skew and crash storms,
    then heals and requires (1) every command completes -- liveness
    restored, (2) the offline trace checker finds zero violations, and
    (3) retained per-process state stays bounded by the checkpoint
    window on the checkpointing engines.  ``benchmarks/bench_e17_soak.py``
    scales this to >= 1000 episodes; the defaults here are the unit-smoke
    parameterization.
    """
    rows: list[Row] = []
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


ALL_EXPERIMENTS: dict[str, Callable[[], list[Row]]] = {
    "E1 latency (steps)": experiment_e1,
    "E2 quorum sizes": experiment_e2,
    "E3 availability": experiment_e3,
    "E4 load balance": experiment_e4,
    "E5 collisions": experiment_e5,
    "E5b wasted writes": experiment_e5_waste,
    "E6 disk writes": experiment_e6,
    "E7 recovery cost": experiment_e7,
    "E8 crossover": experiment_e8,
    "E9 batching": experiment_e9,
    "E10 loss liveness": experiment_e10,
    "E11 lattice scaling": experiment_e11,
    "E12 checkpointing": experiment_e12,
    "E13 generalized parity (batching)": experiment_e13,
    "E13 generalized parity (memory)": experiment_e13_memory,
    "E15 delta wire protocol": experiment_e15,
    "E15 sessions (bounded dedup)": experiment_e15_sessions,
    "E16 cross-shard fraction": experiment_e16_cross,
    "E17 randomized fault soak": experiment_e17,
}
