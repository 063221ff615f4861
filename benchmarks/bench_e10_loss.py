"""E10 -- liveness under message loss (the paper's fair-lossy link model).

The paper's protocols assume fair-lossy links *plus retransmission*
(Section 2.1.1): every message is re-sent until acknowledged.  Without
it, an ``IPropose`` dropped on every link would strand its command
forever and a learner missing an ``I2b`` quorum for instance *k* would
stall every instance above *k*; so the engines always retransmit.

This benchmark regenerates the claim for the reliability layer: on a
48-command bursty workload with ``drop_rate`` up to 0.5, the engine with
proposer retransmission + coordinator gossip + learner catch-up delivers
100% of commands with all replicas applying the same total order.  The
messages-per-command column quantifies the retransmission overhead
against the loss-free baseline.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import build_smr
from repro.smr.machine import KVStore
from repro.smr.replica import Replica
from repro.smr.workload import Workload, WorkloadConfig


def _e10_run(
    label: str,
    drop_rate: float,
    batching: BatchingConfig,
    n_commands: int = 48,
    seed: int = 11,
    timeout: float = 20_000.0,
) -> dict:
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
        batching=batching,
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
) -> list[dict]:
    """Delivery under a fair-lossy network.

    A 48-command bursty workload is pushed through the multi-instance
    engine at increasing drop rates.  Its reliability layer (proposer
    retransmission + coordinator gossip + learner catch-up) must deliver
    100% at every drop rate < 1 with all replicas applying the same total
    order, at a bounded messages-per-command overhead versus the loss-free
    baseline.
    """

    rows: list[dict] = []
    for drop_rate in drop_rates:
        rows.append(_e10_run("reliable", drop_rate, UNBATCHED, seed=seed))
        rows.append(
            _e10_run(
                "reliable + batch 8/4",
                drop_rate,
                BatchingConfig(max_batch=8, flush_interval=2.0, pipeline_depth=4),
                seed=seed,
            )
        )
    return rows


def test_e10_loss_sweep(benchmark):
    rows = run_experiment(
        benchmark,
        experiment_e10,
        "E10: delivery under message loss (drop-rate sweep)",
    )
    # The reliability layer delivers everything at every drop rate, and
    # every replica applies the same total order.
    assert all(r["delivered %"] == 100.0 for r in rows)
    assert all(r["orders agree"] for r in rows)
    # Retransmission overhead stays bounded: even at drop 0.5 the
    # unbatched engine spends under 8x the loss-free baseline's messages
    # per command.
    baseline = next(
        r for r in rows if r["engine"] == "reliable" and r["drop rate"] == 0.0
    )
    for row in rows:
        if row["engine"] == "reliable":
            assert row["msgs / cmd"] <= 8 * baseline["msgs / cmd"]
    # No retransmissions are spent when nothing is lost.
    assert baseline["retransmissions"] == 0
