"""Generalized-engine production parity: batching, loss, checkpointing.

Batching is an optimization, never a semantics change: batched and
unbatched runs of the same workload must both converge with every learner
holding a compatible history over the full command set, and replicas
agreeing on the order of every conflicting pair.  The reliability layer
must keep the batched engine live under message loss, and stable-prefix
checkpointing must bound retained history at the checkpoint window while
laggards and crashed processes converge through snapshot install /
journal replay.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import GeneralizedConfig, build_generalized
from repro.core.invariants import attach_generalized_oracle
from repro.core.quorums import QuorumSystem
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.core.rounds import RoundSchedule
from repro.core.topology import Topology
from repro.cstruct.cset import CommandSet
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import Client, PipelinedClient
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica
from repro.smr.workload import Workload, WorkloadConfig


def deploy(
    seed=1,
    n_learners=2,
    batching=UNBATCHED,
    retransmit=RetransmitConfig(),
    checkpoint=None,
    drop_rate=0.0,
    jitter=0.0,
):
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(drop_rate=drop_rate, jitter=jitter),
        max_events=10_000_000,
    )
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_learners=n_learners,
        batching=batching,
        retransmit=retransmit,
        checkpoint=checkpoint,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    return sim, cluster


def drive(sim, cluster, n_commands, conflict_rate, seed, window=10, timeout=60_000):
    """Closed-loop run; returns (workload, replicas, converged)."""
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("t", cluster, window=window)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(
            n_commands=n_commands,
            conflict_rate=conflict_rate,
            read_fraction=0.2,
            seed=seed,
        )
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    converged = sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=timeout
    )
    return workload, replicas, converged


def hot_order(replica, key="hot"):
    return [c for c in replica.executed if c.key == key]


# -- configuration validation -------------------------------------------------


def _config_kwargs(n_learners=2):
    topology = Topology.build(2, 3, 3, n_learners)
    return dict(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors),
        schedule=RoundSchedule(range(3), recovery_rtype=1),
    )


def test_batching_config_validation():
    """The generalized engine takes the shared config, unbatched by default."""
    with pytest.raises(ValueError):
        BatchingConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatchingConfig(flush_interval=0.0)
    config = GeneralizedConfig(
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=RetransmitConfig(),
        **_config_kwargs(),
    )
    assert config.batching == UNBATCHED


def test_checkpoint_gc_quorum_bounded_by_learners():
    with pytest.raises(ValueError, match="gc_quorum"):
        GeneralizedConfig(
            bottom=CommandHistory.bottom(kv_conflict()),
            retransmit=RetransmitConfig(),
            checkpoint=CheckpointConfig(gc_quorum=5),
            **_config_kwargs(n_learners=2),
        )


def test_checkpoint_requires_stable_prefix_cstruct():
    with pytest.raises(ValueError, match="stable-prefix"):
        GeneralizedConfig(
            bottom=CommandSet.bottom(),
            retransmit=RetransmitConfig(),
            checkpoint=CheckpointConfig(),
            **_config_kwargs(),
        )


# -- batched ≡ unbatched convergence ------------------------------------------


@pytest.mark.parametrize("conflict_rate", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("seed", [3, 11])
def test_batched_and_unbatched_runs_converge(conflict_rate, seed):
    """Randomized property: batching changes costs, never outcomes.

    Both runs must deliver the full command set with internally
    compatible learned histories and replicas agreeing on every
    conflicting pair's order; the safety oracle watches both runs.
    """
    outcomes = {}
    for label, batching in (
        ("unbatched", UNBATCHED),
        ("batched", BatchingConfig(max_batch=4, flush_interval=1.0)),
    ):
        sim, cluster = deploy(seed=seed, batching=batching, n_learners=3)
        workload = Workload.generate(
            WorkloadConfig(
                n_commands=48, conflict_rate=conflict_rate, read_fraction=0.2, seed=seed
            )
        )
        attach_generalized_oracle(sim, cluster, workload.commands)
        replicas = [Replica(l, KVStore()) for l in cluster.learners]
        client = PipelinedClient("t", cluster, window=8)
        client.watch_learner(cluster.learners[0])
        sim.run(until=5.0)
        client.submit(workload.commands)
        assert sim.run_until(
            lambda: cluster.everyone_delivered(workload.commands), timeout=60_000
        ), f"{label} run did not converge"
        values = cluster.learned_structs()
        for i, left in enumerate(values):
            for right in values[i + 1 :]:
                assert left.is_compatible(right)
            assert values[i].command_set() == frozenset(workload.commands)
        orders = {tuple(hot_order(r)) for r in replicas}
        states = {r.machine.snapshot() for r in replicas}
        assert len(orders) == 1 and len(states) == 1
        outcomes[label] = (len(workload.commands), states.pop())
    # Same command set delivered either way (states may differ across the
    # two *runs* -- commuting commands may interleave differently -- but
    # each run is internally agreed, asserted above).
    assert outcomes["batched"][0] == outcomes["unbatched"][0]


def test_batching_cuts_messages_and_events():
    seed = 7
    totals = {}
    for label, batching in (
        ("unbatched", UNBATCHED),
        ("batched", BatchingConfig(max_batch=8, flush_interval=2.0)),
    ):
        sim, cluster = deploy(seed=seed, batching=batching)
        workload, replicas, converged = drive(sim, cluster, 60, 0.3, seed)
        assert converged
        totals[label] = (sim.metrics.total_messages, sim.events_processed)
    assert totals["batched"][0] < totals["unbatched"][0] / 2
    assert totals["batched"][1] < totals["unbatched"][1] / 2


def test_partial_batch_ships_at_flush_interval():
    """A lone command never waits longer than flush_interval + transit."""
    sim, cluster = deploy(batching=BatchingConfig(max_batch=64, flush_interval=3.0))
    from tests.conftest import cmd

    lone = cmd("lone")
    sim.run(until=10.0)
    cluster.propose(lone)
    assert cluster.run_until_delivered([lone], timeout=60)
    # flush deadline (3) + 3 protocol steps, plus scheduling slack.
    assert sim.clock <= 10.0 + 3.0 + 3.0 + 1.0


def test_pipelined_client_tail_flush():
    """The backlog tail ships immediately instead of waiting the deadline."""
    sim, cluster = deploy(batching=BatchingConfig(max_batch=8, flush_interval=50.0))
    workload, replicas, converged = drive(
        sim, cluster, 12, 0.0, seed=5, window=12, timeout=5_000
    )
    assert converged
    # With a 50-unit flush deadline and a 12-command window, only the
    # client's tail flush can have shipped the final partial batch early.
    assert sim.clock < 50.0


def test_proposer_flush_is_noop_when_empty():
    sim, cluster = deploy(batching=BatchingConfig())
    sim.run(until=20)  # round establishment settles first
    sent = sim.metrics.messages_sent
    proposers = [proposer.pid for proposer in cluster.proposers]
    before = [sent[pid] for pid in proposers]
    cluster.flush()
    sim.run(until=40)
    # The other roles' periodic polls go on; the proposers send nothing.
    assert [sent[pid] for pid in proposers] == before


# -- liveness under loss ------------------------------------------------------


def test_batched_run_survives_message_loss():
    """The reliability layer keeps the batched engine live on lossy links."""
    sim, cluster = deploy(
        seed=23,
        n_learners=3,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        drop_rate=0.25,
    )
    workload, replicas, converged = drive(
        sim, cluster, 48, 0.3, seed=23, timeout=120_000
    )
    assert converged
    stats = cluster.retransmission_stats()
    assert stats["retransmissions"] + stats["reannounced_2a"] + stats["catchup_requests"] > 0
    assert len({tuple(hot_order(r)) for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_unbatched_lossy_run_converges_too():
    sim, cluster = deploy(seed=29, retransmit=RetransmitConfig(), drop_rate=0.2)
    workload, replicas, converged = drive(sim, cluster, 30, 0.4, seed=29, timeout=120_000)
    assert converged


def test_proposer_recovery_reships_unacked():
    """A proposer crash loses its unacked commands (it keeps no stable
    state); the client's resubmissions deliver them."""
    from tests.conftest import cmd

    sim, cluster = deploy(
        seed=31,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0),
        retransmit=RetransmitConfig(),
    )
    sim.run(until=5.0)
    client = Client("c", cluster, retry_interval=20.0)
    client.watch_learner(cluster.learners[0])
    # Cut the proposers off before their batches can reach anyone.
    proposers = {p.pid for p in cluster.proposers}
    drops = sim.network.add_drop_filter(lambda src, dst, msg: src in proposers)
    victims = [client.issue(cmd(f"r{i}")) for i in range(3)]
    sim.run(until=15.0)
    sim.network.remove_drop_filter(drops)
    proposer = cluster.proposers[0]
    assert proposer._unacked
    proposer.crash()
    sim.run(until=18.0)
    proposer.recover()
    assert proposer._unacked == {}  # recovered empty
    assert cluster.run_until_delivered(victims, timeout=60_000)
    assert client.retries


# -- stable-prefix checkpointing ----------------------------------------------


def ckpt(interval=20, **kw):
    return CheckpointConfig(interval=interval, gc_quorum=kw.pop("gc_quorum", 2), **kw)


def test_checkpointing_bounds_retained_state():
    peaks = {}
    for label, checkpoint in (("unbounded", None), ("bounded", ckpt(interval=20))):
        sim, cluster = deploy(
            seed=37,
            batching=BatchingConfig(max_batch=8, flush_interval=1.0),
            retransmit=RetransmitConfig(),
            checkpoint=checkpoint,
        )
        peak = 0

        def sample():
            nonlocal peak
            peak = max(peak, max(cluster.retained_state().values()))
            sim.schedule(5.0, sample)

        sim.schedule(5.0, sample)
        workload, replicas, converged = drive(sim, cluster, 160, 0.3, seed=37)
        assert converged
        sample()
        peaks[label] = peak
        if checkpoint is not None:
            stats = cluster.checkpoint_stats()
            assert stats["snapshots"] >= 2
            assert stats["acceptor_floor"] > 0
            assert stats["coordinator_floor"] > 0
    assert peaks["unbounded"] >= 159
    assert peaks["bounded"] <= 20 + 40  # window + in-flight/advertise slack


def test_learner_seen_survives_truncation():
    """has_delivered covers the stable base after the tail is truncated."""
    sim, cluster = deploy(
        seed=41,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=15),
    )
    workload, replicas, converged = drive(sim, cluster, 80, 0.2, seed=41)
    assert converged
    learner = cluster.learners[0]
    assert all(learner.has_delivered(c) for c in workload.commands)
    # The learned tail is truncated well below the full history...
    assert len(learner.learned.command_set()) < 80
    # ...but the replica executed everything exactly once.
    assert len(replicas[0].executed) == 80


def test_laggard_learner_converges_via_snapshot_install():
    sim, cluster = deploy(
        seed=43,
        n_learners=3,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=15, chunk_size=16),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("t", cluster, window=10)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(n_commands=150, conflict_rate=0.3, read_fraction=0.2, seed=43)
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    victim = cluster.learners[2]
    assert sim.run_until(lambda: len(cluster.learners[0].delivered) >= 40, timeout=60_000)
    victim.crash()
    assert sim.run_until(lambda: len(cluster.learners[0].delivered) >= 110, timeout=60_000)
    # The live majority kept checkpointing; the cluster truncated far past
    # the victim's durable checkpoint while it was down.
    assert cluster.checkpoint_stats()["acceptor_floor"] > victim.snap_frontier
    victim.recover()
    assert sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=120_000
    )
    assert victim.snapshot_installs >= 1
    assert len({tuple(hot_order(r)) for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_learner_recovery_restores_own_checkpoint():
    """A brief outage recovers from the local checkpoint, not an install."""
    sim, cluster = deploy(
        seed=47,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=10),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("t", cluster, window=10)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(n_commands=60, conflict_rate=0.2, read_fraction=0.2, seed=47)
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    victim = cluster.learners[1]
    assert sim.run_until(lambda: victim.snap_frontier >= 20, timeout=60_000)
    frontier_before = victim.snap_frontier
    victim.crash()
    sim.run(until=sim.clock + 3.0)
    victim.recover()
    # Recovery fast-forwarded to the journalled checkpoint instead of
    # starting from nothing.
    assert victim.snap_frontier >= frontier_before
    assert len(victim.delivered) >= frontier_before
    assert sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=120_000
    )
    assert len({tuple(hot_order(r)) for r in replicas}) == 1


def test_acceptor_recovery_replays_delta_journal():
    sim, cluster = deploy(
        seed=53,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=25),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("t", cluster, window=8)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(n_commands=90, conflict_rate=0.3, read_fraction=0.2, seed=53)
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    acceptor = cluster.acceptors[0]
    assert sim.run_until(lambda: len(cluster.learners[0].delivered) >= 30, timeout=60_000)
    acceptor.crash()
    sim.run(until=sim.clock + 2.0)
    acceptor.recover()
    # The vote tail came back from the delta journal (base + replay), not
    # from a whole-struct key: it matches the journal exactly, and the
    # checkpoint path never wrote the legacy "vval" key at all.
    assert len(acceptor.vval.command_set()) == acceptor.storage.prefix_count("gvote")
    assert len(acceptor.vval.command_set()) > 0
    assert "vval" not in acceptor.storage
    assert sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=120_000
    )
    assert len({tuple(hot_order(r)) for r in replicas}) == 1


def test_checkpointed_run_under_loss():
    """Truncation + loss: catch-up and install keep everyone converging."""
    sim, cluster = deploy(
        seed=59,
        n_learners=3,
        batching=BatchingConfig(max_batch=4, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=20),
        drop_rate=0.15,
    )
    workload, replicas, converged = drive(
        sim, cluster, 80, 0.3, seed=59, timeout=200_000
    )
    assert converged
    assert len({tuple(hot_order(r)) for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_laggard_under_loss_with_round_change():
    """Regression: loss + truncation + a mid-run round change must not stall.

    This seed drives the engine through a round change while a learner is
    down and the cluster truncates past it; phase 1 of the new round
    loses messages, so progress depends on the reliability tick's 1a
    re-drive (acceptors re-answer duplicate current-round 1as with fresh
    1bs) and on coordinators adopting Nack-reported classic rounds.
    """
    sim, cluster = deploy(
        seed=73,
        n_learners=3,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0),
        retransmit=RetransmitConfig(),
        checkpoint=ckpt(interval=15, chunk_size=16),
        drop_rate=0.1,
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    client = PipelinedClient("t", cluster, window=10)
    client.watch_learner(cluster.learners[0])
    from tests.conftest import cmd

    cmds = [cmd(f"s73-{i}", "put", "hot" if i % 4 == 0 else f"k{i}", i) for i in range(140)]
    sim.run(until=5.0)
    client.submit(cmds)
    victim = cluster.learners[2]
    assert sim.run_until(lambda: len(cluster.learners[0].delivered) >= 40, timeout=100_000)
    victim.crash()
    assert sim.run_until(
        lambda: len(cluster.learners[0].delivered) >= 110, timeout=100_000
    ), f"stalled at {len(cluster.learners[0].delivered)} with the victim down"
    victim.recover()
    assert sim.run_until(lambda: cluster.everyone_delivered(cmds), timeout=400_000)
    assert victim.snapshot_installs >= 1
    assert len({tuple(hot_order(r)) for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_phase1_waits_out_truncation_skew_between_repliers():
    """Two acceptors report one vote cut at different stable bases -- one
    has truncated past a checkpoint the (just recovered) coordinator has
    not folded.  The frames are incompatible as histories, but that is
    skew, not a collision: phase 2 must not start from them, and must not
    crash; once the coordinator's base catches up, fresh reports are
    normalized into one frame and the round proceeds."""
    from repro.core.checkpoint import ICheckpoint
    from repro.core.messages import Phase1b
    from tests.conftest import cmd

    parked = dict(
        gossip_interval=500.0, catchup_interval=500.0, retry_interval=500.0, max_interval=500.0
    )
    sim, cluster = deploy(retransmit=RetransmitConfig(**parked), checkpoint=ckpt(interval=1000))
    sim.run(until=5.0)
    coordinator = cluster.coordinators[0]
    a, b, c = (cmd(f"sk{i}", "put", "hot", i) for i in range(3))  # a < b < c
    voted = cluster.config.bottom.extend((a, b, c))
    base = frozenset({a, b})
    acc0, acc1, _ = cluster.config.topology.acceptors
    vrnd = coordinator.crnd
    rnd = cluster.config.schedule.make_round(0, 2, 1)
    sim.network.add_drop_filter(lambda src, dst, msg: True)  # reports are hand-delivered
    coordinator.start_round(rnd)

    coordinator.on_phase1b(Phase1b(rnd, vrnd, voted), acc0)
    coordinator.on_phase1b(Phase1b(rnd, vrnd, voted.without(base)), acc1)
    assert coordinator.cval is None  # no phase 2 from skewed frames

    for learner in cluster.config.topology.learners:
        coordinator.on_icheckpoint(ICheckpoint(2, base), learner)
    coordinator.on_phase1b(Phase1b(rnd, vrnd, voted), acc0)
    coordinator.on_phase1b(Phase1b(rnd, vrnd, voted.without(base)), acc1)
    assert coordinator.cval == voted.without(base)


# -- storage: batched journal appends -----------------------------------------


def test_append_many_is_one_write():
    from repro.sim.storage import StableStorage

    storage = StableStorage()
    before = storage.write_count
    storage.append_many("j", 5, ["a", "b", "c"])
    assert storage.write_count == before + 1
    assert storage.prefix_items("j") == [(5, "a"), (6, "b"), (7, "c")]
    assert storage.prefix_count("j") == 3
    storage.append_many("j", 8, [])
    assert storage.write_count == before + 1  # empty group: no write
    removed = storage.truncate_below("j", 7)
    assert removed == 2 and storage.prefix_items("j") == [(7, "c")]
