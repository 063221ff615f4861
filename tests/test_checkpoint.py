"""Checkpointing & log truncation: bounded memory + snapshot state transfer.

The engine keeps the full decided history unless a ``CheckpointConfig``
is supplied; these tests cover the checkpointing subsystem end to end:
learner snapshots and frontier advertisement, the collective-safe-frontier
policies, garbage collection at acceptors/coordinators/learners, the
two-tier catch-up (log replay above the truncation floor, chunked
resumable snapshot install below it), crash-recovery from the local
checkpoint, and the property that GC never drops an instance any correct
process may still need.
"""

import pytest

from repro.core.checkpoint import ISnapshotChunk, ISnapshotRequest, StableFrontier
from repro.core.liveness import LivenessConfig
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import (
    BatchingConfig,
    CheckpointConfig,
    ICatchUp,
    RetransmitConfig,
    build_smr,
)
from repro.smr.client import PipelinedClient
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica
from tests.conftest import cmd


def deploy(
    seed=1,
    drop_rate=0.0,
    n_learners=3,
    checkpoint=None,
    retransmit=None,
    liveness=None,
    batching=None,
    **kwargs,
):
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(drop_rate=drop_rate),
        max_events=4_000_000,
    )
    cluster = build_smr(
        sim,
        n_learners=n_learners,
        liveness=liveness,
        batching=batching,
        retransmit=retransmit,
        checkpoint=checkpoint,
        **kwargs,
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    return sim, cluster


def make_cmds(n, prefix="c"):
    return [cmd(f"{prefix}{i}", "put", f"k{prefix}{i}", i) for i in range(n)]


def pump(cluster, cmds, start=5.0, spacing=0.5, timeout=10_000.0, learners=None):
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=start + spacing * i)
    watched = cluster.learners if learners is None else learners
    assert cluster.sim.run_until(
        lambda: all(l.has_delivered(c) for l in watched for c in cmds),
        timeout=cluster.sim.clock + timeout,
    )


# -- configuration and the frontier policy -----------------------------------


def test_checkpoint_config_validation():
    CheckpointConfig()  # defaults are valid
    with pytest.raises(ValueError):
        CheckpointConfig(interval=0)
    with pytest.raises(ValueError):
        CheckpointConfig(gc_quorum=0)
    with pytest.raises(ValueError):
        CheckpointConfig(chunk_size=0)
    with pytest.raises(ValueError):
        CheckpointConfig(advertise_interval=0.0)


def test_frontier_tracker_policies():
    learners = ("learn0", "learn1", "learn2")
    # Per-replica policy (gc_quorum=None): the minimum over all learners.
    view = StableFrontier(learners, None)
    assert view.safe_bound() == 0
    view.fold("learn0", 40)
    view.fold("learn1", 30)
    assert view.safe_bound() == 0  # learn2 never advertised
    view.fold("learn2", 10)
    assert view.safe_bound() == 10
    # Quorum policy: the k-th highest advertised frontier.
    view = StableFrontier(learners, 2)
    view.fold("learn0", 40)
    assert view.safe_bound() == 0  # only one checkpoint holder
    view.fold("learn1", 30)
    assert view.safe_bound() == 30  # two learners cover [0, 30)
    # Monotone: stale (lower) advertisements never lower the bound.
    view.fold("learn1", 5)
    assert view.safe_bound() == 30
    # Unknown senders are ignored, not trusted.
    view.fold("intruder", 10_000)
    assert view.safe_bound() == 30


def test_position_fold_is_true_only_when_the_bound_grows():
    view = StableFrontier(("learn0", "learn1"), None)
    assert not view.fold("learn0", 10)  # learn1 unheard: the bound stays 0
    assert view.fold("learn1", 4) and view.bound == 4
    assert not view.fold("learn1", 3)  # stale advertisement
    assert not view.fold("learn0", 12)  # the minimum is still learn1's 4
    assert view.fold("learn1", 8) and view.bound == 8
    # Positions need no member sets: base and union stay empty.
    assert view.base == frozenset() and view.union == frozenset()


def test_member_fold_waits_for_every_contributor_then_intersects():
    view = StableFrontier(("learn0", "learn1"), None)
    assert not view.fold("learn0", 3, frozenset("abc"))
    # learn1's frontier arrives before its member set: it contributes to
    # the bound, so nothing may be forgotten yet -- not even the bound moves.
    assert not view.fold("learn1", 2, frozenset())
    assert view.bound == 0 and view.base == frozenset()
    assert view.fold("learn1", 2, frozenset("ab"))
    assert view.bound == 2 and view.base == frozenset("ab")
    assert view.union == frozenset("abc")


def test_a_bound_that_advances_without_base_growth_is_recorded_but_false():
    view = StableFrontier(("learn0", "learn1"), None)
    view.fold("learn0", 2, frozenset("ab"))
    assert view.fold("learn1", 2, frozenset("ab")) and view.base == frozenset("ab")
    # Commuting divergence: same size, different third command -- the
    # intersection does not grow.
    view.fold("learn0", 3, frozenset("abc"))
    assert not view.fold("learn1", 3, frozenset("abd"))
    assert view.bound == 3 and view.base == frozenset("ab")
    assert view.union == frozenset("abcd")


def test_adopt_widens_the_union():
    view = StableFrontier(("learn0",), None)
    view.fold("learn0", 2, frozenset("ab"))
    view.adopt(5, frozenset("abcd"))
    assert view.bound == 5 and view.base == frozenset("abcd")
    view.adopt(1, frozenset("ce"))  # a recovered base never lowers the bound
    assert view.bound == 5 and view.base == frozenset("ce")
    assert view.union == frozenset("abcde")


def test_project_and_outside_are_the_identity_on_an_empty_base():
    view = StableFrontier(("learn0",), None)
    a, b, c = (cmd(cid, key=cid) for cid in "abc")
    history = CommandHistory.of(kv_conflict(), a, b, c)
    cmds = (a, b, c)
    assert view.project(history) is history
    assert view.outside(cmds) is cmds
    view.fold("learn0", 2, frozenset((a, b)))
    assert view.project(history) == CommandHistory.of(kv_conflict(), c)
    assert list(view.outside(cmds)) == [c]


# -- snapshots, advertisement and garbage collection -------------------------


def test_snapshot_taken_at_interval_and_cluster_truncates():
    sim, cluster = deploy(
        checkpoint=CheckpointConfig(interval=10), retransmit=RetransmitConfig()
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    pump(cluster, make_cmds(35))
    stats = cluster.checkpoint_stats()
    assert stats["snapshots"] >= 3
    assert stats["min_snap_frontier"] >= 30
    # Advertisements drove GC everywhere: votes, journals and decision
    # maps below the collective frontier are gone.
    assert stats["acceptor_floor"] >= 30
    assert stats["coordinator_floor"] >= 30
    retained = cluster.retained_state()
    assert retained["acceptor votes"] <= 10
    assert retained["acceptor journal"] <= 10
    assert retained["coordinator decided"] <= 10
    # The journal floor is durable metadata, not data loss.
    for acceptor in cluster.acceptors:
        assert acceptor.storage.floor("vote") == acceptor.gc_floor
    assert len({r.order_signature() for r in replicas}) == 1


def test_checkpoint_requires_retransmit():
    """Truncation without the catch-up layer would GC unrecoverable state."""
    with pytest.raises(ValueError):
        deploy(checkpoint=CheckpointConfig())


def test_gc_quorum_must_fit_learner_count():
    """An over-sized quorum must error, not silently weaken the policy."""
    with pytest.raises(ValueError):
        deploy(
            n_learners=3,
            checkpoint=CheckpointConfig(gc_quorum=4),
            retransmit=RetransmitConfig(),
        )


def test_retained_state_flat_versus_linear_growth():
    """The checkpointed engine's retained state tracks the window."""

    def peak_retained(checkpoint):
        sim, cluster = deploy(
            seed=7, checkpoint=checkpoint, retransmit=RetransmitConfig()
        )
        peaks = {}

        def sample():
            for key, value in cluster.retained_state().items():
                peaks[key] = max(peaks.get(key, 0), value)
            sim.schedule(5.0, sample)

        sim.schedule(5.0, sample)
        pump(cluster, make_cmds(120), spacing=0.5)
        return peaks

    bounded = peak_retained(CheckpointConfig(interval=15))
    unbounded = peak_retained(None)
    # Without checkpointing the acceptors retain the whole history
    # (sampling may miss the very last decisions; ~linear is the point)...
    assert unbounded["acceptor votes"] >= 100
    assert unbounded["coordinator decided"] >= 100
    # ...with it, peaks track the checkpoint window (interval plus the
    # in-flight slack between a snapshot and its advertisement landing).
    assert bounded["acceptor votes"] <= 3 * 15
    assert bounded["acceptor journal"] <= 3 * 15
    assert bounded["coordinator decided"] <= 3 * 15


def test_all_policy_blocks_gc_below_crashed_learner():
    """gc_quorum=None: a dead learner's frontier pins the whole log."""
    sim, cluster = deploy(
        checkpoint=CheckpointConfig(interval=10),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    pump(cluster, make_cmds(25))
    victim = cluster.learners[2]
    pinned = victim.snap_frontier
    victim.crash()
    pump(cluster, make_cmds(30, prefix="d"), start=1.0, learners=cluster.learners[:2])
    # Live learners checkpointed far past the victim...
    assert min(l.snap_frontier for l in cluster.learners[:2]) > pinned
    # ...but nothing was truncated beyond its last advertised frontier.
    assert all(a.gc_floor <= pinned for a in cluster.acceptors)
    assert all(c.gc_floor <= pinned for c in cluster.coordinators)


def test_quorum_policy_truncates_past_crashed_learner():
    sim, cluster = deploy(
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    pump(cluster, make_cmds(25))
    victim = cluster.learners[2]
    pinned = victim.snap_frontier
    victim.crash()
    pump(cluster, make_cmds(30, prefix="d"), start=1.0, learners=cluster.learners[:2])
    # Two live checkpoint holders satisfy the policy: the log moves on.
    assert min(a.gc_floor for a in cluster.acceptors) > pinned


# -- two-tier catch-up and snapshot-based state transfer ----------------------


def test_laggard_restart_below_floor_installs_snapshot_and_converges():
    """The E12 acceptance scenario as a unit test.

    A learner crashes, the cluster truncates past its checkpoint, the
    learner restarts: log replay cannot serve it any more, so it must
    install a peer snapshot and then replay the suffix -- ending with the
    identical executed order and machine state.
    """
    sim, cluster = deploy(
        seed=3,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2, chunk_size=8),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    first = make_cmds(30)
    pump(cluster, first)
    victim = cluster.learners[2]
    victim.crash()
    second = make_cmds(40, prefix="d")
    for i, command in enumerate(second):
        cluster.propose(command, delay=1.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in second),
        timeout=sim.clock + 10_000,
    )
    # The cluster truncated past the victim's durable checkpoint.
    assert min(a.gc_floor for a in cluster.acceptors) > victim.storage.read(
        "snapshot"
    )["frontier"]
    victim.recover()
    assert sim.run_until(
        lambda: all(victim.has_delivered(c) for c in first + second),
        timeout=sim.clock + 10_000,
    )
    assert victim.snapshot_installs >= 1
    assert len({r.order_signature() for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_client_completes_commands_that_arrive_via_snapshot_install():
    """Regression (found by the nemesis soak): a snapshot install
    fast-forwards the replica's executed state without firing execute
    observers, so a client watching only that replica wedged when its
    in-flight commands landed inside the snapshot.  Completion must come
    through the learner's adoption hook instead."""
    sim, cluster = deploy(
        seed=3,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2, chunk_size=8),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    victim = cluster.learners[2]
    client = PipelinedClient("c0", cluster, window=30)
    client.watch_replica(replicas[2])
    mine = [cmd(f"m{i}", "put", f"km{i}", i) for i in range(20)]
    client.submit(mine)
    # Crash the watched learner once it has checkpointed part of the
    # window; the rest of the window decides while it is down.
    assert sim.run_until(
        lambda: sum(victim.has_delivered(c) for c in mine) >= 12,
        timeout=10_000,
    )
    victim.crash()
    background = make_cmds(40, prefix="bg")
    for i, command in enumerate(background):
        cluster.propose(command, delay=1.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in mine + background),
        timeout=sim.clock + 10_000,
    )
    # The cluster truncated past the victim's durable checkpoint, so its
    # recovery must go through a snapshot install -- which covers the
    # client commands decided during the outage.
    assert min(a.gc_floor for a in cluster.acceptors) > victim.storage.read(
        "snapshot"
    )["frontier"]
    assert not client.all_completed()
    victim.recover()
    assert sim.run_until(client.all_completed, timeout=sim.clock + 10_000)
    assert victim.snapshot_installs >= 1


def test_gap_above_floor_served_from_log_without_install():
    """Tier one: a short outage is healed by plain log replay."""
    sim, cluster = deploy(
        seed=5,
        checkpoint=CheckpointConfig(interval=50, gc_quorum=2),
        retransmit=RetransmitConfig(),
    )
    pump(cluster, make_cmds(10))
    victim = cluster.learners[2]
    victim.crash()
    second = make_cmds(8, prefix="d")
    for i, command in enumerate(second):
        cluster.propose(command, delay=1.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in second),
        timeout=sim.clock + 10_000,
    )
    victim.recover()
    assert sim.run_until(
        lambda: all(victim.has_delivered(c) for c in second),
        timeout=sim.clock + 10_000,
    )
    # Nothing was truncated past it, so no snapshot transfer was needed.
    assert victim.snapshot_installs == 0


def test_snapshot_transfer_resumes_after_chunk_loss():
    """Dropped chunks are re-requested, not restarted: install completes."""
    sim, cluster = deploy(
        seed=9,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2, chunk_size=4),
        retransmit=RetransmitConfig(catchup_interval=4.0),
        liveness=LivenessConfig(),
    )
    # Drop a fixed subset of snapshot chunks on first transmission.
    dropped = set()

    def drop_even_chunks_once(src, dst, msg):
        if isinstance(msg, ISnapshotChunk) and msg.seq % 2 == 0:
            key = (dst, msg.frontier, msg.seq)
            if key not in dropped:
                dropped.add(key)
                return True
        return False

    sim.network.add_drop_filter(drop_even_chunks_once)
    first = make_cmds(30)
    pump(cluster, first)
    victim = cluster.learners[2]
    victim.crash()
    second = make_cmds(30, prefix="d")
    for i, command in enumerate(second):
        cluster.propose(command, delay=1.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in second),
        timeout=sim.clock + 10_000,
    )
    victim.recover()
    assert sim.run_until(
        lambda: all(victim.has_delivered(c) for c in first + second),
        timeout=sim.clock + 20_000,
    )
    assert victim.snapshot_installs >= 1
    assert dropped  # the fault actually fired


def test_snapshot_transfer_survives_lost_initial_request():
    """A transfer whose very first request (so *every* chunk) is lost must
    be re-driven by the catch-up tick, not abandoned half-armed."""
    sim, cluster = deploy(
        seed=11,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2, chunk_size=8),
        retransmit=RetransmitConfig(catchup_interval=4.0),
        liveness=LivenessConfig(),
    )
    requests = []

    def drop_first_requests(src, dst, msg):
        if isinstance(msg, ISnapshotRequest) and len(requests) < 3:
            requests.append(msg)
            return True
        return False

    sim.network.add_drop_filter(drop_first_requests)
    first = make_cmds(30)
    pump(cluster, first)
    victim = cluster.learners[2]
    victim.crash()
    second = make_cmds(40, prefix="d")
    for i, command in enumerate(second):
        cluster.propose(command, delay=1.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in second),
        timeout=sim.clock + 10_000,
    )
    assert min(a.gc_floor for a in cluster.acceptors) > victim.storage.read(
        "snapshot"
    )["frontier"]
    victim.recover()
    assert sim.run_until(
        lambda: all(victim.has_delivered(c) for c in first + second),
        timeout=sim.clock + 20_000,
    )
    assert requests  # the fault actually fired
    assert victim.snapshot_installs >= 1


def test_recovered_coordinator_phase1_skips_truncated_prefix():
    """A crash-recovered coordinator must not re-open [0, floor) as holes:
    the journalled GC floor keeps its recovery phase 1 O(window)."""
    sim, cluster = deploy(
        seed=6,
        checkpoint=CheckpointConfig(interval=10),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    pump(cluster, make_cmds(35))
    coordinator = cluster.coordinators[0]
    floor = coordinator.gc_floor
    assert floor >= 30
    coordinator.crash()
    coordinator.recover()
    assert coordinator.gc_floor == floor  # journalled, not re-learned
    # A new round led by the recovered coordinator closes no holes below
    # the floor (its 2as would all be below-floor no-ops).
    rnd = cluster.config.schedule.make_round(coord=0, count=5, rtype=2)
    coordinator.start_round(rnd)
    sim.run(until=sim.clock + 10)
    assert coordinator.phase1_done
    assert all(i >= floor for i in coordinator._sent)
    # And the cluster still works end to end afterwards.
    pump(cluster, make_cmds(10, prefix="d"), start=1.0)


def test_trailing_decision_inside_window_still_retransmitted():
    """A live learner missing a decision *before* any checkpoint covers it
    must still be driven by proposer retransmission: unacked values are
    retired on the collective frontier passing their instance, never on a
    bare ack count."""
    from repro.smr.instances import I2b, IDecided

    sim, cluster = deploy(
        seed=8,
        checkpoint=CheckpointConfig(interval=50, gc_quorum=2),
        retransmit=RetransmitConfig(retry_interval=3.0),
    )
    laggard_pid = cluster.config.topology.learners[2]
    laggard = cluster.learners[2]

    # The last command's decision evidence never reaches learner 2.
    target = cmd("last", "put", "klast", 99)

    def blind_to_target(src, dst, msg):
        if dst != laggard_pid:
            return False
        if isinstance(msg, I2b) and msg.val == target:
            return True
        if isinstance(msg, IDecided) and any(val == target for _, val in msg.entries):
            return True
        return False

    sim.network.add_drop_filter(blind_to_target)
    commands = make_cmds(19) + [target]
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in commands),
        timeout=20_000,
    )
    # interval=50 > 20 commands: no checkpoint exists, so the proposers
    # must keep the value unacked and keep retrying.
    assert all(l.snapshots_taken == 0 for l in cluster.learners)
    assert any(target in p._unacked for p in cluster.proposers)
    # Unblind the learner: retransmission (IDecided re-announce) lands.
    sim.network.remove_drop_filter(blind_to_target)
    assert sim.run_until(
        lambda: laggard.has_delivered(target), timeout=sim.clock + 10_000
    )
    # Once every learner acked, the buffer retires.
    assert sim.run_until(
        lambda: all(target not in p._unacked for p in cluster.proposers),
        timeout=sim.clock + 10_000,
    )


def test_gap_at_last_prefrontier_instance_is_requested():
    """The instance just below an advertised frontier must be reachable by
    gap detection: gaps() includes its (advertisement-raised) top bound."""
    from repro.smr.instances import I2b, IDecided

    sim, cluster = deploy(
        seed=4,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2),
        retransmit=RetransmitConfig(catchup_interval=3.0),
    )
    laggard_pid = cluster.config.topology.learners[2]
    laggard = cluster.learners[2]
    commands = make_cmds(20)
    target = commands[-1]

    def blind_to_target(src, dst, msg):
        if dst != laggard_pid:
            return False
        if isinstance(msg, I2b) and msg.val == target:
            return True
        if isinstance(msg, IDecided) and any(val == target for _, val in msg.entries):
            return True
        return False

    sim.network.add_drop_filter(blind_to_target)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 0.5 * i)
    live = cluster.learners[:2]
    assert sim.run_until(
        lambda: all(l.has_delivered(c) for l in live for c in commands),
        timeout=20_000,
    )
    # Peers checkpointed at (multiples of) the full run; the laggard sits
    # exactly one instance short.  The catch-up must close that last gap
    # -- via ICatchUp if the log still has it, or snapshot install if the
    # acceptors truncated it -- even with the evidence filter still up
    # (the filter passes ISnapshotChunk and acceptor re-I2b carries the
    # same value, which it blocks -- so lift it after the first poll to
    # model a transient, not permanent, blind spot).
    sim.run(until=sim.clock + 5.0)
    sim.network.remove_drop_filter(blind_to_target)
    assert sim.run_until(
        lambda: laggard.has_delivered(target), timeout=sim.clock + 10_000
    )


# -- crash-recovery from the local checkpoint ---------------------------------


def test_learner_recovery_restores_own_snapshot_then_replays_suffix():
    sim, cluster = deploy(
        seed=2,
        checkpoint=CheckpointConfig(interval=10),
        retransmit=RetransmitConfig(),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    pump(cluster, make_cmds(25))
    victim = cluster.learners[2]
    frontier = victim.snap_frontier
    assert frontier >= 20
    victim.crash()
    # The crash wipes volatile delivery state and the machine.
    assert victim.delivered == []
    assert replicas[2].executed == []
    victim.recover()
    # Snapshot-restore: the frontier and the delivered prefix come back
    # from the learner's own journalled checkpoint, not from replay.
    assert victim._next_delivery == frontier
    assert victim.delivered == cluster.learners[0].delivered[: len(victim.delivered)]
    assert replicas[2].executed == victim.delivered  # machine fast-forwarded
    # Suffix replay: the remainder converges through ordinary catch-up.
    pump(cluster, make_cmds(12, prefix="d"), start=1.0)
    assert len({r.order_signature() for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1


def test_acceptor_recovery_reads_floor_and_journal_suffix():
    sim, cluster = deploy(
        checkpoint=CheckpointConfig(interval=10), retransmit=RetransmitConfig()
    )
    pump(cluster, make_cmds(35))
    acceptor = cluster.acceptors[0]
    floor = acceptor.gc_floor
    votes_before = dict(acceptor.votes)
    assert floor >= 30
    acceptor.crash()
    assert acceptor.votes == {}
    acceptor.recover()
    assert acceptor.gc_floor == floor
    assert acceptor.votes == votes_before
    assert all(instance >= floor for instance in acceptor.votes)


def test_phase1_hole_closing_respects_replier_floors():
    """Vote absence below a replier's truncation floor is not evidence.

    A coordinator whose own floor is stale (here: a fresh coordinator of
    a new round) must not no-op-close instances below a phase-1 replier's
    floor -- those votes may be decided-then-truncated, and closing them
    with NOOP at a higher round would overwrite a chosen value.
    """
    sim, cluster = deploy(
        seed=12,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    first = make_cmds(30)
    pump(cluster, first)
    sim.run(until=sim.clock + 20)  # let the periodic advertisements land
    floor = min(a.gc_floor for a in cluster.acceptors)
    assert floor >= 30
    # Wipe coordinator 1's memory of the truncated prefix (its journalled
    # floor included), then make it lead a new round: the only floor
    # knowledge left is what the phase-1 replies carry.
    coordinator = cluster.coordinators[1]
    coordinator.crash()
    coordinator.storage.clear()
    coordinator.recover()
    assert coordinator.gc_floor == 0
    rnd = cluster.config.schedule.make_round(coord=1, count=7, rtype=2)
    coordinator.start_round(rnd)
    sim.run(until=sim.clock + 15)
    assert coordinator.phase1_done
    # The replier floors stopped it from re-opening [0, floor).
    assert coordinator.gc_floor >= floor
    assert all(i >= floor for i in coordinator._sent)
    # And no learner saw a conflicting (NOOP-overwritten) decision: the
    # consistency oracle in on_i2b/_check_consistent would have raised.
    pump(cluster, make_cmds(10, prefix="d"), start=1.0)
    assert len({r.order_signature() for r in replicas}) == 1


# -- the GC-safety property ---------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_gc_never_drops_an_instance_a_correct_process_needs(seed):
    """Randomized runs: message loss, a mid-run learner outage, continuous
    truncation -- and still every learner converges to the identical full
    order, and no truncation floor ever overtakes the checkpoint policy's
    justification (the quorum-th highest durable learner frontier)."""
    sim, cluster = deploy(
        seed=seed,
        drop_rate=0.15,
        checkpoint=CheckpointConfig(interval=8, gc_quorum=2, chunk_size=8),
        retransmit=RetransmitConfig(retry_interval=4.0, gossip_interval=5.0, catchup_interval=4.0),
        liveness=LivenessConfig(),
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    victim = cluster.learners[seed % 3]

    def durable_frontier(learner):
        # The invariant is about *durable* checkpoints: a crashed
        # learner's volatile snap_frontier is 0, but its journalled
        # checkpoint (which justified earlier truncation) survives.
        snapshot = learner.storage._data.get("snapshot")
        return snapshot["frontier"] if snapshot is not None else 0

    def check_floors():
        frontiers = sorted(
            (durable_frontier(l) for l in cluster.learners), reverse=True
        )
        justification = frontiers[1]  # gc_quorum=2: the 2nd highest
        for acceptor in cluster.acceptors:
            assert acceptor.gc_floor <= justification
        for coordinator in cluster.coordinators:
            assert coordinator.gc_floor <= justification
        sim.schedule(3.0, check_floors)

    sim.schedule(3.0, check_floors)
    commands = make_cmds(60)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 0.8 * i)
    sim.schedule(20.0, victim.crash)
    sim.schedule(45.0, victim.recover)
    assert cluster.run_until_delivered(commands, timeout=30_000)
    assert len({r.order_signature() for r in replicas}) == 1
    assert len({r.machine.snapshot() for r in replicas}) == 1
