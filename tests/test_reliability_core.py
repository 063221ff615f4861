"""The shared reliability core, driven through both engines.

``repro.core.reliability.ReliableProposer`` and
``repro.core.checkpoint.CheckpointingLearner`` are one implementation
under two orderings, so each edge case here is one test parametrised
over the engines (``tests.conftest.ENGINES``), not a copy per engine.
"""

from collections import Counter
from dataclasses import fields

import pytest

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointFollower,
    CheckpointingLearner,
    ICheckpoint,
    RetransmitConfig,
)
from repro.core.cluster import Cluster
from repro.core.generalized import DeltaConfig, GeneralizedConfig
from repro.core.liveness import LivenessConfig
from repro.core.messages import Learned
from repro.core.reliability import UNBATCHED
from repro.core.rounds import ZERO
from repro.core.sessions import SessionConfig
from repro.smr.instances import BatchingConfig, InstancesConfig
from repro.smr.client import Client
from repro.smr.machine import KVStore
from repro.smr.replica import OrderedReplica, Replica
from tests.conftest import ENGINES, cmd

both_engines = pytest.mark.parametrize("engine", ENGINES, ids=repr)

# Every periodic re-driver parked far in the future:
# whatever a test observes was caused by the step it just took.
QUIET = dict(
    retry_interval=500.0, max_interval=500.0, gossip_interval=500.0, catchup_interval=500.0
)


@both_engines
def test_size_triggered_flushes_strand_no_timer_handles(engine):
    """A flush that beats its deadline must release the deadline's handle.

    ``Timer.cancel()`` alone leaves the handle in ``Process._timers`` until
    the next crash (a cancelled event never runs the handle-retiring
    ``fire``): one stranded ``Timer`` per size-triggered batch, each
    scanned by every later ``drop_timer``.
    """
    sim, cluster = engine.deploy(
        batching=BatchingConfig(2, 50.0), retransmit=RetransmitConfig(**QUIET)
    )
    sim.run(until=5)
    proposer = cluster.proposers[0]
    for i in range(60):  # 30 batches, every one size-triggered
        proposer.propose(cmd(f"t{i}", key=f"k{i}"))
    assert proposer._flush_timer is None and proposer._buffer == []
    # What remains armed is the in-flight window: one retry timer per
    # unacked item, nothing per batch already shipped.
    assert len(proposer._unacked) >= 30
    assert len(proposer._timers) == len(proposer._unacked)


@both_engines
@pytest.mark.parametrize("batching", [UNBATCHED, BatchingConfig(4, 2.0)], ids=["unbatched", "batched"])
def test_a_proposer_writes_nothing(engine, batching):
    """Proposers keep no stable state (Section 4.4): a proposer crashed
    mid-run recovers empty, and the client's resubmissions deliver what
    the crash lost.  No proposer ever touches its storage."""
    sim, cluster = engine.deploy(batching=batching, retransmit=RetransmitConfig(retry_interval=4.0))
    client = Client("c", cluster, retry_interval=10.0)
    client.watch_learner(cluster.learners[0])
    commands = [client.issue(cmd(f"w{i}", key=f"k{i % 3}"), delay=5.0 + i) for i in range(16)]
    victim = cluster.proposers[0]

    def crash():
        assert victim._buffer or victim._unacked  # the crash loses something
        victim.crash()

    sim.schedule(9.5, crash)
    sim.schedule(14.5, victim.recover)
    assert sim.run_until(client.all_completed, timeout=5_000)
    assert cluster.run_until_delivered(commands, timeout=sim.clock + 5_000)
    assert victim.crash_count == 1 and victim.alive
    for proposer in cluster.proposers:
        assert proposer.storage.write_count == 0
        assert list(proposer.storage.keys()) == []


@both_engines
def test_client_retries_skip_a_crashed_proposer(engine):
    """The client re-drives what a proposer crash lost: each resubmission
    goes to the next proposer that is up, so one dead proposer in the
    rotation cannot keep swallowing the same command."""
    sim, cluster = engine.deploy(batching=BatchingConfig(10, 100.0))
    sim.run(until=5)
    client = Client("c", cluster, retry_interval=10)
    client.watch_learner(cluster.learners[0])
    for i in range(4):
        client.issue(cmd(f"b{i}", key=f"k{i}"))
    sim.schedule(3, cluster.proposers[0].crash)  # loses b0 and b2; never recovers
    assert sim.run_until(client.all_completed, timeout=5_000)
    assert max(client.retries.values()) <= 3


@both_engines
def test_checkpoint_past_the_safe_bound_retires_together(engine):
    sim, cluster = engine.deploy(
        retransmit=RetransmitConfig(**QUIET), checkpoint=CheckpointConfig(interval=1000)
    )
    sim.run(until=5)
    proposer = cluster.proposers[0]
    sim.network.add_drop_filter(lambda src, dst, msg: src == proposer.pid)
    commands = [cmd(f"r{i}", key=f"k{i}") for i in range(3)]
    learner0, learner1 = cluster.config.topology.learners
    for instance, command in enumerate(commands):
        proposer.propose(command)
        if engine.name == "instances":
            # One learner's ack tells the proposer where the value landed;
            # one of two acks does not retire it.
            proposer.on_learned(Learned((command,), instance), learner0)
    assert list(proposer._unacked) == commands
    members = frozenset(commands) if engine.name == "generalized" else None

    proposer.on_icheckpoint(ICheckpoint(3, members), learner0)
    # The other learner has advertised nothing: the collective bound is 0.
    assert list(proposer._unacked) == commands
    proposer.on_icheckpoint(ICheckpoint(3, members), learner1)
    # Now a checkpoint at every learner covers all three: retired together,
    # their timers released.
    assert proposer._unacked == {}
    assert proposer._timers == []


@both_engines
@pytest.mark.parametrize("sessions", [None, SessionConfig(window=64)], ids=["exact", "sessions"])
def test_crash_right_after_install_recovers_at_the_installed_frontier(engine, sessions):
    sim, cluster = engine.deploy(
        seed=7,
        n_learners=3,
        batching=BatchingConfig(4, 1.0),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=8, gc_quorum=2, chunk_size=4),
        sessions=sessions,
    )
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    victim = cluster.learners[2]
    commands = [cmd(f"s:{i}", key=f"k{i % 5}", arg=i) for i in range(80)]

    def pump(batch, learners):
        for i, command in enumerate(batch):
            cluster.propose(command, delay=1.0 + 0.5 * i)
        assert sim.run_until(
            lambda: all(c in l._seen for l in learners for c in batch),
            timeout=sim.clock + 20_000,
        )

    pump(commands[:24], cluster.learners)
    assert victim.snap_frontier > 0  # it holds a checkpoint of its own...
    victim.crash()
    pump(commands[24:64], cluster.learners[:2])
    # ...which the cluster has truncated past: only an install helps now.
    assert min(a.gc_floor for a in cluster.acceptors) > victim.storage.read("snapshot")["frontier"]
    victim.recover()
    assert sim.run_until(lambda: victim.snapshot_installs >= 1, timeout=sim.clock + 5_000)
    installed = victim.storage.read("snapshot")["frontier"]
    floor = min(a.gc_floor for a in cluster.acceptors)

    victim.crash()  # before anything else happens
    victim.recover()
    # The installed checkpoint became the learner's own journalled one.
    assert victim.snap_frontier == installed
    assert victim._frontier() == installed >= floor
    assert victim.snapshot_installs == 1  # restored locally, no second transfer

    pump(commands[64:], cluster.learners)
    assert cluster.everyone_delivered(commands)
    assert len({r.machine.snapshot() for r in replicas}) == 1


@both_engines
def test_a_recovered_coordinator_forgets_its_round_bookkeeping(engine):
    """Coordinators keep no stable state (Section 4.4): the rounds a
    coordinator has seen are lost with a crash, like its current round."""
    sim, cluster = engine.deploy()
    rnd = cluster.config.schedule.make_round(coord=0, count=3, rtype=2)
    cluster.start_round(rnd)
    sim.run(until=10)
    coordinator = cluster.coordinators[1]
    assert coordinator.highest_seen == rnd
    coordinator.crash()
    coordinator.recover()
    assert coordinator.highest_seen == ZERO and coordinator.crnd == ZERO
    assert coordinator._last_round_change == 0.0


@both_engines
def test_one_delivery_vocabulary(engine):
    """Consumers name the stream one way: no engine's learner or handle
    defines its own spelling of it."""
    _sim, cluster = engine.deploy()
    learner, handle = type(cluster.learners[0]), type(cluster)
    assert issubclass(learner, CheckpointingLearner) and learner is not CheckpointingLearner
    for name in ("on_deliver", "has_delivered", "_deliver"):
        assert getattr(learner, name) is getattr(CheckpointingLearner, name), name
    assert issubclass(handle, Cluster) and handle is not Cluster
    for name in ("everyone_delivered", "run_until_delivered", "delivery_orders"):
        assert getattr(handle, name) is getattr(Cluster, name), name
    assert callable(handle.retained_state)
    assert OrderedReplica is Replica


@both_engines
def test_one_checkpoint_follower(engine):
    """Proposers, coordinators and acceptors follow checkpoints one way:
    no engine's role defines its own ``ICheckpoint`` handler or crash hook;
    what differs is what ``_on_stable`` forgets."""
    _sim, cluster = engine.deploy()
    for role in (cluster.proposers, cluster.coordinators, cluster.acceptors):
        cls = type(role[0])
        assert issubclass(cls, CheckpointFollower), cls
        for name in ("on_icheckpoint", "on_crash"):
            assert getattr(cls, name) is getattr(CheckpointFollower, name), (cls, name)
        assert cls._on_stable is not CheckpointFollower._on_stable, cls


@both_engines
def test_one_replica_class_survives_a_learner_crash_and_install(engine):
    sim, cluster = engine.deploy(
        seed=11,
        n_learners=2,
        batching=BatchingConfig(4, 1.0),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=8, gc_quorum=1, chunk_size=4),
    )
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    executions = [Counter(), Counter()]
    for replica, count in zip(replicas, executions):
        replica.on_execute(lambda command, result, count=count: count.update([command]))
    survivor, victim = cluster.learners
    commands = [cmd(f"c{i}", op="inc", key=f"k{i % 3}", arg=1) for i in range(90)]

    def pump(batch, learners):
        for i, command in enumerate(batch):
            cluster.propose(command, delay=1.0 + 0.5 * i)
        assert sim.run_until(
            lambda: all(l.has_delivered(c) for l in learners for c in batch),
            timeout=sim.clock + 20_000,
        )

    pump(commands[:40], cluster.learners)
    assert victim.snap_frontier > 0  # restored on recovery, then truncated past
    victim.crash()
    pump(commands[40:80], [survivor])
    victim.recover()
    assert sim.run_until(lambda: victim.snapshot_installs >= 1, timeout=sim.clock + 5_000)
    pump(commands[80:], cluster.learners)

    for replica in replicas:
        assert sorted(replica.executed) == sorted(commands)  # each one, once
    assert executions[0] == Counter(commands)  # the survivor ran every one live, once
    assert max(executions[1].values()) == 1  # the victim re-ran none after the install
    # ``inc`` does not commute with itself: equal states mean every key's
    # commands ran in one order at both replicas, whichever engine ordered them.
    assert replicas[0].machine.snapshot() == replicas[1].machine.snapshot()
    per_key = [
        {key: [c for c in r.executed if c.key == key] for key in ("k0", "k1", "k2")}
        for r in replicas
    ]
    assert per_key[0] == per_key[1]


@both_engines
def test_callback_order_is_pinned(engine):
    """Two observers on one learner: a generalized learn event reaches them
    callback-major (the whole tuple, then the next observer), an instances
    ``Batch`` command-major (the learner delivers command by command)."""
    sim, cluster = engine.deploy(n_learners=1, batching=BatchingConfig(3, 50.0))
    learner = cluster.learners[0]
    seen = []
    for observer in (0, 1):
        learner.on_deliver(lambda command, observer=observer: seen.append((observer, command.cid)))
    commands = [cmd(cid, key="hot") for cid in "abc"]
    for command in commands:
        cluster.propose(command, delay=5.0, proposer=0)
    assert cluster.run_until_delivered(commands, timeout=500)
    assert [c.cid for c in learner.delivered] == ["a", "b", "c"]
    if engine.name == "generalized":
        assert seen == [(o, cid) for o in (0, 1) for cid in "abc"]
    else:
        assert seen == [(o, cid) for cid in "abc" for o in (0, 1)]


def test_config_field_census():
    """Every independently settable field is a state tests and benchmarks
    must cover: adding one is a decision, so it has to be made here too.
    (Deployment inputs -- topology, quorums, schedule, bottom -- are not
    options and are not counted.)"""
    configs = (
        BatchingConfig,
        DeltaConfig,
        RetransmitConfig,
        CheckpointConfig,
        SessionConfig,
        LivenessConfig,
        InstancesConfig,
        GeneralizedConfig,
    )
    deployment_inputs = {"topology", "quorums", "schedule", "bottom"}
    settable = [
        (config.__name__, f.name)
        for config in configs
        for f in fields(config)
        if f.name not in deployment_inputs
    ]
    assert len(settable) == 29, settable


@both_engines
def test_a_proposer_holds_a_resubmitted_command_once(engine):
    """A client's resubmission that reaches the proposer while the command
    is still buffered is skipped and counted: the flush ships it once.
    One already shipped and unacked is proposed again (a prompt
    retransmission, for a copy the network may have lost)."""
    sim, cluster = engine.deploy(batching=BatchingConfig(10, 100.0), n_proposers=1)
    sim.run(until=10)
    proposer = cluster.proposers[0]
    proposals = []

    def tap(src, dst, msg):
        if src == proposer.pid and engine.is_proposal(msg):
            proposals.append(engine.proposed(msg))

    sim.add_delivery_tap(tap)
    client = Client("c", cluster, retry_interval=20.0)
    client.watch_learner(cluster.learners[0])
    commands = [client.issue(cmd(f"b{i}", key=f"k{i}"), delay=1.0) for i in range(3)]
    assert sim.run_until(client.all_completed, timeout=5_000)
    assert cluster.run_until_delivered(commands, timeout=sim.clock + 5_000)
    # Each resubmitted twice before the 100-unit flush, each skipped.
    assert sum(client.retries.values()) == 6 == proposer.held_resubmissions
    assert proposals and all(sorted(p, key=str) == commands for p in proposals)

    late = cmd("late", key="k9")
    proposer.propose(late)
    proposer.flush()
    assert late in proposer._unacked
    proposals.clear()
    proposer.propose(late)
    proposer.flush()
    sim.run(until=sim.clock + 5)
    assert proposals and all(p == (late,) for p in proposals)
    assert proposer.held_resubmissions == 6
