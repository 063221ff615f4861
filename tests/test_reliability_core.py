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
from repro.core.generalized import DeltaConfig, GenBatchingConfig, GeneralizedConfig
from repro.core.liveness import LivenessConfig
from repro.core.messages import Learned
from repro.core.sessions import SessionConfig
from repro.smr.instances import BatchingConfig, InstancesConfig
from repro.smr.machine import KVStore
from repro.smr.replica import OrderedReplica, Replica
from tests.conftest import ENGINES, cmd

both_engines = pytest.mark.parametrize("engine", ENGINES, ids=repr)

# Retransmission on, but every periodic re-driver parked far in the future:
# whatever a test observes was caused by the step it just took.
QUIET = dict(
    retry_interval=500.0, max_interval=500.0, gossip_interval=500.0, catchup_interval=500.0
)


def watch_proposals(engine, sim, proposer):
    """Every proposal *proposer* sends from now on, as ``(dst, commands)``."""
    seen = []

    def observe(src, dst, msg):
        if src == proposer.pid and engine.is_proposal(msg):
            seen.append((dst, engine.proposed(msg)))
        return False

    sim.network.add_drop_filter(observe)
    return seen


@both_engines
def test_size_triggered_flushes_strand_no_timer_handles(engine):
    """A flush that beats its deadline must release the deadline's handle.

    ``Timer.cancel()`` alone leaves the handle in ``Process._timers`` until
    the next crash (a cancelled event never runs the handle-retiring
    ``fire``): one stranded ``Timer`` per size-triggered batch, each
    scanned by every later ``drop_timer``.
    """
    sim, cluster = engine.deploy(batching=(2, 50.0), retransmit=RetransmitConfig(**QUIET))
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
def test_crash_between_buffering_and_flush_reships_the_buffer_once(engine):
    sim, cluster = engine.deploy(batching=(8, 50.0), retransmit=RetransmitConfig(**QUIET))
    sim.run(until=5)
    proposer = cluster.proposers[0]
    shipped = watch_proposals(engine, sim, proposer)
    commands = [cmd(f"b{i}", key=f"k{i}") for i in range(3)]
    for command in commands:
        proposer.propose(command)
    assert shipped == []  # buffered: nothing on the wire yet
    assert proposer.storage.read(proposer.BUFFER_KEY) == tuple(commands)

    proposer.crash()
    assert proposer._buffer == []  # volatile buffer lost with the crash
    proposer.recover()
    # Exactly the journalled buffer, as one batch, once per destination.
    assert shipped and {carried for _, carried in shipped} == {tuple(commands)}
    assert len({dst for dst, _ in shipped}) == len(shipped)
    assert proposer._buffer == [] and proposer._flush_timer is None
    assert proposer.storage.read(proposer.BUFFER_KEY) == ()

    # A second crash finds an empty buffer journal: the commands now live
    # in the unacked registry and are re-sent from there, not re-batched.
    shipped.clear()
    proposer.crash()
    proposer.recover()
    assert proposer._buffer == []
    resent = Counter((dst, c) for dst, carried in shipped for c in carried)
    assert {c for _, c in resent} == set(commands) and set(resent.values()) == {1}
    assert sim.run_until(lambda: cluster.everyone_delivered(commands), timeout=5_000)
    for learner in cluster.learners:
        assert sorted(learner.delivered, key=repr) == sorted(commands, key=repr)


@both_engines
def test_recovery_reships_unacked_items_first_then_the_buffer_as_one_flush(engine):
    sim, cluster = engine.deploy(batching=(4, 50.0), retransmit=RetransmitConfig(**QUIET))
    sim.run(until=5)
    proposer = cluster.proposers[0]
    in_flight = [cmd(f"f{i}", key=f"k{i}") for i in range(4)]
    buffered = [cmd(f"b{i}", key=f"q{i}") for i in range(2)]
    for command in in_flight:  # a full batch: shipped and tracked unacked
        proposer.propose(command)
    for command in buffered:  # a partial one: waiting for its deadline
        proposer.propose(command)
    assert proposer._unacked and proposer._buffer == buffered

    proposer.crash()
    shipped = watch_proposals(engine, sim, proposer)
    proposer.recover()
    carried = [commands for _, commands in shipped]
    first_buffered = carried.index(tuple(buffered))
    # Retries of what was already in flight, all of them, come first...
    assert {c for commands in carried[:first_buffered] for c in commands} == set(in_flight)
    # ...then the journalled buffer, whole, once per destination.
    assert set(carried[first_buffered:]) == {tuple(buffered)}
    assert len({dst for dst, _ in shipped[first_buffered:]}) == len(shipped) - first_buffered


@both_engines
def test_buffer_is_journalled_and_reshipped_without_retransmission(engine):
    """Buffered commands have reached nobody: with ``retransmit=None`` the
    journal is the only thing that can re-drive them after a crash."""
    sim, cluster = engine.deploy(batching=(8, 50.0))
    sim.run(until=5)
    proposer = cluster.proposers[0]
    commands = [cmd(f"j{i}", key=f"k{i}") for i in range(3)]
    for command in commands:
        proposer.propose(command)
    assert proposer.storage.read(proposer.BUFFER_KEY) == tuple(commands)
    proposer.crash()
    proposer.recover()
    assert proposer.storage.read(proposer.BUFFER_KEY) == ()
    assert sim.run_until(lambda: cluster.everyone_delivered(commands), timeout=5_000)


@both_engines
def test_item_is_journalled_before_its_first_transmission(engine):
    """A crash between the send and the journal write would leave a
    proposal on the wire that no recovery re-drives."""
    sim, cluster = engine.deploy(retransmit=RetransmitConfig(**QUIET))
    sim.run(until=5)
    proposer = cluster.proposers[0]
    journal_at_send = []

    def observe(src, dst, msg):
        if src == proposer.pid and engine.is_proposal(msg):
            journal_at_send.append(proposer.storage.read(proposer.UNACKED_KEY, ()))
        return False

    sim.network.add_drop_filter(observe)
    command = cmd("w0")
    proposer.propose(command)  # unbatched: the item is the command itself
    assert journal_at_send and all(journal == (command,) for journal in journal_at_send)


@both_engines
def test_checkpoint_past_the_safe_bound_retires_and_journals_once(engine):
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
            proposer.on_learned(Learned((command,), learner0, instance), learner0)
    assert list(proposer._unacked) == commands
    members = frozenset(commands) if engine.name == "generalized" else None

    writes = proposer.storage.write_count
    proposer.on_icheckpoint(ICheckpoint(3, members), learner0)
    # The other learner has advertised nothing: the collective bound is 0.
    assert list(proposer._unacked) == commands
    assert proposer.storage.write_count == writes
    proposer.on_icheckpoint(ICheckpoint(3, members), learner1)
    # Now a checkpoint at every learner covers all three: retired together,
    # their timers released, the shrunken registry journalled exactly once.
    assert proposer._unacked == {}
    assert proposer._timers == []
    assert proposer.storage.write_count == writes + 1
    assert proposer.storage.read(proposer.UNACKED_KEY) == ()


@both_engines
@pytest.mark.parametrize("sessions", [None, SessionConfig(window=64)], ids=["exact", "sessions"])
def test_crash_right_after_install_recovers_at_the_installed_frontier(engine, sessions):
    sim, cluster = engine.deploy(
        seed=7,
        n_learners=3,
        batching=(4, 1.0),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
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
        batching=(4, 1.0),
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
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
    sim, cluster = engine.deploy(n_learners=1, batching=(3, 50.0))
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
        GenBatchingConfig,
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
    assert len(settable) == 33, settable
