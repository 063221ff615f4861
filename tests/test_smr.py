"""State-machine replication: KV store, replicas, clients."""

import pytest

from repro.core.broadcast import GenericBroadcast
from repro.core.rounds import RoundSchedule
from repro.protocols.classic import build_classic_paxos
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import Client
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica
from tests.conftest import cmd


# -- the KV state machine -------------------------------------------------------


def test_kv_put_get():
    kv = KVStore()
    kv.apply(cmd("1", "put", "x", 7))
    assert kv.apply(cmd("2", "get", "x")) == 7
    assert kv.get("x") == 7


def test_kv_get_missing_is_none():
    assert KVStore().apply(cmd("1", "get", "nope")) is None


def test_kv_inc_defaults_to_one():
    kv = KVStore()
    assert kv.apply(cmd("1", "inc", "n")) == 1
    assert kv.apply(cmd("2", "inc", "n", 4)) == 5


def test_kv_cas():
    kv = KVStore()
    kv.apply(cmd("1", "put", "x", 1))
    assert kv.apply(cmd("2", "cas", "x", (1, 2))) is True
    assert kv.apply(cmd("3", "cas", "x", (1, 9))) is False
    assert kv.get("x") == 2


def test_kv_unknown_op_rejected():
    with pytest.raises(ValueError):
        KVStore().apply(cmd("1", "fly", "x"))


def test_kv_snapshot_deterministic():
    left, right = KVStore(), KVStore()
    for store in (left, right):
        store.apply(cmd("1", "put", "b", 2))
        store.apply(cmd("2", "put", "a", 1))
    assert left.snapshot() == right.snapshot() == (("a", 1), ("b", 2))


def test_kv_commuting_orders_converge():
    """Commands that commute under kv_conflict leave the same final state."""
    rel = kv_conflict()
    a, b = cmd("1", "put", "x", 1), cmd("2", "put", "y", 2)
    assert not rel(a, b)
    left, right = KVStore(), KVStore()
    left.apply(a), left.apply(b)
    right.apply(b), right.apply(a)
    assert left.snapshot() == right.snapshot()


# -- generic-broadcast replication ------------------------------------------------


def deploy_broadcast(seed=1, jitter=0.0, n_learners=2):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    service = GenericBroadcast.deploy(
        sim, kv_conflict(), n_learners=n_learners, n_coordinators=3, n_acceptors=3
    )
    rnd = service.cluster.config.schedule.make_round(0, 1, 2)
    service.start_round(rnd)
    replicas = [
        Replica(learner, KVStore()) for learner in service.cluster.learners
    ]
    return sim, service, replicas


def test_replicas_converge_to_same_state():
    sim, service, replicas = deploy_broadcast()
    cmds = [
        cmd("1", "put", "x", 1),
        cmd("2", "put", "y", 2),
        cmd("3", "inc", "x"),  # wait: inc on x conflicts with put on x
    ]
    for i, command in enumerate(cmds):
        service.broadcast(command, delay=5.0 + 4 * i)
    assert service.cluster.run_until_delivered(cmds, timeout=500)
    snapshots = {replica.machine.snapshot() for replica in replicas}
    assert len(snapshots) == 1


def test_replicas_execute_conflicting_commands_in_same_order():
    sim, service, replicas = deploy_broadcast(jitter=0.8, seed=5)
    conflicting = [cmd(str(i), "put", "hot", i) for i in range(4)]
    for i, command in enumerate(conflicting):
        service.broadcast(command, delay=5.0 + 3 * i)
    assert service.cluster.run_until_delivered(conflicting, timeout=2000)
    orders = [
        [c for c in replica.executed if c.key == "hot"] for replica in replicas
    ]
    assert all(order == orders[0] for order in orders)
    final = {replica.machine.get("hot") for replica in replicas}
    assert len(final) == 1


def test_deliver_callback_fires_per_learner():
    sim, service, replicas = deploy_broadcast()
    delivered = []
    service.on_deliver(lambda pid, command: delivered.append((pid, command.cid)))
    command = cmd("9", "put", "k", 1)
    service.broadcast(command, delay=5.0)
    assert service.cluster.run_until_delivered([command], timeout=200)
    assert sorted(delivered) == [("learn0", "9"), ("learn1", "9")]


def test_delivered_histories_compatible():
    sim, service, replicas = deploy_broadcast(jitter=1.0, seed=3)
    cmds = [cmd(str(i), "put", f"k{i % 2}", i) for i in range(5)]
    for i, command in enumerate(cmds):
        service.broadcast(command, delay=5.0 + 2 * i)
    service.cluster.run_until_delivered(cmds, timeout=2000)
    left, right = service.delivered_histories()
    assert left.is_compatible(right)


# -- classic (instance-ordered) replication -----------------------------------------


def test_ordered_replicas_match():
    sim = Simulation(seed=1)
    cluster = build_classic_paxos(sim, n_learners=2)
    cluster.start_round(1)
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    cmds = [cmd("1", "put", "x", 1), cmd("2", "inc", "x", 2), cmd("3", "put", "x", 9)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 3 * i)
    assert cluster.run_until_delivered(cmds, timeout=500)
    assert replicas[0].machine.snapshot() == replicas[1].machine.snapshot()
    assert replicas[0].executed == replicas[1].executed == cmds


# -- clients ---------------------------------------------------------------------------


def test_client_latency_tracking():
    sim, service, replicas = deploy_broadcast(n_learners=1)
    client = Client("c1", service.cluster)
    client.watch_replica(replicas[0])
    command = client.issue(cmd("42", "put", "k", 1), delay=5.0)
    assert service.cluster.run_until_delivered([command], timeout=200)
    assert client.all_completed()
    assert client.latency(command) == 3.0


def test_client_incomplete_latency_is_none():
    sim, service, replicas = deploy_broadcast(n_learners=1)
    client = Client("c1", service.cluster)
    command = cmd("42", "put", "k", 1)
    assert client.latency(command) is None


# -- duplicate-delivery deduplication ---------------------------------------------------


class FakeLearner:
    """Minimal learner double: lets tests fire the delivery stream directly."""

    def __init__(self):
        self.callbacks = []

    def on_deliver(self, callback):
        self.callbacks.append(callback)

    def deliver(self, *cmds):
        """One delivery event (callback-major, like the real learners)."""
        for callback in self.callbacks:
            for command in cmds:
                callback(command)


def test_broadcast_replica_executes_duplicates_once():
    replica = Replica(FakeLearner(), KVStore())
    command = cmd("1", "inc", "x")  # non-idempotent: re-execution would show
    replica.learner.deliver(command)
    replica.learner.deliver(command)  # duplicate event (resubmission)
    replica.learner.deliver(command, command)  # duplicate within one delivery
    assert replica.executed == [command]
    assert replica.machine.get("x") == 1


def test_broadcast_replica_preserves_first_result():
    replica = Replica(FakeLearner(), KVStore())
    command = cmd("1", "inc", "x")
    observed = []
    replica.on_execute(lambda c, result: observed.append(result))
    replica.learner.deliver(command)
    assert replica.results[command] == 1
    replica.learner.deliver(command)  # would return 2 if re-executed
    assert replica.results[command] == 1  # first-execution result kept
    assert observed == [1]  # observers fire once per unique command


def test_ordered_replica_executes_duplicates_once():
    replica = Replica(FakeLearner(), KVStore())
    command, other = cmd("1", "inc", "x"), cmd("2", "inc", "x")
    replica.learner.deliver(command)
    replica.learner.deliver(other)
    replica.learner.deliver(command)  # same command decided in a later instance
    assert replica.executed == [command, other]
    assert replica.results[command] == 1
    assert replica.machine.get("x") == 2
