"""The four Generic Broadcast properties (Section 3.3) on randomized runs.

Non-triviality: only proposed commands are delivered;
Stability: a learner's history only ever grows;
Consistency: learned histories are pairwise compatible (conflicting
commands delivered in the same order everywhere);
Liveness: with a nonfaulty quorum and proposer, every broadcast command is
eventually contained in every learner's history.
"""

import random

import pytest

from repro.core.broadcast import GenericBroadcast
from repro.core.liveness import LivenessConfig
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict
from tests.conftest import cmd


def deploy(seed, jitter=0.8, n_learners=3):
    sim = Simulation(seed=seed, network=NetworkConfig(jitter=jitter))
    service = GenericBroadcast.deploy(
        sim,
        kv_conflict(),
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        n_learners=n_learners,
        liveness=LivenessConfig(),
    )
    service.start_round(service.cluster.config.schedule.make_round(0, 1, 2))
    return sim, service


def random_workload(seed, n=8):
    rng = random.Random(seed)
    commands = []
    for i in range(n):
        key = rng.choice(["hot", f"key{i}"])
        op = rng.choice(["put", "put", "get"])
        commands.append(cmd(f"c{i}", op, key, i))
    return commands


@pytest.mark.parametrize("seed", range(5))
def test_nontriviality_and_liveness(seed):
    sim, service = deploy(seed)
    commands = random_workload(seed)
    for i, command in enumerate(commands):
        service.broadcast(command, delay=5.0 + 2 * (i // 2))
    assert service.cluster.run_until_delivered(commands, timeout=5000)
    for history in service.delivered_histories():
        assert history.command_set() == set(commands)  # nontriviality + liveness


@pytest.mark.parametrize("seed", range(5))
def test_stability(seed):
    sim, service = deploy(seed, n_learners=1)
    learner = service.cluster.learners[0]
    snapshots = []
    sim.add_invariant_check(lambda s: snapshots.append(learner.learned))
    commands = random_workload(seed)
    for i, command in enumerate(commands):
        service.broadcast(command, delay=5.0 + 2 * (i // 2))
    assert service.cluster.run_until_delivered(commands, timeout=5000)
    for previous, current in zip(snapshots, snapshots[1:]):
        assert previous.leq(current)


@pytest.mark.parametrize("seed", range(5))
def test_consistency(seed):
    sim, service = deploy(seed)
    commands = random_workload(seed)
    conflict = service.conflict
    for i, command in enumerate(commands):
        service.broadcast(command, delay=5.0 + 2 * (i // 2))
    assert service.cluster.run_until_delivered(commands, timeout=5000)
    histories = service.delivered_histories()
    for i, left in enumerate(histories):
        for right in histories[i + 1 :]:
            assert left.is_compatible(right)
    # Conflicting pairs delivered in the same order everywhere.
    orders = [h.linear_extension() for h in histories]
    for i, a in enumerate(commands):
        for b in commands[i + 1 :]:
            if not conflict(a, b):
                continue
            relative = [
                order.index(a) < order.index(b) for order in orders
            ]
            assert all(r == relative[0] for r in relative)


def test_delivery_callbacks_respect_conflict_order():
    sim, service = deploy(seed=11)
    deliveries: dict[str, list] = {}

    def observer(pid, command):
        deliveries.setdefault(pid, []).append(command)

    service.on_deliver(observer)
    a = cmd("a", "put", "hot", 1)
    b = cmd("b", "put", "hot", 2)
    c = cmd("c", "put", "cold", 3)
    for i, command in enumerate([a, b, c]):
        service.broadcast(command, delay=5.0 + 2 * i)
    assert service.cluster.run_until_delivered([a, b, c], timeout=2000)
    hot_orders = [
        [x for x in cmds if x.key == "hot"] for cmds in deliveries.values()
    ]
    assert len(deliveries) == 3
    assert all(order == hot_orders[0] for order in hot_orders)
