"""Failure detector and leader election (Section 4.3)."""

from repro.core.generalized import build_generalized
from repro.core.liveness import FailureDetector, Heartbeat, LivenessConfig
from repro.core.runtime import Process
from repro.cstruct.commands import Command, KeyConflict
from repro.cstruct.history import CommandHistory
from repro.protocols.leader import expected_leader
from repro.shard import ShardedDeployment
from repro.sim.scheduler import Simulation
from repro.smr.instances import build_smr
from tests.conftest import cmd


class Node(Process):
    def __init__(self, pid, sim, index, peers, config):
        super().__init__(pid, sim)
        self.fd = FailureDetector(self, index, peers, config)
        self.fd.start()

    def on_heartbeat(self, msg, src):
        self.fd.on_heartbeat(msg)

    def on_recover(self):
        self.fd.start()


def deploy(n=3, config=None, seed=1):
    sim = Simulation(seed=seed)
    config = config or LivenessConfig(heartbeat_period=2.0, suspect_timeout=6.0)
    peers = [(i, f"n{i}") for i in range(n)]
    nodes = [Node(f"n{i}", sim, i, peers, config) for i in range(n)]
    return sim, nodes


def test_initially_everyone_trusted():
    sim, nodes = deploy()
    sim.run(until=10)
    assert nodes[2].fd.trusted() == [0, 1, 2]
    assert nodes[2].fd.leader() == 0
    assert nodes[0].fd.is_leader()


def test_crashed_node_gets_suspected():
    sim, nodes = deploy()
    sim.run(until=5)
    nodes[0].crash()
    sim.run(until=30)
    assert nodes[1].fd.suspects(0)
    assert nodes[1].fd.leader() == 1
    assert nodes[1].fd.is_leader()
    assert not nodes[2].fd.is_leader()


def test_never_suspects_self():
    sim, nodes = deploy()
    sim.run(until=30)
    assert not nodes[0].fd.suspects(0)


def test_recovered_node_trusted_again():
    sim, nodes = deploy()
    sim.run(until=5)
    nodes[0].crash()
    sim.run(until=30)
    assert nodes[1].fd.leader() == 1
    nodes[0].recover()
    sim.run(until=60)
    assert nodes[1].fd.leader() == 0


def test_cascading_failures_walk_down_the_index_order():
    sim, nodes = deploy(n=4)
    sim.run(until=5)
    nodes[0].crash()
    nodes[1].crash()
    sim.run(until=40)
    assert nodes[2].fd.is_leader()
    assert nodes[3].fd.leader() == 2


def test_partition_causes_mutual_suspicion():
    """The detector is unreliable: partitions look like crashes."""
    sim, nodes = deploy()
    sim.run(until=5)
    sim.network.partition({"n0"}, {"n1", "n2"})
    sim.run(until=40)
    assert nodes[1].fd.suspects(0)
    assert nodes[0].fd.is_leader()  # both sides elect a leader...
    assert nodes[1].fd.is_leader()  # ...which is safe, only liveness suffers
    sim.network.heal()
    sim.run(until=80)
    assert not nodes[1].fd.suspects(0)
    assert not nodes[1].fd.is_leader()


def test_expected_leader_helper():
    assert expected_leader([0, 1, 2], crashed=[]) == 0
    assert expected_leader([0, 1, 2], crashed=[0]) == 1
    assert expected_leader([0, 1, 2], crashed=[0, 1, 2]) is None


def test_the_default_config_is_hashable():
    assert hash(LivenessConfig()) == hash(LivenessConfig())


# -- the detector every engine coordinator runs ---------------------------------


def _takeover(sim, cluster, command):
    """Heartbeats flow; with coord0 (the owner of the single-coordinated
    round) crashed, coord1 suspects it, leads and starts a round that
    serves *command*."""
    sim.run(until=10)
    assert sim.metrics.messages_by_type["Heartbeat"] > 0
    cluster.coordinators[0].crash()
    cluster.propose(command, delay=1.0)
    assert cluster.run_until_delivered([command], timeout=500)
    assert cluster.coordinators[1].rounds_started >= 1


def test_instances_engine_runs_the_detector_by_default():
    sim = Simulation(seed=1)
    cluster = build_smr(sim)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=1))
    _takeover(sim, cluster, cmd("a", "put", "x", 1))


def test_generalized_engine_runs_the_detector_by_default():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=CommandHistory.bottom(KeyConflict()))
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=1))
    _takeover(sim, cluster, cmd("a", "put", "x", 1))


def test_sharded_deployment_runs_the_detector_by_default():
    sim = Simulation(seed=1)
    deployment = ShardedDeployment.build(sim, 2).start()
    sim.run(until=10)
    assert sim.metrics.messages_by_type["Heartbeat"] > 0
    # Each group has two coordinators, so its multicoordinated round needs
    # both: crashing coord0 of group 0 and of the merge group stalls them.
    deployment.crash_group(0, "coordinators")
    sim.crash(deployment.merge_config.topology.coordinators[0])
    keys = [deployment.shard_map.first_keys(gid, 1)[0] for gid in range(2)]
    single = Command("s", "put", keys[0], 1)
    cross = Command("x", "put", f"{keys[0]}|{keys[1]}", 2)
    for i, command in enumerate((single, cross)):
        deployment.router.propose(command, delay=1.0 + i)
    assert deployment.run_until_executed([single, cross], timeout=1_000)
    assert deployment.groups[0].coordinators[1].rounds_started >= 1
    assert deployment.merge.coordinators[1].rounds_started >= 1
