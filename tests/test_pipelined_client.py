"""PipelinedClient: windowed closed-loop load generation (ROADMAP item)."""

import pytest

from repro.core.generalized import build_generalized
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation
from repro.smr.client import Client, PipelinedClient
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica


def _commands(n: int) -> list[Command]:
    return [Command(cid=f"p{i:03d}", op="put", key=f"k{i}", arg=i) for i in range(n)]


def _generalized_cluster(sim: Simulation):
    cluster = build_generalized(
        sim, bottom=CommandHistory.bottom(kv_conflict()), n_coordinators=3, n_acceptors=3
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    return cluster


def test_window_must_be_positive():
    sim = Simulation(seed=1)
    cluster = _generalized_cluster(sim)
    with pytest.raises(ValueError):
        PipelinedClient("bad", cluster, window=0)


def test_pipelined_client_completes_backlog_on_generalized():
    sim = Simulation(seed=1)
    cluster = _generalized_cluster(sim)
    client = PipelinedClient("pc", cluster, window=4)
    client.watch_learner(cluster.learners[0])
    cmds = _commands(20)
    client.submit(cmds, delay=5.0)
    assert sim.run_until(lambda: client.all_completed(), timeout=5_000)
    assert len(client.completed) == 20
    assert not client.backlog and not client.in_flight


def test_window_bounds_in_flight():
    sim = Simulation(seed=2)
    cluster = _generalized_cluster(sim)
    client = PipelinedClient("pc", cluster, window=3)
    client.watch_learner(cluster.learners[0])
    client.submit(_commands(17), delay=5.0)
    assert sim.run_until(lambda: client.all_completed(), timeout=5_000)
    assert client.peak_in_flight == 3  # saturated but never above the window


def test_completion_refills_the_window():
    """Commands are issued gradually, completion-driven, not all at once."""
    sim = Simulation(seed=3)
    cluster = _generalized_cluster(sim)
    client = PipelinedClient("pc", cluster, window=2)
    client.watch_learner(cluster.learners[0])
    client.submit(_commands(6), delay=5.0)
    assert sim.run_until(lambda: client.all_completed(), timeout=5_000)
    issue_times = sorted(client.issue_times.values())
    # With window 2 and 6 commands, issuing happens in at least 3 waves.
    assert len(set(issue_times)) >= 3


def test_pipelined_client_drives_batched_instances_engine():
    sim = Simulation(seed=4)
    cluster = build_smr(
        sim,
        n_proposers=2,
        n_coordinators=3,
        n_acceptors=3,
        batching=BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=2),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    client = PipelinedClient("pc", cluster, window=8)
    replica = Replica(cluster.learners[0], KVStore())
    client.watch_replica(replica)
    cmds = _commands(24)
    client.submit(cmds, delay=5.0)
    assert sim.run_until(lambda: client.all_completed(), timeout=10_000)
    assert all(client.latency(cmd) is not None for cmd in cmds)


def test_base_client_watch_learner():
    """The plain Client can also observe completions at a learner."""
    sim = Simulation(seed=5)
    cluster = _generalized_cluster(sim)
    client = Client("c", cluster)
    client.watch_learner(cluster.learners[0])
    cmd = Command("solo", "put", "x", 1)
    client.issue(cmd, delay=5.0)
    assert sim.run_until(lambda: client.all_completed(), timeout=1_000)
    assert client.latency(cmd) is not None
