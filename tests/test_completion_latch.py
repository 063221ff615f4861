"""Completion latches: ``run_until_*`` costs O(1) per event and stops where a scan would.

``Cluster.run_until_delivered`` and ``ShardedDeployment.run_until_executed``
keep a :class:`~repro.core.cluster.CountdownLatch` over (site, command)
pairs instead of scanning every command after every event.  Two claims:

* **Budget** -- the exact check (``has_delivered`` / ``has_executed``)
  runs a bounded number of times per (command, site) pair over a whole
  run, not once per event;
* **Same stop** -- on lossy seeds with a learner crash (which loses
  deliveries) and a snapshot install (which reaches commands no
  delivery names), with and without session windows (whose floor counts
  undelivered commands as delivered), a run stops at the same
  ``sim.clock`` and ``events_processed`` as one that scans after every
  event.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import CheckpointConfig
from repro.core import cluster as cluster_module
from repro.core.generalized import build_generalized
from repro.core.sessions import SessionConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.shard import ShardedDeployment
from repro.shard.replica import ShardReplica
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import kv_conflict

#: Exact checks allowed per (command, site) pair over a whole run: the
#: first arming scan, the final scan, one lane re-test per delivery and
#: slack for re-arms.
CHECKS_PER_PAIR = 4


class _Budget:
    """Counts calls of one bound method and fails once past *limit*."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.calls = 0

    def wrap(self, check):
        def counted(*args):
            self.calls += 1
            assert self.calls <= self.limit, f"more than {self.limit} exact checks"
            return check(*args)

        return counted


def _build(engine: str, sim: Simulation, **layers):
    if engine == "instances":
        return build_smr(sim, **layers)
    return build_generalized(sim, CommandHistory.bottom(kv_conflict()), **layers)


# -- budget ------------------------------------------------------------------


def test_run_until_delivered_checks_each_pair_a_bounded_number_of_times():
    sim = Simulation(seed=1, max_events=10**7)
    cluster = build_smr(sim, 2, 3, 3, 2, batching=BatchingConfig(max_batch=16))
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    cmds = [Command(f"c{i}", "put", f"k{i % 50}", i) for i in range(2_000)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=1.0 + i / 8)
    budget = _Budget(CHECKS_PER_PAIR * len(cmds) * len(cluster.learners))
    for learner in cluster.learners:
        learner.has_delivered = budget.wrap(learner.has_delivered)
    assert cluster.run_until_delivered(cmds, timeout=1e6)
    assert cluster.everyone_delivered(cmds)


def test_run_until_executed_checks_each_pair_a_bounded_number_of_times(monkeypatch):
    sim = Simulation(seed=1, max_events=10**7)
    deployment = ShardedDeployment.build(
        sim,
        2,
        batching=BatchingConfig(max_batch=16),
        merge_batching=BatchingConfig(max_batch=16),
    ).start()
    shard_map = deployment.shard_map
    keys = [shard_map.first_keys(gid, 20) for gid in range(2)]
    cmds = []
    for i in range(2_000):
        if i % 50 == 49:  # 2 % cross-shard: a barrier in both groups
            key = f"{keys[0][i % 20]}|{keys[1][i % 20]}"
        else:
            key = keys[i % 2][i % 20]
        cmds.append(Command(f"c{i}", "put", key, i))
    for i, command in enumerate(cmds):
        deployment.router.propose(command, delay=5.0 + i / 8)
    sites = sum(len(shard_map.groups_of(c)) * len(deployment.replicas[0]) for c in cmds)
    budget = _Budget(CHECKS_PER_PAIR * sites)
    monkeypatch.setattr(ShardReplica, "has_executed", budget.wrap(ShardReplica.has_executed))
    assert deployment.run_until_executed(cmds, timeout=1e6)
    assert deployment.everyone_executed(cmds)
    assert deployment.divergent_keys() == []


# -- same stop -----------------------------------------------------------------


def _crash_and_install(engine: str, seed: int, sessions: bool, latched: bool):
    """A lossy run in which learner 2 crashes, falls below the cluster's
    truncation floor and comes back through a snapshot install."""
    sim = Simulation(
        seed=seed, network=NetworkConfig(drop_rate=0.05, jitter=0.3), max_events=10**6
    )
    cluster = _build(
        engine,
        sim,
        n_learners=3,
        checkpoint=CheckpointConfig(interval=10, gc_quorum=2, chunk_size=8),
        sessions=SessionConfig(window=16) if sessions else None,
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=1))
    cmds = [Command(f"s:{i}", "put", f"k{i % 7}", i) for i in range(120)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=5.0 + 0.5 * i)
    victim = cluster.learners[2]
    lost = []
    sim.schedule(20.0, lambda: (lost.append(len(victim.delivered)), victim.crash()))
    sim.schedule(60.0, victim.recover)
    if latched:
        done = cluster.run_until_delivered(cmds, timeout=20_000.0)
    else:
        done = sim.run_until(lambda: cluster.everyone_delivered(cmds), timeout=20_000.0)
    return done, sim.clock, sim.events_processed, victim.snapshot_installs, lost


@pytest.mark.parametrize("sessions", [False, True], ids=["exact-dedup", "sessions"])
@pytest.mark.parametrize("engine", ["instances", "generalized"])
@pytest.mark.parametrize("seed", [1, 7])
def test_run_until_delivered_stops_where_a_scan_after_every_event_stops(
    engine, seed, sessions
):
    latched = _crash_and_install(engine, seed, sessions, latched=True)
    scanned = _crash_and_install(engine, seed, sessions, latched=False)
    assert latched == scanned
    done, _clock, _events, installs, lost = latched
    assert done and installs >= 1
    assert lost and lost[0] > 0  # the crash threw deliveries away


def test_sharded_run_until_executed_stops_where_a_scan_stops():
    def run(latched: bool):
        sim = Simulation(seed=4, network=NetworkConfig(drop_rate=0.05, jitter=0.3))
        deployment = ShardedDeployment.build(sim, 2).start()
        shard_map = deployment.shard_map
        a, b = shard_map.first_keys(0, 3), shard_map.first_keys(1, 3)
        cross = [f"{a[i]}|{b[i]}" for i in range(3)]
        cmds = [
            Command(f"c{i}", "put", cross[i % 3] if i % 5 == 4 else (a + b)[i % 6], i)
            for i in range(60)
        ]
        for i, command in enumerate(cmds):
            deployment.router.propose(command, delay=5.0 + i)
        crashed = deployment.groups[1].learners[0]
        sim.schedule(15.0, crashed.crash)
        sim.schedule(40.0, crashed.recover)
        if latched:
            done = deployment.run_until_executed(cmds)
        else:
            done = sim.run_until(lambda: deployment.everyone_executed(cmds), timeout=20_000.0)
        return done, sim.clock, sim.events_processed

    latched = run(True)
    assert latched[0]
    assert latched == run(False)


# -- the latch on its own --------------------------------------------------------


class _Script:
    """A runtime whose events are the given callables, in order."""

    def __init__(self, *events) -> None:
        self.events = events
        self.fired = 0

    def run_until(self, predicate, timeout):
        if predicate():
            return True
        for event in self.events:
            event()
            self.fired += 1
            if predicate():
                return True
        return predicate()


def _stops_after(events, wanted, is_done, latch=None) -> int:
    """Events fired when a run stops: counted down by *latch*, or without
    one scanning ``is_done`` over *wanted* after every event."""
    script = _Script(*events)
    if latch is not None:
        assert latch.run(script, [wanted], timeout=0)
    else:
        assert script.run_until(lambda: all(is_done(0, item) for item in wanted), timeout=0)
    return script.fired


def test_latch_rearms_from_exact_state_when_it_reaches_zero_early():
    def scenario(latched: bool) -> int:
        done: set[str] = set()
        is_done = lambda site, item: item in done  # noqa: E731
        latch = cluster_module.CountdownLatch(1, is_done)

        def deliver(item):
            done.add(item)
            latch.note(0, item)

        def adopt(*items):  # a snapshot install: reached, not named
            done.update(items)
            latch.recount(0)

        events = [
            lambda: deliver("a"),
            lambda: deliver("b"),
            lambda: done.discard("b"),  # a crash lost it: nothing reports that
            lambda: deliver("c"),  # the count reaches zero one pair early
            lambda: deliver("x"),  # not wanted
            lambda: adopt("b"),
            lambda: deliver("d"),
        ]
        return _stops_after(events, "abc", is_done, latch if latched else None)

    assert scenario(latched=True) == scenario(latched=False) == 6


def test_latch_lane_drains_a_prefix_reached_without_a_name():
    def scenario(latched: bool) -> int:
        floor = {"x": -1}
        done: set[int] = set()
        reached = lambda site, item: item <= floor["x"] or item in done  # noqa: E731
        latch = cluster_module.CountdownLatch(1, reached, lane=lambda item: ("x", item))

        def deliver(item, new_floor):
            done.add(item)
            floor["x"] = new_floor
            latch.note(0, item)

        events = [
            lambda: deliver(1, -1),
            lambda: deliver(9, 2),  # the floor slides past 0 and 2, unnamed
            lambda: deliver(5, 2),
            lambda: deliver(7, 2),
        ]
        return _stops_after(events, [0, 1, 2, 5], reached, latch if latched else None)

    assert scenario(latched=True) == scenario(latched=False) == 3
