"""Seed replay: seeded simulator runs pinned to recorded fingerprints.

The simulator is a deterministic function of its seed, so a refactor
that claims "same behaviour" must reproduce these runs event for event.
Each scenario turns on every production layer an engine has (batching,
retransmission, checkpointing, sessions, liveness; delta on the
generalized engine), drops messages, and crashes and recovers at least
one proposer, one coordinator and one learner; one scenario runs a
sharded deployment.  What is pinned per run: the delivered / learned
orders, ``metrics.messages_by_type``, every role's
``storage.write_count``, the clock at completion and after the fixed
tail, and the ``retransmission_stats()`` / ``checkpoint_stats()`` dicts.

``GOLDEN`` must not be edited to make a refactor pass: a mismatch means
the engines' behaviour changed, not that the constants are stale.  It
was recorded at the commit *before* the reliability-core refactor and
re-recorded three times since, each time for behaviour changed on
purpose.  First: ``IAck`` folded into ``Learned`` (a class rename in
``by_type``), three scenarios dropping the deleted options they set,
and the generalized proposer moved onto the shared recovery and
journalling order.  Second: generalized votes stopped going to the
coordinators, and garbage collection stopped resetting the delta
streams (the four generalized scenarios and the sharded one, whose
merge group runs the generalized engine; the SMR ones are unchanged).
Third: the instances engine's decision re-announcements became one
multi-entry ``IDecided`` and its stamped peer catch-up went (the three
SMR scenarios and the sharded one, whose groups run that engine; the
generalized ones are unchanged).
CHANGES.md tabulates which field of which scenario moved at which step.

The last test pins the surface ``benchmarks/ledger`` reads off
``repro`` (its imports, parsed from its sources; the methods and
attributes it reaches by name; role-class names; counter attributes),
so a refactor cannot break the benchmark silently.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
from pathlib import Path

import pytest

from repro.core.checker import TraceRecorder
from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import DeltaConfig, GenBatchingConfig, build_generalized
from repro.core.liveness import LivenessConfig
from repro.core.sessions import SessionConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.shard import ShardedDeployment
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import BatchingConfig, build_smr
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import OrderedReplica, Replica

LIVENESS = LivenessConfig(
    heartbeat_period=2.0, suspect_timeout=8.0, check_period=2.0, stuck_timeout=10.0
)
TAIL = 120.0  # fixed span run after completion so acks and GC settle


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fingerprint(sim, done: bool, done_clock: float, orders, stats) -> dict:
    writes = sorted(
        (str(pid), process.storage.write_count) for pid, process in sim.processes.items()
    )
    return {
        "done": done,
        "done_clock": round(done_clock, 6),
        "clock": round(sim.clock, 6),
        "events": sim.events_processed,
        "messages": sim.metrics.total_messages,
        "dropped": sim.metrics.messages_dropped,
        "writes": sum(count for _, count in writes),
        "orders": _digest(orders),
        "by_type": _digest(sorted(sim.metrics.messages_by_type.items())),
        "write_counts": _digest(writes),
        "stats": [dict(s) for s in stats],
    }


def _faults(sim, schedule) -> None:
    """``(crash_at, recover_at, pid)`` triples on the sim clock."""
    for crash_at, recover_at, pid in schedule:
        sim.schedule(crash_at, lambda pid=pid: sim.crash(pid))
        sim.schedule(recover_at, lambda pid=pid: sim.recover(pid))


def _clients(cluster, names, n_cmds, window, watch, keys=5):
    clients = []
    for name in names:
        client = PipelinedClient(
            name, cluster, window=window, retry_interval=20.0, session=name
        )
        watch(client)
        ops = ("put", "inc", "get", "put")
        client.submit(
            [
                client.make_command(ops[i % 4], f"k{(i * 7 + len(name)) % keys}", i)
                for i in range(n_cmds)
            ],
            delay=5.0,
        )
        clients.append(client)
    return clients


def _finish(sim, clients, everyone_has, orders, stats) -> dict:
    issued = [cmd for client in clients for cmd in client.issued + list(client.backlog)]
    done = sim.run_until(
        lambda: all(c.all_completed() for c in clients) and everyone_has(issued),
        timeout=20_000.0,
    )
    done_clock = sim.clock
    sim.run(until=done_clock + TAIL)
    return _fingerprint(sim, done, done_clock, orders(), stats())


# -- the scenarios -------------------------------------------------------------


def smr_all_layers() -> dict:
    sim = Simulation(
        seed=11,
        network=NetworkConfig(latency=1.0, jitter=0.5, drop_rate=0.05),
        max_events=10_000_000,
    )
    cluster = build_smr(
        sim, 2, 3, 3, 3,
        liveness=LIVENESS,
        batching=BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=3),
        retransmit=RetransmitConfig(retry_interval=4.0),
        checkpoint=CheckpointConfig(interval=8, gc_quorum=2, chunk_size=4),
        sessions=SessionConfig(window=64),
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    topology = cluster.config.topology
    _faults(
        sim,
        [
            (30.0, 55.0, topology.proposers[0]),
            (45.0, 90.0, topology.coordinators[0]),
            (60.0, 160.0, topology.learners[2]),
            (110.0, 130.0, topology.acceptors[1]),
        ],
    )
    clients = _clients(
        cluster, ("a", "bb"), 70, 8, lambda c: c.watch_replica(replicas[0])
    )
    return _finish(
        sim,
        clients,
        cluster.everyone_delivered,
        lambda: (cluster.delivery_orders(), [tuple(r.executed) for r in replicas]),
        lambda: (cluster.retransmission_stats(), cluster.checkpoint_stats()),
    )


def smr_balanced_unbatched() -> dict:
    sim = Simulation(
        seed=5,
        network=NetworkConfig(latency=1.0, jitter=0.3, drop_rate=0.1),
        max_events=10_000_000,
    )
    cluster = build_smr(
        sim, 2, 3, 3, 2,
        liveness=LIVENESS,
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    topology = cluster.config.topology
    _faults(
        sim,
        [
            (25.0, 40.0, topology.proposers[1]),
            (50.0, 75.0, topology.coordinators[1]),
            (65.0, 95.0, topology.learners[1]),
        ],
    )
    clients = _clients(cluster, ("u",), 60, 6, lambda c: c.watch_replica(replicas[0]))
    return _finish(
        sim,
        clients,
        cluster.everyone_delivered,
        lambda: (cluster.delivery_orders(), [tuple(r.executed) for r in replicas]),
        lambda: (cluster.retransmission_stats(), cluster.checkpoint_stats()),
    )


def smr_batched_no_checkpoint() -> dict:
    sim = Simulation(
        seed=19, network=NetworkConfig(latency=1.0, drop_rate=0.08), max_events=10_000_000
    )
    cluster = build_smr(
        sim, 2, 3, 3, 2,
        liveness=LIVENESS,
        batching=BatchingConfig(max_batch=3, flush_interval=1.5),
        retransmit=RetransmitConfig(retry_interval=5.0, max_interval=20.0),
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    topology = cluster.config.topology
    _faults(
        sim,
        [
            (20.0, 35.0, topology.proposers[0]),
            (40.0, 70.0, topology.coordinators[0]),
            (55.0, 80.0, topology.learners[0]),
        ],
    )
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    clients = _clients(cluster, ("n",), 50, 5, lambda c: c.watch_replica(replicas[1]))
    return _finish(
        sim,
        clients,
        cluster.everyone_delivered,
        lambda: cluster.delivery_orders(),
        lambda: (cluster.retransmission_stats(), cluster.checkpoint_stats()),
    )


def _gen_orders(cluster, replicas):
    return (
        [tuple(l.delivered) for l in cluster.learners],
        [tuple(l.learned.linear_extension()) for l in cluster.learners],
        [tuple(r.executed) for r in replicas],
    )


def _gen_layered(seed: int, sessions, crash_learner: bool) -> dict:
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(latency=1.0, jitter=0.5, drop_rate=0.05),
        max_events=10_000_000,
    )
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        2, 3, 3, 3,
        liveness=LIVENESS,
        batching=GenBatchingConfig(max_batch=4, flush_interval=2.0),
        retransmit=RetransmitConfig(retry_interval=4.0),
        checkpoint=CheckpointConfig(
            interval=8, gc_quorum=2 if crash_learner else None, chunk_size=4
        ),
        delta=DeltaConfig(idle_poll_every=3),
        sessions=sessions,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    topology = cluster.config.topology
    faults = [
        (30.0, 55.0, topology.proposers[0]),
        (45.0, 90.0, topology.coordinators[0]),
        (110.0, 130.0, topology.acceptors[1]),
    ]
    if crash_learner:
        faults.append((60.0, 160.0, topology.learners[2]))
    _faults(sim, faults)
    clients = _clients(
        cluster, ("a", "bb"), 70, 8, lambda c: c.watch_learner(cluster.learners[0])
    )
    return _finish(
        sim,
        clients,
        cluster.everyone_delivered,
        lambda: _gen_orders(cluster, replicas),
        lambda: (
            cluster.retransmission_stats(),
            cluster.checkpoint_stats(),
            cluster.delta_stats(),
        ),
    )


def gen_all_layers() -> dict:
    # When first recorded (PR 16's parent) a GenLearner under sessions
    # could not adopt any checkpoint, so with sessions on the learners
    # stay up and GC waits for all of them; the crashed-learner run is the
    # next scenario, sessions off.
    return _gen_layered(13, SessionConfig(window=64), crash_learner=False)


def gen_layers_learner_crash() -> dict:
    return _gen_layered(17, None, crash_learner=True)


def gen_balanced_unbatched() -> dict:
    sim = Simulation(
        seed=7,
        network=NetworkConfig(latency=1.0, jitter=0.3, drop_rate=0.1),
        max_events=10_000_000,
    )
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        2, 3, 3, 2,
        liveness=LIVENESS,
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    topology = cluster.config.topology
    _faults(
        sim,
        [
            (25.0, 40.0, topology.proposers[1]),
            (50.0, 75.0, topology.coordinators[1]),
            (65.0, 95.0, topology.learners[1]),
        ],
    )
    clients = _clients(
        cluster, ("u",), 60, 6, lambda c: c.watch_learner(cluster.learners[0])
    )
    return _finish(
        sim,
        clients,
        cluster.everyone_delivered,
        lambda: _gen_orders(cluster, replicas),
        lambda: (cluster.retransmission_stats(), cluster.checkpoint_stats()),
    )


def gen_batching_only() -> dict:
    """No retransmission: nothing re-drives a proposal lost in flight, so
    the run is a fixed span, not a completion; the crashed proposer's
    journalled buffer is re-shipped on recovery all the same."""
    sim = Simulation(seed=3, network=NetworkConfig(latency=1.0, jitter=0.2))
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        2, 3, 3, 2,
        batching=GenBatchingConfig(max_batch=4, flush_interval=3.0),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    replicas = [Replica(l, KVStore()) for l in cluster.learners]
    for i in range(40):
        cluster.propose(Command(f"p{i}", "put", f"k{i % 4}", i), delay=5.0 + 0.7 * i)
    _faults(sim, [(14.0, 20.0, cluster.config.topology.proposers[0])])
    sim.run(until=200.0)
    return _fingerprint(
        sim, False, sim.clock, _gen_orders(cluster, replicas),
        (cluster.retransmission_stats(), cluster.checkpoint_stats()),
    )


def sharded_two_groups() -> dict:
    sim = Simulation(
        seed=29,
        network=NetworkConfig(latency=1.0, jitter=0.5, drop_rate=0.03),
        max_events=10_000_000,
    )
    deployment = ShardedDeployment.build(
        sim,
        2,
        batching=BatchingConfig(max_batch=3, flush_interval=1.0),
        merge_batching=GenBatchingConfig(max_batch=3, flush_interval=1.0),
        retransmit=RetransmitConfig(retry_interval=4.0),
        liveness=LIVENESS,
        machine_factory=KVStore,
    ).start()
    keys = {0: [], 1: []}
    i = 0
    while min(len(v) for v in keys.values()) < 2:
        key = f"k{i}"
        keys[deployment.shard_map.group_of_key(key)].append(key)
        i += 1
    cmds = []
    for i in range(60):
        if i % 6 == 5:
            cmds.append(Command(f"x{i}", "put", f"{keys[0][0]}|{keys[1][0]}", i))
        else:
            cmds.append(Command(f"c{i}", "put", keys[i % 2][(i // 2) % 2], i))
    for j, cmd in enumerate(cmds):
        deployment.router.propose(cmd, delay=3.0 + 1.5 * j)
    merge = deployment.merge_config.topology
    group0 = deployment.group_configs[0].topology
    group1 = deployment.group_configs[1].topology
    _faults(
        sim,
        [
            (20.0, 45.0, group0.coordinators[0]),
            (30.0, 50.0, merge.coordinators[1]),
            (40.0, 70.0, group1.learners[1]),
            (55.0, 80.0, group1.acceptors[2]),
        ],
    )
    done = deployment.run_until_executed(cmds, timeout=3_000.0)
    done_clock = sim.clock
    sim.run(until=done_clock + TAIL)
    handles = (*deployment.groups, deployment.merge)
    orders = (
        [[tuple(r.executed) for r in site] for site in deployment.replicas],
        [sorted((k, tuple(v)) for k, v in r.key_orders.items())
         for site in deployment.replicas for r in site],
        deployment.divergent_keys(),
    )
    stats = [h.retransmission_stats() for h in handles]
    return _fingerprint(sim, done, done_clock, orders, stats)


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        smr_all_layers,
        smr_balanced_unbatched,
        smr_batched_no_checkpoint,
        gen_all_layers,
        gen_layers_learner_crash,
        gen_balanced_unbatched,
        gen_batching_only,
        sharded_two_groups,
    )
}

# Recorded before the reliability-core refactor and re-recorded three times,
# each time for behaviour changed on purpose (see the module docstring).
# Do not edit.
GOLDEN: dict[str, dict] = {
    "gen_all_layers": {
        "done": True, "done_clock": 101.434364, "clock": 221.434364,
        "events": 6517, "messages": 5262, "dropped": 503, "writes": 554,
        "orders": "37724e35f91b79a2",
        "by_type": "e649afe8704a8401",
        "write_counts": "da41ffc08d1fe0ad",
        "stats": [
            {"catchup_requests": 118, "reannounced_2a": 26,
             "retransmissions": 142},
            {"acceptor_floor": 136, "chunks_sent": 0, "coordinator_floor": 136,
             "installs": 0, "min_snap_frontier": 136, "snapshots": 39},
            {"acceptor_deltas_sent": 110, "acceptor_resyncs": 34,
             "acceptor_stamps_sent": 81, "coordinator_resyncs_answered": 13,
             "delta_2b": 219, "full_2b": 189, "glb_gate_skips": 127,
             "polls_suppressed": 206, "resyncs_sent": 41, "stamps_confirmed": 75},
        ],
    },
    "gen_balanced_unbatched": {
        "done": True, "done_clock": 99.997652, "clock": 219.997652,
        "events": 4103, "messages": 3401, "dropped": 507, "writes": 302,
        "orders": "2073da15196a4a86",
        "by_type": "cbacae2adbb24e97",
        "write_counts": "99be76f36b257282",
        "stats": [
            {"catchup_requests": 66, "reannounced_2a": 29, "retransmissions": 34},
            {"acceptor_floor": 49, "chunks_sent": 0, "coordinator_floor": 49,
             "installs": 0, "min_snap_frontier": 49, "snapshots": 6},
        ],
    },
    "gen_batching_only": {
        "done": False, "done_clock": 38.333097, "clock": 38.333097,
        "events": 433, "messages": 378, "dropped": 0, "writes": 94,
        "orders": "cc4491343389343c",
        "by_type": "64f017167f62ac25",
        "write_counts": "1cfcab5ce9de73c8",
        "stats": [
            {"catchup_requests": 0, "reannounced_2a": 0, "retransmissions": 0},
            {"acceptor_floor": 0, "chunks_sent": 0, "coordinator_floor": 0,
             "installs": 0, "min_snap_frontier": 0, "snapshots": 0},
        ],
    },
    "gen_layers_learner_crash": {
        "done": True, "done_clock": 180.25256, "clock": 300.25256,
        "events": 7340, "messages": 5791, "dropped": 605, "writes": 547,
        "orders": "ddbd29ba1afc86d4",
        "by_type": "5187742600e63082",
        "write_counts": "5f31e830e97ba38a",
        "stats": [
            {"catchup_requests": 137, "reannounced_2a": 27,
             "retransmissions": 141},
            {"acceptor_floor": 136, "chunks_sent": 39, "coordinator_floor": 136,
             "installs": 1, "min_snap_frontier": 136, "snapshots": 34},
            {"acceptor_deltas_sent": 131, "acceptor_resyncs": 30,
             "acceptor_stamps_sent": 94, "coordinator_resyncs_answered": 15,
             "delta_2b": 223, "full_2b": 163, "glb_gate_skips": 158,
             "polls_suppressed": 259, "resyncs_sent": 41, "stamps_confirmed": 88},
        ],
    },
    "sharded_two_groups": {
        "done": True, "done_clock": 96.588977, "clock": 216.588977,
        "events": 5673, "messages": 3919, "dropped": 275, "writes": 844,
        "orders": "535f927db5f9cb5e",
        "by_type": "286d2aa46e3544ce",
        "write_counts": "f897e6a97189d830",
        "stats": [
            {"acks": 150, "catchup_requests": 0, "gossip_rounds": 18,
             "reannounced_2a": 31, "retransmissions": 53},
            {"acks": 188, "catchup_requests": 1, "gossip_rounds": 24,
             "reannounced_2a": 25, "retransmissions": 45},
            {"catchup_requests": 72, "reannounced_2a": 9, "retransmissions": 11},
        ],
    },
    "smr_all_layers": {
        "done": True, "done_clock": 171.23356, "clock": 291.23356,
        "events": 9009, "messages": 7661, "dropped": 993, "writes": 1162,
        "orders": "438b07d4ae0c7025",
        "by_type": "f6ac4aff0f12818f",
        "write_counts": "e90db12dd9a7d3f5",
        "stats": [
            {"acks": 375, "catchup_requests": 16, "gossip_rounds": 69,
             "reannounced_2a": 180, "retransmissions": 67},
            {"acceptor_floor": 110, "chunks_sent": 34, "coordinator_floor": 110,
             "installs": 1, "min_snap_frontier": 109, "snapshots": 30},
        ],
    },
    "smr_balanced_unbatched": {
        "done": True, "done_clock": 150.554709, "clock": 270.554709,
        "events": 7161, "messages": 6492, "dropped": 818, "writes": 766,
        "orders": "6f827d9772d92449",
        "by_type": "a09747d4ed0d0509",
        "write_counts": "841e0c2f2fa45c2d",
        "stats": [
            {"acks": 267, "catchup_requests": 17, "gossip_rounds": 58,
             "reannounced_2a": 317, "retransmissions": 70},
            {"acceptor_floor": 68, "chunks_sent": 4, "coordinator_floor": 68,
             "installs": 1, "min_snap_frontier": 68, "snapshots": 7},
        ],
    },
    "smr_batched_no_checkpoint": {
        "done": True, "done_clock": 89.000001, "clock": 209.000001,
        "events": 3348, "messages": 2557, "dropped": 395, "writes": 427,
        "orders": "f25b354b5b934467",
        "by_type": "fc5fd634fb5b8da3",
        "write_counts": "11b58207a8c48209",
        "stats": [
            {"acks": 172, "catchup_requests": 3, "gossip_rounds": 20,
             "reannounced_2a": 32, "retransmissions": 38},
            {"acceptor_floor": 0, "chunks_sent": 0, "coordinator_floor": 0,
             "installs": 0, "min_snap_frontier": 0, "snapshots": 0},
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_run_replays_the_recorded_trace(name):
    assert SCENARIOS[name]() == GOLDEN[name]


# -- the surface benchmarks/ledger reads ---------------------------------------

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"


def _ledger_imports() -> dict[str, set[str]]:
    """``module -> names`` for everything the ledger's sources import from
    ``repro``, read off their syntax trees (the sources are not run)."""
    found: dict[str, set[str]] = {}
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.setdefault(node.module, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        found.setdefault(alias.name, set())
    return found


#: Methods and attributes the ledger reaches by name on objects it builds:
#: not imports, so only a list can pin them.
LEDGER_ATTRIBUTES = {
    TraceRecorder: ("attach_smr", "attach_generalized", "attach_sharded", "events"),
    PipelinedClient: ("watch_replica", "issue_times", "completed", "backlog", "issued"),
}

#: Counters the ledger reads off role objects by ``getattr`` (role, name).
LEDGER_COUNTERS = (
    ("acceptors", "collisions_detected"),
    ("proposers", "retransmissions"),
    ("coordinators", "reannounced_2a"),
    ("coordinators", "highest_seen"),
    ("learners", "catchup_requests"),
    ("learners", "snapshots_taken"),
    ("learners", "snapshot_installs"),
    ("learners", "snapshot_chunks_sent"),
)


def test_the_ledger_still_finds_what_it_reads():
    """``benchmarks/ledger`` may not be edited by a refactor, so what it
    reads must not move: its imports, the role word in every concrete
    role-class name (``tracing.py::role_of``) and the counters as plain
    instance attributes (a ``getattr(role, name, 0)`` on a renamed counter
    would silently report 0).  The three names kept only for it are
    aliases of the one implementation each."""
    imports = _ledger_imports()
    assert "OrderedReplica" in imports["repro.smr.replica"]  # the parse found the sources
    for module, names in imports.items():
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert OrderedReplica is Replica
    assert TraceRecorder.attach_smr is TraceRecorder.attach_generalized is TraceRecorder.attach
    for subject in (TraceRecorder(), PipelinedClient("pin", cluster=None)):
        for name in LEDGER_ATTRIBUTES[type(subject)]:
            assert hasattr(subject, name), f"{type(subject).__name__}.{name}"

    smr = build_smr(Simulation(seed=1), retransmit=RetransmitConfig())
    gen = build_generalized(
        Simulation(seed=1), CommandHistory.bottom(kv_conflict()), retransmit=RetransmitConfig()
    )
    for cluster in (smr, gen):
        roles = zip(("proposer", "coordinator", "acceptor", "learner"), cluster.config.role_classes())
        for word, cls in roles:
            assert word in cls.__name__.lower(), cls
        for role_list, counter in LEDGER_COUNTERS:
            for role in getattr(cluster, role_list):
                assert counter in vars(role), f"{type(role).__name__}.{counter}"
        assert all(isinstance(l.delivered, list) for l in cluster.learners)
    assert all("next_instance" in vars(c) for c in smr.coordinators)
