"""Seed replay: seeded simulator runs pinned to recorded fingerprints.

The simulator is a deterministic function of its seed, so a refactor
that claims "same behaviour" must reproduce these runs event for event.
Each scenario turns on every production layer an engine has (batching,
retransmission, checkpointing, sessions, liveness; the generalized
engine's delta streams always run), drops messages, and crashes and recovers at least
one proposer, one coordinator and one learner; one scenario runs a
sharded deployment.  What is pinned per run: the delivered / learned
orders, ``metrics.messages_by_type``, every role's
``storage.write_count``, the clock at completion and after the fixed
tail, and the ``retransmission_stats()`` / ``checkpoint_stats()`` dicts.

``GOLDEN`` must not be edited to make a refactor pass: a mismatch means
the engines' behaviour changed, not that the constants are stale.  It
was recorded at the commit *before* the reliability-core refactor and
re-recorded fourteen times since, each time for behaviour changed on
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
generalized ones are unchanged).  Fourth: an instances-engine
coordinator that has heard of a higher round stopped driving its own
(``smr_all_layers``, ``smr_balanced_unbatched`` and the sharded one;
``smr_batched_no_checkpoint`` and the generalized ones are unchanged).
Fifth, in two steps: an instances-engine coordinator re-announces an
undecided 2a only to the acceptor quorum its proposal picked, as the
first 2a went (``smr_balanced_unbatched``, the one load-balanced SMR
scenario); then retransmission stopped being optional
(``gen_batching_only``, the one scenario that ran without it: its
periodic re-drivers now run to the end of the span, and its orders are
unchanged).  Sixth: the delta streams became the generalized engine's
only wire mode (``gen_balanced_unbatched``, ``gen_batching_only`` and
the sharded one, whose merge group ran the cumulative mode), and an
acceptor whose same-round vote cannot extend its lone coordinator's
value now asks that coordinator for a full (``gen_all_layers``;
``gen_layers_learner_crash`` and the SMR ones are unchanged).
Seventh: both engines' proposers run one batching path (unbatched is
``max_batch=1``), on which the command completing a batch ships with it
unjournalled, and every fresh generalized group ships as a
``ProposeBatch``: ``writes`` and ``write_counts`` of ``smr_all_layers``,
``smr_batched_no_checkpoint``, ``gen_all_layers`` and
``gen_layers_learner_crash``, and ``by_type`` of
``gen_balanced_unbatched`` (``smr_balanced_unbatched``,
``gen_batching_only`` and the sharded one are unchanged).
Eighth: liveness always runs.  The failure detector's progress check
rides its heartbeat timer, one event fewer per period (``events`` of the
seven scenarios that already ran liveness); ``gen_batching_only``, which
ran without it, now exchanges heartbeats (``events``, ``messages``,
``by_type``); and an instances-engine coordinator forgets, at a garbage
collection floor advance, observed commands it no longer drives, which
removes spurious recovery rounds from the two checkpointing SMR
scenarios (every field of ``smr_all_layers`` and
``smr_balanced_unbatched`` but ``done``).
Ninth: instances-engine coordinators stopped journalling their observed
commands and their garbage-collection floor (Section 4.4: coordinators
keep no stable state): ``writes`` and ``write_counts`` of the three SMR
scenarios and the sharded one, whose groups run that engine (the
generalized ones are unchanged).
Tenth: the generalized engine proposes with one message and forwards by
one rule.  A retry is a one-command ``ProposeBatch`` (no ``Propose``),
and a coordinator forwards it at the end of its delivery batch instead
of coalescing it for up to ``flush_interval`` (``by_type`` of
``gen_balanced_unbatched`` and ``gen_batching_only``; ``events`` and
``by_type`` of the sharded one, whose merge group runs that engine;
every field but ``done`` of ``gen_all_layers`` and
``gen_layers_learner_crash``; the SMR ones are unchanged).
Eleventh: a crashed coordinator forgets the rounds it has seen and when
it last changed round, as it forgets its current round (Section 4.4);
only ``smr_all_layers`` moves (every field but ``done`` and ``orders``).
Twelfth: proposers keep no stable state (Section 4.4).  Their buffer
and unacked-registry journals are gone, and a recovered proposer starts
empty instead of re-shipping them: ``writes`` and ``write_counts`` of
all eight; every field but ``done`` of the six completion runs that
crash a proposer; ``events``, ``messages``, ``orders`` and ``by_type``
of ``gen_batching_only``, which has no client to resubmit and so loses
``p12`` from proposer 0's buffer at the crash (each learner ends with 35
of its 40 commands instead of 36).  The sharded one crashes no proposer.
Thirteenth: a proposal handed to the cluster without a named proposer
goes to the next proposer in the rotation that is up, so a client's
resubmission no longer goes back to the crashed proposer that lost it
(every field but ``done`` of the six completion runs that crash a
proposer; ``gen_batching_only`` picks its proposers before the crash,
and the sharded one crashes none).
Fourteenth: a proposal handed to the cluster with no delay reaches its
proposer at once, not through a second zero-delay event (``events`` of
the six client-driven scenarios, one fewer per issue and resubmission;
``gen_batching_only`` and the sharded one propose with a delay).
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
from repro.core.generalized import DeltaConfig, build_generalized
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
    heartbeat_period=2.0, suspect_timeout=8.0, stuck_timeout=10.0
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
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
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
    """Batching and retransmission only, no loss: the run is a fixed span,
    not a completion, with no client, so what the crashed proposer held
    or was handed while down is lost (proposers keep no stable state)."""
    sim = Simulation(seed=3, network=NetworkConfig(latency=1.0, jitter=0.2))
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        2, 3, 3, 2,
        batching=BatchingConfig(max_batch=4, flush_interval=3.0),
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
        merge_batching=BatchingConfig(max_batch=3, flush_interval=1.0),
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

# Recorded before the reliability-core refactor and re-recorded fourteen times,
# each time for behaviour changed on purpose (see the module docstring).
# Do not edit.
GOLDEN: dict[str, dict] = {
    "gen_all_layers": {
        "done": True, "done_clock": 71.002818, "clock": 191.002818,
        "events": 5336, "messages": 4600, "dropped": 413, "writes": 213,
        "orders": "ab5e79d304ed1be5",
        "by_type": "f9500f8bfd5bee0e",
        "write_counts": "9dd03e8d215eafc3",
        "stats": [
            {"catchup_requests": 92, "reannounced_2a": 20,
             "retransmissions": 149},
            {"acceptor_floor": 140, "chunks_sent": 0, "coordinator_floor": 140,
             "installs": 0, "min_snap_frontier": 140, "snapshots": 38},
            {"acceptor_deltas_sent": 81, "acceptor_resyncs": 34,
             "acceptor_stamps_sent": 56, "coordinator_resyncs_answered": 12,
             "delta_2b": 159, "full_2b": 156, "glb_gate_skips": 109,
             "polls_suppressed": 187, "resyncs_sent": 28,
             "stamps_confirmed": 52},
        ],
    },
    "gen_balanced_unbatched": {
        "done": True, "done_clock": 103.348303, "clock": 223.348303,
        "events": 3642, "messages": 3321, "dropped": 472, "writes": 158,
        "orders": "d81d04b4d8de0253",
        "by_type": "41909ccd6b6042fe",
        "write_counts": "f99e8c06f9ae8539",
        "stats": [
            {"catchup_requests": 61, "reannounced_2a": 29,
             "retransmissions": 36},
            {"acceptor_floor": 51, "chunks_sent": 0, "coordinator_floor": 51,
             "installs": 0, "min_snap_frontier": 51, "snapshots": 6},
        ],
    },
    "gen_batching_only": {
        "done": False, "done_clock": 200.0, "clock": 200.0,
        "events": 1168, "messages": 828, "dropped": 4, "writes": 42,
        "orders": "98ed35dd644df924",
        "by_type": "dd39279f828ca71b",
        "write_counts": "f202032ea0a8ac56",
        "stats": [
            {"catchup_requests": 48, "reannounced_2a": 9,
             "retransmissions": 0},
            {"acceptor_floor": 0, "chunks_sent": 0, "coordinator_floor": 0,
             "installs": 0, "min_snap_frontier": 0, "snapshots": 0},
        ],
    },
    "gen_layers_learner_crash": {
        "done": True, "done_clock": 174.296221, "clock": 294.296221,
        "events": 6598, "messages": 5666, "dropped": 557, "writes": 259,
        "orders": "fbf41792a8c13123",
        "by_type": "22e42e012da6236f",
        "write_counts": "3cb6d630de0a8a99",
        "stats": [
            {"catchup_requests": 133, "reannounced_2a": 23,
             "retransmissions": 152},
            {"acceptor_floor": 137, "chunks_sent": 57,
             "coordinator_floor": 137, "installs": 2, "min_snap_frontier": 137,
             "snapshots": 35},
            {"acceptor_deltas_sent": 109, "acceptor_resyncs": 37,
             "acceptor_stamps_sent": 95, "coordinator_resyncs_answered": 15,
             "delta_2b": 198, "full_2b": 202, "glb_gate_skips": 171,
             "polls_suppressed": 254, "resyncs_sent": 49,
             "stamps_confirmed": 86},
        ],
    },
    "sharded_two_groups": {
        "done": True, "done_clock": 96.656755, "clock": 216.656755,
        "events": 4651, "messages": 3521, "dropped": 264, "writes": 259,
        "orders": "8511445b0203cdb1",
        "by_type": "c7f0d5293c044397",
        "write_counts": "75e186d82a82b618",
        "stats": [
            {"acks": 153, "catchup_requests": 2, "gossip_rounds": 16,
             "reannounced_2a": 20, "retransmissions": 46},
            {"acks": 185, "catchup_requests": 1, "gossip_rounds": 23,
             "reannounced_2a": 25, "retransmissions": 44},
            {"catchup_requests": 58, "reannounced_2a": 8,
             "retransmissions": 11},
        ],
    },
    "smr_all_layers": {
        "done": True, "done_clock": 171.39336, "clock": 291.39336,
        "events": 6545, "messages": 5699, "dropped": 788, "writes": 450,
        "orders": "d3499b99cc99bcfe",
        "by_type": "df2a9581efcb6732",
        "write_counts": "21b177b115dff901",
        "stats": [
            {"acks": 383, "catchup_requests": 13, "gossip_rounds": 73,
             "reannounced_2a": 47, "retransmissions": 63},
            {"acceptor_floor": 106, "chunks_sent": 51,
             "coordinator_floor": 106, "installs": 1, "min_snap_frontier": 106,
             "snapshots": 30},
        ],
    },
    "smr_balanced_unbatched": {
        "done": True, "done_clock": 142.709321, "clock": 262.709321,
        "events": 4354, "messages": 3885, "dropped": 512, "writes": 218,
        "orders": "5b015014f7067b8f",
        "by_type": "eda9044713a3295f",
        "write_counts": "10e8f348bd2a1d3a",
        "stats": [
            {"acks": 267, "catchup_requests": 18, "gossip_rounds": 50,
             "reannounced_2a": 58, "retransmissions": 78},
            {"acceptor_floor": 66, "chunks_sent": 2, "coordinator_floor": 66,
             "installs": 1, "min_snap_frontier": 66, "snapshots": 6},
        ],
    },
    "smr_batched_no_checkpoint": {
        "done": True, "done_clock": 50.0, "clock": 170.0,
        "events": 2065, "messages": 1699, "dropped": 198, "writes": 79,
        "orders": "9760a87b95641ea5",
        "by_type": "9aa078519b22a9f2",
        "write_counts": "3de5287529157f10",
        "stats": [
            {"acks": 63, "catchup_requests": 2, "gossip_rounds": 14,
             "reannounced_2a": 23, "retransmissions": 5},
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
