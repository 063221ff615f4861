"""The generalized engine converges at 15 % loss with checkpointing on.

Three wedges once stopped this shape short of its last commands, each
a count read as if it were a set or a base that forgot:

* a learner holding *more* commands than its peers' checkpoints, but not
  all of theirs, found no install source (sources were chosen by count)
  while the acceptors had truncated what it lacked;
* a stable base that shrank when the learners justifying the bound
  changed, so an acceptor's vote and the coordinator's 2a stream no
  longer fitted in one frame and every accept failed;
* a learner whose own checkpoint, counted among the contributors of its
  base, hid commands two peers had checkpointed and the acceptors had
  truncated.

The grid is the replicated-KV demo's shape (``examples/replicated_kv.py
::production_parity_demo``) over seeds, bootstrap round types and
batching, plus the session-window variant on the shapes it wedged.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.checkpoint import CheckpointConfig, ICheckpoint
from repro.core.generalized import build_generalized
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.core.sessions import SessionConfig
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import Replica
from repro.smr.workload import Workload, WorkloadConfig
from tests.conftest import cmd


def _demo_shape(seed: int, rtype: int, batching: bool, sessions: bool):
    sim = Simulation(seed=seed, network=NetworkConfig(drop_rate=0.15))
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_learners=3,
        batching=BatchingConfig(max_batch=8, flush_interval=1.0) if batching else UNBATCHED,
        checkpoint=CheckpointConfig(interval=25, gc_quorum=2),
        sessions=SessionConfig(window=64) if sessions else None,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype=rtype))
    replicas = [Replica(learner, KVStore()) for learner in cluster.learners]
    client = PipelinedClient("loadgen", cluster, window=12)
    client.watch_learner(cluster.learners[0])
    workload = Workload.generate(
        WorkloadConfig(n_commands=150, conflict_rate=0.3, read_fraction=0.2, seed=seed)
    )
    sim.run(until=5.0)
    client.submit(workload.commands)
    done = sim.run_until(
        lambda: cluster.everyone_delivered(workload.commands), timeout=2_000
    )
    return done, cluster, replicas


def _assert_converges(seed, rtype, batching, sessions):
    done, cluster, replicas = _demo_shape(seed, rtype, batching, sessions)
    assert done, [learner.delivered_total for learner in cluster.learners]
    assert len({replica.machine.snapshot() for replica in replicas}) == 1


@pytest.mark.parametrize(
    "seed,rtype,batching",
    list(itertools.product((17, 1, 2, 3, 4), (1, 2), (False, True))),
)
def test_the_demo_shape_converges(seed, rtype, batching):
    _assert_converges(seed, rtype, batching, sessions=False)


@pytest.mark.parametrize(
    "seed,rtype,batching", [(1, 2, False), (1, 2, True), (3, 1, False), (4, 1, True)]
)
def test_the_demo_shape_converges_under_session_windows(seed, rtype, batching):
    _assert_converges(seed, rtype, batching, sessions=True)


def test_a_learner_ahead_by_count_installs_what_it_lacks():
    """139 commands delivered; both peers checkpointed 137, eleven of them
    missing here.  Their advertised count is below ours, yet theirs is the
    checkpoint to install -- and the assembled snapshot is adopted."""
    sim = Simulation(seed=1)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_learners=3,
        checkpoint=CheckpointConfig(interval=25, gc_quorum=2),
    )
    learner = cluster.learners[1]
    commands = [cmd(f"c{i}", "put", f"k{i}", i) for i in range(150)]
    peers = frozenset(commands[:137])
    ours = [c for c in commands[:150] if c not in set(commands[:11])][:139]
    learner._deliver(tuple(ours))
    learner.delivered_total = len(ours)
    for peer in ("learn0", "learn2"):
        learner.on_icheckpoint(ICheckpoint(137, peers), peer)
    learner._catchup_tick()
    assert learner._installer.pending is not None
    assert learner._installer.pending["src"] in ("learn0", "learn2")
    learner._install_snapshot(137, tuple(commands[:137]), None)
    assert learner.snapshot_installs == 1
    assert all(learner.has_delivered(c) for c in commands[:137])
