"""Delta wire protocol + bounded dedup sessions (generalized engine).

The generalized engine's only wire mode: senders ship the unsent suffix
of their 2a/2b streams, stamped by the (size, digest) of what was
already sent; a full ``Phase2a``/``Phase2b`` starts a round's stream and
answers a ``ResyncRequest`` after any mismatch, re-basing it
(``DeltaConfig`` holds only the idle-poll cadence).  These tests pin
(1) the digest/trail/interval-run primitives, (2) agreement under loss
and crash/recovery, (3) adversarial mismatch repair -- corrupted mirrors
must heal through resync, never diverge -- and (4) the sessions layer's
bounded dedup memory under multiples-longer runs.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import (
    DeltaConfig,
    GeneralizedConfig,
    build_generalized,
)
from repro.core.messages import Phase2aDelta, ResyncRequest
from repro.core.quorums import QuorumSystem
from repro.core.rounds import RoundSchedule
from repro.core.sessions import (
    SessionConfig,
    SessionDedup,
    SessionMembers,
    session_key,
)
from repro.core.topology import Topology
from repro.cstruct.commands import Command
from repro.cstruct.digest import (
    DeltaTrail,
    digest_add,
    digest_of,
    runs_add,
    runs_contains,
    runs_count,
    runs_intersect,
    runs_issubset,
    runs_merge,
)
from repro.cstruct.history import CommandHistory
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def cmds(n, clients=3, keys=5, start=0):
    """Session-stamped conflicting commands: cid = "<client>:<seq>"."""
    return [
        Command(f"cl{i % clients}:{i // clients}", "put", f"k{i % keys}", i)
        for i in range(start, start + n)
    ]


def deploy(
    seed=1,
    delta=DeltaConfig(),
    sessions=None,
    retransmit=RetransmitConfig(),
    checkpoint=None,
    drop_rate=0.0,
    jitter=0.0,
    duplicate_rate=0.0,
):
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(
            drop_rate=drop_rate, jitter=jitter, duplicate_rate=duplicate_rate
        ),
        max_events=10_000_000,
    )
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=retransmit,
        checkpoint=checkpoint,
        delta=delta,
        sessions=sessions,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    return sim, cluster


def converge(sim, cluster, commands, spacing=0.9, timeout=80_000.0):
    for i, cmd in enumerate(commands):
        cluster.propose(cmd, delay=5.0 + i * spacing)
    ok = cluster.run_until_delivered(commands, timeout=timeout)
    cluster.flush()
    if not ok:
        ok = cluster.run_until_delivered(commands, timeout=timeout)
    return ok


def hot_orders(cluster, commands):
    """Per-learner delivered order restricted to the proposed commands."""
    wanted = set(commands)
    orders = []
    for learner in cluster.learners:
        seen = set()
        order = []
        for cmd in learner.delivered:
            if cmd in wanted and cmd not in seen:
                seen.add(cmd)
                order.append(cmd)
        orders.append(order)
    return orders


# -- primitives ---------------------------------------------------------------


def test_digest_is_order_independent_and_incremental():
    a, b, c = cmds(3)
    assert digest_of([a, b, c]) == digest_of([c, a, b])
    assert digest_add(digest_of([a]), [b, c]) == digest_of([a, b, c])
    assert digest_of([a, b]) != digest_of([a, c])
    assert digest_of([]) == 0


def test_delta_trail_suffixes():
    trail = DeltaTrail(limit=8)
    batches = [tuple(cmds(2, start=i * 2)) for i in range(4)]
    stamps = [(trail.size, trail.digest)]
    for batch in batches:
        trail.append(batch)
        stamps.append((trail.size, trail.digest))
    # Head stamp -> empty suffix; every recorded base -> the exact tail.
    assert trail.suffix_from(*stamps[-1]) == ()
    for i, (size, digest) in enumerate(stamps[:-1]):
        suffix = trail.suffix_from(size, digest)
        assert suffix == tuple(c for batch in batches[i:] for c in batch)
    # Unknown stamp (e.g. diverged peer) -> miss.
    assert trail.suffix_from(1, 12345) is None
    # Reset forgets history.
    trail.reset(0, 0)
    assert trail.suffix_from(*stamps[1]) is None


def test_delta_trail_bounded():
    trail = DeltaTrail(limit=3)
    oldest = (trail.size, trail.digest)
    for i in range(10):
        trail.append((Command(f"t:{i}", "put", "k", i),))
    assert trail.suffix_from(*oldest) is None  # trimmed past the limit
    assert len(trail._entries) <= 3


def test_interval_runs():
    runs = []
    for value in (5, 3, 4, 9, 1):
        assert runs_add(runs, value)
    assert not runs_add(runs, 4)
    assert [tuple(r) for r in runs] == [(1, 1), (3, 5), (9, 9)]
    assert runs_contains(runs, 3) and not runs_contains(runs, 7)
    assert runs_count(runs) == 5
    assert runs_merge(((1, 2),), ((2, 4), (8, 9))) == ((1, 4), (8, 9))
    assert runs_intersect(((1, 5),), ((4, 9),)) == ((4, 5),)
    assert runs_issubset(((2, 3),), ((1, 5),))
    assert not runs_issubset(((2, 6),), ((1, 5),))


def test_session_dedup_window_and_members():
    dedup = SessionDedup(window=8)
    first = cmds(30, clients=2)
    for cmd in first:
        assert dedup.add(cmd)
        assert not dedup.add(cmd)  # immediate duplicate
    assert len(dedup) == 30
    assert all(cmd in dedup for cmd in first)
    members = dedup.members()
    assert isinstance(members, SessionMembers)
    assert dedup.covers(members)
    assert all(cmd in members for cmd in first)
    # Claims compose like sets across representations.
    other = SessionMembers.from_commands(cmds(10, clients=2, start=25))
    union = members.union(other)
    assert all(cmd in union for cmd in cmds(35, clients=2))
    inter = members.intersection(frozenset(first[:4]))
    assert len(inter) == 4
    # Round-trips through its serializable state.
    restored = SessionDedup.restore(dedup.state(), window=8)
    assert len(restored) == len(dedup)
    assert all(cmd in restored for cmd in first)
    # Non-session cids fall back to the exact overflow set.
    plain = Command("no-session-id", "put", "k", 0)
    assert session_key(plain) is None
    assert dedup.add(plain) and plain in dedup


def test_session_dedup_retained_is_bounded():
    dedup = SessionDedup(window=16)
    for cmd in cmds(64, clients=2):
        dedup.add(cmd)
    small = dedup.retained()
    for cmd in cmds(2000, clients=2, start=64):
        dedup.add(cmd)
    assert len(dedup) == 2064  # the monotone count still advances
    assert dedup.retained() <= small + 4  # the retained cells do not


def test_session_ids_are_ascii_decimals_in_canonical_form():
    """A cid comes off the wire.  ``str.isdigit`` accepts "²" (``int``
    raises: a crashed learner handler) and "١٢" (``int`` gives 12: the
    dedup slot of "a:12"); "012" is 12 as well.  None of them is a session
    id -- they are tracked exactly, beside the command they resemble."""
    assert session_key(Command("a:12")) == ("a", 12)
    assert session_key(Command("a:0")) == ("a", 0)
    tails = ("²", "١٢", "1²", "012", "00", "+12", " 12", "")
    hostile = [Command(f"a:{tail}") for tail in tails]
    assert [session_key(cmd) for cmd in hostile] == [None] * len(hostile)
    dedup = SessionDedup(window=64)
    assert dedup.add(Command("a:12"))
    for cmd in hostile:
        assert cmd not in dedup
        assert dedup.add(cmd) and not dedup.add(cmd)
    members = dedup.members()
    assert members.clients == (("a", ((12, 12),)),) and members.extra == frozenset(hostile)
    # The answer is remembered on the command, and is the same answer.
    cmd = Command("c0:7")
    assert session_key(cmd) is session_key(cmd) == ("c0", 7)


# -- configuration ------------------------------------------------------------


def _config_kwargs():
    topology = Topology.build(2, 3, 3, 2)
    return dict(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors),
        schedule=RoundSchedule(range(3), recovery_rtype=1),
        bottom=CommandHistory.bottom(kv_conflict()),
    )


def test_sessions_require_checkpoint():
    with pytest.raises(ValueError, match="checkpoint"):
        GeneralizedConfig(
            retransmit=RetransmitConfig(),
            sessions=SessionConfig(),
            **_config_kwargs(),
        )


def test_delta_config_validation():
    with pytest.raises(ValueError):
        DeltaConfig(idle_poll_every=0)
    with pytest.raises(ValueError):
        SessionConfig(window=0)


# -- convergence equivalence --------------------------------------------------


@pytest.mark.parametrize("seed", [7, 21, 42])
def test_delta_streams_agree_under_loss(seed):
    """Lossy network: every learner holds the full command set and all
    learners agree on the delivered order of conflicting commands."""
    workload = cmds(40, clients=4, keys=3)
    sim, cluster = deploy(seed=seed, drop_rate=0.10, jitter=0.3)
    assert converge(sim, cluster, workload)
    orders = hot_orders(cluster, workload)
    assert all(len(o) == len(workload) for o in orders)
    conflict = kv_conflict()
    reference = orders[0]
    position = {cmd: i for i, cmd in enumerate(reference)}
    for order in orders[1:]:
        for i, x in enumerate(order):
            for y in order[i + 1 :]:
                if conflict(x, y):
                    assert position[x] < position[y], (
                        f"learners disagree on {x} vs {y}"
                    )
    assert cluster.delta_stats()["delta_2b"] > 0  # the fast path actually ran


def test_delta_survives_crash_recovery():
    """Acceptor and learner crashes mid-run: streams restart via full
    broadcasts/resyncs and the run still converges."""
    sim, cluster = deploy(
        seed=11,
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
        drop_rate=0.05,
    )
    workload = cmds(36, clients=3, keys=4)
    for i, cmd in enumerate(workload):
        cluster.propose(cmd, delay=5.0 + i * 1.2)
    sim.schedule(18.0, cluster.acceptors[0].crash)
    sim.schedule(30.0, cluster.acceptors[0].recover)
    sim.schedule(26.0, cluster.learners[1].crash)
    sim.schedule(40.0, cluster.learners[1].recover)
    assert cluster.run_until_delivered(workload, timeout=80_000.0)
    assert all(
        learner.delivered_total >= len(workload)
        for learner in cluster.learners
    )


# -- adversarial mismatch repair ----------------------------------------------


def test_corrupted_learner_mirror_heals_by_resync():
    """Flip a learner's digest mirror of an acceptor stream: the next
    delta must mismatch, trigger ResyncRequest, and re-converge off the
    full cumulative vote -- digests gate fallback, never correctness."""
    sim, cluster = deploy(seed=3)
    first = cmds(10)
    assert converge(sim, cluster, first)
    victim = cluster.learners[0]
    assert victim._vote_raw, "expected established 2b mirrors"
    for acc, (rnd, size, digest) in list(victim._vote_raw.items()):
        victim._vote_raw[acc] = (rnd, size, digest ^ 0xDEAD)
    more = cmds(10, start=10)
    assert converge(sim, cluster, more)
    assert victim.resyncs_sent > 0
    assert all(victim.has_delivered(cmd) for cmd in first + more)


def test_corrupted_acceptor_mirror_heals_by_resync():
    """Same adversarial flip on an acceptor's mirror of the coordinator
    2a stream: the acceptor must demand a resync and the coordinator's
    full Phase2a must repair it."""
    sim, cluster = deploy(seed=5)
    first = cmds(8)
    assert converge(sim, cluster, first)
    victim = cluster.acceptors[0]
    assert victim._2a_mirror, "expected established 2a mirrors"
    for coord, (rnd, size, digest) in list(victim._2a_mirror.items()):
        victim._2a_mirror[coord] = (rnd, size + 1, digest)
    more = cmds(8, start=8)
    assert converge(sim, cluster, more)
    assert victim.resyncs_requested > 0
    assert sum(c.resyncs_answered for c in cluster.coordinators) > 0
    assert all(l.has_delivered(cmd) for l in cluster.learners for cmd in more)


def test_a_lost_2a_delta_costs_one_resync_request():
    """One ``Phase2aDelta`` lost, five more delivered behind it: none can
    attach, and the acceptor asks once -- the full that answers re-bases
    the stream and covers every delta in between."""
    sim, cluster = deploy(seed=5)
    assert converge(sim, cluster, cmds(4))
    coord, acceptor = cluster.coordinators[0], cluster.acceptors[0]
    rnd, size, digest = coord._sent2a
    deltas = []
    for cmd in cmds(6, start=100):
        deltas.append(Phase2aDelta(rnd, size, digest, (cmd,)))
        size, digest = size + 1, digest_add(digest, (cmd,))
    requests = []

    def observe(src, dst, msg):  # sees every send; drops nothing
        if isinstance(msg, ResyncRequest) and src == acceptor.pid:
            requests.append(msg)
        return False

    sim.network.add_drop_filter(observe)
    for delta in deltas[1:]:  # deltas[0] is the lost one
        sim.send(coord.pid, acceptor.pid, delta)
    sim.run(until=sim.clock + 1.5)  # all five delivered; no answer back yet
    assert len(requests) == 1


def test_gc_keeps_both_delta_streams():
    """A lossless run with checkpointing: GC at either end of a stream
    costs nothing.  No resync is ever asked for, the only full ``Phase2a``
    is each coordinator's phase-2 start, and the only full ``Phase2b`` is
    each acceptor's first vote of the round."""
    sim, cluster = deploy(
        seed=3,
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
    )
    workload = cmds(320, clients=4)
    assert converge(sim, cluster, workload)
    assert min(l.delivered_total for l in cluster.learners) >= len(workload)
    assert min(a.gc_floor for a in cluster.acceptors) >= len(workload) - 32
    sent = sim.metrics.messages_by_type
    n_coords = len(cluster.coordinators)
    n_accs, n_learners = len(cluster.acceptors), len(cluster.learners)
    assert sent["ResyncRequest"] == 0
    assert sent["Phase2a"] == n_coords * n_accs
    assert sent["Phase2b"] == n_accs * n_learners
    assert sent["Phase2aDelta"] > 0 and sent["Phase2bDelta"] > 0


@pytest.mark.parametrize("seed", [5, 7, 23])
def test_gc_frame_shift_with_merges_stays_faithful(seed):
    """Acceptor GC + lattice merges + duplicates + crash: the hostile
    combination for the 2b stream.

    GC rewrites an acceptor's vote to a *smaller* retained tail (so the
    learner's full-vote mirror must regress instead of wedging), a
    concurrent merge gains commands the learner's fat stale record never
    saw (so a smaller-but-authoritative full must fold in by lub, not be
    dropped by the size rule), and duplicated deltas re-attach at moved
    stamps (so duplicate detection must go by digest).  Each of these
    once produced silent per-key order divergence or a permanent wedge;
    all learners must deliver everything in the same per-key order."""
    sim, cluster = deploy(
        seed=seed,
        delta=DeltaConfig(idle_poll_every=4),
        sessions=SessionConfig(window=256),
        retransmit=RetransmitConfig(catchup_interval=2.0),
        checkpoint=CheckpointConfig(interval=25, gc_quorum=2),
        drop_rate=0.15,
        duplicate_rate=0.05,
    )
    workload = cmds(120, clients=1, keys=5)
    sim.schedule(60.0, cluster.acceptors[1].crash)
    sim.schedule(75.0, cluster.acceptors[1].recover)
    assert converge(sim, cluster, workload, spacing=1.5)
    orders = hot_orders(cluster, workload)
    assert all(len(order) == len(workload) for order in orders)
    keyed = []
    for order in orders:
        per_key: dict = {}
        for cmd in order:
            per_key.setdefault(cmd.key, []).append(cmd.cid)
        keyed.append(per_key)
    assert all(k == keyed[0] for k in keyed[1:]), (
        "learners diverged on a per-key delivery order"
    )


# -- idle-cluster chatter -----------------------------------------------------


def test_idle_cluster_polls_are_stamped_and_suppressed():
    """After convergence the catch-up loop must settle into stamp acks
    (O(1) bytes) and suppressed polls instead of full vote re-sends."""
    sim, cluster = deploy(seed=9)
    assert converge(sim, cluster, cmds(12))
    sim.run(until=sim.clock + 40.0)  # let in-flight traffic settle
    full_before = cluster.delta_stats()["full_2b"]
    stamps_before = cluster.delta_stats()["stamps_confirmed"]
    sim.run(until=sim.clock + 400.0)
    stats = cluster.delta_stats()
    assert stats["full_2b"] == full_before, "idle ticks re-shipped full votes"
    assert stats["stamps_confirmed"] > stamps_before
    assert stats["polls_suppressed"] > 0


# -- bounded sessions ---------------------------------------------------------


def test_sessions_bound_learner_dedup_state():
    """3x the history, ~flat dedup memory: retained cells track the
    session window, not the run length."""
    retained = {}
    totals = {}
    for n in (60, 180):
        sim, cluster = deploy(
            seed=13,
                sessions=SessionConfig(window=32),
            retransmit=RetransmitConfig(),
            checkpoint=CheckpointConfig(interval=16),
        )
        assert converge(sim, cluster, cmds(n, clients=3), spacing=0.6)
        retained[n] = cluster.retained_dedup()
        totals[n] = min(l.delivered_total for l in cluster.learners)
    assert totals[180] >= 3 * totals[60] - 6
    assert retained[180] <= retained[60] + 3 * 32, (
        f"dedup state grew with history: {retained}"
    )


def test_sessions_preserve_exactly_once_until_window():
    """A duplicate proposal inside the window is delivered once."""
    sim, cluster = deploy(
        seed=17,
        sessions=SessionConfig(window=64),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=16),
    )
    workload = cmds(20, clients=2)
    assert converge(sim, cluster, workload)
    # Re-propose an already-delivered command: dedup must swallow it.
    dup = workload[5]
    cluster.propose(dup, delay=1.0)
    sim.run(until=sim.clock + 60.0)
    for learner in cluster.learners:
        assert sum(1 for c in learner.delivered if c == dup) <= 1
