"""E15 -- delta wire protocol: O(delta) hot paths, digest catch-up, sessions.

The generalized engine's senders ship only unsent suffixes stamped by
(size, digest) of what was already sent, stamped polls are answered by
an O(1) ``VoteStamp``, and a ``SessionConfig`` replaces the learners'
unbounded seen-sets with sliding per-client windows.  Claims pinned here
(CI guards, quick mode ``E15_QUICK=1``):

1. **Idle-tick bytes O(1)**: idle catch-up bytes per tick are flat in
   history length, and small in absolute terms (stamps, not votes).
2. **Per-command 2a/2b payload O(delta)**: flat in history length.
3. **Bounded dedup**: with sessions, learner retained dedup cells stay
   flat across a 3x-longer run (seen-set: linear).  These rows also
   checkpoint, so they pin that garbage collection keeps both delta
   streams: zero resync requests.

Wire bytes are each simulator send's real codec frame length.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import DeltaConfig, build_generalized
from repro.core.sessions import SessionConfig
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.net.codec import encode
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict

QUICK = quick("E15")

#: E15a history lengths (quick: the two ends of the full grid).
N_GRID = (100, 400) if QUICK else (100, 200, 400)


_E15_HOT = ("Phase2a", "Phase2b", "Phase2aDelta", "Phase2bDelta")


def _e15_conflicting_orders(learners, commands, key: str) -> set[tuple]:
    """Per-learner delivered order restricted to *key* (the agreed part)."""
    wanted = {c for c in commands if c.key == key}
    orders = set()
    for learner in learners:
        seen: set = set()
        order = []
        for cmd in learner.delivered:
            if cmd in wanted and cmd not in seen:
                seen.add(cmd)
                order.append(cmd)
        orders.add(tuple(order))
    return orders


def _idle_bytes(sim: Simulation) -> int:
    """Wire bytes so far, less the failure detector's heartbeats: they are
    not catch-up traffic, and idle ticks are about catch-up."""
    return sim.metrics.total_bytes - sim.metrics.bytes_by_type["Heartbeat"]


def _e15_run(
    label: str,
    n_commands: int,
    delta: DeltaConfig = DeltaConfig(),
    sessions: SessionConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
    seed: int = 31,
    spacing: float = 24.0,
    idle_span: float = 120.0,
) -> dict:
    """One trickle-load-then-idle run with every wire byte accounted.

    Commands arrive *spacing* time units apart -- slow enough that the
    reliability layer's periodic chatter (catch-up polls, 2a re-announce)
    runs between arrivals, the regime where re-shipping whole c-structs
    would dominate.  After the load completes the cluster sits idle for
    *idle_span* and the per-tick idle bytes are measured: O(1) stamps,
    not O(history) votes.  Wire bytes use the real codec length of every
    simulator send (``Metrics.sizer``), so the numbers are the ones the
    ``repro.net`` transport would put on loopback sockets.
    """

    sim = Simulation(seed=seed, max_events=30_000_000)
    sim.metrics.sizer = lambda msg: len(encode(msg))
    retransmit = RetransmitConfig(catchup_interval=2.0)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=retransmit,
        checkpoint=checkpoint,
        delta=delta,
        sessions=sessions,
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    commands = [
        Command(f"e15c{i % 4}:{i // 4}", "put", f"k{i % 8}", i)
        for i in range(n_commands)
    ]
    for i, cmd in enumerate(commands):
        cluster.propose(cmd, delay=5.0 + i * spacing)
    completed = cluster.run_until_delivered(
        commands, timeout=60.0 + 4.0 * spacing * n_commands
    )

    load_events = sim.events_processed
    load_hot = sum(sim.metrics.bytes_by_type[t] for t in _E15_HOT)
    load_fulls = sum(sim.metrics.messages_by_type[t] for t in ("Phase2a", "Phase2b"))
    # The last delivery can race a catch-up poll whose answer re-ships the
    # last command; let that answer land before the idle window opens.
    sim.run(until=sim.clock + retransmit.catchup_interval)
    idle_start = _idle_bytes(sim)
    sim.run(until=sim.clock + idle_span)
    idle_bytes = _idle_bytes(sim) - idle_start
    ticks = (idle_span / retransmit.catchup_interval) * len(cluster.learners)
    stats = cluster.delta_stats()
    return {
        "mode": label,
        "commands": n_commands,
        "completed": completed,
        "orders agree": len(
            _e15_conflicting_orders(cluster.learners, commands, "k0")
        )
        == 1,
        "events / cmd": round(load_events / n_commands, 1),
        "2a/2b B / cmd": round(load_hot / n_commands),
        "full 2a+2b / cmd": round(load_fulls / n_commands, 2),
        "idle B / tick": round(idle_bytes / ticks, 1),
        "wire MB": round(sim.metrics.total_bytes / 1e6, 2),
        "delta 2b": stats["delta_2b"],
        "stamps": stats["stamps_confirmed"] + stats["acceptor_stamps_sent"],
        "resyncs": stats["resyncs_sent"] + stats["acceptor_resyncs"],
        "retained dedup": cluster.retained_dedup(),
    }


def experiment_e15(n_grid: tuple[int, ...], seed: int = 31) -> list[dict]:
    """Bytes-on-wire and events/command vs history length.

    The delta streams ship only unsent suffixes and answer matching
    stamped polls with an O(1) ``VoteStamp``, so per-command 2a/2b bytes
    and idle-tick bytes must stay flat in history length (asserted below).
    """

    return [
        _e15_run(f"{n} cmds", n, delta=DeltaConfig(idle_poll_every=8), seed=seed)
        for n in n_grid
    ]


def experiment_e15_sessions(
    base: int = 120,
    interval: int = 40,
    seed: int = 33,
) -> list[dict]:
    """Learner dedup memory: seen-*set* vs bounded session windows.

    Both conditions checkpoint; the only difference is
    ``SessionConfig``.  The legacy seen-set's retained cells grow with
    the run (checkpointing bounds the *history lattice*, not the dedup
    set), while the session windows stay ~flat across a 3x-longer run.
    """

    rows: list[dict] = []
    for n in (base, 3 * base):
        for label, sessions in (
            ("seen-set", None),
            ("sessions", SessionConfig(window=32)),
        ):
            rows.append(
                _e15_run(
                    f"{label}, {n} cmds",
                    n,
                    sessions=sessions,
                    checkpoint=CheckpointConfig(interval=interval, gc_quorum=2),
                    seed=seed,
                    spacing=3.0,
                    idle_span=60.0,
                )
            )
    return rows


def test_e15_wire_scaling(benchmark):
    rows = run_experiment(
        benchmark,
        lambda: experiment_e15(N_GRID),
        "E15a: bytes-on-wire and events/cmd vs history length",
    )
    assert all(r["completed"] and r["orders agree"] for r in rows)

    # O(1) idle ticks and O(delta) payloads -- flat across the grid
    # (measured byte-identical; 1.25x allows schedule jitter).
    for metric in ("idle B / tick", "2a/2b B / cmd"):
        values = [r[metric] for r in rows]
        assert max(values) <= 1.25 * min(values), (
            f"{metric} not flat in history length: {values}"
        )
    assert rows[-1]["idle B / tick"] < 1_000  # absolute: stamps, not votes

    # The mechanism fired, and never needed mismatch repair on a clean run.
    for row in rows:
        assert row["delta 2b"] > 0 and row["stamps"] > 0
        assert row["resyncs"] == 0


def test_e15_sessions_bounded_dedup(benchmark):
    rows = run_experiment(
        benchmark,
        experiment_e15_sessions,
        "E15b: learner dedup memory, seen-set vs session windows",
    )
    assert all(r["completed"] and r["orders agree"] for r in rows)

    seen_set = [r for r in rows if r["mode"].startswith("seen-set")]
    sessions = [r for r in rows if r["mode"].startswith("sessions")]

    # The legacy seen-set retains one cell per distinct command ever
    # delivered: 3x the run, 3x the cells.
    assert seen_set[-1]["retained dedup"] >= 2.5 * seen_set[0]["retained dedup"]
    # Session windows: flat across the 3x-longer run, and far below the
    # command count (floors + interval endpoints per active client).
    assert sessions[-1]["retained dedup"] <= sessions[0]["retained dedup"] + 4
    assert sessions[-1]["retained dedup"] < sessions[-1]["commands"] // 4
    # Bonus of the compact membership claim: idle checkpoint chatter
    # (ICheckpoint.members) stays flat instead of growing with history.
    assert sessions[-1]["idle B / tick"] <= 1.25 * sessions[0]["idle B / tick"]
    # Every row checkpoints under load, and GC at either end of a delta
    # stream moves no stamp: a clean run never needs mismatch repair.
    assert [r["resyncs"] for r in rows] == [0] * len(rows)
