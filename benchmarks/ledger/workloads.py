"""The six workloads: how one repetition of each is deployed, driven and judged.

A repetition builds a fresh deployment, runs 50 untimed warm-up commands
through it, measures one timed window and tears everything down.  The
socket workloads live on one :class:`~clock.ProgramLoop`; every
inter-role message still crosses a real loopback UDP/TCP socket through
the codec, with **zero** injected delay.  ``sim-inst`` runs the same
engine on the deterministic simulator with fixed command counts, so its
counts repeat exactly under a seed.

Only public surfaces of ``repro`` are used: the loopback deployment
classes, ``build_smr``, ``Client``/``PipelinedClient``, role counters and
``TraceRecorder``/``check_trace``.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.checker import TraceEvent, TraceRecorder, check_trace
from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.generalized import DeltaConfig, GeneralizedConfig
from repro.core.liveness import LivenessConfig
from repro.core.quorums import QuorumSystem
from repro.core.rounds import RoundSchedule
from repro.core.sessions import SessionConfig
from repro.core.topology import Topology
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.net.cluster import (
    GeneralizedLoopbackDeployment,
    LoopbackDeployment,
    wall_clock_checkpoint,
    wall_clock_liveness,
    wall_clock_retransmit,
)
from repro.shard.net import ShardedLoopbackDeployment
from repro.sim import NetworkConfig, Simulation
from repro.smr.client import Client, PipelinedClient
from repro.smr.instances import BatchingConfig, build_smr, make_instances_config
from repro.smr.machine import KVStore, kv_conflict
from repro.smr.replica import OrderedReplica

from clock import ProgramClock
from ledger import percentile
from tracing import Tracer

N_KEYS = 64
_POLL_S = 0.02
_FEED_CHUNK = 512
_ROLE_COUNTERS = (
    "collisions_detected",
    "retransmissions",
    "reannounced_2a",
    "catchup_requests",
    "snapshots_taken",
    "snapshot_installs",
    "snapshot_chunks_sent",
)


@dataclass
class Sizes:
    """How much one run measures (recorded in every results file)."""

    reps: int = 3
    rep_seconds: float = 5.0  # wall budget of one socket repetition's timed window
    warmup: int = 50
    drain_s: float = 4.0  # hard deadline once offering stops (loop seconds)
    sim_cmds: int = 1500  # per sim-inst repetition; fixed so counts repeat
    sim_reps: int = 7  # sim-inst repetitions: fixed too, each has its own loss pattern
    cap: int | None = None  # commands per client per repetition (toy sizes only)

    @classmethod
    def for_seconds(cls, seconds: float) -> "Sizes":
        reps = 3 if seconds >= 6 else 1
        # A 1500-command sim-inst repetition takes about 2.1 s on the baseline host.
        return cls(reps=reps, rep_seconds=seconds / reps, sim_reps=max(1, round(seconds / 2.1)))


@dataclass
class Rep:
    """What one repetition measured."""

    attempted: int = 0
    completed: int = 0
    latencies: list = field(default_factory=list)  # seconds, ascending
    window_s: float = 0.0  # first submit -> last completion
    cpu_s: float = 0.0  # handler work over the timed window, at reference speed
    host_cpu_s: float = 0.0  # the same work as the host charged it (time.process_time())
    setup_s: float = 0.0  # deployment start -> warm-up complete
    problems: list = field(default_factory=list)  # anything that fails the repetition
    extra: dict = field(default_factory=dict)  # workload-specific values
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced only)

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else self.attempted - self.completed


# ---------------------------------------------------------------------------
# counters read off the in-process role objects
# ---------------------------------------------------------------------------


def _counters(processes, metrics, runtimes=()) -> Counter:
    """One snapshot of every counter the per-layer metrics are deltas of."""
    out: Counter = Counter()
    for m in metrics:
        out["msgs"] += m.total_messages
        out["bytes"] += m.total_bytes
        out["drops"] += m.messages_dropped
        out["heartbeats"] += m.messages_by_type["Heartbeat"]
    for runtime in runtimes:
        out["udp"] += runtime.frames_udp
        out["tcp"] += runtime.frames_tcp
        out["reconnects"] += runtime.tcp_reconnects
    instances: dict = {}
    rounds: dict = {}
    for pid, role in processes.items():
        for attr in _ROLE_COUNTERS:
            out[attr] += getattr(role, attr, 0)
        out["writes"] += role.storage.write_count
        group = str(pid).rpartition(".")[0]  # "" or "g0"/"xs" in a sharded book
        if hasattr(role, "next_instance"):
            instances[group] = max(instances.get(group, 0), role.next_instance)
        if hasattr(role, "highest_seen"):
            rounds[group] = max(rounds.get(group, 0), role.highest_seen.count)
    out["instances"] = sum(instances.values())
    out["rounds"] = sum(rounds.values())
    return out


def _layer_metrics(tracer: Tracer, mark: int, delta: Counter, rep: Rep) -> dict:
    """Per-layer metrics of one traced window (see README, layer table)."""
    spans = tracer.self_times(mark)
    cmds = max(rep.completed, 1)

    def us(*prefixes: str) -> float:
        return 1e6 * sum(
            seconds for name, (_, seconds) in spans.items() if name.startswith(prefixes)
        )

    def calls(*prefixes: str) -> int:
        return sum(n for name, (n, _) in spans.items() if name.startswith(prefixes))

    encodes, decodes = calls("codec.encode"), calls("codec.decode")
    # Spans are stamped in CPU seconds as the host charged them; one factor
    # per window puts them at the reference speed the cost metric is stated in.
    to_reference = rep.cpu_s / rep.host_cpu_s if rep.host_cpu_s else 1.0
    spans = {name: (n, seconds * to_reference) for name, (n, seconds) in spans.items()}
    measured_us = us("")
    cpu_us = 1e6 * rep.cpu_s
    steps = calls("sim.step")
    layers = {
        "codec.encode_us_per_cmd": us("codec.encode") / cmds,
        "codec.decode_us_per_cmd": us("codec.decode") / cmds,
        "codec.encode_us_per_frame": us("codec.encode") / max(encodes, 1),
        "codec.decode_us_per_frame": us("codec.decode") / max(decodes, 1),
        "codec.frames_per_cmd": encodes / cmds,
        "codec.bytes_per_cmd": delta["bytes"] / cmds,
        "transport.send_self_us_per_cmd": us("transport.send") / cmds,
        "loop.residual_us_per_cmd": (cpu_us - measured_us) / cmds,
        "transport.udp_frames_per_cmd": delta["udp"] / cmds,
        "transport.tcp_frames_per_cmd": delta["tcp"] / cmds,
        "transport.drops_per_cmd": 0.0 if steps else delta["drops"] / cmds,
        "transport.tcp_reconnects": delta["reconnects"],
        "engine.handler_calls_per_cmd": calls("engine.") / cmds,
        "engine.msgs_per_cmd": delta["msgs"] / cmds,
        "engine.cmds_per_instance": cmds / delta["instances"] if delta["instances"] else 0.0,
        "engine.collisions_per_kcmd": 1e3 * delta["collisions_detected"] / cmds,
        "engine.retransmits_per_kcmd": 1e3 * delta["retransmissions"] / cmds,
        "engine.reannounced_2a_per_kcmd": 1e3 * delta["reannounced_2a"] / cmds,
        "engine.catchup_requests_per_kcmd": 1e3 * delta["catchup_requests"] / cmds,
        "cstruct.ops_per_cmd": calls("cstruct.") / cmds,
        "storage.writes_per_cmd": delta["writes"] / cmds,
        "storage.us_per_cmd": us("storage.") / cmds,
        "checkpoint.snapshots_per_kcmd": 1e3 * delta["snapshots_taken"] / cmds,
        "checkpoint.installs": delta["snapshot_installs"],
        "checkpoint.chunks_sent": delta["snapshot_chunks_sent"],
        "liveness.round_changes": delta["rounds"],
        "liveness.heartbeats_per_s": delta["heartbeats"] / rep.window_s if rep.window_s else 0.0,
        "shard.route_us_per_cmd": us("shard.route") / cmds,
        "sim.events_per_cmd": steps / cmds,
        "sim.dropped_per_cmd": delta["drops"] / cmds if steps else 0.0,
        "sim.step_self_us_per_event": us("sim.step") / max(steps, 1),
        "trace.accounted_frac": measured_us / cpu_us if cpu_us else 0.0,
    }
    for role in ("proposer", "coordinator", "acceptor", "learner"):
        layers[f"engine.{role}_us_per_cmd"] = us(f"engine.{role}.") / cmds
    for op in ("leq", "lub", "glb", "extend"):
        layers[f"cstruct.{op}_us_per_cmd"] = us(f"cstruct.{op}") / cmds
    return layers


def _charge(rep: Rep, before: dict, after: dict) -> None:
    """The timed window's cost and how the host behaved, from two ``ProgramClock.usage()``."""
    spent = {kind: after[kind] - before[kind] for kind in after}
    rep.cpu_s, rep.host_cpu_s = spent["busy"], spent["cpu"]
    rep.extra["host.cpu_ms_per_cmd"] = 1e3 * rep.host_cpu_s / max(rep.completed, 1)
    rep.extra["clock.speed_factor"] = rep.cpu_s / rep.host_cpu_s if rep.host_cpu_s else 1.0
    elapsed = spent["cpu"] + spent["blocked"] + spent["idle"] + spent["stolen"]
    rep.extra["clock.stolen_frac"] = spent["stolen"] / max(elapsed, 1e-9)


def _checker_problems(recorder: TraceRecorder, clients) -> list[str]:
    """Add the clients' invoke/complete stamps to the trace and check it.

    The recorder saw every delivery as it happened; the client side is
    added afterwards from the clients' own records (same clock), so no
    hook sits on the issue path.  Zero violations is the traced run's
    output-correctness check.
    """
    for client in clients:
        for cmd, at in client.issue_times.items():
            recorder.events.append(TraceEvent(
                t=at, site="client", kind="invoke", cid=cmd.cid, op=cmd.op, key=cmd.key, arg=cmd.arg
            ))
            if cmd in client.completed:
                recorder.events.append(TraceEvent(
                    t=client.completed[cmd], site="client", kind="complete", cid=cmd.cid
                ))
    return [violation.render() for violation in check_trace(recorder.events).violations[:3]]


# ---------------------------------------------------------------------------
# socket workloads
# ---------------------------------------------------------------------------


def _common_order(sequences: list, key_of) -> list[str]:
    """Problems if two sites order commands they both hold differently.

    Learners prune their delivered tails at checkpoints, so sequences are
    compared on the commands both still hold; ``key_of`` narrows the
    comparison to conflicting commands (``None`` key: one total order).
    """
    problems = []
    first, first_set = sequences[0], set(sequences[0])
    for index, other in enumerate(sequences[1:], start=1):
        shared = first_set & set(other)
        ours: dict = {}
        theirs: dict = {}
        for seq, per_key in ((first, ours), (other, theirs)):
            for cmd in seq:
                if cmd in shared:
                    per_key.setdefault(key_of(cmd), []).append(cmd)
        if ours != theirs:
            problems.append(f"order disagreement between site 0 and site {index}")
    return problems


class SocketWorkload:
    """One workload on a loopback socket deployment (instances engine defaults)."""

    name = ""
    rate: float | None = None  # open loop: offered commands/s; None: closed loop
    window = 0  # closed loop: commands in flight per client
    lanes = 1  # concurrent clients
    session = False  # session-stamped command ids (bounded learner dedup)
    cap: int | None = None  # commands per client per repetition, whatever the time budget
    min_window_s = 0.0  # keep offering at least this long on the loop clock

    def deploy(self, seed: int):
        raise NotImplementedError

    def target(self, dep):
        return dep.cluster

    def observe(self, dep, client) -> None:
        dep.cluster.attach_client(client)

    def key(self, dep, rng: random.Random, lane: int, tag: str, index: int) -> str:
        return f"k{rng.randrange(N_KEYS)}"

    def record(self, recorder: TraceRecorder, dep) -> None:
        recorder.attach_smr(dep)

    def order_problems(self, dep) -> list[str]:
        return _common_order([l.delivered for l in dep.learners], lambda cmd: None)

    def faults(self, dep, base: float, extra: dict) -> list:
        """Schedule this workload's fault episode; returns timer handles."""
        return []

    # -- helpers ---------------------------------------------------------------

    def client(self, dep, tag: str, lane: int, window: int):
        name = f"{tag}{lane}"
        session = name if self.session else None
        if window:
            client = PipelinedClient(name, self.target(dep), window=window, session=session)
        else:
            client = Client(name, self.target(dep), session=session)
        self.observe(dep, client)
        return client

    def commands(self, dep, client, rng, lane: int, start: int, count: int) -> list[Command]:
        return [
            client.make_command("put", self.key(dep, rng, lane, client.name, i), i)
            for i in range(start, start + count)
        ]


class InstOpen(SocketWorkload):
    name = "inst-open"
    # A quarter of the unbatched stack's capacity on the baseline machine
    # (~340 cmds/s).  The issue sized 125/s; there p99 is queueing behind
    # Poisson bursts and its spread over ten runs was 17-22 %, at 80/s 11-12 %.
    rate = 80.0

    def deploy(self, seed: int):
        config = make_instances_config(
            2, 3, 3, 2, retransmit=wall_clock_retransmit(), liveness=wall_clock_liveness()
        )
        return LoopbackDeployment(config, seed=seed)


class InstFailover(InstOpen):
    name = "inst-failover"
    rate = 100.0
    crash_at = 0.8  # loop seconds into the timed window
    recover_at = 2.8
    victims = ("coord0", "coord1")  # no 2-of-3 coordinator quorum remains
    min_window_s = crash_at + 0.1  # however slow the host, the crash is inside the window

    def faults(self, dep, base: float, extra: dict) -> list:
        loop = asyncio.get_running_loop()

        def crash() -> None:
            extra["crash_clock"] = dep.driver.clock
            for pid in self.victims:
                dep.crash(pid)

        def recover() -> None:
            for pid in self.victims:
                dep.recover(pid)

        now = dep.driver.clock
        return [
            loop.call_later(base + self.crash_at - now, crash),
            loop.call_later(base + self.recover_at - now, recover),
        ]


class InstClosed(SocketWorkload):
    name = "inst-closed"
    window = 32
    session = True

    def deploy(self, seed: int):
        config = make_instances_config(
            2, 3, 3, 2,
            # flush_interval: the issue asked for 5 ms; there, on this host,
            # batches fill by size or by timer depending on how a repetition
            # happens to start (3.7-8.0 commands per instance, throughput
            # +-10 % for one seed).  At 20 ms they fill by size: +-1.4 %.
            batching=BatchingConfig(max_batch=8, flush_interval=0.02, pipeline_depth=4),
            retransmit=wall_clock_retransmit(),
            # No liveness layer, against the issue: with checkpointing on, a
            # batch whose instance is collected before coord0 saw it decided
            # stays in coord0's observed set, ages past stuck_timeout and
            # starts a single-coordinated recovery round (fewer messages,
            # +8-24 % throughput) in about half of all 5 s repetitions.
            checkpoint=wall_clock_checkpoint(interval=64, chunk_size=32),
            sessions=SessionConfig(window=64),
        )
        return LoopbackDeployment(config, seed=seed)


class GenClosed(SocketWorkload):
    name = "gen-closed"
    window = 8
    session = True
    hot_share = 0.30  # commands on the one conflicting key; the rest commute

    def deploy(self, seed: int):
        topology = Topology.build(2, 3, 3, 2)
        config = GeneralizedConfig(
            topology=topology,
            quorums=QuorumSystem(topology.acceptors),
            schedule=RoundSchedule(range(3), recovery_rtype=1),
            bottom=CommandHistory.bottom(kv_conflict()),
            retransmit=wall_clock_retransmit(),
            checkpoint=wall_clock_checkpoint(interval=64, chunk_size=32),
            delta=DeltaConfig(),
            sessions=SessionConfig(window=64),
        )
        return GeneralizedLoopbackDeployment(config, seed=seed)

    def key(self, dep, rng, lane, tag, index) -> str:
        return "hot" if rng.random() < self.hot_share else f"p-{tag}-{index}"

    def record(self, recorder, dep) -> None:
        recorder.attach_generalized(dep)

    def order_problems(self, dep) -> list[str]:
        return _common_order([l.delivered for l in dep.learners], lambda cmd: cmd.key)


class Shard2Cross(SocketWorkload):
    name = "shard2-cross"
    window = 8
    lanes = 2  # one client per group
    # Sizing (README, hazards): 2 x 1000 commands wedged at ~1.8k routed
    # commands in 3 of 4 tries; 2 x 500 completed 6 of 6.
    cap = 500
    keys_per_group = 16
    # Two-key commands spanning both groups: one per block of 20, at a
    # drawn position.  (Drawn per command, their count in a 500-command
    # repetition varies by +-14 %, and with it the throughput: every one
    # stalls both groups' pipelines for a merge-group round trip.)
    cross_every = 20

    def deploy(self, seed: int):
        dep = ShardedLoopbackDeployment(
            2, seed=seed, n_proposers=1, n_coordinators=2, n_acceptors=3, n_learners=2
        )
        # Key placement is a hash: the keys of a group are searched, not assumed.
        dep.group_keys = [[] for _ in range(2)]
        dep.cross_slots = {}
        probe = 0
        while any(len(keys) < self.keys_per_group for keys in dep.group_keys):
            key = f"k{probe}"
            probe += 1
            keys = dep.group_keys[dep.shard_map.group_of_key(key)]
            if len(keys) < self.keys_per_group:
                keys.append(key)
        return dep

    def target(self, dep):
        return dep.router

    def observe(self, dep, client) -> None:
        # Completion is execution at a replica: for a two-key command that
        # is after the merge group ordered it and a barrier was crossed.
        for replicas in dep.replicas:
            client.watch_replica(replicas[0])

    def key(self, dep, rng, lane, tag, index) -> str:
        own = rng.choice(dep.group_keys[lane])
        block = (tag, index // self.cross_every)
        if block not in dep.cross_slots:
            dep.cross_slots[block] = rng.randrange(self.cross_every)
        if index % self.cross_every == dep.cross_slots[block]:
            return f"{own}|{rng.choice(dep.group_keys[1 - lane])}"
        return own

    def record(self, recorder, dep) -> None:
        recorder.attach_sharded(dep)

    def order_problems(self, dep) -> list[str]:
        return [f"replicas diverge on group {g} key {k}" for g, k in dep.divergent_keys()]


def _arrivals(rng: random.Random, rate: float):
    """Offsets of a Poisson process conditioned on ``rate`` arrivals per second.

    Within each one-second block arrivals are uniform order statistics --
    exactly a Poisson process given its count -- so bursts at the scale
    that makes queues stay, while the count noise that would otherwise
    dominate the throughput and cost metrics of a short run goes.
    """
    block = 0
    per_block = max(1, round(rate))
    while True:
        for offset in sorted(rng.random() for _ in range(per_block)):
            yield block + offset
        block += 1


async def _open_loop(workload, dep, client, rng, base, dues: dict, state: dict, cap) -> None:
    """Issue commands on schedule, whatever the system does with them."""
    for index, offset in enumerate(_arrivals(rng, workload.rate)):
        if index == cap:
            state["exhausted"] = True
            return
        await asyncio.sleep(max(base + offset - dep.driver.clock, 0.0))
        if state["stop"]:
            return
        (cmd,) = workload.commands(dep, client, rng, 0, index, 1)
        dues[cmd] = base + offset
        client.issue(cmd)


async def run_socket_rep(
    workload: SocketWorkload, seed: int, sizes: Sizes, tracer: Tracer | None = None
) -> Rep:
    """One repetition on a fresh socket deployment; always tears down."""
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    rep = Rep()
    setup_started = loop.time()
    dep = workload.deploy(seed)
    await dep.start()
    driver = dep.driver
    recorder = None
    round_starts: list = []  # (clock, round) of every phase-1a seen (traced only)
    try:
        if tracer is not None:
            recorder = TraceRecorder(driver)
            workload.record(recorder, dep)

            def note_phase1(src, dst, msg) -> None:
                if type(msg).__name__ == "I1a":
                    round_starts.append((driver.clock, msg.rnd))

            for runtime in dep.runtimes.values():
                runtime.add_delivery_tap(note_phase1)

        # -- warm-up: same path, untimed --------------------------------------
        warm = [workload.client(dep, "w", lane, 4) for lane in range(workload.lanes)]
        share = sizes.warmup // workload.lanes
        for lane, client in enumerate(warm):
            client.submit(workload.commands(dep, client, rng, lane, 0, share))
        warm_deadline = driver.clock + 10.0
        while not all(c.all_completed() for c in warm) and driver.clock < warm_deadline:
            await asyncio.sleep(_POLL_S)
        if not all(c.all_completed() for c in warm):
            rep.problems.append("warm-up did not complete")
        rep.setup_s = loop.time() - setup_started

        # -- timed window ----------------------------------------------------------
        # A full collection walks every module and the whole deployment:
        # 20-40 ms here, about once per 5 s, at a random phase -- enough to
        # decide a repetition's p99 on its own.  Everything alive now goes
        # to the permanent generation; the collector itself stays on.
        gc.collect()
        gc.freeze()
        clients = [
            workload.client(dep, "c", lane, workload.window) for lane in range(workload.lanes)
        ]
        processes = dict(dep.roles)
        runtimes = list(dep.runtimes.values())
        snapshot = lambda: _counters(  # noqa: E731
            processes, [r.metrics for r in runtimes], runtimes
        )
        dues: dict = {}
        state = {"stop": False, "exhausted": False}
        caps = [c for c in (workload.cap, sizes.cap) if c is not None]
        cap = min(caps) if caps else None
        fed = [0] * workload.lanes
        before = snapshot()
        mark = tracer.mark() if tracer is not None else 0
        usage0 = loop.clock.usage()
        base = driver.clock + 0.02
        timers = workload.faults(dep, base, rep.extra)
        offering = None
        if workload.rate is not None:
            offering = loop.create_task(
                _open_loop(workload, dep, clients[0], rng, base, dues, state, cap)
            )

        def feed() -> None:
            for lane, client in enumerate(clients):
                room = _FEED_CHUNK if cap is None else cap - fed[lane]
                if len(client.backlog) < _FEED_CHUNK // 2 and room > 0:
                    count = min(_FEED_CHUNK, room)
                    client.submit(workload.commands(dep, client, rng, lane, fed[lane], count))
                    fed[lane] += count
            if cap is not None:
                state["exhausted"] = all(
                    n >= cap and not c.backlog for n, c in zip(fed, clients)
                )

        def outstanding() -> int:
            return sum(len(c.issued) - len(c.completed) for c in clients)

        stop_wall = time.monotonic() + sizes.rep_seconds
        hard_deadline = None
        while True:
            if dep.errors():
                break
            now_wall = time.monotonic()
            if hard_deadline is None:
                if workload.rate is None:
                    feed()
                timed_out = now_wall >= stop_wall and driver.clock >= base + workload.min_window_s
                if timed_out or state["exhausted"]:
                    state["stop"] = True
                    for client in clients:
                        if workload.rate is None:
                            client.backlog.clear()
                    hard_deadline = driver.clock + sizes.drain_s
            elif outstanding() == 0 or driver.clock >= hard_deadline:
                break
            await asyncio.sleep(_POLL_S)
        usage1 = loop.clock.usage()
        ended = driver.clock
        after = snapshot()
        state["stop"] = True
        for timer in timers:
            timer.cancel()
        if offering is not None:
            offering.cancel()
            try:
                await offering
            except asyncio.CancelledError:
                pass

        # -- what the clients saw ------------------------------------------------------
        issued = [(c, cmd) for c in clients for cmd in c.issued]
        done = [(c, cmd) for c, cmd in issued if cmd in c.completed]
        rep.attempted, rep.completed = len(issued), len(done)
        start_of = (lambda c, cmd: dues[cmd]) if dues else (lambda c, cmd: c.issue_times[cmd])  # noqa: E731
        rep.latencies = sorted(c.completed[cmd] - start_of(c, cmd) for c, cmd in done)
        if done:
            first = min(at for c in clients for at in c.issue_times.values())
            completions = sorted(c.completed[cmd] for c, cmd in done)
            rep.window_s = completions[-1] - first
            crash = rep.extra.pop("crash_clock", None)
            if crash is not None:
                points = [crash, *(t for t in completions if t >= crash), ended]
                rep.extra["unavail_ms"] = 1e3 * max(b - a for a, b in zip(points, points[1:]))
                recovery = [t for t, rnd in round_starts if t >= crash and rnd.count > 1]
                if recovery:
                    rep.extra["liveness.detect_ms"] = 1e3 * (recovery[0] - crash)
        if dues:
            lags = sorted(at - dues[cmd] for cmd, at in clients[0].issue_times.items())
            rep.extra["client.sched_lag_p99_ms"] = 1e3 * percentile(lags, 0.99)
        _charge(rep, usage0, usage1)
        if workload.lanes > 1:
            for label, wanted in (("cross", True), ("single", False)):
                lats = sorted(
                    c.completed[cmd] - c.issue_times[cmd]
                    for c, cmd in done if ("|" in cmd.key) == wanted
                )
                rep.extra[f"shard.{label}_lat_p50_ms"] = 1e3 * percentile(lats, 0.5) if lats else 0.0
            rep.extra["shard.barriers_per_cmd"] = dep.router.next_barrier / max(
                dep.router.routed_single + dep.router.routed_cross, 1
            )

        # -- are the outputs right? ----------------------------------------------------
        rep.problems += [f"runtime error: {err!r}" for err in dep.errors()[:3]]
        rep.problems += workload.order_problems(dep)
        if recorder is not None:
            rep.problems += _checker_problems(recorder, (*warm, *clients))
            rep.layers = _layer_metrics(tracer, mark, after - before, rep)
    finally:
        gc.unfreeze()
        await dep.stop()
    return rep


# ---------------------------------------------------------------------------
# sim-inst
# ---------------------------------------------------------------------------


@dataclass
class _StampedClient(PipelinedClient):
    """A pipelined client that also stamps a real clock.

    The simulator's own clock is virtual (it gives the communication-step
    latency); time spent in the system on a real clock needs a second stamp.
    """

    stamp: object = time.process_time
    stamp_issued: dict = field(default_factory=dict)
    stamp_completed: dict = field(default_factory=dict)

    def issue(self, cmd, delay: float = 0.0):
        self.stamp_issued[cmd] = self.stamp()
        return super().issue(cmd, delay)

    def _note_complete(self, cmd) -> None:
        if cmd in self.issue_times and cmd not in self.completed:
            self.stamp_completed[cmd] = self.stamp()
        super()._note_complete(cmd)


class SimInst:
    """The instances engine on the deterministic simulator."""

    name = "sim-inst"
    n_clients = 4
    window = 16
    probe_every = 2500  # simulator events between two timings of the host (~50 ms)
    network = NetworkConfig(latency=1.0, drop_rate=0.02)


def run_sim_rep(seed: int, sizes: Sizes, tracer: Tracer | None = None, index: int = 0) -> Rep:
    """Repetition *index* of ``sim-inst``: ``seed`` draws the commands' keys.

    The simulator's own seed -- which messages are lost -- is the
    repetition's index: the loss pattern belongs to the workload, like
    ``inst-failover``'s crash times.  With 2 % loss the cost of a
    repetition depends on where losses and the collisions they cause
    leave the round (0.98-1.76 ms of CPU per command over ten seeds, 3 %
    for one), so a run is the median over the same few histories every time.
    """
    rep = Rep()
    rng = random.Random(seed)
    # The simulator never waits, so its clock is handler work at reference
    # speed plus whatever a stretch of events slept in system calls
    # (nothing today: storage is in memory) -- see clock.py.
    clock = ProgramClock()
    ticks = 0

    def probing(condition) -> bool:
        nonlocal ticks
        ticks += 1
        if ticks % SimInst.probe_every == 0:
            clock.probe()
        return condition()

    setup_started = clock.read()
    sim = Simulation(1 + index, network=SimInst.network, max_events=10**9)
    cluster = build_smr(
        sim, 2, 3, 3, 2,
        liveness=LivenessConfig(),
        retransmit=RetransmitConfig(),
        checkpoint=CheckpointConfig(interval=64),
        sessions=SessionConfig(window=256),
    )
    replicas = [OrderedReplica(learner, KVStore()) for learner in cluster.learners]
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    recorder = None
    if tracer is not None:
        recorder = TraceRecorder(sim)
        recorder.attach_smr(cluster, replicas=replicas)

    def make_client(name: str) -> _StampedClient:
        client = _StampedClient(name, cluster, window=SimInst.window, session=name,
                                stamp=clock.read)
        client.watch_replica(replicas[0])
        return client

    def put(client, index: int) -> Command:
        return client.make_command("put", f"k{rng.randrange(N_KEYS)}", index)

    def everyone_executed(clients, total: int) -> bool:
        return all(c.all_completed() for c in clients) and all(
            len(r.executed) >= total for r in replicas
        )

    warm = make_client("w")
    warm.submit([put(warm, i) for i in range(sizes.warmup)])
    warmed = lambda: everyone_executed([warm], sizes.warmup)  # noqa: E731
    if not sim.run_until(lambda: probing(warmed), timeout=1e9):
        rep.problems.append("warm-up did not complete")
    rep.setup_s = clock.read() - setup_started

    clients = [make_client(f"c{i}") for i in range(SimInst.n_clients)]
    share = sizes.sim_cmds // SimInst.n_clients
    total = sizes.warmup + share * SimInst.n_clients
    processes = dict(sim.processes)
    before = _counters(processes, [sim.metrics])
    events0 = sim.events_processed
    mark = tracer.mark() if tracer is not None else 0
    usage0, started = clock.usage(), clock.now
    for client in clients:
        client.submit([put(client, i) for i in range(share)])
    executed = lambda: everyone_executed(clients, total)  # noqa: E731
    finished = sim.run_until(lambda: probing(executed), timeout=1e9)
    usage1 = clock.usage()
    rep.window_s = clock.now - started
    after = _counters(processes, [sim.metrics])

    issued = [(c, cmd) for c in clients for cmd in c.issued]
    done = [(c, cmd) for c, cmd in issued if cmd in c.completed]
    rep.attempted, rep.completed = len(issued), len(done)
    rep.latencies = sorted(c.stamp_completed[cmd] - c.stamp_issued[cmd] for c, cmd in done)
    _charge(rep, usage0, usage1)
    steps = sorted(c.latency(cmd) for c, cmd in done)
    delta = after - before
    cmds = max(rep.completed, 1)
    rep.extra["lat_p50_steps"] = percentile(steps, 0.50)
    rep.extra["lat_p99_steps"] = percentile(steps, 0.99)
    rep.extra["counts"] = {
        "engine.msgs_per_cmd": delta["msgs"] / cmds,
        "engine.collisions_per_kcmd": 1e3 * delta["collisions_detected"] / cmds,
        "engine.retransmits_per_kcmd": 1e3 * delta["retransmissions"] / cmds,
        "storage.writes_per_cmd": delta["writes"] / cmds,
        "sim.events_per_cmd": (sim.events_processed - events0) / cmds,
        "sim.dropped_per_cmd": delta["drops"] / cmds,
    }

    if not finished:
        rep.problems.append("simulation drained before every replica executed everything")
    if len({tuple(r.executed) for r in replicas}) != 1:
        rep.problems.append("replicas executed different sequences")
    if recorder is not None:
        rep.problems += _checker_problems(recorder, (warm, *clients))
        rep.layers = _layer_metrics(tracer, mark, delta, rep)
    return rep


SOCKET_WORKLOADS = {
    w.name: w for w in (InstOpen(), InstClosed(), GenClosed(), Shard2Cross(), InstFailover())
}
