"""The ledger's vocabulary: workloads, metrics, bounds, and small statistics.

``BENCHMARK.json`` at the repository root is the machine-readable copy of
the tables below (``test_ledger_smoke.py`` keeps the two identical).  Six
end-to-end metrics are defined on every workload and are the ones the
benchmark driver gates on; four more are defined on one workload each
(or are exact counts) and are gated by ``compare.py`` only.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Injected one-way message delay on the socket workloads, in seconds.
#: Zero: latency is processor time plus event-loop queueing, not network.
INJECTED_DELAY_S = 0.0

WORKLOADS: dict[str, str] = {
    "inst-open": (
        "open-loop Poisson arrivals on the unbatched instances engine over sockets: "
        "one instance and ~38 small frames per command, so codec, transport and loop dominate"
    ),
    "inst-closed": (
        "closed-loop window-32 client on the batched, checkpointing instances engine: "
        "capacity, and the same codec/transport layers carrying few large frames"
    ),
    "gen-closed": (
        "closed-loop generalized engine with 30% conflicting commands: the only workload "
        "where CommandHistory lattice ops and history payloads on the wire do the work"
    ),
    "shard2-cross": (
        "two shard groups plus the merge group behind the router, 5% two-key commands: "
        "router, barrier splice and both engines on one address book"
    ),
    "inst-failover": (
        "open-loop load while two of three coordinators crash and recover: failure detector, "
        "single-coordinated recovery round and retransmission, timer-dominated"
    ),
    "sim-inst": (
        "deterministic simulator with 2% message loss, no codec, sockets or asyncio: handlers, "
        "scheduler, storage; the one place collisions and retransmissions happen, counts exact"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the base median it may worsen by
    only: tuple[str, ...] = ()  # workloads it is defined on (empty: all)
    exact: bool = False  # a count that must repeat exactly under a seed

    def applies(self, workload: str) -> bool:
        return not self.only or workload in self.only


#: Gated by the benchmark driver: defined, non-zero and steady on every workload.
END_TO_END: tuple[Metric, ...] = (
    Metric("throughput_cmds_s", "cmds/s", "higher", 0.20),
    Metric("lat_p50_ms", "ms", "lower", 0.20),
    Metric("lat_p99_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_cmd", "ms", "lower", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

#: End-to-end too, but defined on one workload (or always 0 on a healthy
#: run), so the driver's "every metric on every workload, never 0" rule
#: cannot carry them.  compare.py gates them; the driver sees them as
#: unbounded per-layer values.
LEDGER_ONLY: tuple[Metric, ...] = (
    Metric("unavail_ms", "ms", "lower", 0.10, only=("inst-failover",)),
    Metric("failed_frac", "fraction", "lower", 0.0, exact=True),
    Metric("lat_p50_steps", "steps", "lower", 0.0, only=("sim-inst",), exact=True),
    Metric("lat_p99_steps", "steps", "lower", 0.0, only=("sim-inst",), exact=True),
)


def _layer(names: str, unit: str, better: str = "lower") -> tuple[Metric, ...]:
    return tuple(Metric(name, unit, better) for name in names.split())


PER_LAYER: tuple[Metric, ...] = (
    # net/codec.py
    *_layer("codec.encode_us_per_cmd codec.decode_us_per_cmd", "us"),
    *_layer("codec.encode_us_per_frame codec.decode_us_per_frame", "us"),
    *_layer("codec.frames_per_cmd", "frames"),
    *_layer("codec.bytes_per_cmd", "B"),
    # net/transport.py and the event loop around it
    *_layer("transport.send_self_us_per_cmd loop.residual_us_per_cmd", "us"),
    *_layer("transport.udp_frames_per_cmd transport.tcp_frames_per_cmd", "frames"),
    *_layer("transport.drops_per_cmd transport.tcp_reconnects", "count"),
    # smr/instances.py, core/generalized.py via core/runtime.py dispatch
    *_layer(
        "engine.proposer_us_per_cmd engine.coordinator_us_per_cmd "
        "engine.acceptor_us_per_cmd engine.learner_us_per_cmd",
        "us",
    ),
    *_layer("engine.handler_calls_per_cmd engine.msgs_per_cmd", "count"),
    *_layer("engine.cmds_per_instance", "cmds", "higher"),
    *_layer(
        "engine.collisions_per_kcmd engine.retransmits_per_kcmd "
        "engine.reannounced_2a_per_kcmd engine.catchup_requests_per_kcmd",
        "count",
    ),
    # cstruct/history.py
    *_layer(
        "cstruct.leq_us_per_cmd cstruct.lub_us_per_cmd "
        "cstruct.glb_us_per_cmd cstruct.extend_us_per_cmd",
        "us",
    ),
    *_layer("cstruct.ops_per_cmd", "count"),
    # sim/storage.py
    *_layer("storage.writes_per_cmd", "count"),
    *_layer("storage.us_per_cmd", "us"),
    # core/checkpoint.py, core/sessions.py
    *_layer("checkpoint.snapshots_per_kcmd checkpoint.installs checkpoint.chunks_sent", "count"),
    # core/liveness.py
    *_layer("liveness.detect_ms", "ms"),
    *_layer("liveness.round_changes", "count"),
    *_layer("liveness.heartbeats_per_s", "1/s"),
    # shard/router.py, shard/replica.py
    *_layer("shard.route_us_per_cmd", "us"),
    *_layer("shard.barriers_per_cmd", "count"),
    *_layer("shard.cross_lat_p50_ms shard.single_lat_p50_ms", "ms"),
    # sim/scheduler.py, sim/events.py, sim/network.py
    *_layer("sim.events_per_cmd sim.dropped_per_cmd", "count"),
    *_layer("sim.step_self_us_per_event", "us"),
    # the harness itself
    *_layer("client.sched_lag_p99_ms", "ms"),
    *_layer("trace.overhead_frac", "fraction"),
    *_layer("trace.accounted_frac", "fraction", "higher"),
    # the host (clock.py): the cost as the host charged it, and how it behaved
    *_layer("host.cpu_ms_per_cmd", "ms"),
    *_layer("clock.speed_factor", "ratio", "higher"),
    *_layer("clock.stolen_frac", "fraction"),
)

#: Recorded per repetition in untraced runs too, so that a results file
#: shows a disturbed host beside the values it disturbed.
HOST_DIAGNOSTICS = ("host.cpu_ms_per_cmd", "clock.speed_factor", "clock.stolen_frac")

#: A run whose host was further from the baseline's than this is not
#: evidence either way: compare.py calls its timed rows unresolved.  Sizing
#: saw factors of 0.85-1.05 and stolen shares up to 0.12 on a quiet host,
#: 0.52-0.65 and 0.3-0.5 in a disturbed quarter of an hour -- and there
#: ``inst-failover``'s tail read 12-20 % high *on* the reference clock.
DISTURBED_BELOW_SPEED = 0.75
DISTURBED_ABOVE_STOLEN = 0.25

#: Per-layer counters of events a healthy loopback run does not have;
#: every other per-layer metric is non-zero on some workload of the baseline.
ZERO_WHEN_HEALTHY = frozenset({
    "transport.drops_per_cmd", "transport.tcp_reconnects",
    "checkpoint.installs", "checkpoint.chunks_sent",
})

#: ``sim-inst`` counts that must be identical in every run (roadmap item
#: 2's "same seed, same trace" oracle, as numbers): the simulator's seed is
#: the repetition's index, and ``--seed`` only draws the keys.
SIM_EXACT = (
    "lat_p50_steps",
    "lat_p99_steps",
    "engine.msgs_per_cmd",
    "engine.collisions_per_kcmd",
    "engine.retransmits_per_kcmd",
    "storage.writes_per_cmd",
    "sim.events_per_cmd",
    "sim.dropped_per_cmd",
)


def driver_per_layer() -> tuple[Metric, ...]:
    """What ``--trace 1`` prints: the layers plus the ledger-only end-to-end rows."""
    return (*LEDGER_ONLY, *PER_LAYER)


def disturbed(metrics: dict) -> bool:
    """Whether the host was too far from the baseline's during a run (its record's metrics)."""
    speed = metrics.get("clock.speed_factor", {}).get("value", 1.0)
    stolen = metrics.get("clock.stolen_frac", {}).get("value", 0.0)
    return speed < DISTURBED_BELOW_SPEED or stolen > DISTURBED_ABOVE_STOLEN


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not ordered:
        return math.nan
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(values: list[float]) -> dict:
    """Median beside the repetition values it came from."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int, sizes: dict) -> dict:
    """Where and how a results file was produced."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = math.nan
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg_1m_at_start": load,
        "git_commit": _git_commit(),
        "seed": seed,
        "sizes": sizes,
        "injected_delay_s": INJECTED_DELAY_S,
    }
