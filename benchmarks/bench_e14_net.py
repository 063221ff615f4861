"""E14 -- wall-clock throughput and latency on the real asyncio transport.

E1-E13 run on the deterministic simulator, so their "latency" is virtual
time.  E14 deploys the identical role classes on the
:class:`~repro.net.transport.NetRuntime` backend -- one runtime per node,
every message crossing a real loopback UDP (or TCP) socket through the
versioned codec -- and reports wall-clock msgs/sec and p50/p99 command
latency under three conditions: clean UDP, 5% injected loss, and a tiny
MTU that forces every frame over the TCP fallback.

Absolute numbers are hardware-dependent; the CI guard is only the
end-to-end property: every condition completes with all learners
delivering the identical order.

``E14_QUICK=1`` (the CI job) shrinks the workload.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.bench.experiments import experiment_e14

QUICK = quick("E14")


def _sweep():
    if QUICK:
        return experiment_e14(n_commands=60)
    return experiment_e14()


def test_e14_real_transport(benchmark):
    rows = run_experiment(
        benchmark,
        _sweep,
        "E14: engines on real sockets (loopback UDP/TCP, wall clock)",
    )
    assert all(r["completed"] for r in rows)
    assert all(r["orders agree"] for r in rows)
    # The tiny-MTU condition must actually exercise the TCP fallback.
    tcp_row = next(r for r in rows if "tcp" in r["condition"])
    assert tcp_row["tcp frames"] > 0
