"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` file owns one experiment: its runner, its grid and
the assertions on the claim it regenerates (``benchmarks/README.md``
maps every file to its paper section and claim; ``README.md`` summarises
the paper).  The experiments are deterministic simulations, so every
benchmark runs its experiment exactly once (``pedantic(rounds=1)``) and
prints the regenerated table; the pytest-benchmark timing then reports
the harness cost of the experiment.  What two or more bench files share
lives here.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Sequence

from repro.core.generalized import GeneralizedCluster, build_generalized
from repro.core.liveness import LivenessConfig
from repro.cstruct.history import CommandHistory
from repro.protocols.generalized import build_generalized_paxos
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict


def quick(name: str) -> bool:
    """Quick mode for experiment *name*: ``<name>_QUICK`` set and not ``0``."""
    return os.environ.get(f"{name}_QUICK", "") not in ("", "0")


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") if value == value else "nan"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    parts = []
    if title:
        parts.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    parts.append(header)
    parts.append("-+-".join("-" * w for w in widths))
    for line in rendered:
        parts.append(" | ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(parts)


def run_experiment(benchmark, fn, title: str):
    """Execute *fn* once under the benchmark, print and return its rows."""
    rows = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(format_table(rows, title=title))
    return rows


def sample_peaks(cluster, period: float) -> tuple[dict[str, int], Callable[[], None]]:
    """Sample ``cluster.retained_state()`` every *period*, from now on.

    Returns the running peak of each kind and the sampler itself (call it
    once more for a final sample).
    """
    peaks: dict[str, int] = {}

    def sample() -> None:
        for key, value in cluster.retained_state().items():
            peaks[key] = max(peaks.get(key, 0), value)
        cluster.sim.schedule(period, sample)

    cluster.sim.schedule(period, sample)
    return peaks, sample


def fast_generalized_cluster(sim: Simulation) -> GeneralizedCluster:
    """Generalized Paxos with fast rounds: 2 coordinators, 4 acceptors."""
    return build_generalized_paxos(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=2,
        n_acceptors=4,
        liveness=LivenessConfig(),
    )


def multicoord_cluster(sim: Simulation) -> GeneralizedCluster:
    """The multicoordinated generalized engine: 3 coordinators, 3 acceptors."""
    return build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        liveness=LivenessConfig(),
    )
