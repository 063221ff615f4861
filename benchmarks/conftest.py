"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` file regenerates one of the paper's quantitative
claims (see DESIGN.md section 4 and EXPERIMENTS.md).  The experiments are
deterministic simulations, so every benchmark runs its experiment exactly
once (``pedantic(rounds=1)``) and prints the regenerated table; the
pytest-benchmark timing then reports the harness cost of the experiment.
"""

from __future__ import annotations

import json
import os

from repro.bench.tables import format_table


def quick(name: str) -> bool:
    """Quick mode for experiment *name*: ``<name>_QUICK`` set and not ``0``."""
    return os.environ.get(f"{name}_QUICK", "") not in ("", "0")


def dump_rows(path: str, section: str, rows: list[dict]) -> None:
    """Store *rows* as *section* of the JSON file *path*, keeping the rest.

    Values that are not JSON scalars are stored as their ``str``.
    """
    data: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[section] = [
        {
            key: value if isinstance(value, (int, float, bool, str)) else str(value)
            for key, value in row.items()
        }
        for row in rows
    ]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def run_experiment(benchmark, fn, title: str):
    """Execute *fn* once under the benchmark, print and return its rows."""
    rows = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(format_table(rows, title=title))
    return rows
