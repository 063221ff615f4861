#!/usr/bin/env python3
"""Diff two ledger results files, row by row (workload x end-to-end metric).

    python benchmarks/ledger/compare.py BASE.json NEW.json

Bounds come from ``BENCHMARK.json`` (the driver-gated metrics) and from
``ledger.LEDGER_ONLY`` (the workload-specific and exact ones).  Every row
prints base, new, the ratio with its base, and a verdict:

``better`` / ``worse``
    the median moved past the bound *and* past the run-to-run spread -- the
    spread of the ratios new / base repetition by repetition, since
    repetition *r* runs the same shape (on ``sim-inst`` the same history,
    each with a cost of its own) in both files;
``same``
    it did not, and the spread is inside the bound;
``unresolved``
    the spread between repetitions is wider than the bound, so the row
    cannot be called unchanged -- or it is a time and the host was
    disturbed during either run (``ledger.disturbed``: the clock diagnostics
    recorded beside the values), so the row is no evidence either way.

Exact metrics (``failed_frac``, ``lat_*_steps``, every ``sim-inst`` count)
must be identical: any move in the bad direction is ``worse``.  A workload
of the base file that the new file lacks is ``worse`` too.  Exit status 1
on any ``worse`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

import ledger  # noqa: E402


def load_bounds(benchmark_path: Path | None = None) -> dict[str, ledger.Metric]:
    """name -> metric spec, the gated bounds read from ``BENCHMARK.json``."""
    path = benchmark_path or ledger.REPO_ROOT / "BENCHMARK.json"
    specs = {metric.name: metric for metric in ledger.LEDGER_ONLY}
    for row in json.loads(path.read_text())["end_to_end"]:
        specs[row["name"]] = ledger.Metric(row["name"], row["unit"], row["better"], row["bound"])
    return specs


_TIMES = ("ms", "s", "cmds/s")


def _noise(olds: list[float], curs: list[float]) -> float:
    """Run-to-run spread of a row, from the repetition values of both files."""
    if len(olds) == len(curs) and all(olds):
        return ledger.spread([cur / old for old, cur in zip(olds, curs)])
    return max(ledger.spread(olds), ledger.spread(curs))  # other sizes: nothing pairs up


def verdict(spec: ledger.Metric, base: dict, new: dict, disturbed: bool = False) -> str:
    """The verdict for one row (see the module docstring)."""
    old, cur = base["value"], new["value"]
    if spec.exact:
        if old == cur:
            return "same"
        return "worse" if (cur > old) == (spec.better == "lower") else "better"
    if disturbed and spec.unit in _TIMES:
        return "unresolved"
    if old == 0:
        return "same" if cur == 0 else "unresolved"
    change = cur / old - 1.0 if spec.better == "lower" else 1.0 - cur / old  # positive: worse
    noise = _noise(base["values"], new["values"])
    if change > max(spec.bound, noise):
        return "worse"
    if noise > spec.bound:
        return "unresolved"
    if change < -spec.bound:
        return "better"
    return "same"


def compare(base: dict, new: dict, specs: dict[str, ledger.Metric]) -> list[tuple]:
    """Rows ``(workload, metric, base, new, ratio, verdict)``, base file's workloads first."""
    rows = []
    nan = float("nan")
    for workload, before in base["workloads"].items():
        runs = new["workloads"].get(workload)
        if runs is None:
            rows.append((workload, "(workload missing)", nan, nan, nan, "worse"))
            continue
        old_metrics, new_metrics = before["untraced"]["metrics"], runs["untraced"]["metrics"]
        disturbed = ledger.disturbed(old_metrics) or ledger.disturbed(new_metrics)
        for name, spec in specs.items():
            if name in old_metrics and name in new_metrics and spec.applies(workload):
                what = verdict(spec, old_metrics[name], new_metrics[name], disturbed)
                old, cur = old_metrics[name]["value"], new_metrics[name]["value"]
                rows.append((workload, name, old, cur, cur / old if old else nan, what))
        counts = runs["untraced"].get("sim_counts") or {}
        for name, old in (before["untraced"].get("sim_counts") or {}).items():
            cur = counts.get(name, nan)
            rows.append((workload, name, old, cur, cur / old if old else nan,
                         "same" if old == cur else "worse"))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, new, load_bounds())
    print(f"{'workload':14s} {'metric':28s} {'base':>12s} {'new':>12s}  ratio (new / base)       verdict")
    for workload, name, old, cur, ratio, what in rows:
        print(f"{workload:14s} {name:28s} {old:12.4f} {cur:12.4f}  "
              f"{ratio:6.3f}x of {old:<12.4f}  {what}")
    worse = [row for row in rows if row[-1] == "worse"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
