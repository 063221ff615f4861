#!/usr/bin/env python3
"""The performance ledger: run the workloads, print every metric, check outputs.

Two ways in:

``run.py --seed N``
    The full set.  Every workload, one after the other, each in a fresh
    child interpreter: an untraced run (the end-to-end metrics) and a
    traced run (the per-layer metrics and the trace checker).  Prints
    every metric by name with its unit, writes a results JSON with a
    machine fingerprint, and exits non-zero on a checker violation, a
    runtime error, an order disagreement, or a ``failed_frac`` above the
    committed baseline's.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what the benchmark driver
    and the full set's children call).  The last line of standard output
    is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The repository's ``src`` is put on ``sys.path`` here, so neither form needs
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parents[1] / "src")]

import ledger  # noqa: E402

_DETAIL = "detail: "


# ---------------------------------------------------------------------------
# one run of one workload, in this process
# ---------------------------------------------------------------------------


def _run_on_program_loop(coro):
    """``asyncio.run`` on a fresh :class:`~clock.ProgramLoop` (works on 3.10 too)."""
    from clock import ProgramLoop

    loop = ProgramLoop()
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(coro)
    finally:
        # What asyncio.run does on the way out: the transports' serving
        # tasks outlive dep.stop() and must not meet a closed loop.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        asyncio.set_event_loop(None)
        loop.close()


def _run_reps(name: str, seeds: list[int], sizes, traced: bool, spans_path: str | None = None):
    """Fresh-deployment repetitions, strictly one after the other."""
    import workloads
    from tracing import Tracer

    reps = []
    for index, seed in enumerate(seeds):
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            if name == workloads.SimInst.name:
                rep = workloads.run_sim_rep(seed, sizes, tracer, index)
            else:
                rep = _run_on_program_loop(workloads.run_socket_rep(
                    workloads.SOCKET_WORKLOADS[name], seed, sizes, tracer
                ))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and spans_path:
            tracer.dump(spans_path)  # only now: nothing is written while a repetition runs
        reps.append(rep)
    return reps


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            reference: bool = True, spans_path: str | None = None) -> dict:
    """Run *name* once (its repetitions) and return the full record.

    Untraced: ``sizes.reps`` repetitions with nothing installed.  Traced:
    one untraced *reference* repetition and one traced repetition of the
    same seed; the end-to-end values then come from the reference (the
    smoke test passes ``reference=False`` and takes them from the traced
    repetition itself, halving its run time).
    """
    import workloads  # the import cost is part of set-up
    from clock import HostSpeed

    # CPU since the interpreter started, at reference speed like every other time.
    import_s = time.process_time() * HostSpeed().factor
    sizes = sizes or workloads.Sizes.for_seconds(seconds)
    is_sim = name == workloads.SimInst.name
    values: dict[str, list[float]] = {}

    def put(metric: str, *samples: float) -> None:
        values[metric] = list(samples)

    if trace:
        plain = _run_reps(name, [seed], sizes, traced=False) if reference else []
        traced = _run_reps(name, [seed], sizes, traced=True, spans_path=spans_path)
        reps = plain + traced
        plain = plain or traced
        layers = dict(traced[0].layers)
        layers.update((k, v) for k, v in traced[0].extra.items() if k != "counts")
        base_cost = plain[0].cpu_s / max(plain[0].completed, 1)
        traced_cost = traced[0].cpu_s / max(traced[0].completed, 1)
        layers["trace.overhead_frac"] = traced_cost / base_cost - 1 if base_cost else 0.0
        for metric in ledger.PER_LAYER:
            put(metric.name, float(layers.get(metric.name, 0.0)))
    else:
        seeds = [seed + r for r in range(sizes.sim_reps if is_sim else sizes.reps)]
        reps = plain = _run_reps(name, seeds, sizes, False)
        for diagnostic in ledger.HOST_DIAGNOSTICS:  # how the host behaved, beside the values
            put(diagnostic, *(rep.extra[diagnostic] for rep in plain))

    good = [rep for rep in plain if rep.completed and rep.window_s]
    put("throughput_cmds_s", *(rep.completed / rep.window_s for rep in good))
    put("cpu_ms_per_cmd", *(1e3 * rep.cpu_s / rep.completed for rep in good))
    put("setup_s", *(import_s + rep.setup_s for rep in plain))
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    put("failed_frac", failed / max(attempted, 1))
    put("unavail_ms", *(rep.extra["unavail_ms"] for rep in plain if "unavail_ms" in rep.extra))
    for steps in ("lat_p50_steps", "lat_p99_steps"):
        if steps in plain[0].extra:
            put(steps, plain[0].extra[steps])  # exact under the seed: the first repetition's

    specs = {m.name: m for m in (*ledger.END_TO_END, *ledger.LEDGER_ONLY, *ledger.PER_LAYER)}
    metrics = {
        metric: {"value": statistics.median(samples), "unit": specs[metric].unit,
                 **ledger.summarize(samples)}
        for metric, samples in values.items() if samples
    }
    # Percentiles over the pooled samples of the run's repetitions, so that
    # p99 keeps ten samples beyond it; the per-repetition values stay beside.
    pooled = sorted(x for rep in plain for x in rep.latencies)
    for metric, q in (("lat_p50_ms", 0.50), ("lat_p99_ms", 0.99)):
        per_rep = [1e3 * ledger.percentile(rep.latencies, q) for rep in plain if rep.latencies]
        if per_rep:
            metrics[metric] = {"value": 1e3 * ledger.percentile(pooled, q), "unit": "ms",
                               **ledger.summarize(per_rep), "n": len(pooled)}
    problems = [p for rep in reps for p in rep.problems]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repetitions": len(plain),
        "sim_counts": plain[0].extra.get("counts", {}),
        "metrics": metrics,
    }


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=args.spans)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"injected message delay {ledger.INJECTED_DELAY_S} s (zero: latency is "
          f"processor time plus event-loop queueing)")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']:9s} "
              f"n={entry['n']} min={entry['min']:.4f} max={entry['max']:.4f}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    if args.detail:
        print(_DETAIL + json.dumps(record))
    metrics = {}
    for metric in ledger.driver_per_layer() if args.trace else ledger.END_TO_END:
        entry = record["metrics"].get(metric.name)
        value = entry["value"] if entry else 0.0
        metrics[metric.name] = {"value": value if math.isfinite(value) else 0.0, "unit": metric.unit}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# the full set: every workload, untraced then traced, one child at a time
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(_HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--detail"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    for line in done.stdout.splitlines():
        if line.startswith(_DETAIL):
            return json.loads(line[len(_DETAIL):])
    raise RuntimeError(f"{workload} (trace {trace}) produced no result:\n{done.stdout}\n{done.stderr}")


def run_set(args) -> int:
    import workloads

    sizes = workloads.Sizes.for_seconds(args.seconds)
    results = {
        "fingerprint": ledger.fingerprint(args.seed, {"seconds": args.seconds, **vars(sizes)}),
        "claim": None,
        "workloads": {},
    }
    print(f"performance ledger  seed {args.seed}  {args.seconds} s per run  "
          f"injected message delay {ledger.INJECTED_DELAY_S} s (zero)")
    for name in ledger.WORKLOADS:
        untraced = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        results["workloads"][name] = {"untraced": untraced, "traced": traced}
        print(f"\n== {name}: {ledger.WORKLOADS[name]}")
        for metric in (*ledger.END_TO_END, *ledger.LEDGER_ONLY):
            entry = untraced["metrics"].get(metric.name)
            if entry is not None and metric.applies(name):
                reps = " ".join(f"{v:.4g}" for v in entry["values"])
                print(f"  {metric.name:22s} {entry['value']:12.4f} {metric.unit:9s} "
                      f"n={entry['n']}  [{reps}]")
        for metric in ledger.PER_LAYER:
            entry = traced["metrics"].get(metric.name)
            if entry is not None:
                print(f"    {metric.name:34s} {entry['value']:12.4f} {metric.unit}")
        for problem in (*untraced["problems"], *traced["problems"]):
            print(f"  PROBLEM: {problem}")

    out = _HERE / "results" / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults written to {out}")

    status = 0
    baseline_path = _HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text())["workloads"] if baseline_path.exists() else {}
    for name, runs in results["workloads"].items():
        for kind, record in runs.items():
            if record["problems"]:
                print(f"FAIL {name} ({kind}): {record['problems'][0]}")
                status = 1
            allowed = (
                baseline.get(name, {}).get(kind, {}).get("metrics", {})
                .get("failed_frac", {}).get("value", 0.0)
            )
            if record["metrics"]["failed_frac"]["value"] > allowed:
                print(f"FAIL {name} ({kind}): failed_frac "
                      f"{record['metrics']['failed_frac']['value']:.4f} exceeds the baseline's {allowed}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(ledger.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="what one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true", help="also print the full record")
    parser.add_argument("--spans", help="with --trace 1: write the traced repetition's spans "
                        "here as JSON lines, after it ends")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_set(args)


if __name__ == "__main__":
    sys.exit(main())
