"""Tier-1 smoke test of the performance ledger (toy sizes, a few seconds).

Every workload runs once at toy size through the *traced* path and must
emit every metric name ``BENCHMARK.json`` lists as a finite number, with
``failed_frac == 0`` and no checker violation; ``sim-inst`` must give
identical counts twice; ``compare.py`` must be red on a synthetic 2x
slowdown and green on identical input; the committed baseline must show
the collisions and losses ``sim-inst`` is there to measure.
"""

from __future__ import annotations

import asyncio
import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402  (puts the repository's src on sys.path)
import workloads  # noqa: E402

BENCHMARK = json.loads((ledger.REPO_ROOT / "BENCHMARK.json").read_text())
TOY = workloads.Sizes(reps=1, rep_seconds=0.3, warmup=10, drain_s=10.0, sim_cmds=100, sim_reps=1,
                      cap=100)


def test_benchmark_json_is_the_ledgers_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == ledger.WORKLOADS
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in ledger.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in ledger.driver_per_layer()
    ]
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", list(ledger.WORKLOADS))
def test_workload_emits_every_metric_at_toy_size(name):
    record = run.measure(name, seed=7, seconds=TOY.rep_seconds, trace=True, sizes=TOY,
                         reference=False)
    assert record["problems"] == []  # runtime errors, order disagreement, checker violations
    assert record["correct"] and record["failed"] == 0
    assert 0 < record["attempted"] <= 2 * TOY.cap + TOY.warmup
    assert record["metrics"]["failed_frac"]["value"] == 0
    wanted = [row["name"] for row in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    specs = {m.name: m for m in ledger.LEDGER_ONLY}
    for metric in wanted:
        if metric in specs and not specs[metric].applies(name):
            continue
        value = record["metrics"][metric]["value"]
        assert math.isfinite(value), metric
    for metric in BENCHMARK["end_to_end"]:
        assert record["metrics"][metric["name"]]["value"] > 0, metric["name"]
    if name.startswith("inst-") or name == "sim-inst":
        assert record["metrics"]["cstruct.ops_per_cmd"]["value"] == 0
    else:
        assert record["metrics"]["cstruct.ops_per_cmd"]["value"] > 0


def test_sim_inst_counts_repeat_under_a_seed():
    first = workloads.run_sim_rep(11, TOY)
    second = workloads.run_sim_rep(11, TOY)
    assert first.problems == second.problems == []
    assert first.extra["counts"] == second.extra["counts"]
    for steps in ("lat_p50_steps", "lat_p99_steps"):
        assert first.extra[steps] == second.extra[steps]
    assert set(first.extra["counts"]) | {"lat_p50_steps", "lat_p99_steps"} == set(ledger.SIM_EXACT)


def test_a_handler_that_sleeps_is_on_the_clock():
    async def handlers():
        loop = asyncio.get_running_loop()
        await asyncio.sleep(0)
        before, started = loop.clock.usage(), loop.time()
        time.sleep(0.05)  # a disk write, say: wall time the process chose to wait
        await asyncio.sleep(0)
        after = loop.clock.usage()
        return loop.time() - started, after["blocked"] - before["blocked"]

    elapsed, blocked = run._run_on_program_loop(handlers())
    assert elapsed >= 0.05 and blocked >= 0.049


def _results(scale: float) -> dict:
    def entry(value: float) -> dict:
        return {"value": value, **ledger.summarize([value * 0.99, value, value * 1.01])}

    metrics = {
        "throughput_cmds_s": entry(125.0 / scale),
        "lat_p50_ms": entry(3.0 * scale),
        "lat_p99_ms": entry(9.0 * scale),
        "cpu_ms_per_cmd": entry(2.5 * scale),
        "peak_rss_mb": entry(40.0),
        "setup_s": entry(0.4),
        "failed_frac": entry(0.0),
    }
    record = {"metrics": metrics, "sim_counts": {}}
    return {"fingerprint": {"seed": 1}, "workloads": {"inst-open": {"untraced": record}}}


def test_compare_is_green_on_identical_input_and_red_on_a_2x_slowdown(tmp_path):
    base, slow = _results(1.0), _results(2.0)
    specs = compare.load_bounds()
    assert {row[-1] for row in compare.compare(base, copy.deepcopy(base), specs)} == {"same"}
    verdicts = {row[1]: row[-1] for row in compare.compare(base, slow, specs)}
    assert verdicts["lat_p50_ms"] == verdicts["cpu_ms_per_cmd"] == "worse"
    assert verdicts["throughput_cmds_s"] == "worse"
    assert verdicts["peak_rss_mb"] == "same"
    assert {row[1]: row[-1] for row in compare.compare(slow, base, specs)}["lat_p99_ms"] == "better"

    base_path, slow_path = tmp_path / "base.json", tmp_path / "slow.json"
    base_path.write_text(json.dumps(base))
    slow_path.write_text(json.dumps(slow))
    assert compare.main([str(base_path), str(base_path)]) == 0
    assert compare.main([str(base_path), str(slow_path)]) == 1


def test_compare_does_not_judge_times_from_a_disturbed_host():
    base, slow, specs = _results(1.0), _results(2.0), compare.load_bounds()
    slow["workloads"]["inst-open"]["untraced"]["metrics"]["clock.speed_factor"] = {"value": 0.5}
    slow["workloads"]["inst-open"]["untraced"]["metrics"]["peak_rss_mb"]["value"] = 80.0
    verdicts = {row[1]: row[-1] for row in compare.compare(base, slow, specs)}
    assert verdicts["cpu_ms_per_cmd"] == verdicts["throughput_cmds_s"] == "unresolved"
    assert verdicts["peak_rss_mb"] == "worse" and verdicts["failed_frac"] == "same"


def test_compare_calls_a_missing_workload_worse_and_fewer_failures_better():
    base, specs = _results(1.0), compare.load_bounds()
    dropped = {"fingerprint": {"seed": 1}, "workloads": {}}
    assert [row[-1] for row in compare.compare(base, dropped, specs)] == ["worse"]
    failing = copy.deepcopy(base)
    failing["workloads"]["inst-open"]["untraced"]["metrics"]["failed_frac"]["value"] = 0.01
    assert {r[1]: r[-1] for r in compare.compare(base, failing, specs)}["failed_frac"] == "worse"
    assert {r[1]: r[-1] for r in compare.compare(failing, base, specs)}["failed_frac"] == "better"


def test_baseline_measures_what_the_workloads_were_chosen_for():
    baseline = json.loads((_HERE / "baseline.json").read_text())["workloads"]

    def layer(workload: str, metric: str) -> float:
        return baseline[workload]["traced"]["metrics"][metric]["value"]

    # sim-inst is the workload with message loss on: the paper's collisions
    # and the reliability layers' retransmissions are measured there.
    for metric in ("collisions_per_kcmd", "retransmits_per_kcmd"):
        assert layer("sim-inst", f"engine.{metric}") > 0, metric
    assert layer("sim-inst", "sim.dropped_per_cmd") > 0
    steps = baseline["sim-inst"]["untraced"]["metrics"]
    assert steps["lat_p50_steps"]["value"] == 3 < steps["lat_p99_steps"]["value"]
    # Every per-layer metric is non-zero somewhere, except the counters of
    # events a healthy loopback run does not have.
    never = {m.name for m in ledger.PER_LAYER if not any(layer(w, m.name) for w in baseline)}
    assert never <= ledger.ZERO_WHEN_HEALTHY, never
    assert all(w["untraced"]["metrics"]["failed_frac"]["value"] == 0 for w in baseline.values())
