"""E16 -- sharded multi-group consensus: near-linear throughput scaling.

One engine group totally orders every command through one coordinator
pipeline, so aggregate throughput is flat in cluster resources.  The
``repro.shard`` layer runs N independent groups (role classes unchanged)
behind a key-hashed router, with a generalized merge group deciding the
order of cross-shard commands that owning groups splice at barriers.
Claims pinned here (CI guards, quick mode ``E16_QUICK=1``):

1. **Near-linear scaling**: on a disjoint-key workload with constant
   per-group load, aggregate throughput at 4 groups is >= 3x the
   1-group baseline (>= 1.8x in quick mode's smaller workload).
2. **Zero divergence**: every run ends with all replicas of every group
   agreeing on every key's command order -- including the cross-shard
   rows, where the order is spliced from the merge group at barriers.
3. **Graceful cross-shard degradation**: at 10% cross-shard commands
   the cluster still completes with throughput above 1/4 of the
   all-disjoint rate (the cross path costs a merge decision plus a
   barrier stall, not a collapse).

Every test dumps its rows into ``BENCH_e16.json`` (cwd) for offline
before/after comparison.
"""

from __future__ import annotations

from benchmarks.conftest import dump_rows, quick, run_experiment
from repro.bench.experiments import experiment_e16, experiment_e16_cross

QUICK = quick("E16")

BENCH_JSON = "BENCH_e16.json"

#: Scaling floor at 4 groups: the full workload sits well above 3x; the
#: quick workload is small enough that fixed costs bite, so CI guards a
#: looser but still super-batching floor.
MIN_SPEEDUP = 1.8 if QUICK else 3.0


def _scaling_sweep():
    if QUICK:
        return experiment_e16(
            groups_grid=(1, 2, 4), clients_per_group=2, cmds_per_client=15
        )
    return experiment_e16()


def _cross_sweep():
    if QUICK:
        return experiment_e16_cross(
            fractions=(0.0, 0.10), clients_per_group=2, cmds_per_client=15
        )
    return experiment_e16_cross()


def test_e16_throughput_scaling(benchmark):
    rows = run_experiment(
        benchmark,
        _scaling_sweep,
        "E16a: aggregate throughput vs group count (disjoint keys)",
    )
    dump_rows(BENCH_JSON, "scaling", rows)
    assert all(r["completed"] for r in rows)
    assert all(r["divergent keys"] == 0 for r in rows)

    by_groups = {r["groups"]: r for r in rows}
    assert by_groups[4]["speedup vs 1 group"] >= MIN_SPEEDUP, (
        f"4-group speedup {by_groups[4]['speedup vs 1 group']} below "
        f"{MIN_SPEEDUP}x: {rows}"
    )
    # Scaling is monotone in the group count.
    speedups = [r["speedup vs 1 group"] for r in sorted(rows, key=lambda r: r["groups"])]
    assert speedups == sorted(speedups), f"non-monotone scaling: {rows}"


def test_e16_cross_shard_fraction(benchmark):
    rows = run_experiment(
        benchmark,
        _cross_sweep,
        "E16b: throughput vs cross-shard fraction at 4 groups",
    )
    dump_rows(BENCH_JSON, "cross", rows)
    assert all(r["completed"] for r in rows)
    # The correctness invariant under mixing: per-key order agreement
    # across all replicas of all groups, including barrier splices.
    assert all(r["divergent keys"] == 0 for r in rows)

    baseline = next(r for r in rows if r["cross"] == 0)
    mixed = [r for r in rows if r["cross"] > 0]
    assert all(r["barriers"] == r["cross"] for r in mixed)
    # Graceful degradation, not collapse: even at the 10% mix the
    # aggregate rate stays above a quarter of the disjoint-key rate.
    for row in mixed:
        assert row["throughput / ktime"] >= baseline["throughput / ktime"] / 4, (
            f"cross fraction {row['cross %']}% collapsed throughput: {row}"
        )
