"""E16 -- sharded multi-group consensus under a cross-shard mix.

The ``repro.shard`` layer runs N independent engine groups (role classes
unchanged) behind a key-hashed router, with a generalized merge group
deciding the order of cross-shard commands that owning groups splice at
barriers.  Claims pinned here at 4 groups (CI guards, quick mode
``E16_QUICK=1``):

1. **Zero divergence**: every run ends with all replicas of every group
   agreeing on every key's command order -- including the cross-shard
   rows, where the order is spliced from the merge group at barriers --
   and every client completes.
2. **One barrier per cross-shard command**: the router plants exactly
   as many barriers as it routes cross-shard commands.
3. **Graceful cross-shard degradation**: at 10% cross-shard commands
   the cluster still completes with throughput above 1/4 of the
   all-disjoint (0%) row's rate: the cross path costs a merge decision
   plus a barrier stall, not a collapse.
"""

from __future__ import annotations

from benchmarks.conftest import quick, run_experiment
from repro.bench.experiments import experiment_e16_cross

QUICK = quick("E16")


def _cross_sweep():
    if QUICK:
        return experiment_e16_cross(
            fractions=(0.0, 0.10), clients_per_group=2, cmds_per_client=15
        )
    return experiment_e16_cross()


def test_e16_cross_shard_fraction(benchmark):
    rows = run_experiment(
        benchmark,
        _cross_sweep,
        "E16b: throughput vs cross-shard fraction at 4 groups",
    )
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
