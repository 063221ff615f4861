"""E10 -- liveness under message loss (the paper's fair-lossy link model).

The paper's protocols assume fair-lossy links *plus retransmission*
(Section 2.1.1): every message is re-sent until acknowledged.  Without
it, an ``IPropose`` dropped on every link would strand its command
forever and a learner missing an ``I2b`` quorum for instance *k* would
stall every instance above *k*; so the engines always retransmit.

This benchmark regenerates the claim for the reliability layer: on a
48-command bursty workload with ``drop_rate`` up to 0.5, the engine with
proposer retransmission + coordinator gossip + learner catch-up delivers
100% of commands with all replicas applying the same total order.  The
messages-per-command column quantifies the retransmission overhead
against the loss-free baseline.
"""

from __future__ import annotations

from benchmarks.conftest import run_experiment
from repro.bench.experiments import experiment_e10


def test_e10_loss_sweep(benchmark):
    rows = run_experiment(
        benchmark,
        experiment_e10,
        "E10: delivery under message loss (drop-rate sweep)",
    )
    # The reliability layer delivers everything at every drop rate, and
    # every replica applies the same total order.
    assert all(r["delivered %"] == 100.0 for r in rows)
    assert all(r["orders agree"] for r in rows)
    # Retransmission overhead stays bounded: even at drop 0.5 the
    # unbatched engine spends under 8x the loss-free baseline's messages
    # per command.
    baseline = next(
        r for r in rows if r["engine"] == "reliable" and r["drop rate"] == 0.0
    )
    for row in rows:
        if row["engine"] == "reliable":
            assert row["msgs / cmd"] <= 8 * baseline["msgs / cmd"]
    # No retransmissions are spent when nothing is lost.
    assert baseline["retransmissions"] == 0
