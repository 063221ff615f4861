"""E2 -- quorum-size requirements (Section 2.2, abstract).

Paper claims: Assumptions 1-2 require n > 2F and n > 2E + F.  With
majority classic quorums, fast quorums need ⌈3n/4⌉ acceptors (the TR
prints the conservative ⌈(3n+1)/4⌉); quorums that are both fast and
classic need ⌈(2n+1)/3⌉.  Multicoordinated rounds keep *classic* quorums:
tolerating any minority of failures requires only a majority to
synchronize, versus over 3/4 for fast rounds.
"""

from __future__ import annotations

import math

from benchmarks.conftest import run_experiment
from repro.core.quorums import QuorumSystem, paper_quorum_sizes


def experiment_e2(n_range: range = range(3, 14)) -> list[dict]:
    """Quorum sizes for n acceptors under n > 2E + F."""
    rows: list[dict] = []
    for n in n_range:
        sizes = paper_quorum_sizes(n)
        system = QuorumSystem(range(n))
        system.check_assumptions(exhaustive=n <= 7)
        rows.append(
            {
                "n": n,
                "F (classic failures)": sizes["F"],
                "E (fast failures)": sizes["E"],
                "classic/multicoord quorum": sizes["classic_quorum"],
                "fast quorum": sizes["fast_quorum"],
                "ceil(3n/4)": math.ceil(3 * n / 4),
                "balanced ceil((2n+1)/3)": sizes["balanced_quorum"],
            }
        )
    return rows


def test_e2_quorum_sizes(benchmark):
    rows = run_experiment(benchmark, experiment_e2, "E2: quorum sizes vs n")
    for row in rows:
        n = row["n"]
        # Classic/multicoordinated quorums are bare majorities.
        assert row["classic/multicoord quorum"] == n // 2 + 1
        # Fast quorums match the tight ceil(3n/4) bound.
        assert row["fast quorum"] == row["ceil(3n/4)"] == math.ceil(3 * n / 4)
        # n > 2E + F holds.
        assert n > 2 * row["E (fast failures)"] + row["F (classic failures)"]
        # Fast rounds tolerate fewer failures than classic rounds (n >= 4).
        if n >= 4:
            assert row["E (fast failures)"] < row["F (classic failures)"] or n < 5
