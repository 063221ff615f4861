#!/usr/bin/env python
"""Availability under a coordinator crash (Sections 1 and 4.1).

Streams commands through two deployments of the same generalized engine --
one using a single-coordinated round (Classic Paxos style), one using a
multicoordinated round -- and crashes coordinator 0 mid-run.  The
single-coordinated deployment stalls until the failure detector elects a
new leader and its round's phase 1 completes; the multicoordinated one
keeps learning through the surviving coordinator quorum.

Run:  python examples/availability_failover.py
"""

from repro import LivenessConfig, Simulation, build_generalized
from repro.cstruct import Command, CommandHistory
from repro.smr.machine import kv_conflict


def run(rtype: int, label: str) -> None:
    sim = Simulation(seed=5)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=3,
        liveness=LivenessConfig(),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype))

    period = 4.0
    commands = [Command(f"c{i}", "put", f"key{i}", i) for i in range(40)]
    for index, command in enumerate(commands):
        cluster.propose(command, delay=10.0 + index * period)

    crash_at = 60.0
    sim.schedule(crash_at, lambda: cluster.coordinators[0].crash())

    assert cluster.run_until_delivered(commands, timeout=5000)

    times = sorted(sim.metrics.learn_time(c) for c in commands)
    gaps = [b - a for a, b in zip(times, times[1:])]
    print(f"{label:>20}: max learning gap = {max(gaps):5.1f} "
          f"(baseline period {period}), interruption = {max(gaps) - period:5.1f}")


def main() -> None:
    print("crashing coordinator 0 at t=60 while 40 commands stream in...\n")
    run(rtype=1, label="single-coordinated")
    run(rtype=2, label="multicoordinated")
    print("\nThe multicoordinated round shows no interruption: the quorum")
    print("{coord1, coord2} keeps forwarding commands (Section 4.1).")


if __name__ == "__main__":
    main()
