#!/usr/bin/env python
"""Load balancing across coordinator and acceptor quorums (Section 4.1).

In Classic Paxos every command passes through the leader.  With
multicoordinated rounds a proposer picks one coordinator quorum and one
acceptor quorum per command (piggybacking the acceptor quorum on the
propose message), so no single process handles every command: with
majorities, each coordinator sees at most 1/2 + 1/nc of the commands.

The script measures per-coordinator load end-to-end on the generalized
engine, and per-acceptor load with the per-command assignment model (fast
quorums force every acceptor above 3/4; classic-sized quorums stay near
1/2).

Run:  python examples/load_balancing.py
"""

import random

from repro import Simulation, build_generalized
from repro.bench.workload import Workload, WorkloadConfig
from repro.core.quorums import QuorumSystem
from repro.cstruct import CommandHistory
from repro.smr.machine import kv_conflict


def coordinator_loads() -> None:
    sim = Simulation(seed=3)
    cluster = build_generalized(
        sim,
        bottom=CommandHistory.bottom(kv_conflict()),
        n_coordinators=3,
        n_acceptors=5,
    )
    cluster.set_load_balancing(True)
    cluster.start_round(cluster.config.schedule.make_round(0, 1, rtype=2))
    workload = Workload.generate(WorkloadConfig(n_commands=60, seed=3))
    workload.schedule_on(cluster)
    assert cluster.run_until_delivered(workload.commands, timeout=5000)

    n = len(workload.commands)
    print("per-coordinator load (fraction of commands forwarded), measured:")
    for coordinator in cluster.coordinators:
        load = sim.metrics.commands_handled[coordinator.pid] / n
        bar = "#" * int(load * 40)
        print(f"  {coordinator.pid}: {load:5.2f} {bar}")
    bound = 0.5 + 1 / len(cluster.coordinators)
    print(f"  paper bound per coordinator: 1/2 + 1/nc = {bound:.2f}\n")


def acceptor_loads(n_commands: int = 20_000) -> None:
    rng = random.Random(42)
    n = 5
    quorums = QuorumSystem(range(n))
    print(f"per-acceptor load under random quorum selection ({n} acceptors):")
    for label, size, bound in [
        ("classic/multicoord", quorums.classic_quorum_size, 0.5 + 1 / n),
        ("fast", quorums.fast_quorum_size, 0.75),
    ]:
        counts = [0] * n
        for _ in range(n_commands):
            for acceptor in rng.sample(range(n), size):
                counts[acceptor] += 1
        worst = max(counts) / n_commands
        relation = "<=" if label.startswith("classic") else ">"
        print(f"  {label:<18} quorums (size {size}): max load {worst:.3f} "
              f"({relation} bound {bound:.2f})")


def main() -> None:
    coordinator_loads()
    acceptor_loads()
    print("\nfast rounds balance worse: every acceptor must be in most fast")
    print("quorums, processing over 3/4 of all commands (Section 4.1).")


if __name__ == "__main__":
    main()
