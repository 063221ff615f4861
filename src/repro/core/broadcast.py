"""Generic Broadcast (Section 3.3) as a service facade.

Generic broadcast delivers commands to every learner so that conflicting
commands are delivered in the same relative order everywhere, while
commuting commands may be delivered in any order.  It is Generalized
Consensus over :class:`repro.cstruct.history.CommandHistory` c-structs,
which is exactly what :mod:`repro.core.generalized` implements; this module
packages the deployment (conflict relation in, delivery callbacks out) for
applications such as the replicated state machines in :mod:`repro.smr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.generalized import GeneralizedCluster, build_generalized
from repro.core.liveness import LivenessConfig
from repro.core.rounds import RoundId, RoundSchedule
from repro.cstruct.commands import Command, ConflictRelation
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation

DeliveryCallback = Callable[[str, Command], None]


@dataclass
class GenericBroadcast:
    """A generic-broadcast service over Multicoordinated Paxos."""

    cluster: GeneralizedCluster
    conflict: ConflictRelation

    @classmethod
    def deploy(
        cls,
        sim: Simulation,
        conflict: ConflictRelation,
        n_proposers: int = 2,
        n_coordinators: int = 3,
        n_acceptors: int = 3,
        n_learners: int = 2,
        schedule: RoundSchedule | None = None,
        liveness: LivenessConfig | None = None,
        f: int | None = None,
        e: int | None = None,
    ) -> "GenericBroadcast":
        cluster = build_generalized(
            sim,
            bottom=CommandHistory.bottom(conflict),
            n_proposers=n_proposers,
            n_coordinators=n_coordinators,
            n_acceptors=n_acceptors,
            n_learners=n_learners,
            schedule=schedule,
            liveness=liveness,
            f=f,
            e=e,
        )
        return cls(cluster=cluster, conflict=conflict)

    def start_round(self, rnd: RoundId, delay: float = 0.0) -> None:
        self.cluster.start_round(rnd, delay=delay)

    def broadcast(self, cmd: Command, delay: float = 0.0) -> None:
        """g-Broadcast *cmd* (propose it to the agreement layer)."""
        self.cluster.propose(cmd, delay=delay)

    def on_deliver(self, callback: DeliveryCallback) -> None:
        """Register ``callback(learner_pid, command)`` for g-Deliver events.

        Commands are delivered per learner in an order that linearizes the
        learned command history, so conflicting commands are delivered in
        the same order at every learner.
        """
        for learner in self.cluster.learners:
            learner.on_deliver(lambda cmd, pid=learner.pid: callback(pid, cmd))

    def delivered_histories(self) -> list[CommandHistory]:
        return [l.learned for l in self.cluster.learners]
