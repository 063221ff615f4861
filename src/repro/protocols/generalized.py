"""Generalized Paxos (Section 2.3) as a configuration of the core engine.

Generalized Paxos is Fast Paxos lifted to c-structs: single-coordinated
classic rounds plus fast rounds, no multicoordinated rounds.  Section 3.2's
algorithm strictly generalizes it, so the baseline is deployed as the core
engine restricted to a :class:`repro.core.rounds.RoundSchedule` whose RType
space contains no multicoordinated rounds.  (The paper makes the same
observation in reverse: Multicoordinated Paxos with singleton coordinator
quorums *is* the earlier algorithm.)
"""

from __future__ import annotations

from repro.core.generalized import GeneralizedCluster, build_generalized
from repro.core.liveness import LivenessConfig
from repro.core.rounds import RoundSchedule, RoundTypePolicy
from repro.cstruct.base import CStruct
from repro.sim.scheduler import Simulation


def generalized_paxos_schedule(
    n_coordinators: int, recovery_rtype: int = 1
) -> RoundSchedule:
    """A round schedule with fast (RType 0) and single-coordinated rounds only."""
    policy = RoundTypePolicy(fast_rtypes=frozenset({0}), multi_rtypes=frozenset())
    return RoundSchedule(
        range(n_coordinators), policy=policy, recovery_rtype=recovery_rtype
    )


def build_generalized_paxos(
    sim: Simulation,
    bottom: CStruct,
    n_proposers: int = 2,
    n_coordinators: int = 2,
    n_acceptors: int = 4,
    n_learners: int = 2,
    f: int | None = None,
    e: int | None = None,
    liveness: LivenessConfig = LivenessConfig(),
) -> GeneralizedCluster:
    """Deploy the Generalized Paxos baseline (no multicoordinated rounds)."""
    return build_generalized(
        sim,
        bottom=bottom,
        n_proposers=n_proposers,
        n_coordinators=n_coordinators,
        n_acceptors=n_acceptors,
        n_learners=n_learners,
        schedule=generalized_paxos_schedule(n_coordinators),
        f=f,
        e=e,
        liveness=liveness,
    )
