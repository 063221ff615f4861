"""Multicoordinated Paxos: a faithful Python reproduction.

Reproduces *Multicoordinated Paxos* (Camargos, Schmidt & Pedone, University
of Lugano TR 2007/02 / PODC 2007), including the whole algorithm hierarchy
it builds on: Classic Paxos, Fast Paxos, Generalized Paxos, the c-struct
framework of Generalized Consensus, and a Generic Broadcast service with
replicated state machines -- all running on a deterministic discrete-event
simulator with crash-recovery, message loss and write-counted stable
storage.

Quickstart::

    from repro import Simulation, build_consensus
    from repro.cstruct import Command

    sim = Simulation(seed=1)
    cluster = build_consensus(sim, n_coordinators=3, n_acceptors=3)
    rnd = cluster.config.schedule.make_round(coord=0, count=1, rtype=2)
    cluster.start_round(rnd)                 # a multicoordinated round
    cluster.propose(Command("1", "put", "x", 1), delay=5.0)
    cluster.run_until_decided()
    print(cluster.decision())

See README.md for the system inventory and benchmarks/README.md for the
paper claim each experiment regenerates.
"""

from repro.core.broadcast import GenericBroadcast
from repro.core.generalized import GeneralizedCluster, build_generalized
from repro.core.liveness import LivenessConfig
from repro.core.multicoordinated import ConsensusCluster, build_consensus
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId, RoundKind, RoundSchedule, RoundTypePolicy
from repro.cstruct import (
    AlwaysConflict,
    Command,
    CommandHistory,
    CommandSequence,
    CommandSet,
    KeyConflict,
    NeverConflict,
    ValueStruct,
)
from repro.protocols import build_classic_paxos, build_fast_paxos, build_generalized_paxos
from repro.sim import NetworkConfig, Simulation

__version__ = "1.0.0"

__all__ = [
    "ZERO",
    "AlwaysConflict",
    "Command",
    "CommandHistory",
    "CommandSequence",
    "CommandSet",
    "ConsensusCluster",
    "GeneralizedCluster",
    "GenericBroadcast",
    "KeyConflict",
    "LivenessConfig",
    "NetworkConfig",
    "NeverConflict",
    "QuorumSystem",
    "RoundId",
    "RoundKind",
    "RoundSchedule",
    "RoundTypePolicy",
    "Simulation",
    "ValueStruct",
    "build_classic_paxos",
    "build_consensus",
    "build_fast_paxos",
    "build_generalized",
    "build_generalized_paxos",
]
