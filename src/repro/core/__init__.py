"""The paper's contribution: Multicoordinated Paxos.

* :mod:`repro.core.rounds` -- round numbers ⟨MCount:mCount, Id, RType, S⟩
  and round schedules (Sections 4.4-4.5);
* :mod:`repro.core.quorums` -- acceptor and coordinator quorum systems
  satisfying Assumptions 1-3;
* :mod:`repro.core.messages` -- the protocol message vocabulary;
* :mod:`repro.core.provedsafe` -- value-picking rules: the Fast Paxos rule
  for consensus and Definition 1's ``ProvedSafe`` for c-structs;
* :mod:`repro.core.multicoordinated` -- Multicoordinated Paxos for
  consensus (Section 3.1);
* :mod:`repro.core.generalized` -- Multicoordinated Generalized Paxos
  (Section 3.2) with collision recovery (Section 4.2) and the disk-write
  reduction (Section 4.4);
* :mod:`repro.core.broadcast` -- the Generic Broadcast service facade
  (Section 3.3);
* :mod:`repro.core.abstract` -- the executable Abstract Multicoordinated
  Paxos specification (Appendix A.2) used as a safety oracle;
* :mod:`repro.core.invariants` -- run-level safety checkers.
"""

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig, StableFrontier
from repro.core.messages import (
    ANY,
    CatchUp,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Propose,
    ProposeBatch,
)
from repro.core.quorums import CoordinatorQuorums, QuorumSystem
from repro.core.rounds import ZERO, RoundId, RoundSchedule

__all__ = [
    "ANY",
    "CatchUp",
    "CheckpointConfig",
    "CoordinatorQuorums",
    "Nack",
    "Phase1a",
    "Phase1b",
    "Phase2a",
    "Phase2b",
    "Propose",
    "ProposeBatch",
    "QuorumSystem",
    "RetransmitConfig",
    "RoundId",
    "RoundSchedule",
    "StableFrontier",
    "ZERO",
]
