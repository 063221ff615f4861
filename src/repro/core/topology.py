"""Deployment topology: naming and addressing of protocol agents.

A :class:`Topology` fixes the process identifiers of the four agent roles
(Section 2.1: proposers, coordinators, acceptors, learners) within one
simulation.  Coordinator *indices* (integers, used inside round numbers and
coordinator quorums) map to process ids here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable


@dataclass(frozen=True)
class Topology:
    """Process ids per role."""

    proposers: tuple[str, ...]
    coordinators: tuple[str, ...]
    acceptors: tuple[str, ...]
    learners: tuple[str, ...]
    _coord_index: dict[Hashable, int] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        index = {pid: i for i, pid in enumerate(self.coordinators)}
        object.__setattr__(self, "_coord_index", index)

    @classmethod
    def build(
        cls,
        n_proposers: int,
        n_coordinators: int,
        n_acceptors: int,
        n_learners: int,
    ) -> "Topology":
        return cls(
            proposers=tuple(f"prop{i}" for i in range(n_proposers)),
            coordinators=tuple(f"coord{i}" for i in range(n_coordinators)),
            acceptors=tuple(f"acc{i}" for i in range(n_acceptors)),
            learners=tuple(f"learn{i}" for i in range(n_learners)),
        )

    @property
    def coordinator_indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.coordinators)))

    def coordinator_pid(self, index: int) -> str:
        return self.coordinators[index]

    def coordinator_pids(self, indices: Iterable[int]) -> list[str]:
        return [self.coordinators[i] for i in sorted(indices)]

    def coordinator_index(self, pid: Hashable) -> int | None:
        """The index of coordinator *pid*; None for any other process."""
        return self._coord_index.get(pid)
