"""Round numbers and round schedules (Sections 4.4 and 4.5).

Round numbers ("ballot numbers") are records
``⟨MCount:mCount, Id, RType⟩`` ordered lexicographically:

* ``MCount``/``mCount`` -- the major/minor components of the Count field.
  The major component changes only across acceptor recoveries (the
  disk-write reduction of Section 4.4 writes ``rnd`` to disk only when
  MCount grows); the minor component increases for ordinary new rounds.
* ``Id`` -- the identifier of the coordinator that created the round.
* ``RType`` -- the round-type number; a :class:`RoundSchedule` maps it to
  *fast*, *single-coordinated classic* or *multicoordinated classic* and to
  the round's coordinator quorums (the paper's informative ``S`` field).

``Zero`` is the smallest round; every acceptor implicitly accepts ⊥ at it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


class RoundKind(enum.Enum):
    """Execution mode of a round (Sections 2.2, 3.1 and 4.1)."""

    FAST = "fast"
    SINGLE = "single-coordinated"
    MULTI = "multicoordinated"

    @property
    def is_fast(self) -> bool:
        return self is RoundKind.FAST

    @property
    def is_classic(self) -> bool:
        return not self.is_fast


@dataclass(frozen=True, order=True)
class RoundId:
    """A round (ballot) number.

    Ordered lexicographically on ``(mcount, count, coord, rtype)`` as
    prescribed in Section 4.4 -- the field order, so the dataclass
    comparisons are the paper's (the quorum-set field ``S`` is
    informative and lives in the :class:`RoundSchedule`, not in the
    number).
    """

    mcount: int = 0
    count: int = 0
    coord: int = -1
    rtype: int = 0

    def __str__(self) -> str:
        return f"⟨{self.mcount}:{self.count},c{self.coord},t{self.rtype}⟩"


ZERO = RoundId(0, 0, -1, 0)
"""The smallest round; acceptors start with ``vrnd = ZERO`` and ``vval = ⊥``."""


@dataclass(frozen=True)
class RoundTypePolicy:
    """Maps RType numbers to :class:`RoundKind` (Section 4.5 scenarios).

    The default policy maps 0 → fast, 1 → single-coordinated,
    2 → multicoordinated.  "Clustered" deployments can map a whole range of
    RTypes to fast so that fast rounds follow fast rounds during
    uncoordinated recovery; "conflict-prone" deployments map everything to
    single-coordinated.
    """

    fast_rtypes: frozenset[int] = frozenset({0})
    multi_rtypes: frozenset[int] = frozenset({2})

    def kind(self, rtype: int) -> RoundKind:
        if rtype in self.fast_rtypes:
            return RoundKind.FAST
        if rtype in self.multi_rtypes:
            return RoundKind.MULTI
        return RoundKind.SINGLE


class RoundSchedule:
    """Round semantics shared by all agents of one protocol deployment.

    Decides, for every :class:`RoundId`:

    * its :class:`RoundKind` (via the :class:`RoundTypePolicy`);
    * its coordinator quorums (the ``S`` field of Section 4.4):

      - single-coordinated rounds: the creating coordinator alone,
      - multicoordinated rounds: every majority of the coordinator set,
      - fast rounds: every single coordinator is a quorum by itself
        (Assumption 3 places no constraint on fast rounds);

    * the successor round used by collision recovery
      (:meth:`next_round`), whose RType is configurable per Section 4.5
      (multicoordinated rounds should be followed by single-coordinated
      ones to guarantee progress under persistent conflicts).
    """

    def __init__(
        self,
        coordinators: Sequence[int],
        policy: RoundTypePolicy | None = None,
        recovery_rtype: int | None = None,
    ) -> None:
        if not coordinators:
            raise ValueError("a round schedule needs at least one coordinator")
        self.coordinators = tuple(sorted(coordinators))
        self.policy = policy or RoundTypePolicy()
        self.recovery_rtype = recovery_rtype
        # The coordinator set is fixed, and with it the quorums of every
        # multicoordinated and every fast round: handlers ask per message.
        self._multi_quorums = majorities(self.coordinators)
        self._fast_quorums = tuple(frozenset({c}) for c in self.coordinators)

    # -- round classification ---------------------------------------------

    def kind(self, rnd: RoundId) -> RoundKind:
        if rnd == ZERO:
            # Zero is the implicit initial round at which every acceptor has
            # accepted ⊥; no coordinator acts in it and it is never fast.
            return RoundKind.SINGLE
        return self.policy.kind(rnd.rtype)

    def is_fast(self, rnd: RoundId) -> bool:
        return self.kind(rnd).is_fast

    # -- coordinator quorums (Assumption 3) --------------------------------

    def coord_quorums(self, rnd: RoundId) -> tuple[frozenset[int], ...]:
        """All coordinator quorums of *rnd*."""
        if rnd == ZERO:
            return ()
        kind = self.kind(rnd)
        if kind is RoundKind.SINGLE:
            if rnd.coord not in self.coordinators:
                raise ValueError(f"round {rnd} created by unknown coordinator")
            return (frozenset({rnd.coord}),)
        if kind is RoundKind.FAST:
            return self._fast_quorums
        return self._multi_quorums

    def coordinators_of(self, rnd: RoundId) -> frozenset[int]:
        """Union of the coordinator quorums of *rnd*."""
        members: set[int] = set()
        for quorum in self.coord_quorums(rnd):
            members |= quorum
        return frozenset(members)

    def is_coordinator_of(self, coord: int, rnd: RoundId) -> bool:
        return coord in self.coordinators_of(rnd)

    def is_coord_quorum(self, rnd: RoundId, members: frozenset[int]) -> bool:
        """Whether *members* contains a coordinator quorum of *rnd*."""
        return any(quorum <= members for quorum in self.coord_quorums(rnd))

    # -- round construction --------------------------------------------------

    def make_round(self, coord: int, count: int, rtype: int, mcount: int = 0) -> RoundId:
        """Create a round number owned by *coord*."""
        if count < 1:
            raise ValueError("user rounds must have count >= 1 (0 is reserved for Zero)")
        return RoundId(mcount=mcount, count=count, coord=coord, rtype=rtype)

    def next_round(self, rnd: RoundId, rtype: int | None = None) -> RoundId:
        """``NextRound(i)``: the successor used for collision recovery.

        Keeps the creating coordinator and increments the minor count.  The
        RType defaults to the schedule's ``recovery_rtype`` (when set) so
        deployments can force e.g. multicoordinated → single-coordinated
        successors.
        """
        if rtype is None:
            rtype = self.recovery_rtype if self.recovery_rtype is not None else rnd.rtype
        return RoundId(
            mcount=rnd.mcount,
            count=rnd.count + 1,
            coord=rnd.coord,
            rtype=rtype,
        )


def majorities(members: Sequence[int]) -> tuple[frozenset[int], ...]:
    """All minimal majorities of *members* (any two intersect: Assumption 3)."""
    members = tuple(sorted(members))
    size = len(members) // 2 + 1
    return tuple(frozenset(combo) for combo in combinations(members, size))
