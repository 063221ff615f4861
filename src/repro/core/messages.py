"""Protocol messages.

The message vocabulary of Sections 2 and 3: ``⟨propose⟩``, ``⟨1a⟩``,
``⟨1b⟩``, ``⟨2a⟩``, ``⟨2b⟩``, plus the ``Nack`` extension of Section 4.3
(acceptors notify senders of stale rounds so a leader learns its round is
too low).  Message classes are frozen dataclasses; handler dispatch uses
the lower-cased class name (see :class:`repro.sim.process.Process`).

``val`` fields carry either a single command (the consensus protocols of
Sections 2.1, 2.2 and 3.1), a c-struct (the generalized protocols of
Sections 2.3 and 3.2), or the distinguished :data:`ANY` value of fast
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.rounds import RoundId


class _AnyValue:
    """The special ``Any`` value of fast-round phase "2a" messages."""

    _instance: "_AnyValue | None" = None

    def __new__(cls) -> "_AnyValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyValue()


@dataclass(frozen=True)
class Propose:
    """⟨propose, C⟩ from a proposer to coordinators (and acceptors).

    ``coord_quorum``/``acceptor_quorum`` are the optional load-balancing
    hints of Section 4.1: the proposer picks one quorum of coordinators and
    one of acceptors and piggybacks the latter so the chosen coordinators
    forward the command to exactly those acceptors.
    """

    cmd: Hashable
    coord_quorum: frozenset[int] | None = None
    acceptor_quorum: frozenset[str] | None = None


@dataclass(frozen=True)
class ProposeBatch:
    """⟨propose, ⟨C1..Cm⟩⟩: a batched proposal (generalized engine).

    With a :class:`repro.core.generalized.GenBatchingConfig` the proposer
    accumulates commands and ships them as one message; coordinators append
    the whole group to their c-struct with a single ``extend`` and forward
    one phase "2a" per batch, and acceptors in fast rounds append the group
    with one lattice operation.  Semantically equivalent to *m* single
    ``Propose`` messages -- batching changes message and lattice-operation
    counts, never outcomes (property-tested in ``tests/test_gen_parity.py``).
    """

    cmds: tuple[Hashable, ...]
    coord_quorum: frozenset[int] | None = None
    acceptor_quorum: frozenset[str] | None = None


@dataclass(frozen=True)
class CatchUp:
    """Learner → acceptors: re-send your current vote (generalized engine).

    The learners' periodic gap poll under
    :class:`repro.core.checkpoint.RetransmitConfig`: c-structs are
    cumulative, so an acceptor's *current* ``Phase2b`` re-delivers
    everything a lost earlier "2b" carried.  ``seen`` is the number of
    commands the polling learner has learned; an acceptor whose truncation
    floor is above it answers with ``ITruncated`` too, steering the
    laggard to snapshot install.

    Under :class:`repro.core.generalized.DeltaConfig` the poll carries a
    *stamp* of the poller's mirror of this acceptor's vote stream
    (``rnd`` + ``size``/``digest``, see :mod:`repro.cstruct.digest`).
    A stamped poll turns the answer two-phase: a matching acceptor
    replies with an O(1) :class:`VoteStamp` ack, one holding the stamp
    in its delta trail replies with exactly the missing suffix
    (:class:`Phase2bDelta`), and only a diverged or trail-expired
    responder falls back to the full ``Phase2b`` (to every learner).
    """

    seen: int = 0
    rnd: RoundId | None = None
    size: int = -1
    digest: int = 0


@dataclass(frozen=True)
class Phase1a:
    """⟨1a, i⟩ from a coordinator to the acceptors."""

    rnd: RoundId


@dataclass(frozen=True)
class Phase1b:
    """⟨1b, i, vval, vrnd⟩ from an acceptor to the coordinators of *i*."""

    rnd: RoundId
    vrnd: RoundId
    vval: Any
    acceptor: Hashable


@dataclass(frozen=True)
class Phase2a:
    """⟨2a, i, val⟩ from coordinator *coord* to the acceptors."""

    rnd: RoundId
    val: Any
    coord: int
    acceptor_quorum: frozenset[str] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Phase2b:
    """⟨2b, i, val⟩ from an acceptor to the learners (and, on the
    single-instance engine only, to the coordinators, for recovery).

    ``fresh`` is an optional delta hint for generalized c-struct votes: the
    commands this acceptance added on top of the acceptor's previous vote.
    Learners use it to update their per-vote frontiers in O(|fresh|) when
    the sizes line up (no gap since the last received "2b"); it is advisory
    only -- ``val`` always carries the whole c-struct, so a dropped or
    reordered message merely costs the receiver a full O(n) rescan.
    """

    rnd: RoundId
    val: Any
    acceptor: Hashable
    fresh: tuple[Hashable, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Nack:
    """Stale-round notification (Section 4.3 liveness extension)."""

    rnd: RoundId
    higher: RoundId
    acceptor: Hashable


@dataclass(frozen=True)
class Learned:
    """A learner's report that *cmds* are learned -- the one ack message.

    Generalized engine: learner → coordinators (the Section 4.3
    stuck-command detection: the leader starts a higher round only for
    commands that were proposed but never *learned*; mere acceptance is
    not enough -- a collided fast round has every command accepted by
    every acceptor, in incompatible orders) and, under a
    ``RetransmitConfig``, → proposers, retiring their unacked items; a
    coordinator echoes it to a proposer retrying a learned command.

    Instances engine: learner → proposers under a ``RetransmitConfig``,
    one per decided value (*cmds* are the value's commands).
    ``instance`` is the decided instance the learner observed (-1 when
    unknown, and always in the generalized engine, which has none): it
    lets proposers judge when the collective checkpoint frontier has
    passed the value, at which point state transfer -- not
    retransmission -- covers any remaining laggard and the unacked entry
    can be retired.
    """

    cmds: tuple[Hashable, ...]
    learner: Hashable
    instance: int = -1


# -- delta wire protocol (DeltaConfig, generalized engine) ---------------------
#
# Cumulative 2a/2b messages re-carry the sender's whole c-struct on every
# send.  Under DeltaConfig each sender instead maintains one monotone
# *stream* per round -- stamped by the (size, digest) of the command set
# shipped since the last full, a position no GC moves -- and transmits
# only the unsent suffix.  A receiver whose mirror matches the base stamp
# extends in O(delta); any mismatch (lost delta, crash on either side)
# triggers fetch-on-mismatch repair via ResyncRequest, answered with the
# plain cumulative message, which re-bases the stream.  Correctness never
# rests on the digests: they only decide *when* to fall back to the
# cumulative protocol, whose semantics are unchanged.


@dataclass(frozen=True)
class Phase2aDelta:
    """Coordinator → acceptors: the unsent suffix of the round's c-struct.

    Extends the coordinator's 2a stream for ``rnd``: an acceptor whose
    mirror matches ``(base_size, base_digest)`` appends ``cmds`` to its
    buffered 2a value and proceeds exactly as for a full ``Phase2a``; on
    mismatch it answers with :class:`ResyncRequest`.  An empty ``cmds``
    is the reliability tick's O(1) re-announcement of the stream head.
    """

    rnd: RoundId
    base_size: int
    base_digest: int
    cmds: tuple[Hashable, ...]
    coord: int


@dataclass(frozen=True)
class Phase2bDelta:
    """Acceptor → learners: the vote's unsent suffix.

    Extends the acceptor's 2b stream: ``fresh`` are the commands gained
    since the stream position (GC never moves one) ``(base_size,
    base_digest)``.  A learner whose mirror matches extends the recorded
    vote and updates its frontier in O(|fresh|); on mismatch it answers
    ``ResyncRequest`` and the acceptor falls back to the full ``Phase2b``.  Also
    the targeted answer to a stamped ``CatchUp`` poll whose stamp is
    still in the acceptor's delta trail.
    """

    rnd: RoundId
    base_size: int
    base_digest: int
    fresh: tuple[Hashable, ...]
    acceptor: Hashable


@dataclass(frozen=True)
class VoteStamp:
    """Acceptor → learner: "you're current" -- the O(1) catch-up ack.

    Echoes the stamp of a ``CatchUp`` poll that matched the acceptor's
    vote exactly.  The learner marks the acceptor current and slows its
    polls to the idle cadence; a stamp that no longer matches the
    learner's mirror (the mirror advanced meanwhile) is stale and
    ignored.
    """

    rnd: RoundId
    size: int
    digest: int
    acceptor: Hashable


@dataclass(frozen=True)
class ResyncRequest:
    """Receiver → stream sender: delta base mismatch, send it all.

    The fetch-on-mismatch repair path, asked once per mirror movement: a
    coordinator answers with its full ``Phase2a``, an acceptor with its
    full ``Phase2b``, broadcast to the whole stream, which it re-bases.
    ``size`` reports the requester's mirror size (diagnostic only).
    """

    rnd: RoundId
    size: int = 0
