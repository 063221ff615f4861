"""Protocol messages.

The message vocabulary of Sections 2 and 3: ``⟨propose⟩``, ``⟨1a⟩``,
``⟨1b⟩``, ``⟨2a⟩``, ``⟨2b⟩``, plus the ``Nack`` extension of Section 4.3
(acceptors notify senders of stale rounds so a leader learns its round is
too low).  Message classes are frozen dataclasses; handler dispatch uses
the lower-cased class name (see :class:`repro.core.runtime.Process`).

``val`` fields carry either a single command (the consensus protocols of
Sections 2.1, 2.2 and 3.1), a c-struct (the generalized protocols of
Sections 2.3 and 3.2), or the distinguished :data:`ANY` value of fast
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """⟨propose, C⟩ from a proposer to coordinators (and acceptors) of
    the single-value engine (:mod:`repro.core.multicoordinated`); the
    generalized engine proposes with :class:`ProposeBatch` only.
    """

    cmd: Hashable


@dataclass(frozen=True)
class ProposeBatch:
    """⟨propose, ⟨C1..Cm⟩⟩: a batched proposal (generalized engine).

    Every generalized proposal is one (a sequence σ appended as ``v • σ``,
    Sections 2.3 and 3.2): the proposer groups up to its
    :class:`repro.core.reliability.BatchingConfig`'s ``max_batch``
    commands (one when unbatched), and a retry is one command alone.
    Coordinators append every group one delivery batch brings to their
    c-struct with a single ``extend`` and forward one phase "2a", and
    acceptors in fast rounds append the group with one lattice operation.
    Semantically equivalent to *m* one-command batches -- batching
    changes message and lattice-operation counts, never outcomes
    (property-tested in ``tests/test_gen_parity.py``).
    """

    cmds: tuple[Hashable, ...]
    coord_quorum: frozenset[int] | None = None
    acceptor_quorum: frozenset[str] | None = None


@dataclass(frozen=True)
class CatchUp:
    """Learner → one acceptor: is my mirror of your vote stream current?

    The learners' periodic gap poll (its period is
    :class:`repro.core.checkpoint.RetransmitConfig`'s), sent to each
    acceptor not yet confirmed current (and to every acceptor on the
    :class:`repro.core.generalized.DeltaConfig` idle cadence).  It
    carries a *stamp* of the poller's mirror of that acceptor's vote
    stream (``rnd`` + ``size``/``digest``, see
    :mod:`repro.cstruct.digest`; ``rnd`` None before the first vote
    arrived).  A matching acceptor replies with an O(1)
    :class:`VoteStamp` ack, one holding the stamp in its delta trail
    replies with exactly the missing suffix (:class:`Phase2bDelta`), and
    any other re-bases its stream with the full ``Phase2b`` (to every
    learner).  ``seen`` is the number of commands the poller has
    learned; an acceptor whose truncation floor is above it answers with
    ``ITruncated`` too, steering the laggard to snapshot install.
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


@dataclass(frozen=True)
class Phase2a:
    """⟨2a, i, val⟩ from a coordinator to the acceptors."""

    rnd: RoundId
    val: Any


@dataclass(frozen=True)
class Phase2b:
    """⟨2b, i, val⟩ from an acceptor to the learners (and, on the
    single-instance engine only, to the coordinators, for recovery).

    On the generalized engine a ``Phase2b`` is a *full* vote: it starts
    an acceptor's 2b stream in a round or re-bases it (a resync or a
    poll's answer), and the learner rescans it.  Every delta is a
    :class:`Phase2bDelta`.
    """

    rnd: RoundId
    val: Any


@dataclass(frozen=True)
class Nack:
    """Stale-round notification (Section 4.3 liveness extension): the
    acceptor's round, which is above the one the sender used."""

    higher: RoundId


@dataclass(frozen=True)
class Learned:
    """A learner's report that *cmds* are learned -- the one ack message.

    Generalized engine: learner → coordinators (the Section 4.3
    stuck-command detection: the leader starts a higher round only for
    commands that were proposed but never *learned*; mere acceptance is
    not enough -- a collided fast round has every command accepted by
    every acceptor, in incompatible orders) and → proposers, retiring
    their unacked items; a coordinator echoes it to a proposer retrying a
    learned command.

    Instances engine: learner → proposers, one per decided value (*cmds*
    are the value's commands).  ``instance`` is the decided instance the learner observed (-1 when
    unknown, and always in the generalized engine, which has none): it
    lets proposers judge when the collective checkpoint frontier has
    passed the value, at which point state transfer -- not
    retransmission -- covers any remaining laggard and the unacked entry
    can be retired.
    """

    cmds: tuple[Hashable, ...]
    instance: int = -1


# -- delta wire protocol (generalized engine) ---------------------------------
#
# A full 2a/2b carries the sender's whole c-struct.  Each generalized
# sender instead maintains one monotone *stream* per round -- stamped by
# the (size, digest) of the command set shipped since the last full, a
# position no GC moves -- and transmits only the unsent suffix.  A full
# starts a round's stream; a receiver whose mirror matches the base stamp
# extends it in O(delta); any mismatch (lost delta, crash on either side)
# triggers fetch-on-mismatch repair via ResyncRequest, answered with a
# full, which re-bases the stream.  Correctness never rests on the
# digests: they only decide *when* to fall back to a full.


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


@dataclass(frozen=True)
class ResyncRequest:
    """Receiver → stream sender: delta base mismatch, send it all.

    The fetch-on-mismatch repair path, asked once per mirror movement: a
    coordinator answers with its full ``Phase2a``, an acceptor with its
    full ``Phase2b`` of its current round, broadcast to the whole stream,
    which it re-bases.
    """
