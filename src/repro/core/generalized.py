"""Multicoordinated Generalized Paxos (Section 3.2).

The generalized algorithm agrees on an ever-growing c-struct instead of a
single value, so one instance implements state-machine replication: every
proposed command is eventually *contained* in every learner's learned
c-struct, and learned c-structs are mutually compatible.

Round taxonomy (the engine subsumes the whole Paxos family):

* single-coordinated classic rounds + ``AlwaysConflict`` histories
  ≈ Classic Paxos as a total-order broadcast protocol;
* single-coordinated classic + fast rounds ≈ Generalized Paxos
  (Section 2.3), deployed by :func:`repro.protocols.generalized.
  build_generalized_paxos`;
* multicoordinated classic rounds -- the paper's contribution: phase 2a is
  executed by every coordinator of the round, and an acceptor accepts the
  *glb* of the c-structs received from a full coordinator quorum
  (``u = ⊓ L2aVals``), extending its previous value with ``⊔`` when
  compatible.

Collisions (Section 4.2): in a multicoordinated round, coordinators that
receive commuting commands in different orders forward *compatible*
c-structs, and the glb simply defers the commands that have not yet reached
a full quorum -- no harm done.  Only *conflicting* commands received in
different orders make the forwarded c-structs incompatible; acceptors
detect this before accepting anything (no wasted disk write, unlike
fast-round collisions) and react as if a phase "1a" for the next round had
been received.

Liveness (Section 4.3): coordinators run the failure detector of
:mod:`repro.core.liveness`; the leader starts a higher (by default
single-coordinated) round when commands stay unserved past a timeout,
which covers leader crashes, coordinator-quorum loss and persistent
collisions with one mechanism.

Production layers (engine parity with :mod:`repro.smr.instances`)
-----------------------------------------------------------------

Four layers bring the generalized engine to parity with the
multi-instance engine.  The delta wire protocol, retransmission and
batching (unbatched is ``max_batch=1``) always run; checkpointing is
opt-in.  None changes a protocol outcome, only message/lattice-operation
counts and memory:

* **Delta streams** (the only wire mode; :class:`DeltaConfig` sets the
  idle-poll cadence).  C-structs are cumulative (Section 2.3), but no
  hot-path message re-carries one: each coordinator's 2a and each
  acceptor's 2b is a per-round *stream* of suffixes
  (:class:`repro.core.messages.Phase2aDelta`,
  :class:`repro.core.messages.Phase2bDelta`) stamped by the (size,
  digest) of what the sender already shipped.  A full ``Phase2a`` /
  ``Phase2b`` starts a round's stream and re-bases it after a gap, on a
  :class:`repro.core.messages.ResyncRequest`; votes go to the learners
  only.

* **C-struct-aware batching** (:class:`repro.core.reliability.
  BatchingConfig`; ``pipeline_depth`` is the instances engine's).
  Proposers ship every group as one
  :class:`repro.core.messages.ProposeBatch`.  Unbatched, a proposer
  defers its flush (:meth:`repro.core.runtime.Process.defer`): commuting
  commands may be proposed in any grouping, so what one delivery batch
  hands it is one proposal (each command alone on the simulator).  A
  coordinator forwards per *delivery batch*, not per message: it defers
  its forward to the end of whatever the runtime delivered at once -- a
  whole drain of a socket's receive pump, or one message on the
  simulator -- and then appends every proposal that brought to its
  ``cval`` with a single ``extend`` and sends *one* phase "2a".  A retry
  is a ``ProposeBatch`` of one command and takes the same path.  So a
  burst of *m* commands costs one lattice extension and one 2a/2b round
  trip instead of *m* of each.
  Fast rounds batch the same way at the acceptors.

* **Retransmission** (:class:`repro.core.checkpoint.RetransmitConfig`).
  A lost suffix leaves the next one unattached, which asks for a full;
  what loss can strand is the *tail* of a run.  Three re-drivers heal
  it: proposers keep unacked commands and re-propose on exponential
  backoff until a learner reports the command learned (``Learned`` acks;
  coordinators re-ack proposals of already-learned commands),
  coordinators re-announce their 2a stream head (an empty delta) while
  commands stay unserved, and learners periodically poll each acceptor
  (:class:`repro.core.messages.CatchUp`) with the stamp of their mirror
  of its vote stream.

* **Stable-prefix checkpointing** (:class:`repro.core.checkpoint.
  CheckpointConfig`).  Every learned command is *stable* -- decided and
  delivered at that learner -- so learners periodically checkpoint their
  replica at the current learned history, journal it under one overwritten
  key and advertise it (``ICheckpoint`` carrying the prefix's command
  *set*: histories interleave commuting commands, so a stable prefix is a
  sub-lattice, not a sequence position).  Every role folds advertisements
  into its :class:`repro.core.checkpoint.StableFrontier` (the collective
  bound over prefix sizes; the operative base is the *intersection* of
  the contributing learners' sets) and garbage-collects below it --
  every proposer, coordinator and acceptor through the one
  :class:`repro.core.checkpoint.CheckpointFollower` handler, with only
  its ``_on_stable`` written here.  Histories are split with
  :meth:`repro.cstruct.history.CommandHistory.stable_split` and only the
  tail above the base is retained -- in memory, in messages and in the
  acceptors' delta journals.  Laggards below the truncation floor (e.g. a
  learner recovering from a crash after the cluster truncated past its
  checkpoint) are healed by the chunked, resumable snapshot install of the
  PR-4 machinery (``ISnapshotRequest``/``ISnapshotChunk``) followed by
  ordinary vote replay.  Known bound: per-command *set* state still grows
  with history -- the stable base and learners' seen-sets in memory (the
  client-session-table analogue the multi-instance engine documents as a
  follow-up), and the `members` payload of checkpoint advertisements plus
  the full delivered sequence in snapshots/installs on the wire (a real
  implementation ships a digest/id-interval and fetches on demand; see
  ROADMAP).  What E13 pins as window-bounded is the *lattice* state --
  histories, digraphs, vote journals -- which is what every per-event
  lattice operation walks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Hashable

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointFollower,
    CheckpointingLearner,
    ICheckpoint,
    ITruncated,
    RetransmitConfig,
    StableFrontier,
    validate_layers,
)
from repro.core.cluster import Cluster, deploy
from repro.core.liveness import LivenessConfig
from repro.core.reliability import UNBATCHED, BatchingConfig, ReliableCoordinator, ReliableProposer
from repro.core.messages import (
    CatchUp,
    Learned,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2aDelta,
    Phase2b,
    Phase2bDelta,
    ProposeBatch,
    ResyncRequest,
    VoteStamp,
)
from repro.core.provedsafe import proved_safe
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId, RoundSchedule
from repro.core.sessions import SessionConfig, SessionDedup
from repro.core.topology import Topology
from repro.cstruct.base import CStruct, IncompatibleError, glb_set
from repro.cstruct.commands import Command
from repro.cstruct.digest import DeltaTrail, digest_add, digest_of
from repro.core.runtime import Runtime

#: A learner enumerates every acceptor quorum among the growers while
#: there are at most this many; above it, it uses the quorum of the
#: largest votes (see ``GenLearner._chosen_candidates``).
LEARNER_ENUMERATION_LIMIT = 64

#: Accept events each acceptor keeps in its delta trail
#: (:class:`repro.cstruct.digest.DeltaTrail`): a stamped poll whose base
#: is still inside the trail is answered with the exact missing suffix
#: instead of the full vote.
DELTA_TRAIL = 128


@dataclass(frozen=True)
class DeltaConfig:
    """Timing of the delta wire protocol (generalized engine).

    The protocol itself always runs: coordinators ship
    :class:`~repro.core.messages.Phase2aDelta` suffixes against their
    last announced 2a state, acceptors ship
    :class:`~repro.core.messages.Phase2bDelta` suffixes against their
    last broadcast vote, and the learners' catch-up polls carry
    (size, digest) stamps answered by an O(1)
    :class:`~repro.core.messages.VoteStamp` when nothing is missing.  A
    full ``Phase2a``/``Phase2b`` re-bases a stream: the first message of
    a round, and the answer to a
    :class:`~repro.core.messages.ResyncRequest` after any stream gap.

    Attributes:
        idle_poll_every: A learner polls an acceptor it has confirmed
            current only every this-many catch-up ticks (the O(1)
            idle-chatter knob); acceptors with unconfirmed state are
            polled every tick as before.
    """

    idle_poll_every: int = 4

    def __post_init__(self) -> None:
        if self.idle_poll_every < 1:
            raise ValueError("idle_poll_every must be at least 1")


@dataclass
class GeneralizedConfig:
    """Static configuration of one generalized deployment."""

    topology: Topology
    quorums: QuorumSystem
    schedule: RoundSchedule
    bottom: CStruct
    reduce_disk_writes: bool = True
    liveness: LivenessConfig = LivenessConfig()
    batching: BatchingConfig = UNBATCHED
    retransmit: RetransmitConfig = RetransmitConfig()
    checkpoint: CheckpointConfig | None = None
    delta: DeltaConfig = DeltaConfig()
    sessions: SessionConfig | None = None

    def __post_init__(self) -> None:
        if tuple(sorted(self.quorums.acceptors)) != tuple(sorted(self.topology.acceptors)):
            raise ValueError("quorum system must be defined over the topology's acceptors")
        validate_layers(self)
        if self.checkpoint is not None and not hasattr(self.bottom, "stable_split"):
            # Truncation is defined on the history lattice (stable
            # prefixes are downward-closed sub-histories); other
            # c-struct sets have no such op.
            raise ValueError(
                "checkpointing requires a c-struct with stable-prefix "
                "support (CommandHistory)"
            )

    # -- the engine this config type names (see repro.core.cluster) ----------

    @staticmethod
    def role_classes() -> tuple[type, type, type, type]:
        return GenProposer, GenCoordinator, GenAcceptor, GenLearner

    @staticmethod
    def cluster_class() -> type:
        return GeneralizedCluster


class GenProposer(ReliableProposer):
    """Proposes commands; optionally picks per-command quorums (Section 4.1).

    Every proposal is one :class:`ProposeBatch`: a flushed buffer, or a
    retried command alone.  A command is retried until *some* learner
    reports it learned (``Learned``) -- the vote streams plus the
    learners' catch-up polling then spread it everywhere.
    """

    def _admit(self, cmd: Command) -> None:
        if self.config.batching.max_batch > 1:
            super()._admit(cmd)
            return
        # Unbatched: commuting commands may be proposed in any grouping,
        # so a k-command proposal is just k proposals.  What one delivery
        # batch hands over ships as one ProposeBatch when the batch ends
        # (Process.defer: at once on the simulator, so one per command).
        self._buffer.append(cmd)
        self.defer(self.flush)

    def _ship(self, cmds: tuple[Command, ...]) -> None:
        self._track(cmds)
        coord_quorum, acceptor_quorum = self._pick_quorums()
        self._send_proposal(
            ProposeBatch(cmds, coord_quorum=coord_quorum, acceptor_quorum=acceptor_quorum)
        )

    def _resend(self, cmd: Command) -> None:
        self._send_proposal(ProposeBatch((cmd,)))

    def _send_proposal(self, msg: ProposeBatch) -> None:
        # Every coordinator hears the proposal (the leader's stuck
        # detection needs it); only the chosen quorum forwards it.  The
        # acceptors hear it too: they append it themselves in fast rounds.
        self.broadcast(self.config.topology.coordinators, msg)
        self.broadcast(self.config.topology.acceptors, msg)

    def on_learned(self, msg: Learned, src: Hashable) -> None:
        """A learner (or coordinator echo) reports commands learned: retire."""
        self._retire(msg.cmds)

    def _on_stable(self) -> None:
        """Checkpointed commands are learned by policy: retire them."""
        base = self._stable.base
        self._retire([cmd for cmd in self._unacked if cmd in base])


class GenCoordinator(ReliableCoordinator):
    """A coordinator of the generalized algorithm."""

    # Coordinators keep no stable state (Section 4.4): a recovered
    # coordinator simply starts a higher round, so everything it tracks --
    # round bookkeeping, proposal caches, quorum buffers, stats -- is
    # deliberately lost on crash.
    VOLATILE = {
        "_known",
        "_learned_cmds",
        "_p1b",
        "_resynced_at",
        "_sent2a",
        "_unforwarded",
        "_unserved",
        "cval",
        "known_cmds",
        "reannounced_2a",
        "resyncs_answered",
    }

    PHASE1A = Phase1a

    def __init__(
        self, pid: str, sim: Runtime, config: GeneralizedConfig, index: int
    ) -> None:
        super().__init__(pid, sim, config, index)
        self.reannounced_2a = 0
        self.resyncs_answered = 0

    def _forget(self) -> None:
        """Coordinators keep *no* stable state (Section 4.4)."""
        super()._forget()
        self.cval: CStruct | None = None
        self.known_cmds: list[Command] = []
        self._known: set[Command] = set()  # mirror of known_cmds
        # Commands not yet appended to cval: _forward_pending drains this
        # delta instead of rescanning the whole known_cmds list per event.
        self._unforwarded: list[Command] = []
        # The (rnd, size, digest) stream position of the last announced
        # 2a state, the base the next Phase2aDelta extends.  GC
        # does not move it; only a full Phase2a re-bases it.  None forces
        # the next announcement to be a full (round change, recovery).
        self._sent2a: tuple[RoundId, int, int] | None = None
        # The head at which a resync was last answered (cleared per tick).
        self._resynced_at: tuple[RoundId, int, int] | None = None
        self._p1b: dict[RoundId, dict[Hashable, Phase1b]] = {}
        # Liveness state.
        self._unserved: dict[Command, float] = {}
        self._learned_cmds: set[Command] = set()

    @property
    def gc_floor(self) -> int:
        """The collective stable bound this coordinator has folded."""
        return self._stable.bound

    # -- round management ------------------------------------------------------

    def _adopt(self, rnd: RoundId) -> None:
        self.crnd = rnd
        self.cval = None
        self._sent2a = None
        self.highest_seen = max(self.highest_seen, rnd)

    # -- proposals (Phase2aClassic) ------------------------------------------------

    def on_proposebatch(self, msg: ProposeBatch, src: Hashable) -> None:
        forwards = msg.coord_quorum is None or self.index in msg.coord_quorum
        for cmd in msg.cmds:
            if cmd in self._stable.base or cmd in self._learned_cmds:
                # The proposer is retrying a command that is already
                # learned (its ack was lost): re-ack instead of re-serving.
                self.send(src, Learned((cmd,)))
                continue
            if cmd not in self._unserved:
                self._unserved[cmd] = self.now
            if forwards and cmd not in self._known:
                self._known.add(cmd)
                self.known_cmds.append(cmd)
                self._unforwarded.append(cmd)
        # Forward with whatever else the same delivery batch brings: one
        # extend and one 2a for a whole socket drain.
        self.defer(self._forward_pending)

    def _forward_pending(self) -> None:
        """Append the unforwarded commands to cval and announce them.

        Only the suffix of commands not yet in ``cval`` is examined, so a
        burst of proposals costs O(new·conflicts) lattice work instead of
        rescanning the entire command history per proposal -- and with
        batching the whole group is appended by a *single* ``extend`` and
        announced by a single phase "2a": a ``Phase2aDelta`` of just the
        group, or a full ``Phase2a`` if the round's stream has not begun.
        """
        if self.cval is None or self.crnd == ZERO:
            return
        if self.config.schedule.is_fast(self.crnd):
            return  # proposers talk to acceptors directly in fast rounds
        if not self.config.schedule.is_coordinator_of(self.index, self.crnd):
            return
        if not self._unforwarded:
            return
        pending = self._unforwarded
        self._unforwarded = []
        appended = [cmd for cmd in pending if not self.cval.contains(cmd)]
        if not appended:
            return
        grown = self.cval.extend(appended)
        self.cval = grown
        for cmd in appended:
            self.metrics.count_command_handled(self.pid)
        if self._sent2a is not None:
            # Ship only the unsent suffix against the announced stream, to
            # every acceptor (quorum hints would fork per-acceptor mirrors
            # of one stream).
            rnd0, size0, digest0 = self._sent2a
            self._sent2a = (
                self.crnd, size0 + len(appended), digest_add(digest0, appended)
            )
            self.broadcast(
                self.config.topology.acceptors,
                Phase2aDelta(self.crnd, size0, digest0, tuple(appended)),
            )
            return
        self._announce_2a()

    def _announce_2a(self) -> None:
        """Send cval in full to every acceptor, re-basing the 2a stream."""
        self.broadcast(self.config.topology.acceptors, Phase2a(self.crnd, self.cval))
        cmds = self.cval.command_set()
        self._sent2a = (self.crnd, len(cmds), digest_of(cmds))

    # -- phase 1b / Phase2Start ---------------------------------------------------

    def on_phase1b(self, msg: Phase1b, src: Hashable) -> None:
        rnd = msg.rnd
        self.highest_seen = max(self.highest_seen, rnd)
        if not self.config.schedule.is_coordinator_of(self.index, rnd):
            return
        if rnd > self.crnd:
            self._adopt(rnd)
        if rnd != self.crnd or self.cval is not None:
            return
        self._p1b.setdefault(rnd, {})[src] = msg
        msgs = self._p1b[rnd]
        if len(msgs) < self.config.quorums.classic_quorum_size:
            return
        self._phase2start(msgs)

    def _phase2start(self, msgs: dict[Hashable, Phase1b]) -> None:
        """Pick ``v = w • σ`` with ``w ∈ ProvedSafe(Q, 1bMsg)`` and send it."""
        # Reported votes in this coordinator's frame: acceptors may lag
        # behind in truncation and report stable-prefix commands.
        msgs = {acc: replace(m, vval=self._stable.project(m.vval)) for acc, m in msgs.items()}
        try:
            picks = proved_safe(self.config.quorums, msgs, self.config.schedule.is_fast)
        except IncompatibleError:
            if self.config.checkpoint is None:
                raise
            # Transient base skew: a replier truncated its vote at a
            # stable prefix this coordinator has not folded yet (it just
            # recovered, or missed the advertisements), so the reports
            # are frames of one history cut at different bases.  Forget
            # them; the next advertisement moves our base and the
            # reliability tick's 1a re-drive collects fresh reports.
            del self._p1b[self.crnd]
            return
        value = max(picks, key=lambda v: (len(v.command_set()), str(v)))
        if not self.config.schedule.is_fast(self.crnd):
            value = value.extend(
                cmd for cmd in self.known_cmds if not value.contains(cmd)
            )
            self._unforwarded = []  # everything known is now in cval
        self.cval = value
        self._announce_2a()

    # -- monitoring / liveness ----------------------------------------------------

    def on_resyncrequest(self, msg: ResyncRequest, src: Hashable) -> None:
        """An acceptor's 2a mirror diverged from our stream: resend it all.

        The full re-bases the stream at cval's own frame, so it goes to
        every acceptor; it also answers any other request at the same
        head until the next reliability tick.
        """
        if self.cval is None or self.crnd == ZERO:
            return
        if self.config.schedule.is_fast(self.crnd):
            return
        if not self.config.schedule.is_coordinator_of(self.index, self.crnd):
            return
        if self._sent2a is not None and self._sent2a == self._resynced_at:
            return
        self.resyncs_answered += 1
        self._announce_2a()
        self._resynced_at = self._sent2a

    def on_learned(self, msg: Learned, src: Hashable) -> None:
        """A learner's progress report: these commands need no recovery."""
        for cmd in msg.cmds:
            self._learned_cmds.add(cmd)
            self._unserved.pop(cmd, None)

    def on_nack(self, msg: Nack, src: Hashable) -> None:
        self.highest_seen = max(self.highest_seen, msg.higher)
        if (
            msg.higher > self.crnd
            and not self.config.schedule.is_fast(msg.higher)
            and self.config.schedule.is_coordinator_of(self.index, msg.higher)
        ):
            # An acceptor already advanced to a classic round we
            # coordinate (its 1b to us was lost): adopt it so the
            # reliability tick's 1a re-drive targets the round the
            # acceptors are actually in, instead of re-announcing a stale
            # one forever.  Fast-typed rounds are excluded: a recovered
            # acceptor's §4.4 MCount-bump watermark ⟨m:0,c-1,t0⟩ reports
            # as fast, is nobody's working round, and must be out-raced
            # by the liveness layer, not adopted.
            self._adopt(msg.higher)

    def _reliability_tick(self) -> None:
        """Re-drive the in-flight tail: re-announce the 2a stream head.

        A lost 2a delta is healed by the *next* one, which no longer
        attaches and draws a resync request; the re-announce covers the
        case where no next one is coming -- the tail of a run, or a lull
        -- while any command this coordinator served remains unlearned.
        A coordinator stuck in phase 1 (``cval is None``: a round change
        whose 1a or 1b messages were lost) re-sends its 1a instead --
        acceptors answer duplicate current-round 1as with a fresh 1b, so
        phase 1 completes on any fair-lossy link.
        """
        # A resync answer lost on the way re-drives here: the empty delta
        # below makes the acceptor ask again, and this lets it be answered.
        self._resynced_at = None
        if (
            self.crnd == ZERO
            or not self._unserved
            or self.config.schedule.is_fast(self.crnd)
            or not self.config.schedule.is_coordinator_of(self.index, self.crnd)
        ):
            return
        if self.cval is not None:
            self.reannounced_2a += 1
            if self._sent2a is not None:
                # O(1) re-announcement: an empty delta re-asserts the
                # stream head; an acceptor that missed something answers
                # with a resync request instead of silently diverging.
                rnd0, size0, digest0 = self._sent2a
                self.broadcast(
                    self.config.topology.acceptors,
                    Phase2aDelta(self.crnd, size0, digest0, ()),
                )
            else:
                self._announce_2a()
        else:
            self.broadcast(self.config.topology.acceptors, Phase1a(self.crnd))

    def _progress_check(self) -> None:
        """Leader-only: start a recovery round when commands stay unserved."""
        timeout = self.config.liveness.stuck_timeout
        if not self.is_leader() or self.now - self._last_round_change < timeout:
            return
        if any(self.now - since > timeout for since in self._unserved.values()):
            self.start_round(self._recovery_round())

    # -- checkpointing / GC ---------------------------------------------------------

    def _on_stable(self) -> None:
        self._apply_gc(self._stable.base)

    def _apply_gc(self, base) -> None:
        """Retire every stable-prefix command from the working state."""
        if self.cval is not None:
            # The 2a stream's position (_sent2a) does not move: each
            # acceptor extends its own truncated copy by the next delta.
            self.cval = self.cval.without(base)
        self.known_cmds = [c for c in self.known_cmds if c not in base]
        self._known = {c for c in self._known if c not in base}
        self._unforwarded = [c for c in self._unforwarded if c not in base]
        # Dedup moves to the stable base itself.
        self._learned_cmds = {c for c in self._learned_cmds if c not in base}
        for cmd in [c for c in self._unserved if c in base]:
            del self._unserved[cmd]


class GenAcceptor(CheckpointFollower):
    """An acceptor of the generalized algorithm.

    With checkpointing enabled the acceptor journals its vote as a
    *delta log*: each acceptance appends the fresh command group to a
    prefix-keyed journal (one batched disk write per accept, independent
    of history size) instead of rewriting the whole c-struct, and GC
    rewrites the journal to the retained tail above the stable base.
    Recovery replays the journal onto the recorded base.
    """

    # Lost on crash by design: the phase-2a quorum buffers and pending
    # proposals are rebuilt by retransmission, the rest are statistics.
    # Stable state is rnd/vrnd/vval via the delta journal.
    VOLATILE = {
        "_2a_mirror",
        "_collided",
        "_p2a",
        "_p2a_merge",
        "_pending_set",
        "_resync_pending",
        "_sent2b",
        "_trail",
        "collisions_detected",
        "commands_accepted",
        "deltas_sent",
        "pending",
        "resyncs_requested",
        "stamps_sent",
    }

    def __init__(self, pid: str, sim: Runtime, config: GeneralizedConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.collisions_detected = 0
        self.commands_accepted = 0  # distinct commands this acceptor accepted
        self.deltas_sent = 0
        self.stamps_sent = 0
        self.resyncs_requested = 0
        self._trail = DeltaTrail(DELTA_TRAIL)
        self._forget()
        self.storage.write("mcount", 0)

    def _forget(self) -> None:
        """Everything a crash loses, at its initial value (``on_recover``
        reloads the journalled part)."""
        super()._forget()
        config = self.config
        self.rnd: RoundId = ZERO
        self.vrnd: RoundId = ZERO
        self.vval: CStruct = config.bottom
        self.pending: list[Command] = []
        self._pending_set: set[Command] = set()  # mirror of pending
        # Stream state (stamps are stream positions GC never moves): per
        # coordinator pid, the 2a stream mirror and whether a resync is
        # outstanding; our 2b stream's trail, whose head stamps the last
        # broadcast vote, and its round (None: the next 2b is full).
        self._2a_mirror: dict[Hashable, tuple[RoundId, int, int]] = {}
        self._resync_pending: set[Hashable] = set()
        self._trail.reset(
            len(config.bottom.command_set()),
            digest_of(config.bottom.command_set()),
        )
        self._sent2b: RoundId | None = None
        self._p2a: dict[RoundId, dict[int, CStruct]] = {}
        # Running lub of every value recorded per round: the collision
        # detector merges each incoming value into it (one lub) instead of
        # re-checking all buffered pairs.
        self._p2a_merge: dict[RoundId, CStruct] = {}
        self._collided: set[RoundId] = set()
        self._journal_next = 0  # next index of the "gvote" delta journal
        self._persisted_vrnd: RoundId = ZERO
        # The bound this acceptor has actually truncated to.  Distinct
        # from _stable.bound: fold can advance the collective bound
        # without the base (hence the vote tail) changing, and catch-up
        # answers must only advertise floors that were really applied.
        self.gc_floor = 0

    # -- phase 1 ---------------------------------------------------------------------

    def on_phase1a(self, msg: Phase1a, src: Hashable) -> None:
        if msg.rnd <= self.rnd:
            if msg.rnd < self.rnd:
                self.send(src, Nack(self.rnd))
            else:
                # Duplicate 1a of the current round: the reliability
                # tick's phase-1 re-drive, healing a lost 1b.  Answering
                # again is idempotent -- the 1b carries the current vote.
                self._send_1b(msg.rnd)
            return
        self._advance_round(msg.rnd)
        self._send_1b(msg.rnd)

    def _send_1b(self, rnd: RoundId) -> None:
        coords = self.config.topology.coordinator_pids(
            self.config.schedule.coordinators_of(rnd)
        )
        self.broadcast(coords, Phase1b(rnd, self.vrnd, self.vval))

    def _advance_round(self, rnd: RoundId) -> None:
        previous = self.rnd
        self.rnd = rnd
        if self.config.reduce_disk_writes:
            if rnd.mcount > previous.mcount:
                self.storage.write("mcount", rnd.mcount)
        else:
            self.storage.write("rnd", rnd)

    # -- phase 2b (classic) ------------------------------------------------------------

    def on_phase2a(self, msg: Phase2a, src: Hashable) -> None:
        coord = self.config.topology.coordinator_index(src)
        if coord is None:
            return  # only a coordinator's 2a counts toward a coordquorum
        rnd = msg.rnd
        if rnd < self.rnd:
            self.send(src, Nack(self.rnd))
            return
        # A full 2a re-bases the coordinator's stream: record the stamp in
        # the *sender's* frame (raw, pre-normalization) so it matches the
        # base stamps the coordinator puts on its deltas.
        raw = msg.val.command_set()
        self._2a_mirror[src] = (rnd, len(raw), digest_of(raw))
        self._resync_pending.discard(src)
        self._ingest_2a(rnd, self._stable.project(msg.val), coord)

    def on_phase2adelta(self, msg: Phase2aDelta, src: Hashable) -> None:
        """Extend the coordinator's 2a stream, or request a resync."""
        coord = self.config.topology.coordinator_index(src)
        if coord is None:
            return
        rnd = msg.rnd
        if rnd < self.rnd:
            self.send(src, Nack(self.rnd))
            return
        mirror = self._2a_mirror.get(src)
        if mirror is None or mirror[0] != rnd:
            # No stream established for this round yet; a coordinator only
            # sends deltas after a full 2a, so the empty-stream stamp is
            # the bootstrap base (covers e.g. the ZERO-size fresh stream).
            mirror = (rnd, 0, 0)
        if (mirror[1], mirror[2]) != (msg.base_size, msg.base_digest):
            # Ask once per mirror movement: the answer is a full that
            # re-bases the stream, and it covers every delta that cannot
            # attach meanwhile.  The reliability tick's empty delta always
            # asks, which re-drives an answer lost on the way.
            if src not in self._resync_pending or not msg.cmds:
                self._resync_pending.add(src)
                self.resyncs_requested += 1
                self.send(src, ResyncRequest())
            return
        self._resync_pending.discard(src)
        if not msg.cmds:
            return  # reliability tick: stream head confirmed, nothing new
        self._2a_mirror[src] = (
            rnd,
            msg.base_size + len(msg.cmds),
            digest_add(msg.base_digest, msg.cmds),
        )
        prev = self._p2a.get(rnd, {}).get(coord)
        if prev is None:
            prev = self.config.bottom
        appended = [c for c in self._stable.outside(msg.cmds) if not prev.contains(c)]
        self._ingest_2a(rnd, prev.extend(appended), coord)

    def _ingest_2a(self, rnd: RoundId, val: CStruct, coord: int) -> None:
        """Record a coordinator's (reconstructed) 2a value and react."""
        buffer = self._p2a.setdefault(rnd, {})
        # A coordinator's cval grows monotonically within a round, but the
        # network may reorder its "2a" messages; keep the largest seen so a
        # stale message cannot regress the buffer.
        previous = buffer.get(coord)
        changed = True
        if previous is None:
            buffer[coord] = val
        elif len(previous.command_set()) < len(val.command_set()):
            # Strictly more commands: newer on the coordinator's monotone
            # growth path (a reordered older message can only be smaller),
            # or a post-crash fork -- either way the larger value stands
            # and any incompatibility surfaces in the collision check.
            buffer[coord] = val
        elif previous is val or previous == val:
            changed = False  # duplicate delivery
        elif len(previous.command_set()) == len(val.command_set()):
            buffer[coord] = val  # same-size fork: surface the collision
        elif val.leq(previous):
            changed = False  # stale reordered message
        else:
            buffer[coord] = val  # smaller incompatible fork: surface it
        if changed and self._detect_collision(rnd, val):
            # An unchanged buffer cannot newly collide; only re-check after
            # an update.
            return
        if self.config.schedule.is_fast(rnd):
            # Fast rounds: a single coordinator's "2a" suffices (Section 3.3).
            self._accept_classic(rnd, val)
            self._try_fast_append()
            return
        if not changed:
            # Byte-identical buffer (duplicate or stale-reordered message):
            # every quorum glb was already evaluated when the buffer last
            # changed.
            return
        if (
            self.vrnd == rnd
            and len(val.command_set()) <= len(self.vval.command_set())
            and val.leq(self.vval)
        ):
            # Redundant delivery: this coordinator's contribution is below
            # the accepted value, so every quorum glb it participates in is
            # too, and quorums without it saw no new information.  Skip the
            # quorum enumeration entirely (the suffix-diff leq makes this
            # check O(|msg.val|), independent of the accepted history).
            return
        senders = frozenset(buffer)
        for quorum in self.config.schedule.coord_quorums(rnd):
            if coord not in quorum:
                # A quorum glb changes only when a member's buffered value
                # does; quorums without this coordinator were evaluated
                # when their members last reported.
                continue
            if quorum <= senders:
                lower_bound = glb_set([buffer[c] for c in sorted(quorum)])
                self._accept_classic(rnd, lower_bound)

    def _detect_collision(self, rnd: RoundId, new_val: CStruct) -> bool:
        """Multicoordinated collision: incompatible c-structs in one round.

        Folds every recorded value into a per-round running lub; a value
        incompatible with *any* previously recorded one is incompatible
        with their lub and vice versa (CS3: a pairwise-compatible set is
        jointly compatible), so one lub per delivery replaces the O(k²)
        pairwise scan.

        With checkpointing enabled an apparent incompatibility can also be
        transient base skew: the two values were truncated at different
        stable prefixes, so one side is missing ordering constraints the
        other still carries.  Commands known stable *somewhere durable*
        (the advertised-member union) are beyond collision by definition
        -- they are learned -- so the detector retries compatibility with
        them stripped from both sides before declaring a collision.
        """
        if self.config.schedule.is_fast(rnd) or rnd in self._collided:
            return False
        merge = self._p2a_merge.get(rnd)
        if merge is None:
            self._p2a_merge[rnd] = new_val
            return False
        try:
            self._p2a_merge[rnd] = merge.lub(new_val)
            return False
        except IncompatibleError:
            pass
        if self._stable.union:
            reconciled_a = merge.without(self._stable.union)
            reconciled_b = new_val.without(self._stable.union)
            try:
                self._p2a_merge[rnd] = reconciled_a.lub(reconciled_b)
                return False
            except IncompatibleError:
                pass
        if len(self._p2a.get(rnd, ())) < 2:
            # A Section 4.2 collision needs *two* coordinators forwarding
            # incompatible c-structs; a single reporter's values can only
            # disagree through truncation skew (the coordinator GC'd
            # between 2as before our base caught up) or a post-crash
            # fork, where the buffer's keep-the-largest rule already
            # arbitrates.  Reset the detector to the newest value instead
            # of burning a round.
            self._p2a_merge[rnd] = new_val
            return False
        self._collided.add(rnd)
        self.collisions_detected += 1
        next_rnd = self.config.schedule.next_round(rnd)
        if next_rnd > self.rnd:
            self._advance_round(next_rnd)
            self._send_1b(next_rnd)
        return True

    def _accept_classic(self, rnd: RoundId, lower_bound: CStruct) -> None:
        """Phase2bClassic(a, i): accept ``u``, merging via ⊔ within a round."""
        if rnd < self.rnd:
            return
        if self.vrnd == rnd:
            if lower_bound.leq(self.vval):
                return  # nothing new to accept or report
            try:
                new_value = self.vval.lub(lower_bound)
            except IncompatibleError:
                self._request_full_2a(rnd)
                return
            if new_value == self.vval:
                return
        else:
            new_value = lower_bound
        # The delta journal and the 2b stream both replay "the old vote
        # extended by the fresh suffix", which is faithful only under the
        # append-extension order ``leq`` tests (nothing new ordered before
        # an existing command).  A same-round ⊔ can violate it too -- the
        # merged-in value may constrain a gained command ahead of one we
        # already hold -- so the check cannot be skipped for merges.
        extension = self.vval.leq(new_value)
        # The commands this acceptance added, in execution order: the
        # journal's append and the 2b stream's delta.
        fresh = new_value.delta_after(self.vval)
        self.commands_accepted += len(fresh)
        self._advance_round(rnd)
        self.vrnd = rnd
        self.vval = new_value
        self._persist_vote(fresh, extension)
        self._broadcast_2b(fresh, extension)

    def _request_full_2a(self, rnd: RoundId) -> None:
        """Our same-round vote cannot extend the lone coordinator's value.

        One reporter is no Section 4.2 collision (the detector declined
        it): it is truncation skew -- the coordinator or this acceptor
        garbage-collected a stable prefix the other has not yet -- and no
        later delta can resolve it, nor does the empty-delta re-announce
        re-run this accept.  Ask for a full, as on a stream gap: it is
        projected into our frame on arrival and re-runs the accept, and
        the coordinator answers once per stream head and tick, so the
        retry keeps pace with the bases converging.
        """
        buffer = self._p2a.get(rnd, {})
        if len(buffer) != 1 or self.config.schedule.is_fast(rnd):
            return
        (coord,) = buffer
        pid = self.config.topology.coordinator_pid(coord)
        self._resync_pending.add(pid)
        self.resyncs_requested += 1
        self.send(pid, ResyncRequest())

    # -- phase 2b (fast) ---------------------------------------------------------------

    def on_proposebatch(self, msg: ProposeBatch, src: Hashable) -> None:
        if msg.acceptor_quorum is not None and self.pid not in msg.acceptor_quorum:
            return
        for cmd in msg.cmds:
            if cmd not in self._pending_set and cmd not in self._stable.base:
                self._pending_set.add(cmd)
                self.pending.append(cmd)
        self._try_fast_append()

    def _try_fast_append(self) -> None:
        """Phase2bFast(a): extend vval with proposals in an open fast round."""
        if not self.config.schedule.is_fast(self.rnd) or self.vrnd != self.rnd:
            return
        appended = [cmd for cmd in self.pending if not self.vval.contains(cmd)]
        if not appended:
            return
        grown = self.vval.extend(appended)
        self.commands_accepted += len(appended)
        self.vval = grown
        self._persist_vote(tuple(appended), True)
        self._broadcast_2b(tuple(appended), True)

    # -- shared helpers --------------------------------------------------------------

    def _persist_vote(self, fresh: tuple[Command, ...], extension: bool) -> None:
        if self.config.checkpoint is None:
            self.storage.write_many({"vrnd": self.vrnd, "vval": self.vval})
        else:
            # Delta journal: one batched append per accept.  A
            # non-extension accept (a new round's pick replacing dropped
            # commands) invalidates the replay order, so the journal is
            # rewritten to the new tail wholesale -- rare (round changes
            # only), and still one batched write.
            if extension:
                self.storage.append_many("gvote", self._journal_next, fresh)
                self._journal_next += len(fresh)
            else:
                self._rewrite_journal()
            if self.vrnd != self._persisted_vrnd:
                self.storage.write("gvrnd", self.vrnd)
                self._persisted_vrnd = self.vrnd

    def _rewrite_journal(self) -> None:
        self.storage.clear("gvote")
        tail = self.vval.linear_extension()
        self.storage.append_many("gvote", self._journal_next, tail)
        self._journal_next += len(tail)

    def _broadcast_2b(self, fresh: tuple[Command, ...], extension: bool) -> None:
        """Send the vote that just grew by *fresh* to the learners.

        Collisions are the acceptors' to detect (Section 4.2), so no
        coordinator needs the vote.  A pure *extension* within the
        stream's round ships as a ``Phase2bDelta`` stamped with the
        trail's head.  Anything else re-bases the stream
        with a full: the first vote of a round, or a non-extension (a set
        digest cannot tell it from an extension with the same command
        set, so a receiver extending its mirror would silently diverge).
        """
        if extension and self._sent2b == self.vrnd:
            base = (self._trail.size, self._trail.digest)
            self._trail.append(fresh)
            self.deltas_sent += 1
            vote = Phase2bDelta(self.vrnd, *base, fresh)
            self.broadcast(self.config.topology.learners, vote)
            return
        self._broadcast_full_2b()

    def _broadcast_full_2b(self) -> None:
        """Send the whole vote to every learner, re-basing the 2b stream:
        receivers stamp a full in its own frame, which GC may have moved
        away from the stream position, so the trail restarts there."""
        cmds = self.vval.command_set()
        self._trail.reset(len(cmds), digest_of(cmds))
        self._sent2b = self.vrnd
        vote = Phase2b(self.vrnd, self.vval)
        self.broadcast(self.config.topology.learners, vote)

    # -- catch-up / checkpointing -----------------------------------------------------

    def on_catchup(self, msg: CatchUp, src: Hashable) -> None:
        """Answer a gap poll: stamp ack, targeted delta, or full vote."""
        if self.gc_floor > msg.seen:
            # The poller is below our *applied* truncation floor: our vote
            # tail no longer carries what it is missing -- steer it to
            # install.  (The collective bound alone is not evidence: it
            # can advance without this acceptor having truncated.)
            self.send(src, ITruncated(self.gc_floor))
        if self.vrnd == ZERO:
            return
        if msg.rnd == self.vrnd:
            # Two-phase answer: the poller's mirror stamp decides the size
            # of the reply instead of always re-shipping the whole vote.
            if (msg.size, msg.digest) == (self._trail.size, self._trail.digest):
                self.stamps_sent += 1
                self.send(src, VoteStamp(self.vrnd, msg.size, msg.digest))
                return
            suffix = self._trail.suffix_from(msg.size, msg.digest)
            if suffix is not None:
                self.deltas_sent += 1
                self.send(src, Phase2bDelta(self.vrnd, msg.size, msg.digest, suffix))
                return
        self._broadcast_full_2b()

    def on_resyncrequest(self, msg: ResyncRequest, src: Hashable) -> None:
        """A learner's 2b mirror diverged: re-base the stream with a full."""
        if self.vrnd == ZERO:
            return
        self._broadcast_full_2b()

    def _on_stable(self) -> None:
        self._apply_gc(self._stable.base)

    def _apply_gc(self, base) -> None:
        """Truncate the vote (and every buffer) below the stable base."""
        self.vval = self.vval.without(base)
        self.pending = [c for c in self.pending if c not in base]
        self._pending_set = {c for c in self._pending_set if c not in base}
        for buffer in self._p2a.values():
            for coord in list(buffer):
                buffer[coord] = buffer[coord].without(base)
        for rnd in list(self._p2a_merge):
            self._p2a_merge[rnd] = self._p2a_merge[rnd].without(base)
        # Journal compaction: rewrite to the retained tail (one batched
        # write) and durably record the base so recovery can tell
        # "truncated because checkpointed" from "never voted".
        self._rewrite_journal()
        self.gc_floor = self._stable.bound
        self.storage.write("gbase", (self.gc_floor, base))
        # Both delta streams survive: mirrors and trail hold positions,
        # and each receiver extends its own truncated copy by a delta.

    # -- crash-recovery -----------------------------------------------------------------

    def on_recover(self) -> None:
        if self.config.checkpoint is None:
            self.vrnd = self.storage.read("vrnd", ZERO)
            self.vval = self.storage.read("vval", self.config.bottom)
        else:
            self.vrnd = self.storage.read("gvrnd", ZERO)
            self._persisted_vrnd = self.vrnd
            bound, base = self.storage.read("gbase", (0, frozenset()))
            self._stable.adopt(bound, base)
            self.gc_floor = bound
            entries = self.storage.prefix_items("gvote")
            self.vval = self.config.bottom.extend(value for _, value in entries)
            self._journal_next = entries[-1][0] + 1 if entries else 0
        if self.config.reduce_disk_writes:
            mcount = self.storage.read("mcount", 0) + 1
            self.storage.write("mcount", mcount)
            self.rnd = RoundId(mcount=mcount, count=0, coord=-1, rtype=0)
        else:
            self.rnd = self.storage.read("rnd", ZERO)
        # Streams do not survive a crash: re-seed the trail from the
        # recovered vote so stamped polls answer correctly, and leave
        # every peer to resync off the next full broadcast.
        cmds = self.vval.command_set()
        self._trail.reset(len(cmds), digest_of(cmds))

class GenLearner(CheckpointingLearner):
    """Learns ever-growing c-structs from quorums of "2b" messages.

    The learner keeps an *executed frontier*: the set of commands already
    contained in ``learned`` (``_seen``).  On top of it, a per-(round,
    acceptor) *unseen set* tracks which commands of the acceptor's latest
    vote are not yet learned; it is maintained from the ``fresh`` delta the
    acceptor piggybacks on its "2b" (O(|delta|) per delivery) and falls
    back to a full O(n) rescan only when a message gap makes the sizes
    disagree.  Every hot-path decision -- can this vote grow the learned
    struct, which glb candidates are worth a lub, which commands are new
    for the callbacks -- is then a membership test against these
    frontiers.  Redundant "2b" deliveries (quorum echoes, duplicates,
    re-sends) short-circuit in O(delta) before any lattice operation runs.

    With checkpointing enabled the learner is the engine's snapshotter
    (:class:`~repro.core.checkpoint.CheckpointingLearner`): the frontier
    counts learned commands, the checkpoint is the current learned
    history (a *stable prefix* -- everything learned is decided and
    delivered here) advertised with its command set, and what is
    truncated is the learned tail below the *collective* base.  A laggard
    -- detected by an advertisement whose members it has not learned, or
    an acceptor's ``ITruncated`` -- installs a peer checkpoint and resumes
    ordinary vote replay above it.
    """

    # Lost on crash by design (besides the base's): the delta-stream
    # mirrors are re-learned from the next resync round; the rest are
    # statistics.  Stable state is the learner's own checkpoint journal
    # (restored in on_recover).
    VOLATILE = {
        "_acc_current",
        "_idle_polls",
        "_resync_pending",
        "_unseen_count",
        "_vote_raw",
        "catchup_requests",
        "delta_2b_received",
        "full_2b_received",
        "glb_gate_skips",
        "polls_suppressed",
        "resyncs_sent",
        "stamps_confirmed",
    }

    # Same-frontier checkpoints of different learners may hold *different*
    # delivered sequences (commuting divergence), so a transfer must never
    # mix chunks from two senders.
    STICKY_SOURCE = True

    def __init__(self, pid: str, sim: Runtime, config: GeneralizedConfig) -> None:
        super().__init__(pid, sim, config)
        self.full_2b_received = 0
        self.delta_2b_received = 0
        self.stamps_confirmed = 0
        self.resyncs_sent = 0
        self.polls_suppressed = 0
        self.glb_gate_skips = 0
        self.catchup_requests = 0

    def _frontier(self) -> int:
        return self.delivered_total

    def _wants(self, src: Hashable, frontier: int) -> bool:
        """A checkpoint is a command set, which a count does not order: a
        peer advertising fewer commands than we learned can still hold
        some we lack, so it is wanted while its advertised members are
        not covered.  A larger count still counts: a session window's
        floor covers every command below it, delivered here or not."""
        if super()._wants(src, frontier):
            return True
        members = self._stable.members_of(src)
        return members is not None and not self._covers(members)

    def _covers(self, members) -> bool:
        """Does the executed frontier include every member of the claim?"""
        if isinstance(self._seen, SessionDedup):
            return self._seen.covers(members)
        return members <= self._seen

    def _note_vote(
        self, rnd: RoundId, acceptor: Hashable, vote: CStruct, fresh
    ) -> None:
        """Update the unseen frontier for a newly recorded vote.

        When the acceptor's ``fresh`` delta accounts exactly for the size
        difference since the previously recorded vote of the same round,
        the frontier is updated in O(|fresh|); a full vote (``fresh`` is
        None), any gap (dropped or reordered "2b") or a round change
        forces a full rescan of the vote's command set.
        """
        unseen = self._vote_unseen.get(acceptor)
        size = len(vote.command_set())
        if (
            unseen is not None
            and fresh is not None
            and self._vote_rnd.get(acceptor) == rnd
            and self._vote_size.get(acceptor, -1) + len(fresh) == size
        ):
            for c in fresh:
                if c not in self._seen and c not in unseen:
                    unseen.add(c)
                    self._unseen_count[c] += 1
        else:
            if unseen:
                for c in unseen:
                    count = self._unseen_count[c] - 1
                    if count > 0:
                        self._unseen_count[c] = count
                    else:
                        del self._unseen_count[c]
            rescanned = {c for c in vote.command_set() if c not in self._seen}
            self._vote_unseen[acceptor] = rescanned
            self._unseen_count.update(rescanned)
        self._vote_rnd[acceptor] = rnd
        self._vote_size[acceptor] = size

    def _unseen_of(self, rnd: RoundId, acceptor: Hashable, vote: CStruct):
        """Unseen commands of *vote*: the frontier, or an on-demand scan.

        The maintained frontier covers the acceptor's most recent round;
        a vote from an older round (rare -- late traffic after a round
        change) is scanned directly, which is the pre-frontier cost.
        """
        if self._vote_rnd.get(acceptor) == rnd:
            return self._vote_unseen[acceptor]
        return {c for c in vote.command_set() if c not in self._seen}

    def on_phase2b(self, msg: Phase2b, src: Hashable) -> None:
        # A full 2b resets the acceptor's stream mirror (stamped in the
        # sender's frame, pre-normalization).
        raw = msg.val.command_set()
        self._update_mirror(src, msg.rnd, len(raw), digest_of(raw))
        self.full_2b_received += 1
        val = self._stable.project(msg.val)  # lagging-truncation votes
        votes = self._latest.setdefault(msg.rnd, {})
        # An acceptor's vval grows monotonically within a round (and
        # survives crashes via stable storage), so vote sizes order vote
        # recency: a reordered older "2b" can only be smaller.  The size
        # comparison replaces a per-delivery leq entirely.
        previous = votes.get(src)
        if previous is None or (
            len(previous.command_set()) < len(val.command_set())
        ):
            votes[src] = val
            self._note_vote(msg.rnd, src, val, None)
        elif previous != val and not val.leq(previous):
            # Not an older frame of the same growth path (that is the
            # cheap leq case above: a reordered smaller "2b", safely
            # ignored).  The sender's GC can rewrite its frame to a tail
            # *smaller* than our record while a concurrent merge gains
            # commands our record has never seen -- under the size rule
            # those commands would be dropped forever, and with delta
            # streams no later full re-ships them (stamped polls answer
            # VoteStamp and suffixes extend the stale record).  A full is
            # authoritative about *content*, so fold it in: the lub keeps
            # the pre-truncation prefix our record legitimately retains
            # and adopts everything the frame gained, never reordering a
            # common pair.  A genuinely incompatible record (a diverged
            # delta reconstruction) is replaced by the authoritative vote.
            try:
                merged = previous.lub(val)
            except IncompatibleError:
                merged = val
            if merged != previous:
                votes[src] = merged
                self._note_vote(msg.rnd, src, merged, None)
        self._evaluate(msg.rnd)

    def _update_mirror(
        self, acceptor: Hashable, rnd: RoundId, size: int, digest: int
    ) -> None:
        """Re-base the raw 2b-stream mirror at a full vote.

        A full ``Phase2b`` re-bases the sender's stream at its vote's
        *current* frame, which legitimately regresses when the acceptor's
        GC truncated its vote since the stream began -- so a same-round
        smaller stamp must still reset the mirror or it wedges ahead
        forever (every later delta would be misread as stale).  A
        reordered *older* full costs at most one extra resync round-trip
        before the stream re-attaches; only an older *round* is ignored.
        """
        mirror = self._vote_raw.get(acceptor)
        if mirror is None or rnd >= mirror[0]:
            self._vote_raw[acceptor] = (rnd, size, digest)
            self._acc_current.add(acceptor)
            self._resync_pending.discard(acceptor)

    def on_phase2bdelta(self, msg: Phase2bDelta, src: Hashable) -> None:
        """Extend an acceptor's recorded vote by the shipped suffix."""
        mirror = self._vote_raw.get(src)
        if mirror is not None and msg.rnd < mirror[0]:
            return  # older round: the stream moved on
        if mirror is None or mirror != (msg.rnd, msg.base_size, msg.base_digest):
            # The suffix does not attach to what we hold.  A re-delivery
            # of the delta that produced the current mirror is the common
            # duplicate -- verified by digest, not size, because a
            # re-basing full can move the stream to a *smaller* frame whose
            # suffixes a size test would misread as stale.  Anything else
            # is a gap or divergence: fetch-on-mismatch, asking once per
            # mirror movement (the full vote resets the stream and clears
            # the pending flag; further unattachable deltas meanwhile are
            # answered by that same full).
            if (
                mirror is not None
                and msg.rnd == mirror[0]
                and msg.base_size + len(msg.fresh) == mirror[1]
                and digest_add(msg.base_digest, msg.fresh) == mirror[2]
            ):
                return  # duplicate of the applied stream head
            if src not in self._resync_pending:
                self._resync_pending.add(src)
                self.resyncs_sent += 1
                self._acc_current.discard(src)
                self.send(src, ResyncRequest())
            return
        self.delta_2b_received += 1
        self._resync_pending.discard(src)
        self._vote_raw[src] = (
            msg.rnd,
            msg.base_size + len(msg.fresh),
            digest_add(msg.base_digest, msg.fresh),
        )
        self._acc_current.add(src)
        votes = self._latest.setdefault(msg.rnd, {})
        prev = votes.get(src)
        if prev is None:
            prev = self.config.bottom
        appended = tuple(c for c in self._stable.outside(msg.fresh) if not prev.contains(c))
        val = prev.extend(appended)
        votes[src] = val
        self._note_vote(msg.rnd, src, val, appended)
        self._evaluate(msg.rnd)

    def on_votestamp(self, msg: VoteStamp, src: Hashable) -> None:
        """An acceptor confirmed our mirror of its vote is current."""
        if self._vote_raw.get(src) == (msg.rnd, msg.size, msg.digest):
            self._acc_current.add(src)
            self.stamps_confirmed += 1

    def _evaluate(self, rnd: RoundId) -> None:
        """Try to grow the learned struct from the recorded votes of *rnd*."""
        votes = self._latest.get(rnd)
        if votes is None:
            return
        needed = self.config.quorums.quorum_size(
            fast=self.config.schedule.is_fast(rnd)
        )
        if len(votes) < needed:
            return
        # Feasibility gate: a command can enter a quorum glb only if it is
        # unseen in *every* member's vote, i.e. counted >= needed times in
        # the pooled unseen counter.  Exact whenever every recorded vote
        # sits on the maintained frontier; then the common "echo of an
        # already-learned suffix" delivery skips the per-vote set walks
        # and the glb enumeration entirely.
        if all(self._vote_rnd.get(acc) == rnd for acc in votes) and not any(
            count >= needed for count in self._unseen_count.values()
        ):
            self.glb_gate_skips += 1
            return
        # A quorum glb is bounded above by each member's vote, so only
        # quorums made entirely of votes with unseen commands can grow the
        # learned struct; with fewer such votes than a quorum, nothing can.
        # Deliberate tradeoff: skipped quorums also skip the is_compatible
        # tripwire below, so an agreement violation confined to
        # already-learned commands would not crash here -- the invariant
        # oracles (repro.core.invariants) remain the authoritative check.
        unseen_by_acc = {
            acc: self._unseen_of(rnd, acc, vote) for acc, vote in votes.items()
        }
        growers = {acc for acc, unseen in unseen_by_acc.items() if unseen}
        if len(growers) < needed:
            return
        # Commands that could possibly be new: the union of the growers'
        # unseen frontiers (a quorum glb is below each member's vote, so it
        # cannot contain unseen commands from anywhere else).
        pool: set[Command] = set()
        for acc in growers:
            pool |= unseen_by_acc[acc]
        new_learned = self.learned
        for chosen in self._chosen_candidates(votes, needed, growers):
            chosen_cmds = chosen.command_set()
            if not any(cmd in chosen_cmds for cmd in pool):
                continue  # the glb dropped every unseen command
            try:
                new_learned = new_learned.lub(chosen)
            except IncompatibleError:
                if self.config.checkpoint is not None:
                    # Transient base skew (the quorum's votes were
                    # truncated at different stable prefixes than ours):
                    # skip this candidate; the retransmission layer
                    # re-delivers once bases converge.  Without
                    # checkpointing an incompatible chosen value is a
                    # protocol-safety violation and must crash.
                    continue
                raise AssertionError(
                    f"learner {self.pid}: chosen value incompatible with learned "
                    f"({chosen} vs {new_learned})"
                ) from None
        if new_learned is self.learned:
            return
        if (
            len(new_learned.command_set()) == len(self.learned.command_set())
            and new_learned == self.learned
        ):
            return
        # Everything in ``learned`` is in ``_seen``, so only what the lubs
        # added can be new: the window is not re-tested per learn event.
        fresh = tuple(
            cmd for cmd in new_learned.delta_after(self.learned) if cmd not in self._seen
        )
        self.learned = new_learned
        if not fresh:
            return
        self.delivered_total += len(fresh)
        for unseen in self._vote_unseen.values():
            unseen.difference_update(fresh)
        for cmd in fresh:
            self._unseen_count.pop(cmd, None)
        for cmd in fresh:
            self.metrics.record_learn(cmd, self.pid, self.now)
        # Progress report for the Section 4.3 stuck-command detection
        # (the coordinators' 2a re-announce and learned re-acks key off
        # _unserved/_learned_cmds) and the proposers' unacked retirement.
        report = Learned(fresh)
        self.broadcast(self.config.topology.coordinators, report)
        self.broadcast(self.config.topology.proposers, report)
        self._deliver(fresh)
        self._maybe_snapshot()

    def _chosen_candidates(
        self, votes: dict[Hashable, CStruct], needed: int, growers: set[Hashable]
    ) -> list[CStruct]:
        """Glbs over acceptor quorums among the reporting acceptors.

        Every glb over a full quorum is *chosen* (Definition 3), hence
        learnable.  Only quorums drawn from *growers* (acceptors whose vote
        contains an unseen command) are considered -- any other quorum's glb
        is below an exhausted vote and cannot grow the learned struct.  All
        such quorums are enumerated when cheap; otherwise the quorum of
        acceptors with the largest accepted c-structs is used (sound -- any
        quorum works -- just possibly less eager).
        """
        senders = sorted(growers)
        if comb(len(senders), needed) <= LEARNER_ENUMERATION_LIMIT:
            groups = combinations(senders, needed)
        else:
            by_size = sorted(
                senders, key=lambda acc: len(votes[acc].command_set()), reverse=True
            )
            groups = [tuple(sorted(by_size[:needed]))]
        return [glb_set([votes[acc] for acc in group]) for group in groups]

    # -- checkpointing ------------------------------------------------------

    def _checkpoint_members(self):
        """The stable prefix's command set: every learned command is
        decided and delivered here, and histories interleave commuting
        commands, so the prefix is a set, not a position -- interval runs
        under sessions (decisions older than the window live inside the
        session floors), the delivered commands themselves otherwise."""
        if self.config.sessions is not None:
            return self._seen.members()
        return frozenset(self.delivered)

    def _truncate_log(self, frontier: int) -> None:
        # Our own advertisement counts toward the collective bound too.
        if self._stable.fold(self.pid, frontier, self._snap_members):
            self._apply_gc(self._stable.base)

    def _on_peer_checkpoint(self, msg: ICheckpoint, src: Hashable) -> None:
        if not self._stable.fold(src, msg.frontier, msg.members):
            return
        if self._covers(self._stable.base):
            self._apply_gc(self._stable.base)
        else:
            # The *collective* stable base -- what the cluster is entitled
            # to truncate out of the vote tails -- contains commands we
            # never learned, so ordinary replay cannot be relied on:
            # install a checkpoint (tier two of catch-up).  A peer merely
            # being ahead of us does not trigger this (under the min
            # policy the bound cannot pass the slowest learner at all);
            # routine lag heals through the vote streams.
            self._request_install()

    def _apply_gc(self, base) -> None:
        """Truncate the learned tail (and vote buffers) below the base."""
        self.learned = self.learned.without(base)
        for votes in self._latest.values():
            for acc in list(votes):
                votes[acc] = votes[acc].without(base)
        # Vote-size bookkeeping refers to pre-truncation sizes; reset so
        # the next delivery per acceptor does one full rescan.  The raw
        # stream mirrors survive: they hold stream positions, which no GC
        # moves -- ours or the sender's; only a full re-bases them.
        self._vote_unseen = {}
        self._vote_rnd = {}
        self._vote_size = {}
        self._unseen_count = Counter()
        # A base advance is exactly when a lub skipped for base skew
        # becomes retryable -- and with delta streams, stamped polls
        # confirm currency without re-delivering the votes, so no later
        # message is guaranteed to trigger the retry.  Re-evaluate here.
        for rnd in list(self._latest):
            self._evaluate(rnd)

    # -- catch-up / snapshot install ----------------------------------------

    def _catchup_tick(self) -> None:
        # The shared installer re-requests missing chunks, abandons
        # stalled transfers (re-sourcing via _request_install) and drops
        # transfers the vote stream already overtook.
        self._installer.tick(self._request_install)
        # Stranded: missing a command the policy's k learners checkpointed,
        # which the acceptors may have truncated (fold reported it once,
        # but no install source was known yet, or the transfer was lost;
        # or our own checkpoint hid it from our base): keep retrying until
        # a checkpoint covers us.
        if self._installer.pending is None and not self._covers(self._stable.held()):
            self._request_install()
        # Stamped polls: acceptors confirmed current are re-polled only on
        # the slow idle cadence; the rest get a poll carrying our mirror
        # stamp, answered with an O(1) ack, a targeted suffix, or (after
        # divergence) the full vote.  Idle-cluster chatter is O(1) bytes
        # per slow tick instead of O(history) per tick.
        self._idle_polls += 1
        due_all = self._idle_polls % self.config.delta.idle_poll_every == 0
        seen = len(self._seen)
        for acc in self.config.topology.acceptors:
            if acc in self._acc_current and not due_all:
                self.polls_suppressed += 1
                continue
            self.catchup_requests += 1
            mirror = self._vote_raw.get(acc)
            if mirror is None:
                self.send(acc, CatchUp(seen=seen))
            else:
                self.send(
                    acc,
                    CatchUp(
                        seen=seen, rnd=mirror[0], size=mirror[1], digest=mirror[2]
                    ),
                )

    def _install_snapshot(
        self, frontier: int, delivered: tuple, machine_state: Hashable | None
    ) -> None:
        """Adopt a fully assembled peer checkpoint (state transfer).

        The checkpoint's sequence extends everything we delivered (the
        sender learned a superset of our stable knowledge), so adoption is
        a fast-forward: machine state, executed order and dedup evidence
        come from the checkpoint; commands we learned that the checkpoint
        lacks (commuting divergence at the boundary) are re-learned on top
        of it.  The installed checkpoint immediately becomes our own
        journalled one -- a crash right after the install must not send us
        below the cluster's truncation floor again.
        """
        if self.config.sessions is not None:
            # The dedup evidence travels packed in the machine field (the
            # delivered tail is pruned to the window); the restored
            # sessions -- not the tail -- are the membership authority.
            restored = SessionDedup.restore(
                machine_state[2], self.config.sessions.window
            )
            members: object = restored.members()
        else:
            members = frozenset(delivered)
        if frontier <= self.delivered_total and self._covers(members):
            return  # nothing in it we lack
        extras = tuple(
            c for c in self.learned.linear_extension() if c not in members
        )
        self.snapshot_installs += 1
        snapshot = {
            "frontier": frontier,
            "delivered": delivered,
            "machine": machine_state,
            "members": members,
        }
        self.storage.write("snapshot", snapshot)
        self._adopt_checkpoint(snapshot)
        if extras:
            # Re-learn our divergent tail on top of the installed base:
            # the replica was reset to the checkpoint, so these commands
            # must execute (again) and re-enter the learn order.
            self.learned = self.config.bottom.extend(extras)
            self.delivered_total += len(extras)
            self._deliver(extras)

    def _fast_forward(self, snapshot: dict) -> None:
        frontier, members = snapshot["frontier"], snapshot["members"]
        self.delivered_total = frontier
        self._seen.update(self.config.bottom.command_set())
        self._reset_votes()
        self._stable.adopt(frontier, members)

    def _reset_votes(self) -> None:
        self.learned: CStruct = self.config.bottom
        self._latest: dict[RoundId, dict[Hashable, CStruct]] = {}
        # Per-acceptor (for the acceptor's most recent round): commands of
        # the recorded vote not yet learned, plus the vote's round and size
        # (the delta-gap detector).  One entry per acceptor -- bounded
        # state, O(acceptors) pruning per learn event; votes from older
        # rounds fall back to an on-demand scan (:meth:`_unseen_of`).
        self._vote_unseen: dict[Hashable, set[Command]] = {}
        self._vote_rnd: dict[Hashable, RoundId] = {}
        self._vote_size: dict[Hashable, int] = {}
        # Delta-mode state: per-acceptor raw mirrors of the 2b streams
        # (stamped in the *sender's* frame), the acceptors confirmed
        # current (their polls drop to the idle cadence), and the pooled
        # unseen-command counter backing the quorum-feasibility gate.
        self._vote_raw: dict[Hashable, tuple[RoundId, int, int]] = {}
        self._acc_current: set[Hashable] = set()
        self._resync_pending: set[Hashable] = set()
        self._unseen_count: Counter = Counter()

    def _forget(self) -> None:
        super()._forget()
        self._reset_votes()
        # Executed frontier: every command ever learned (stable base
        # included -- ``learned`` itself only holds the tail above it).
        # With SessionConfig this is a bounded SessionDedup instead of an
        # ever-growing set; both support ``in``/``update``/``len``.
        self._seen = self._fresh_dedup(self.config.bottom.command_set())
        self._idle_polls = 0
        # Monotone learn count; ``delivered`` itself may be pruned to the
        # session window at snapshot time.
        self.delivered_total = 0
        self._stable = StableFrontier.from_config(self.config)


class GeneralizedCluster(Cluster):
    """A deployed generalized instance.

    Driving it is the engine-agnostic :class:`~repro.core.cluster.Cluster`;
    what the generalized engine adds is read-only: the learned structs,
    its per-layer counters and retained-state census.
    """

    proposers: list[GenProposer]
    coordinators: list[GenCoordinator]
    acceptors: list[GenAcceptor]
    learners: list[GenLearner]

    def learned_structs(self) -> list[CStruct]:
        return [l.learned for l in self.learners]

    def delta_stats(self) -> dict[str, int]:
        """Aggregate delta-wire-protocol counters across the cluster."""
        return {
            "full_2b": sum(l.full_2b_received for l in self.learners),
            "delta_2b": sum(l.delta_2b_received for l in self.learners),
            "stamps_confirmed": sum(l.stamps_confirmed for l in self.learners),
            "resyncs_sent": sum(l.resyncs_sent for l in self.learners),
            "polls_suppressed": sum(l.polls_suppressed for l in self.learners),
            "glb_gate_skips": sum(l.glb_gate_skips for l in self.learners),
            "acceptor_deltas_sent": sum(a.deltas_sent for a in self.acceptors),
            "acceptor_stamps_sent": sum(a.stamps_sent for a in self.acceptors),
            "acceptor_resyncs": sum(a.resyncs_requested for a in self.acceptors),
            "coordinator_resyncs_answered": sum(
                c.resyncs_answered for c in self.coordinators
            ),
        }

    def retained_dedup(self) -> int:
        """Worst-case learner dedup cells retained (the E15 bound metric)."""
        return max(l.retained_dedup() for l in self.learners)

    def retained_state(self) -> dict[str, int]:
        """Worst-case per-process retained history-lattice state, by kind.

        The bounded-memory claim of the stable-prefix checkpointing layer
        (benchmark E13) is about exactly these numbers: with a
        ``CheckpointConfig`` they must track the checkpoint *window*, not
        the total history.
        """
        return {
            "acceptor vval": max(len(a.vval.command_set()) for a in self.acceptors),
            "acceptor journal": max(
                a.storage.prefix_count("gvote") for a in self.acceptors
            ),
            "coordinator cval": max(
                (len(c.cval.command_set()) if c.cval is not None else 0)
                for c in self.coordinators
            ),
            "learner learned": max(
                len(l.learned.command_set()) for l in self.learners
            ),
            "learner votes": max(
                (
                    max(
                        (len(v.command_set()) for votes in l._latest.values()
                         for v in votes.values()),
                        default=0,
                    )
                )
                for l in self.learners
            ),
        }


def build_generalized(
    sim: Runtime,
    bottom: CStruct,
    n_proposers: int = 2,
    n_coordinators: int = 3,
    n_acceptors: int = 3,
    n_learners: int = 2,
    schedule: RoundSchedule | None = None,
    f: int | None = None,
    e: int | None = None,
    liveness: LivenessConfig = LivenessConfig(),
    reduce_disk_writes: bool = True,
    batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    checkpoint: CheckpointConfig | None = None,
    delta: DeltaConfig = DeltaConfig(),
    sessions: SessionConfig | None = None,
) -> GeneralizedCluster:
    """Deploy a Multicoordinated Generalized Paxos instance on *sim*."""
    topology = Topology.build(n_proposers, n_coordinators, n_acceptors, n_learners)
    quorums = QuorumSystem(topology.acceptors, f=f, e=e)
    if schedule is None:
        schedule = RoundSchedule(range(n_coordinators), recovery_rtype=1)
    config = GeneralizedConfig(
        topology=topology,
        quorums=quorums,
        schedule=schedule,
        bottom=bottom,
        liveness=liveness,
        reduce_disk_writes=reduce_disk_writes,
        batching=batching,
        retransmit=retransmit,
        checkpoint=checkpoint,
        delta=delta,
        sessions=sessions,
    )
    return deploy(sim, config)
