"""Multicoordinated MultiPaxos: one consensus instance per command.

The paper's application-oriented framing (abstract; Sections 1 and 4.1):
state-machine replication runs a sequence of consensus instances, and
multicoordinated rounds remove the leader from the per-command critical
path.  This module implements that substrate directly:

* one :class:`repro.core.rounds.RoundId` round spans *all* instances; its
  phase 1 is executed once (a ⟨1a⟩ covers every instance and acceptors
  answer with all their per-instance votes, the Section 2.1.2 trick);
* every command is assigned to an instance and forwarded through a
  coordinator quorum; acceptors accept a value for an instance only on
  identical phase "2a" values from a full coordinator quorum;
* proposers may pick a per-command coordinator quorum and acceptor quorum
  (the Section 4.1 load-balancing scheme) -- with instance-granular
  consensus the per-command quorum choice genuinely bounds each acceptor's
  load, unlike the cumulative c-structs of the single-instance engine;
* concurrent commands can race for an instance ("collision", Section 4.2):
  coordinators exchange their phase "2a" messages and converge on one
  assignment per instance (the lowest-indexed coordinator's choice wins,
  a deterministic variant of the paper's collision handling); displaced
  commands are requeued to the next free instance, and any residual stuck
  instance is resolved by the leader starting a higher single-coordinated
  round;
* learners deliver decided values in instance order, so replicas apply a
  total order.

Leader changes (round changes) re-run phase 1 for all instances; the new
round's coordinators re-propose every value that may have been chosen and
close gaps with no-ops, exactly as the Classic Paxos baseline does.  A
coordinator that has heard of a higher round (from an ``INack``, say)
stops driving its own: it sends no 2a, endorsement or re-offer in it,
but keeps queueing proposals for a round it may adopt later.

Batching and pipelining
-----------------------

A :class:`repro.core.reliability.BatchingConfig` passed to
:func:`build_smr` sets the two classic Multi-Paxos throughput levers:

* **Command batching** -- proposers pack client commands into a
  :class:`Batch`, the opaque value decided by one consensus instance (a
  shipment of one command is the bare command).  A
  batch is flushed when it reaches ``max_batch`` commands (size trigger) or
  ``flush_interval`` time units after its first command arrived (time
  trigger), so a partial final batch always ships.  The buffer is
  volatile, like the rest of a proposer (Section 4.4): a proposer that
  crashes with commands buffered loses them, and the client's
  resubmission re-drives them (buffered commands are invisible to the
  coordinators' stuck detection).  Coordinators, acceptors and the
  collision machinery treat batches as ordinary values; learners unpack
  them and deliver the contained commands in instance order, then batch
  order, so replicas still apply one total order.
* **Instance pipelining** -- each coordinator keeps at most
  ``pipeline_depth`` self-assigned instances in flight (proposed but
  undecided).  Further batches wait in the pending queue and are drained
  as decisions arrive, bounding speculative instance growth under bursts
  while keeping the pipe full.

Knobs (:class:`BatchingConfig`): ``max_batch`` (commands per batch, size
trigger), ``flush_interval`` (virtual-time flush deadline for partial
batches), ``pipeline_depth`` (max in-flight instances per coordinator,
``None`` for unbounded).  The default,
:data:`~repro.core.reliability.UNBATCHED` (``max_batch=1``,
``pipeline_depth=None``), gives every command its own instance
immediately through the same path.

Reliability under message loss
------------------------------

The paper's model is fair-lossy links plus retransmission: a message sent
infinitely often is delivered infinitely often, so every protocol message
must have a re-driver.  The engine has one on every end-to-end path:

* **Proposer retransmission** -- every value shipped (a command or a
  :class:`Batch`) stays in an *unacked* registry and is re-broadcast as
  a fresh ``IPropose`` on an exponential backoff timer.  Learners confirm
  delivery with ``Learned``; a value is retired only when *every*
  learner has acked it, so retransmission also drives stragglers.  The
  registry dies with a proposer crash; the client resubmits.
* **Decision re-announcement** -- a coordinator receiving a retransmitted
  ``IPropose`` for an already-decided value re-broadcasts the decision
  (``IDecided``) to the learners instead of re-driving consensus; learners
  re-ack duplicates, so the retry loop terminates once every link has let
  one copy through.
* **Coordinator gossip** -- coordinators periodically exchange their
  observed-but-unserved command sets and undecided holes (``IGossip``).  A
  command stranded at a non-leader coordinator reaches the leader's stuck
  detection; a peer answers every gossiped hole or command it knows
  decided in one ``IDecided``.
  The same tick re-broadcasts the coordinator's undecided phase "2a"
  assignments (same value, same round -- safe) so a 2a or peer-endorsement
  lost on some link is eventually re-offered.
* **Learner catch-up** -- each learner tracks its contiguous delivery
  frontier; gaps below the highest decided instance are re-requested
  (``ICatchUp``) from the acceptors, which answer from their journalled
  votes with a fresh ``I2b``, and from peer learners, which answer every
  listed instance they know decided in one ``IDecided``.

Knobs (:class:`RetransmitConfig`): ``retry_interval``/``backoff``/
``max_interval`` (proposer backoff schedule), ``gossip_interval``
(coordinator gossip + 2a re-announce period), ``catchup_interval``
(learner gap-poll period); :data:`MAX_RESEND` bounds one message's payload.
The re-drivers always run; ``RetransmitConfig()`` is the default timing.

Checkpointing and log truncation
--------------------------------

The paper's protocols (and the engine above) keep the full decided
history: acceptor votes, coordinator decision maps and learner logs grow
with every command ever run.  Passing a :class:`CheckpointConfig` to
:func:`build_smr` bounds all of it by a sliding window:

* **Snapshots at the delivery frontier** -- each learner, every
  ``interval`` delivered instances, captures its replica's
  :meth:`StateMachine.snapshot` together with the delivered command
  sequence, journals the checkpoint in its stable storage (one
  overwritten key: checkpoints compact, they do not accumulate), and
  advertises the snapshot frontier to every coordinator, acceptor and
  peer learner (``ICheckpoint``, re-advertised periodically so a lost
  advertisement only delays garbage collection).
* **Collective safe frontier** -- every process folds the advertised
  frontiers into one GC bound: with ``gc_quorum=None`` the minimum over
  *all* learners (nothing is dropped that any learner still lacks); with
  ``gc_quorum=k`` the k-th highest frontier -- at least ``k`` learners
  hold a durable checkpoint at or above the bound, so a laggard below it
  recovers by snapshot install instead of log replay, and a crashed
  learner cannot pin the cluster's memory forever.
* **Garbage collection below the frontier** -- acceptors drop in-memory
  votes and truncate their vote journal
  (:meth:`StableStorage.truncate_below`, durable floor included);
  coordinators retire ``decided``/``_sent``/``assigned``/vote buffers and
  the per-value dedup indexes; learners truncate their decided log below
  their own checkpoint; proposers retire unacked values once the
  collective frontier passes the value's decided instance (reported in
  the learners' acks) -- past that point every policy-quorum checkpoint
  contains the value, so state transfer, not retransmission, covers any
  remaining laggard.
* **Two-tier catch-up** -- a gap *above* the truncation floor is answered
  from the log exactly as before (acceptor re-``I2b``, peer ``IDecided``).
  A request *below* the floor is answered with ``ITruncated`` (acceptors:
  the log horizon moved) or ``ISnapshotOffer`` (peer learners: install my
  checkpoint instead); the laggard then pulls the checkpoint in
  ``chunk_size``-command chunks (``ISnapshotRequest``/``ISnapshotChunk``),
  re-requesting only missing chunks on its catch-up tick (resumable under
  loss), installs it -- machine state, executed sequence, delivery
  frontier -- and resumes ordinary log replay above the frontier.
* **Crash-recovery from the local checkpoint** -- a recovering learner
  restores its own journalled snapshot and replays only the suffix above
  it (via the ordinary catch-up path) instead of replaying the full
  history; a recovering acceptor reloads only the untruncated vote
  journal suffix plus its durable floor.

Safety note: retiring the coordinators' value-level dedup indexes below
the frontier means a command retransmitted long after its decision was
garbage-collected can be decided *again* in a fresh instance.  Learners
deduplicate execution (their delivered set rides inside every
checkpoint), so replicas still apply each command once -- this is the
standard production trade: the truncation window must outlast the
retransmission horizon, and anything older is deduplicated at the
application layer (our delivered-set is the client-session-table
analogue).

Knobs (:class:`CheckpointConfig`): ``interval`` (instances per
checkpoint), ``gc_quorum`` (collective-frontier policy), ``chunk_size``
(snapshot transfer granularity), ``advertise_interval`` (frontier
re-announce period).  With ``checkpoint=None`` (the default) nothing is
ever truncated -- the pre-checkpoint behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Hashable

from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointFollower,
    CheckpointingLearner,
    ICheckpoint,
    ISnapshotOffer,
    ITruncated,
    RetransmitConfig,
    validate_layers,
)
from repro.core.cluster import Cluster, deploy
from repro.core.liveness import LivenessConfig
from repro.core.messages import Learned
from repro.core.reliability import (
    UNBATCHED,
    BatchingConfig,
    ReliableCoordinator,
    ReliableProposer,
    RetryState,
)
from repro.core.sessions import SessionConfig
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId, RoundSchedule
from repro.core.runtime import Runtime
from repro.core.topology import Topology

NOOP = "__noop__"

#: Upper bound on instances/commands carried by one gossip, catch-up or
#: re-announce burst (payload bound).
MAX_RESEND = 64

#: In-flight slots a coordinator reserves for retried proposals (and
#: requeued race losers) on top of ``BatchingConfig.pipeline_depth``:
#: retries never compete with fresh batches for window slots, so under
#: loss the recovery traffic drains through its own lane instead of
#: collapsing fresh throughput.
RETRY_LANE = 2


def _check_consistent(instance: int, existing: Hashable, val: Hashable) -> None:
    """Safety oracle: one instance must never yield two decisions."""
    if existing != val:
        raise AssertionError(
            f"consistency violation in instance {instance}: "
            f"{existing!r} vs {val!r}"
        )


@dataclass(frozen=True)
class Batch:
    """An ordered pack of client commands decided by one instance."""

    cmds: tuple[Hashable, ...]

    def __hash__(self) -> int:
        # The generated hash re-hashes every command of the pack on each
        # dict/set lookup (a decided batch is a key ~80 times); the value
        # is the generated one, computed once.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.cmds,))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __len__(self) -> int:
        return len(self.cmds)

    def __iter__(self):
        return iter(self.cmds)


def _commands_of(value: Hashable) -> tuple[Hashable, ...]:
    """The client commands a decided value carries (none for a no-op)."""
    if isinstance(value, Batch):
        return value.cmds
    return () if value == NOOP else (value,)


# -- messages -----------------------------------------------------------------


@dataclass(frozen=True)
class IPropose:
    cmd: Hashable
    coord_quorum: frozenset[int] | None = None
    acceptor_quorum: frozenset[str] | None = None
    # True for a retransmission (proposer backoff timer or crash-recovery
    # re-ship): coordinators serve retries from the reserved retry lane so
    # recovery traffic never starves fresh proposals of pipeline slots.
    retry: bool = False


@dataclass(frozen=True)
class I1a:
    rnd: RoundId


@dataclass(frozen=True)
class I1b:
    rnd: RoundId
    votes: tuple[tuple[int, RoundId, Hashable], ...]  # (instance, vrnd, vval)
    # The acceptor's vote-journal truncation floor.  Phase 1's no-op
    # hole-closing rule ("no replier voted => nothing chosen") is only
    # sound where vote absence means *never voted*; below the floor it
    # can mean *voted, then truncated*, so the coordinator must start
    # hole-closing above every replier's floor.
    floor: int = 0


@dataclass(frozen=True)
class I2a:
    rnd: RoundId
    instance: int
    val: Hashable
    # True only for the reliability tick's periodic re-offer of an
    # undecided assignment: receivers answer with their journalled
    # vote/decision instead of staying silent, without that echo chatter
    # being paid by ordinary (first-time, possibly late) 2as.
    reannounce: bool = False


@dataclass(frozen=True)
class I2b:
    rnd: RoundId
    instance: int
    val: Hashable


@dataclass(frozen=True)
class INack:
    higher: RoundId


@dataclass(frozen=True)
class IDecided:
    """Decision re-announcement: each ``(instance, value)`` entry was chosen.

    Sent by coordinators (one entry answering a retransmitted proposal of
    a decided value or a re-announced 2a; every known entry answering a
    gossip) and by learners (every listed instance they know, answering a
    peer's catch-up request).  Safe to trust: the sender observed a
    classic acceptor quorum vote for each value, the same evidence a
    learner uses; receivers still run the consistency oracle per entry.
    """

    entries: tuple[tuple[int, Hashable], ...]


@dataclass(frozen=True)
class IGossip:
    """Coordinator gossip: observed-but-unserved commands and holes."""

    observed: tuple[Hashable, ...]
    holes: tuple[int, ...]


@dataclass(frozen=True)
class ICatchUp:
    """Learner -> acceptors/peers: re-send evidence for *instances*."""

    instances: tuple[int, ...]


@dataclass
class InstancesConfig:
    topology: Topology
    quorums: QuorumSystem
    schedule: RoundSchedule
    liveness: LivenessConfig = LivenessConfig()
    batching: BatchingConfig = UNBATCHED
    retransmit: RetransmitConfig = RetransmitConfig()
    checkpoint: CheckpointConfig | None = None
    sessions: SessionConfig | None = None

    def __post_init__(self) -> None:
        validate_layers(self)

    # -- the engine this config type names (see repro.core.cluster) ----------

    @staticmethod
    def role_classes() -> tuple[type, type, type, type]:
        return SMRProposer, SMRCoordinator, SMRAcceptor, SMRLearner

    @staticmethod
    def cluster_class() -> type:
        return SMRCluster


@dataclass
class _AckState(RetryState):
    """Per-value retransmission bookkeeping at a proposer."""

    acked: set = field(default_factory=set)
    # Lowest decided instance reported by any ack (-1: none yet).  Once
    # the collective checkpoint frontier passes it, every checkpoint at
    # the GC quorum contains the value -- laggards are served by snapshot
    # install and retransmission can stop.
    instance: int = -1


class SMRProposer(ReliableProposer):
    """Proposes commands, optionally balancing load across quorums.

    A flushed buffer of several commands ships as one :class:`Batch`
    value, amortizing the per-instance protocol cost over many commands.
    A value is retried until *every* learner has acked it or a checkpoint
    quorum covers its instance (see the module docstring).
    """

    retry_state = _AckState

    def __init__(self, pid: str, sim: Runtime, config: InstancesConfig) -> None:
        super().__init__(pid, sim, config)
        self.batches_sent = 0

    def _ship(self, cmds: tuple[Hashable, ...]) -> None:
        """One value per shipment: a lone command itself, else its :class:`Batch`."""
        value = cmds[0] if len(cmds) == 1 else Batch(cmds)
        self.batches_sent += 1
        self._track((value,))
        self._resend(value, retry=False)

    def _resend(self, value: Hashable, retry: bool = True) -> None:
        coord_quorum, acceptor_quorum = self._pick_quorums()
        msg = IPropose(value, coord_quorum, acceptor_quorum, retry=retry)
        # Every coordinator hears the proposal (the leader needs it for
        # stuck detection); only the chosen quorum forwards it, so the
        # per-command forwarding load stays balanced (Section 4.1).
        self.broadcast(self.config.topology.coordinators, msg)

    def on_learned(self, msg: Learned, src: Hashable) -> None:
        """Retire the acked value once no learner can need its retransmission.

        Two sufficient conditions: every learner acked (retransmission
        drove them all, so it also drives stragglers), or the collective
        checkpoint frontier passed the value's decided instance
        (:meth:`_covered`).
        """
        # The ack lists the value's commands; the registry is keyed by
        # the value as shipped (see _ship).
        value = msg.cmds[0] if len(msg.cmds) == 1 else Batch(msg.cmds)
        state = self._unacked.get(value)
        if state is None:
            return
        state.acked.add(src)
        if msg.instance >= 0:
            state.instance = (
                msg.instance
                if state.instance < 0
                else min(state.instance, msg.instance)
            )
        everyone = len(state.acked) >= len(self.config.topology.learners)
        if everyone or self._covered(value):
            self._retire((value,))

    def _on_stable(self) -> None:
        self._retire([value for value in self._unacked if self._covered(value)])

    def _covered(self, value: Hashable) -> bool:
        """Every durable checkpoint at the GC quorum contains *value*."""
        return 0 <= self._unacked[value].instance < self._stable.bound


class SMRCoordinator(ReliableCoordinator):
    """A coordinator of the multicoordinated replication group."""

    # Coordinators keep no stable state (Section 4.4): recovery starts a
    # higher round and phase 1 rebuilds the per-instance picture from the
    # acceptors' vote journals, so round bookkeeping, proposal lanes,
    # quorum buffers, decision mirrors and stats are all lost on crash.
    # The observed commands come back as their proposers retransmit, and
    # the GC floor through phase 1 (``I1b.floor``) and ``ICheckpoint``.
    VOLATILE = {
        "_assigned_cmds",
        "_decided_frontier",
        "_decided_values",
        "_hole_seen",
        "_observed",
        "_p1b",
        "_p2b",
        "_pending_cmds",
        "_retry_inflight",
        "_sent",
        "_sent_values",
        "_top_decided",
        "assigned",
        "decided",
        "gc_floor",
        "gossip_sent",
        "next_instance",
        "pending",
        "pending_retry",
        "phase1_done",
        "reannounced_2a",
        "reassignments",
    }

    PHASE1A = I1a

    def __init__(
        self, pid: str, sim: Runtime, config: InstancesConfig, index: int
    ) -> None:
        super().__init__(pid, sim, config, index)
        self.reassignments = 0
        self.gossip_sent = 0
        self.reannounced_2a = 0

    def _forget(self) -> None:
        super()._forget()
        self.phase1_done = False
        self.next_instance = 0
        self.pending: list[IPropose] = []
        # Priority lane: retried proposals and requeued race losers.  They
        # are recovery traffic -- served first and from their own reserved
        # pipeline slots (RETRY_LANE), so a loss storm cannot collapse
        # fresh throughput and fresh bursts cannot starve recovery.
        self.pending_retry: list[IPropose] = []
        self.assigned: dict[int, IPropose] = {}  # instance -> proposal in flight
        self._retry_inflight: set[int] = set()  # assigned via the retry lane
        self.decided: dict[int, Hashable] = {}
        self.gc_floor = 0  # all per-instance state below is garbage-collected
        self._sent: dict[int, Hashable] = {}  # undecided instance -> 2a value
        # Mirror indexes for O(1) membership on the per-proposal hot paths
        # (the dict .values() scans made proposal handling O(n^2) overall).
        self._pending_cmds: set[Hashable] = set()  # {p.cmd for p in pending}
        self._assigned_cmds: set[Hashable] = set()  # {p.cmd for p in assigned.values()}
        self._sent_values: dict[Hashable, int] = {}  # value -> live _sent entries
        self._decided_values: dict[Hashable, int] = {}  # value -> first instance
        self._observed: dict[Hashable, float] = {}  # every proposed command
        self._hole_seen: dict[int, float] = {}  # undecided gaps, first seen
        self._decided_frontier = 0  # all instances below are decided
        self._top_decided = -1  # highest decided instance
        self._p1b: dict[RoundId, dict[str, I1b]] = {}
        self._p2b: dict[int, dict[RoundId, dict[str, Hashable]]] = {}

    # -- round management --------------------------------------------------

    def _adopt(self, rnd: RoundId) -> None:
        self.crnd = rnd
        self.phase1_done = False
        # In-flight commands of the previous round are re-driven here --
        # through the retry lane: they are recovery traffic, not fresh.
        # Sorted by instance so the retry order is canonical, not the
        # arrival order of the superseded round.
        for _, proposal in sorted(self.assigned.items()):
            self._requeue(proposal)
        self.assigned = {}
        self._assigned_cmds = set()
        self._retry_inflight = set()
        self._sent = {}
        self._sent_values = {}
        self.highest_seen = max(self.highest_seen, rnd)

    def _superseded(self) -> bool:
        """A round above ours is known, so ours is abandoned, as a Paxos
        coordinator abandons a ballot: every 2a sent in it would only earn
        an ``INack``.  Proposals still queue and are served if this
        coordinator adopts a round it coordinates.  An acceptor's round is
        always one some coordinator started, so a ``highest_seen`` above
        ``crnd`` names a real round."""
        return self.highest_seen > self.crnd

    def _requeue(self, proposal: IPropose) -> None:
        """Re-drive *proposal* through the priority lane (it is recovery
        traffic now) unless it is decided or already queued."""
        if (
            proposal.cmd not in self._decided_values
            and proposal.cmd not in self._pending_cmds
        ):
            self.pending_retry.append(proposal)
            self._pending_cmds.add(proposal.cmd)

    # -- phase 1 ----------------------------------------------------------------

    def on_i1b(self, msg: I1b, src: Hashable) -> None:
        rnd = msg.rnd
        self.highest_seen = max(self.highest_seen, rnd)
        if not self.config.schedule.is_coordinator_of(self.index, rnd):
            return
        if rnd > self.crnd:
            self._adopt(rnd)
        if rnd != self.crnd or self.phase1_done:
            return
        self._p1b.setdefault(rnd, {})[src] = msg
        replies = self._p1b[rnd]
        if len(replies) < self.config.quorums.classic_quorum_size:
            return
        self._finish_phase1(replies)

    def _finish_phase1(self, replies: dict[str, I1b]) -> None:
        """Re-send possibly chosen values; close gaps; resume service.

        Per instance this applies the Fast Paxos picking rule (Section
        2.2): a value must be re-proposed iff, at the highest round ``k``
        reported for the instance, it was reported by at least
        ``|Q| + q_k - n`` acceptors (it may have been chosen).  A
        multicoordinated round can leave *different* values accepted by
        different (non-quorum) acceptor subsets after an instance race, so
        the naive "value of the highest vrnd" rule would be unsafe here.

        With log truncation, vote *absence* is no longer evidence below a
        replier's journal floor (the vote may have been truncated after a
        decision, not never cast), so hole-closing starts above the
        highest replier floor.  Safe in both directions: a floor is
        derived from checkpoint advertisements (everything below it is
        decided and checkpoint-covered -- nothing there needs closing),
        and above every replier floor a quorum member that voted in a
        lower-round decision still reports that vote, restoring the
        "no replier voted => nothing chosen" invariant.
        """
        self.phase1_done = True
        replier_floor = max((reply.floor for reply in replies.values()), default=0)
        # drain=False: draining mid-phase-1 would assign fresh instances
        # that the hole-closing loop below would then double-propose.
        self._apply_gc(replier_floor, drain=False)
        votes_by_instance: dict[int, list[tuple[RoundId, Hashable]]] = {}
        for acceptor in sorted(replies):
            for instance, vrnd, vval in replies[acceptor].votes:
                votes_by_instance.setdefault(instance, []).append((vrnd, vval))
        min_inter = (
            len(replies) + self.config.quorums.classic_quorum_size
            - self.config.quorums.n
        )
        # Cover every instance this coordinator knows about -- reported
        # votes, decided instances and gossip-known claims alike -- so that
        # undecided holes are closed with no-ops (nothing can be chosen at
        # a lower round for an instance no phase-1 replier voted in, since
        # the repliers' quorum intersects every quorum of lower rounds).
        # Instances below the GC floor are decided and checkpointed; they
        # need no closing (and the acceptors truncated their votes anyway).
        top = max(
            [self.next_instance - 1, *votes_by_instance, *self.decided],
            default=-1,
        )
        if not self._superseded():
            for instance in range(self.gc_floor, top + 1):
                if instance in self.decided:
                    continue
                value = self._pick_for_instance(
                    votes_by_instance.get(instance, []), min_inter
                )
                self._send_2a(instance, value, None)
        self.next_instance = max(self.next_instance, top + 1)
        self._drain()

    @staticmethod
    def _pick_for_instance(
        votes: list[tuple[RoundId, Hashable]], min_inter: int
    ) -> Hashable:
        if not votes:
            return NOOP
        k = max(vrnd for vrnd, _ in votes)
        counts: dict[Hashable, int] = {}
        for vrnd, vval in votes:
            if vrnd == k:
                counts[vval] = counts.get(vval, 0) + 1
        candidates = [value for value, count in counts.items() if count >= min_inter]
        if candidates:
            return candidates[0]  # at most one by the quorum requirement
        # Nothing provably chosen: free to pick; prefer a reported value so
        # the raced command still gets decided.
        return max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]

    # -- proposals ------------------------------------------------------------------

    def on_ipropose(self, msg: IPropose, src: Hashable) -> None:
        if msg.cmd in self._decided_values:
            # A retransmitted proposal of a chosen value: the proposer (and
            # possibly some learners) missed the decision.  Re-announce it
            # instead of re-driving consensus; the learners (re-)ack.
            instance = self._decided_values[msg.cmd]
            self.broadcast(
                self.config.topology.learners,
                IDecided(((instance, self.decided[instance]),)),
            )
            return
        # Track every command for the leader's stuck detection, even when
        # this coordinator is not in the command's quorum.
        self._observed.setdefault(msg.cmd, self.now)
        if msg.coord_quorum is not None and self.index not in msg.coord_quorum:
            return
        if msg.cmd in self._pending_cmds or msg.cmd in self._assigned_cmds:
            return
        if msg.retry:
            self.pending_retry.append(msg)
        else:
            self.pending.append(msg)
        self._pending_cmds.add(msg.cmd)
        self._drain()

    def _drain(self) -> None:
        if not self.phase1_done or self._superseded():
            return
        if not self.config.schedule.is_coordinator_of(self.index, self.crnd):
            return
        window = self.config.batching.pipeline_depth
        # Retry lane first (priority): recovery traffic uses its reserved
        # slots and never counts against the fresh window below (an
        # unbounded window needs no lane).
        while self.pending_retry:
            if window is not None and len(self._retry_inflight) >= RETRY_LANE:
                break  # retry lane full; refilled on the next decision
            proposal = self.pending_retry.pop(0)
            self._pending_cmds.discard(proposal.cmd)
            if self._already_driving(proposal.cmd):
                continue
            instance = self.next_instance
            self.next_instance += 1
            self._retry_inflight.add(instance)
            self._send_2a(instance, proposal.cmd, proposal)
        while self.pending:
            fresh_inflight = len(self.assigned) - len(self._retry_inflight)
            if window is not None and fresh_inflight >= window:
                return  # pipeline full; refilled on the next decision
            proposal = self.pending.pop(0)
            self._pending_cmds.discard(proposal.cmd)
            if self._already_driving(proposal.cmd):
                continue
            instance = self.next_instance
            self.next_instance += 1
            self._send_2a(instance, proposal.cmd, proposal)

    def _already_driving(self, cmd: Hashable) -> bool:
        return (
            cmd in self._decided_values
            or cmd in self._sent_values
            or cmd in self._assigned_cmds
        )

    def _note_sent(self, instance: int, value: Hashable) -> None:
        self._sent[instance] = value
        self._sent_values[value] = self._sent_values.get(value, 0) + 1

    def _retire_sent(self, instance: int) -> None:
        """Drop the 2a bookkeeping of a decided instance (state GC)."""
        if instance not in self._sent:
            return
        value = self._sent.pop(instance)
        count = self._sent_values.get(value, 0) - 1
        if count <= 0:
            self._sent_values.pop(value, None)
        else:
            self._sent_values[value] = count

    def _send_2a(self, instance: int, value: Hashable, proposal: IPropose | None) -> None:
        if proposal is not None:
            self.assigned[instance] = proposal
            self._assigned_cmds.add(proposal.cmd)
        self._note_sent(instance, value)
        self.metrics.count_command_handled(self.pid)
        self.broadcast(self._acceptors_for(instance), I2a(self.crnd, instance, value))
        # Share the assignment with the round's other coordinators so
        # concurrent assignments converge (see on_i2a).
        self.broadcast(self._round_peers(), I2a(self.crnd, instance, value))

    def _acceptors_for(self, instance: int) -> tuple[str, ...]:
        """Where our 2a for *instance* goes: the acceptor quorum its
        proposal picked (Section 4.1), or every acceptor."""
        proposal = self.assigned.get(instance)
        if proposal is not None and proposal.acceptor_quorum is not None:
            return tuple(sorted(proposal.acceptor_quorum))
        return self.config.topology.acceptors

    def _round_peers(self) -> list[str]:
        """The other coordinators of the current round."""
        coords = self.config.schedule.coordinators_of(self.crnd)
        return [pid for pid in self.config.topology.coordinator_pids(coords) if pid != self.pid]

    # -- assignment convergence ------------------------------------------------------

    def on_i2a(self, msg: I2a, src: Hashable) -> None:
        """Endorse a peer coordinator's assignment for a fresh instance.

        Safety constraint (Section 3.1): a coordinator sends at most *one*
        value per instance per round, or two different values could each
        gather a full coordinator quorum and be accepted by different
        acceptor quorums.  So a peer's assignment is endorsed only for
        instances this coordinator has not claimed yet; conflicting claims
        are a genuine collision -- the instance stays undecided and the
        leader's recovery round (phase 1 + the picking rule) resolves it.
        A 2a from a process that is no coordinator is nobody's assignment.
        """
        if self.config.topology.coordinator_index(src) is None:
            return
        self.highest_seen = max(self.highest_seen, msg.rnd)
        if msg.rnd != self.crnd or not self.phase1_done:
            return
        if not self.config.schedule.is_coordinator_of(self.index, self.crnd):
            return
        instance = msg.instance
        self.next_instance = max(self.next_instance, instance + 1)
        if instance < self.gc_floor:
            # Below the collective checkpoint frontier: decided, applied
            # and garbage-collected.  A re-announcing peer stuck there
            # missed the frontier advertisements; the floor unsticks it.
            if msg.reannounce:
                self.send(src, ITruncated(self.gc_floor))
            return
        if instance in self.decided:
            # Already chosen (our 2a bookkeeping was retired).  Only a
            # *re-announced* 2a signals a peer stuck on the instance and
            # warrants an IDecided answer; ordinary late endorsements stay
            # silent so the lossless fast path pays no echo chatter.
            if msg.reannounce:
                self.send(src, IDecided(((instance, self.decided[instance]),)))
            return
        if instance in self._sent or self._superseded():
            return  # our value is final within the round, or the round is over
        # Endorse: forward the same value so the coordinator quorum agrees.
        self._note_sent(instance, msg.val)
        self.broadcast(self.config.topology.acceptors, I2a(self.crnd, instance, msg.val))
        # Drop the command from our queues if a peer is already driving it.
        if msg.val in self._pending_cmds:
            self.pending = [p for p in self.pending if p.cmd != msg.val]
            self.pending_retry = [
                p for p in self.pending_retry if p.cmd != msg.val
            ]
            self._pending_cmds.discard(msg.val)

    # -- decision monitoring and instance-race reassignment (Section 4.2) --------------

    def on_i2b(self, msg: I2b, src: Hashable) -> None:
        self.highest_seen = max(self.highest_seen, msg.rnd)
        if msg.instance < self.gc_floor:
            return  # below the checkpoint frontier: settled and collected
        if msg.instance in self.decided:
            return  # late/duplicate votes for a settled instance
        votes = self._p2b.setdefault(msg.instance, {}).setdefault(msg.rnd, {})
        votes[src] = msg.val
        count = sum(1 for v in votes.values() if v == msg.val)
        if count < self.config.quorums.classic_quorum_size:
            return
        self._record_decided(msg.instance, msg.val)

    def _record_decided(self, instance: int, val: Hashable) -> None:
        """Note that *instance* chose *val*; retire its in-flight state.

        Retiring the ``_sent``/``assigned``/vote bookkeeping keeps
        per-coordinator state bounded by the number of *undecided*
        instances instead of growing monotonically, and unblocks requeued
        race losers (a command whose 2a lost its instance would otherwise
        stay shadowed by its own stale ``_sent`` entry until the next
        round change).
        """
        if instance in self.decided or instance < self.gc_floor:
            return
        self.decided[instance] = val
        self._decided_values.setdefault(val, instance)
        self._top_decided = max(self._top_decided, instance)
        while self._decided_frontier in self.decided:
            self._decided_frontier += 1
        self._observed.pop(val, None)
        self.next_instance = max(self.next_instance, instance + 1)
        self._p2b.pop(instance, None)
        self._hole_seen.pop(instance, None)
        self._retire_sent(instance)
        self._retry_inflight.discard(instance)
        proposal = self.assigned.pop(instance, None)
        if proposal is not None:
            self._assigned_cmds.discard(proposal.cmd)
        lost_race = proposal is not None and proposal.cmd != val
        if lost_race:
            self.reassignments += 1
            self._requeue(proposal)
        if lost_race or self.config.batching.pipeline_depth is not None:
            # Serve the requeued loser; a decision also freed a slot of a
            # bounded window, so refill it.
            self._drain()

    def on_idecided(self, msg: IDecided, src: Hashable) -> None:
        for instance, value in msg.entries:
            existing = self.decided.get(instance)
            if existing is not None:
                _check_consistent(instance, existing, value)
            self._record_decided(instance, value)

    def on_inack(self, msg: INack, src: Hashable) -> None:
        # Recording the higher round is what supersedes ours (_superseded).
        self.highest_seen = max(self.highest_seen, msg.higher)

    # -- reliability layer (gossip + 2a re-announce) -----------------------------------

    def _reliability_tick(self) -> None:
        """Periodic self-healing: re-offer 2as, gossip observed/holes."""
        # Re-announce our undecided 2a assignments (same value, same round
        # -- safe) to the acceptors the first 2a went to *and* to peer
        # coordinators, so a dropped 2a or peer endorsement is eventually
        # re-offered.  A proposal's own acceptor quorum (Section 4.1) keeps
        # the re-offer inside it, or re-announcing would undo the load
        # bound.  _sent only holds undecided instances (decided ones are
        # retired).
        if (
            self.phase1_done
            and not self._superseded()
            and self.config.schedule.is_coordinator_of(self.index, self.crnd)
        ):
            peers = self._round_peers()
            for instance, value in list(islice(self._sent.items(), MAX_RESEND)):
                self.reannounced_2a += 1
                message = I2a(self.crnd, instance, value, reannounce=True)
                self.broadcast(self._acceptors_for(instance), message)
                self.broadcast(peers, message)
        # Gossip observed-but-unserved commands (so they reach the leader's
        # stuck detection) and undecided holes (peers that know decisions
        # answer with one IDecided).
        observed = tuple(islice(self._observed, MAX_RESEND))
        holes = tuple(self._holes(limit=MAX_RESEND))
        if observed or holes:
            self.gossip_sent += 1
            peers = [
                pid for pid in self.config.topology.coordinators if pid != self.pid
            ]
            self.broadcast(peers, IGossip(observed, holes))

    def _holes(self, limit: int | None = None) -> list[int]:
        """Undecided instances below the top decided instance.

        Scans only the [frontier, top] window -- everything below the
        contiguous decided frontier is settled -- so quiescent ticks cost
        O(1) instead of rescanning the full decided history.
        """
        holes = []
        for j in range(self._decided_frontier, self._top_decided):
            if limit is not None and len(holes) >= limit:
                break
            if j not in self.decided:
                holes.append(j)
        return holes

    def on_igossip(self, msg: IGossip, src: Hashable) -> None:
        known: dict[int, Hashable] = {}
        for command in msg.observed:
            instance = self._decided_values.get(command)
            if instance is not None:
                # The sender gossips a command we know is decided (it missed
                # the decision): answer so it can retire the entry instead
                # of re-gossiping it forever.
                known[instance] = self.decided[instance]
                continue
            self._observed.setdefault(command, self.now)
        for instance in msg.holes:
            value = self.decided.get(instance)
            if value is not None:
                known[instance] = value
        if known:
            self.send(src, IDecided(tuple(sorted(known.items()))))

    # -- checkpointing / garbage collection ---------------------------------------------

    def _on_stable(self) -> None:
        self._apply_gc(self._stable.bound)

    def on_itruncated(self, msg: ITruncated, src: Hashable) -> None:
        # An acceptor (or peer coordinator) already collected below its
        # floor: everything there is decided and checkpointed.  Adopt the
        # floor -- it may run ahead of our own view if we missed
        # ICheckpoint advertisements.
        self._apply_gc(msg.floor)

    def _apply_gc(self, bound: int, drain: bool = True) -> None:
        """Retire every per-instance record below *bound*.

        *bound* is the collective safe frontier: every instance below it
        is decided and covered by a durable checkpoint at the policy
        quorum of learners.  The value-level dedup index
        (``_decided_values``) is pruned with its instance: a command
        retransmitted from beyond the checkpoint window may be decided
        again in a fresh instance, which learners deduplicate (see the
        module docstring's safety note).
        """
        if bound <= self.gc_floor:
            return
        self.gc_floor = bound
        for instance in [i for i in self.decided if i < bound]:
            val = self.decided.pop(instance)
            if self._decided_values.get(val) == instance:
                del self._decided_values[val]
        for instance in [i for i in self._sent if i < bound]:
            self._retire_sent(instance)
        for table in (self._p2b, self._hole_seen):
            for instance in [i for i in table if i < bound]:
                del table[instance]
        self._retry_inflight = {i for i in self._retry_inflight if i >= bound}
        for instance in [i for i in self.assigned if i < bound]:
            proposal = self.assigned.pop(instance)
            self._assigned_cmds.discard(proposal.cmd)
            # The instance was decided (it is below a delivery frontier);
            # if our command lost the race and we never saw the decision,
            # re-drive it -- a duplicate decision is deduplicated at the
            # learners, a lost command would be lost forever.
            self._requeue(proposal)
        # Forget the observed commands we no longer drive: one may have been
        # decided below the bound without our hearing of it, and would age
        # into a spurious recovery round.  An undecided one is observed
        # again when its proposer retransmits it.
        driven = self._pending_cmds | self._assigned_cmds | self._sent_values.keys()
        self._observed = {cmd: t for cmd, t in self._observed.items() if cmd in driven}
        self._decided_frontier = max(self._decided_frontier, bound)
        self._top_decided = max(self._top_decided, bound - 1)
        self.next_instance = max(self.next_instance, bound)
        if drain:
            self._drain()

    # -- liveness -----------------------------------------------------------------------

    def _progress_check(self) -> None:
        timeout = self.config.liveness.stuck_timeout
        if not self.is_leader() or self.now - self._last_round_change < timeout:
            return
        aged = [cmd for cmd, since in self._observed.items() if self.now - since > timeout]
        self._hole_seen = {j: self._hole_seen.get(j, self.now) for j in self._holes()}
        # In-flight commands and momentary gaps are normal; only *aged*
        # unserved commands or aged delivery holes indicate a stuck round.
        # A round of ours whose phase 1 never completed (or no round at
        # all yet) is replaced too.
        stuck = aged or any(self.now - t > timeout for t in self._hole_seen.values())
        active = self.config.schedule.is_coordinator_of(self.index, self.crnd)
        if not (stuck or (active and not self.phase1_done)):
            return
        # _adopt (inside start_round) requeues our in-flight commands; the
        # leader additionally takes over every observed-but-unserved
        # command, covering commands stuck at other coordinators.
        self.start_round(self._recovery_round())
        for cmd in aged:
            self._requeue(IPropose(cmd, retry=True))


class SMRAcceptor(CheckpointFollower):
    """Per-instance votes under one (global) round number."""

    # Lost on crash by design: 2a quorum buffers are rebuilt by
    # retransmission; the rest are statistics.  Stable state is rnd plus
    # the per-instance vote journal (restored in on_recover).
    VOLATILE = {
        "_collided",
        "_p2a",
        "collisions_detected",
        "commands_accepted",
    }

    def __init__(self, pid: str, sim: Runtime, config: InstancesConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.commands_accepted = 0
        self.collisions_detected = 0
        self._forget()

    def _forget(self) -> None:
        """Everything a crash loses, at its initial value (``on_recover``
        reloads the journalled part)."""
        super()._forget()
        self.rnd: RoundId = ZERO
        self.votes: dict[int, tuple[RoundId, Hashable]] = {}
        self.gc_floor = 0  # votes below are checkpointed and truncated
        self._p2a: dict[tuple[int, RoundId], dict[int, Hashable]] = {}
        self._collided: set[tuple[int, RoundId]] = set()

    def on_i1a(self, msg: I1a, src: Hashable) -> None:
        if msg.rnd <= self.rnd:
            if msg.rnd < self.rnd:
                self.send(src, INack(self.rnd))
            return
        self.rnd = msg.rnd
        self.storage.write("rnd", msg.rnd)
        votes = tuple(
            (instance, vrnd, vval)
            for instance, (vrnd, vval) in sorted(self.votes.items())
        )
        coords = self.config.topology.coordinator_pids(
            self.config.schedule.coordinators_of(msg.rnd)
        )
        self.broadcast(coords, I1b(msg.rnd, votes, floor=self.gc_floor))

    def on_i2a(self, msg: I2a, src: Hashable) -> None:
        coord = self.config.topology.coordinator_index(src)
        if coord is None:
            return  # only a coordinator's 2a counts toward a coordquorum
        if msg.rnd < self.rnd:
            self.send(src, INack(self.rnd))
            return
        if msg.instance < self.gc_floor:
            # The instance is below the checkpoint frontier: decided,
            # applied, vote truncated.  Tell the (lagging) coordinator so
            # it adopts the floor instead of re-offering forever.
            self.send(src, ITruncated(self.gc_floor))
            return
        vote = self.votes.get(msg.instance)
        if vote is not None and vote[0] >= msg.rnd:
            # Already voted for this instance at this round or higher: the
            # 2a cannot change the vote, so never rebuild the (released)
            # quorum buffer -- a late third endorsement would otherwise
            # leak one _p2a entry per decided instance.  A *re-offered* 2a
            # additionally means its sender missed our I2b (e.g. the whole
            # I2b-to-coordinators fan-out was lost while the learners
            # still decided): re-send the journalled vote so the senders'
            # decision tracking converges and their re-announce loop
            # terminates.  Ordinary late 2as stay silent -- no echo
            # chatter on the lossless fast path.
            if msg.reannounce:
                self.send(src, I2b(vote[0], msg.instance, vote[1]))
            return
        key = (msg.instance, msg.rnd)
        buffer = self._p2a.setdefault(key, {})
        buffer[coord] = msg.val
        values = {v for v in buffer.values()}
        if len(values) > 1 and key not in self._collided:
            # Instance race: different coordinators forwarded different
            # commands.  Nothing is accepted for the losing assignments;
            # the coordinators reassign via the 2b stream (Section 4.2).
            self._collided.add(key)
            self.collisions_detected += 1
        senders = frozenset(buffer)
        for quorum in self.config.schedule.coord_quorums(msg.rnd):
            if not quorum <= senders:
                continue
            quorum_values = {buffer[c] for c in quorum}
            if len(quorum_values) != 1:
                continue
            # Singleton by the guard above -- extraction order-independent.
            # protolint: ignore[determinism]
            self._accept(msg.rnd, msg.instance, next(iter(quorum_values)))
            return

    def _accept(self, rnd: RoundId, instance: int, value: Hashable) -> None:
        if rnd < self.rnd:
            return
        current = self.votes.get(instance)
        if current is not None and current[0] >= rnd:
            return
        self.rnd = max(self.rnd, rnd)
        self.votes[instance] = (rnd, value)
        self.commands_accepted += 1
        self.storage.append("vote", instance, (rnd, value))
        # The 2a quorum buffer did its job; drop it so per-acceptor state
        # tracks undecided instances only (on_i2a's vote guard keeps late
        # 2as for this instance from rebuilding it).
        self._p2a.pop((instance, rnd), None)
        self._collided.discard((instance, rnd))
        vote = I2b(rnd, instance, value)
        self.broadcast(self.config.topology.learners, vote)
        coords = self.config.topology.coordinator_pids(
            self.config.schedule.coordinators_of(rnd)
        )
        self.broadcast(coords, vote)

    def on_icatchup(self, msg: ICatchUp, src: Hashable) -> None:
        """Answer a learner's gap request from the journalled votes.

        Re-sending the recorded (vrnd, vval) is the paper's fair-lossy
        retransmission: if the value was chosen, a quorum voted for it at
        one round, and repeated catch-up eventually reassembles that
        quorum at the requesting learner.
        """
        answered_truncated = False
        for instance in msg.instances:
            vote = self.votes.get(instance)
            if vote is not None:
                self.send(src, I2b(vote[0], instance, vote[1]))
            elif instance < self.gc_floor and not answered_truncated:
                # The request is below the log horizon: the vote journal
                # cannot answer it any more.  Point the learner at the
                # snapshot tier (its peers' checkpoints) instead.
                self.send(src, ITruncated(self.gc_floor))
                answered_truncated = True

    # -- checkpointing / log truncation ------------------------------------

    def _on_stable(self) -> None:
        self._apply_gc(self._stable.bound)

    def _apply_gc(self, bound: int) -> None:
        """Truncate votes (memory and journal) below *bound*.

        Safe by the checkpoint policy: a quorum of learners holds durable
        snapshots covering every instance below the bound, so the votes
        can never again be needed as decision evidence -- catch-up below
        the floor is answered with ``ITruncated`` and served by snapshot
        transfer.  The journal truncation durably records the floor, so
        recovery can tell "truncated" from "never voted".
        """
        if bound <= self.gc_floor:
            return
        self.gc_floor = bound
        for instance in [i for i in self.votes if i < bound]:
            del self.votes[instance]
        for key in [k for k in self._p2a if k[0] < bound]:
            del self._p2a[key]
            self._collided.discard(key)
        self.storage.truncate_below("vote", bound)

    def on_recover(self) -> None:
        # Snapshot-era recovery: the durable floor plus the untruncated
        # journal suffix -- not the full history -- rebuild the vote map.
        self.rnd = self.storage.read("rnd", ZERO)
        self.gc_floor = self.storage.floor("vote")
        for instance, vote in self.storage.prefix_items("vote"):
            self.votes[instance] = vote


class SMRLearner(CheckpointingLearner):
    """Learns per-instance decisions; delivers them in instance order.

    Batched values are unpacked here: replicas observe individual commands
    in instance order, then intra-batch order, so the delivered sequence is
    the same total order whether or not batching is enabled upstream.

    The learner also self-heals: it acks every decision to the proposers
    (retiring their retransmission buffers), and a periodic gap check
    re-requests evidence for undecided instances below its highest
    decided instance -- from the acceptors (which answer
    with a fresh ``I2b`` from their vote journal) and from peer learners
    (which answer every listed instance they know in one ``IDecided``).

    With checkpointing enabled the learner is the engine's snapshotter
    (:class:`~repro.core.checkpoint.CheckpointingLearner`; the frontier is
    the delivery frontier, an instance number) and catch-up turns
    two-tier: gaps above the cluster's truncation floor are filled from
    the log as before; gaps below it trigger snapshot install from a peer
    followed by ordinary suffix replay.
    """

    # Lost on crash by design (besides the base's): statistics.  Stable
    # state is the decided log plus the learner's own checkpoint journal
    # (both restored in on_recover).
    VOLATILE = {"acks_sent", "catchup_requests"}

    def __init__(self, pid: str, sim: Runtime, config: InstancesConfig) -> None:
        super().__init__(pid, sim, config)
        self.catchup_requests = 0
        self.acks_sent = 0

    def _forget(self) -> None:
        super()._forget()
        self.decided: dict[int, Hashable] = {}
        self._seen = self._fresh_dedup()  # delivered commands (at-most-once)
        self._next_delivery = 0
        self._top_decided = -1  # highest decided instance (gap-scan bound)
        self._truncated_below = 0  # our decided log starts here
        self._votes: dict[int, dict[RoundId, dict[str, Hashable]]] = {}

    def _frontier(self) -> int:
        return self._next_delivery

    def on_i2b(self, msg: I2b, src: Hashable) -> None:
        if msg.instance < self._truncated_below:
            return  # below our checkpoint: delivered and truncated
        existing = self.decided.get(msg.instance)
        if existing is not None and existing == msg.val:
            return  # straggler vote for a settled instance: no new info
        # Votes for undecided instances -- and votes *conflicting* with a
        # decision, which feed the consistency oracle below -- are indexed
        # by instance so a decision can release the whole buffer at once.
        # (A conflicting sub-quorum vote arriving after the decision keeps
        # its buffer: it is the oracle's evidence, and such votes only
        # exist after genuine instance races, so accumulation is bounded.)
        votes = self._votes.setdefault(msg.instance, {}).setdefault(msg.rnd, {})
        votes[src] = msg.val
        count = sum(1 for v in votes.values() if v == msg.val)
        if count < self.config.quorums.classic_quorum_size:
            return
        if existing is not None:
            _check_consistent(msg.instance, existing, msg.val)
        self._learn(msg.instance, msg.val)

    def _learn(self, instance: int, val: Hashable) -> None:
        self.decided[instance] = val
        self._top_decided = max(self._top_decided, instance)
        self._votes.pop(instance, None)
        for cmd in _commands_of(val):
            self.metrics.record_learn(cmd, self.pid, self.now)
        self._ack(val, instance)
        self._deliver_ready()

    def _ack(self, val: Hashable, instance: int = -1) -> None:
        if val == NOOP:
            return
        self.acks_sent += 1
        report = Learned(_commands_of(val), instance)
        self.broadcast(self.config.topology.proposers, report)

    def on_idecided(self, msg: IDecided, src: Hashable) -> None:
        for instance, value in msg.entries:
            if instance < self._truncated_below:
                # Delivered, checkpointed and truncated -- but the
                # announcement means some proposer is still retrying, so
                # re-ack.
                self._ack(value, instance)
                continue
            existing = self.decided.get(instance)
            if existing is not None:
                _check_consistent(instance, existing, value)
                # Re-ack: the announcement means some proposer is still
                # retrying, i.e. an earlier ack was lost.
                self._ack(value, instance)
                continue
            self._learn(instance, value)

    # -- gap detection and catch-up -----------------------------------------

    def gaps(self, limit: int | None = None, start: int | None = None) -> list[int]:
        """Undecided instances up to the highest known-decided instance.

        Scans only the [delivery frontier, top decided] window, so the
        periodic gap poll is O(1) at quiescence instead of rescanning the
        whole decided history.  The scan is *inclusive* of the top:
        ``_top_decided`` is raised by checkpoint advertisements to
        ``frontier - 1`` without that instance being locally decided, and
        the last pre-checkpoint instance must be requestable too (when
        ``_top_decided`` was learned locally, the ``in decided`` filter
        drops it as before).

        ``limit`` stops the scan after that many gaps: a laggard whose
        top was advertisement-raised far beyond its log must not pay an
        O(deficit) scan per tick to fill a ``MAX_RESEND``-sized request.
        ``start`` raises the scan's lower bound (the log tier's actual
        coverage while a snapshot install is in flight).
        """
        lo = self._next_delivery if start is None else max(start, self._next_delivery)
        found: list[int] = []
        for i in range(lo, self._top_decided + 1):
            if i not in self.decided:
                found.append(i)
                if limit is not None and len(found) >= limit:
                    break
        return found

    def _catchup_tick(self) -> None:
        # Resumable snapshot install: the shared installer re-requests
        # missing chunks, abandons stalled transfers (re-sourcing via
        # _request_install) and drops transfers that ordinary log replay
        # already overtook.
        start = self._installer.tick(self._request_install)
        # Log-tier gap poll.  While a snapshot install is in flight, only
        # gaps at or above its frontier are worth requesting from the log
        # -- everything below arrives with the chunks, and acceptors could
        # only answer ITruncated churn anyway.
        missing_instances = self.gaps(limit=MAX_RESEND, start=start)
        if not missing_instances:
            return
        self.catchup_requests += 1
        request = ICatchUp(tuple(missing_instances))
        peers = [pid for pid in self.config.topology.learners if pid != self.pid]
        self.broadcast(self.config.topology.acceptors, request)
        self.broadcast(peers, request)

    def on_icatchup(self, msg: ICatchUp, src: Hashable) -> None:
        """Answer a peer's gap request: its known decisions, or a snapshot
        offer.

        Every listed instance we know decided rides one :class:`IDecided`
        (the request is capped at ``MAX_RESEND``, so the answer is too);
        instances we truncated (below our checkpoint) are answered with a
        snapshot offer instead (tier two of catch-up).
        """
        known = []
        offered = False
        for instance in msg.instances:
            value = self.decided.get(instance)
            if value is not None:
                known.append((instance, value))
            elif instance < self.snap_frontier and not offered:
                self.send(src, ISnapshotOffer(self.snap_frontier))
                offered = True
        if known:
            self.send(src, IDecided(tuple(known)))

    # -- checkpointing ------------------------------------------------------

    def _truncate_log(self, bound: int) -> None:
        """Drop decided entries and vote buffers below *bound*.

        Iterates the retained keys, not the instance range: a laggard
        installing a far-ahead checkpoint must pay O(retained entries),
        not O(frontier jump).
        """
        if bound <= self._truncated_below:
            return
        for instance in [i for i in self.decided if i < bound]:
            del self.decided[instance]
        for instance in [i for i in self._votes if i < bound]:
            del self._votes[instance]
        self._truncated_below = bound

    def _on_peer_checkpoint(self, msg: ICheckpoint, src: Hashable) -> None:
        if msg.frontier > self._next_delivery:
            # Everything below the peer's checkpoint is decided; surface
            # the deficit as a gap so the two-tier catch-up resolves it
            # (log replay above the cluster floor, install below it) --
            # this is how a restarted laggard discovers how far behind it
            # is without any new client traffic.
            self._top_decided = max(self._top_decided, msg.frontier - 1)

    def on_isnapshotoffer(self, msg: ISnapshotOffer, src: Hashable) -> None:
        if msg.frontier <= self._next_delivery:
            return  # no gain: we are already past the offered checkpoint
        self._installer.begin(src, msg.frontier)

    def _install_snapshot(
        self, frontier: int, delivered: tuple, machine_state: Hashable | None
    ) -> None:
        """Adopt a fully assembled peer checkpoint (state transfer).

        The agreed total order makes our delivered sequence a prefix of
        the checkpoint's, so adoption is a fast-forward: machine state,
        executed order and dedup evidence all come from the checkpoint,
        the delivery frontier jumps to its frontier, and ordinary log
        replay resumes above it.  The installed checkpoint immediately
        becomes our own journalled checkpoint (a crash right after the
        install must not send us below the cluster's truncation floor
        again).
        """
        if frontier <= self._next_delivery:
            return
        self.snapshot_installs += 1
        snapshot = {"frontier": frontier, "delivered": delivered, "machine": machine_state}
        self.storage.write("snapshot", snapshot)
        self._adopt_checkpoint(snapshot)
        self._deliver_ready()  # buffered decisions above the frontier

    def _fast_forward(self, snapshot: dict) -> None:
        frontier = snapshot["frontier"]
        self._next_delivery = frontier
        self._top_decided = max(self._top_decided, frontier - 1)
        self._truncate_log(frontier)

    def _deliver_ready(self) -> None:
        while self._next_delivery in self.decided:
            value = self.decided[self._next_delivery]
            self._next_delivery += 1
            for cmd in _commands_of(value):
                if cmd in self._seen:
                    # At-most-once delivery: assignment races may decide the
                    # same command in two instances; later copies are no-ops.
                    continue
                self._deliver((cmd,))
        self._maybe_snapshot()


class SMRCluster(Cluster):
    """A deployed multicoordinated replication group.

    Driving it is the engine-agnostic :class:`~repro.core.cluster.Cluster`;
    what the instances engine adds is read-only: its per-layer counters
    and retained-state census.
    """

    proposers: list[SMRProposer]
    coordinators: list[SMRCoordinator]
    acceptors: list[SMRAcceptor]
    learners: list[SMRLearner]

    reliability_counters = {
        **Cluster.reliability_counters,
        "gossip_rounds": ("coordinators", "gossip_sent"),
        "acks": ("learners", "acks_sent"),
    }

    def retained_state(self) -> dict[str, int]:
        """Worst-case per-process retained per-instance state, by kind.

        The bounded-memory claim of the checkpointing layer (E12, the
        long-run tests) is about exactly these numbers: with a
        ``CheckpointConfig`` they must track the checkpoint *window*, not
        the total history.
        """
        return {
            "acceptor votes": max(len(a.votes) for a in self.acceptors),
            "acceptor journal": max(
                a.storage.prefix_count("vote") for a in self.acceptors
            ),
            "coordinator decided": max(len(c.decided) for c in self.coordinators),
            "coordinator dedup": max(
                len(c._decided_values) for c in self.coordinators
            ),
            "learner decided": max(len(l.decided) for l in self.learners),
            "learner votes": max(len(l._votes) for l in self.learners),
        }


def make_instances_config(
    n_proposers: int = 2,
    n_coordinators: int = 3,
    n_acceptors: int = 3,
    n_learners: int = 1,
    schedule: RoundSchedule | None = None,
    liveness: LivenessConfig = LivenessConfig(),
    f: int | None = None,
    batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    checkpoint: CheckpointConfig | None = None,
    sessions: SessionConfig | None = None,
) -> InstancesConfig:
    """The deployment-independent engine config for a cluster shape.

    Shared by :func:`build_smr` (simulator, whole cluster in one runtime)
    and the networked node entrypoint (:mod:`repro.net.node`, each OS
    process builds the identical config and instantiates only its hosted
    roles) -- both backends must agree on topology, quorums and round
    schedule for the role classes to interoperate.
    """
    topology = Topology.build(n_proposers, n_coordinators, n_acceptors, n_learners)
    quorums = QuorumSystem(topology.acceptors, f=f)
    if schedule is None:
        schedule = RoundSchedule(range(n_coordinators), recovery_rtype=1)
    return InstancesConfig(
        topology=topology,
        quorums=quorums,
        schedule=schedule,
        liveness=liveness,
        batching=batching,
        retransmit=retransmit,
        checkpoint=checkpoint,
        sessions=sessions,
    )


def build_smr(
    sim: Runtime,
    n_proposers: int = 2,
    n_coordinators: int = 3,
    n_acceptors: int = 3,
    n_learners: int = 1,
    schedule: RoundSchedule | None = None,
    liveness: LivenessConfig = LivenessConfig(),
    f: int | None = None,
    batching: BatchingConfig = UNBATCHED,
    retransmit: RetransmitConfig = RetransmitConfig(),
    checkpoint: CheckpointConfig | None = None,
    sessions: SessionConfig | None = None,
) -> SMRCluster:
    """Deploy a multicoordinated MultiPaxos replication group on *sim*."""
    config = make_instances_config(
        n_proposers=n_proposers,
        n_coordinators=n_coordinators,
        n_acceptors=n_acceptors,
        n_learners=n_learners,
        schedule=schedule,
        liveness=liveness,
        f=f,
        batching=batching,
        retransmit=retransmit,
        checkpoint=checkpoint,
        sessions=sessions,
    )
    return deploy(sim, config)
