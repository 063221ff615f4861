"""The reliability core both engines build on: proposer and coordinator halves.

The paper states one algorithm parameterised by a c-struct set (Sections
2.3.1 and 3); what surrounds it on fair-lossy links -- "a message sent
infinitely often is delivered infinitely often", so every message needs
a re-driver -- does not depend on the c-struct at all.  This module holds
the one copy of that surrounding machinery for two of the four roles
(the learner's half, checkpointing and state transfer, is
:class:`repro.core.checkpoint.CheckpointingLearner`).  Both build on
:class:`repro.core.checkpoint.CheckpointFollower`, as the acceptors do:
one ``ICheckpoint`` handler, one crash hook, and an ``_on_stable`` hook
for what the grown stable prefix lets the role forget.

* :class:`ReliableProposer` -- the batch buffer with its size and
  deadline flush, the registry of unacknowledged items with capped
  exponential backoff, retirement on acknowledgement or checkpoint
  coverage, and the Section 4.1 per-proposal quorum pick.  All of it is
  volatile: a proposer, like a coordinator, keeps no stable state
  (Section 4.4), and the client resubmits what a proposer crash lost.
* :class:`ReliableCoordinator` -- the leader shell: failure detector,
  heartbeats, leadership, the recovery-round arithmetic of Section 4.3
  and the periodic reliability tick.

An engine supplies only its ordering: the wire form of a proposal, the
acknowledgement it retires on and what "covered by a checkpoint" means
for its log shape (an instance number in :mod:`repro.smr.instances`, a
member of the stable command set in :mod:`repro.core.generalized`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.checkpoint import CheckpointFollower
from repro.core.liveness import FailureDetector, Heartbeat
from repro.core.rounds import ZERO, RoundId
from repro.core.runtime import Runtime

#: RType of the rounds the leader starts to restore progress.  Section 4.3
#: recommends single-coordinated: such a round cannot collide, and it
#: needs only its one coordinator -- the leader starting it -- to be up.
RECOVERY_RTYPE = 1


@dataclass(frozen=True)
class BatchingConfig:
    """How a proposer groups commands (unbatched: :data:`UNBATCHED`), and
    how far a coordinator pipelines.

    Both fields size the proposers only: a generalized-engine coordinator
    forwards every ``ProposeBatch`` one delivery batch brought it (on
    sockets, one drain of the receive pump) with one ``extend`` and one
    phase "2a", whatever ``max_batch`` is.

    Attributes:
        max_batch: Commands per batch; reaching it flushes immediately.
        flush_interval: Virtual-time deadline after the first buffered
            command at which a proposer flushes a partial batch anyway.
        pipeline_depth: Maximum self-assigned in-flight (undecided)
            instances per instances-engine coordinator, counting *fresh*
            proposals only (retries use
            :data:`repro.smr.instances.RETRY_LANE` slots on top); ``None``
            is an unbounded window.  The generalized engine ignores it.
    """

    max_batch: int = 8
    flush_interval: float = 2.0
    pipeline_depth: int | None = 4

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")


#: Every command ships alone, as soon as it is proposed, into an
#: unbounded pipeline: the default of both engines.  A proposer still
#: sends each command by itself; a generalized coordinator forwards what
#: one delivery batch brought it together.
UNBATCHED = BatchingConfig(max_batch=1, pipeline_depth=None)


@dataclass
class RetryState:
    """Retransmission bookkeeping of one unacknowledged item."""

    timer: object
    interval: float


class ReliableProposer(CheckpointFollower):
    """Batches, ships and retransmits proposals until they need no re-driver.

    An *item* is what one acknowledgement retires: a value in the
    instances engine (a command, or a whole ``Batch``), a command in the
    generalized one.  Subclasses provide

    * :meth:`_ship` -- first transmission of a group of commands:
      :meth:`_track` its items, then send them in the engine's wire form;
    * :meth:`_resend` -- retransmission of one item;
    * the methods that :meth:`_retire` items: ``on_learned`` (how many
      learners' acks retire an item is the engine's rule), and
      ``_on_stable`` for the items a durable checkpoint quorum now covers
      (any learner still lacking those recovers by state transfer, and
      retrying on its behalf would pin the buffer while it is down);

    and may extend :meth:`_forget` (everything a crash loses, at its
    initial value -- also how the state is first created).

    A proposer writes nothing to stable storage (Section 4.4): a crash
    loses its buffer and its registry, and a recovered proposer starts
    empty, as a recovered coordinator does.  The client is the re-driver
    of what was lost (:class:`repro.smr.client.Client` resubmits after
    ``retry_interval``), and learners deliver a resubmitted command at
    most once.
    """

    # The buffer, its deadline and the unacked registry all die with a
    # crash; the client's resubmission re-drives their commands.
    VOLATILE = {"_buffer", "_flush_timer", "_unacked"}
    retry_state = RetryState

    def __init__(self, pid: str, sim: Runtime, config) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.balance_load = False
        self.retransmissions = 0
        self.held_resubmissions = 0  # proposals skipped: already buffered
        self._forget()

    def _forget(self) -> None:
        super()._forget()
        self._buffer: list[Hashable] = []
        self._flush_timer = None
        self._unacked: dict[Hashable, RetryState] = {}

    # -- batching ------------------------------------------------------------

    def propose(self, cmd: Hashable) -> None:
        if not self.alive:
            # A crashed proposer accepts nothing -- the command is a lost
            # client message, not a half-registered item (a retry whose
            # timer never re-arms, or a flush timer that fires dead and
            # wedges every later partial batch).  Client resubmission,
            # through the next proposer that is up, is the re-driver.
            return
        if cmd in self._buffer:
            # A resubmission of a command not yet shipped: the flush ships
            # it, and a second copy would only ride along in the same
            # proposal for the learners to skip.  (One already shipped is
            # proposed again: if its copy was lost, that is the quickest
            # retransmission there is -- the retry timer backs off.)
            self.held_resubmissions += 1
            return
        self.metrics.record_propose(cmd, self.now)
        self._admit(cmd)

    def _admit(self, cmd: Hashable) -> None:
        """Buffer *cmd*, or ship it with the buffer if it completes a batch."""
        batching = self.config.batching
        if len(self._buffer) + 1 >= batching.max_batch:
            # The command completing a batch ships with it.
            self._flush((cmd,))
            return
        self._buffer.append(cmd)
        if self._flush_timer is None:
            self._flush_timer = self.set_timer(
                batching.flush_interval, self._flush_deadline
            )

    def flush(self) -> None:
        """Ship the buffered commands as one batch now (no-op when empty)."""
        self._flush(())

    def _flush(self, last: tuple) -> None:
        """Ship the buffer, then *last*, as one batch."""
        if self._flush_timer is not None:
            self.drop_timer(self._flush_timer)
            self._flush_timer = None
        cmds = (*self._buffer, *last)
        self._buffer = []
        if cmds:
            self._ship(cmds)

    def _flush_deadline(self) -> None:
        self._flush_timer = None
        self.flush()

    def _pick_quorums(self) -> tuple[frozenset[int] | None, frozenset[str] | None]:
        """One coordinator quorum and one classic acceptor quorum, uniformly
        at random, when load balancing is on (Section 4.1); else no hint."""
        if not self.balance_load:
            return None, None
        rng = self.sim.rng
        coords = list(self.config.schedule.coordinators)
        coord_quorum = frozenset(rng.sample(coords, len(coords) // 2 + 1))
        accs = list(self.config.topology.acceptors)
        size = self.config.quorums.classic_quorum_size
        return coord_quorum, frozenset(rng.sample(accs, size))

    # -- retransmission ------------------------------------------------------

    def _track(self, items) -> None:
        """Arm a retry timer for each of *items* not yet tracked."""
        interval = self.config.retransmit.retry_interval
        for item in items:
            if item not in self._unacked:
                timer = self.set_timer(interval, lambda item=item: self._retry(item))
                self._unacked[item] = self.retry_state(timer=timer, interval=interval)

    def _retry(self, item: Hashable) -> None:
        state = self._unacked.get(item)
        if state is None:
            return
        retransmit = self.config.retransmit
        self.retransmissions += 1
        # Exponential backoff, capped: an item stuck behind a long outage
        # keeps being offered without flooding the network meanwhile.
        state.interval = min(state.interval * retransmit.backoff, retransmit.max_interval)
        state.timer = self.set_timer(state.interval, lambda: self._retry(item))
        self._resend(item)

    def _retire(self, items) -> None:
        """Stop retransmitting those of *items* still tracked."""
        for item in items:
            state = self._unacked.pop(item, None)
            if state is not None:
                self.drop_timer(state.timer)


class ReliableCoordinator(CheckpointFollower):
    """The leader shell around an engine's coordinator.

    Owns what Section 4.3 asks of any coordinator regardless of what it
    orders: an unreliable failure detector over heartbeats, "the leader
    is the smallest trusted index", the next recovery round above
    everything seen, and the periodic reliability tick.  Subclasses
    provide ``PHASE1A`` (their phase "1a" message class), ``_adopt``
    (what changing round resets), ``_progress_check`` (the leader's stuck
    predicate), ``_reliability_tick`` (what to re-announce), ``_on_stable``
    (what to garbage-collect) and extend :meth:`_forget` (everything a
    crash loses, at its initial value -- also how that state is first
    created).
    """

    PHASE1A: type

    # Coordinators keep no stable state (Section 4.4): a recovered one
    # starts a higher round, so its round bookkeeping is lost on crash.
    VOLATILE = {"_last_round_change", "crnd", "highest_seen", "rounds_started"}

    def __init__(self, pid: str, sim: Runtime, config, index: int) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.index = index
        self.rounds_started = 0
        self._forget()
        peers = list(enumerate(config.topology.coordinators))
        self._fd = FailureDetector(
            self, index, peers, config.liveness, on_check=self._progress_check
        )
        self._start_timers()

    def _forget(self) -> None:
        super()._forget()
        self.crnd: RoundId = ZERO
        self.highest_seen: RoundId = ZERO
        self._last_round_change = 0.0

    def _start_timers(self) -> None:
        self._fd.start()
        self.set_periodic_timer(self.config.retransmit.gossip_interval, self._reliability_tick)

    def start_round(self, rnd: RoundId) -> None:
        """Phase1a(c, i): adopt *rnd* and ask the acceptors to join it."""
        if not self.config.schedule.is_coordinator_of(self.index, rnd):
            raise ValueError(f"coordinator {self.index} does not coordinate {rnd}")
        if rnd <= self.crnd:
            raise ValueError(f"round {rnd} is not above current round {self.crnd}")
        self._adopt(rnd)
        self.rounds_started += 1
        self._last_round_change = self.now
        self.broadcast(self.config.topology.acceptors, self.PHASE1A(rnd))

    def on_heartbeat(self, msg: Heartbeat, src: Hashable) -> None:
        self._fd.on_heartbeat(msg)

    def is_leader(self) -> bool:
        return self._fd.is_leader()

    def _recovery_round(self) -> RoundId:
        """The next round of ours above every round seen so far."""
        base = max(self.highest_seen, self.crnd)
        return RoundId(
            mcount=base.mcount,
            count=base.count + 1,
            coord=self.index,
            rtype=RECOVERY_RTYPE,
        )

    def on_recover(self) -> None:
        # Timers died with the crash.
        self._start_timers()
