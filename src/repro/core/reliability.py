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

* :class:`ReliableProposer` -- the journalled batch buffer with its size
  and deadline flush, the registry of unacknowledged items with capped
  exponential backoff, retirement on acknowledgement or checkpoint
  coverage, the Section 4.1 per-proposal quorum pick, and crash-recovery
  re-shipping of everything journalled.
* :class:`ReliableCoordinator` -- the leader shell: failure detector,
  heartbeats, leadership, the recovery-round arithmetic of Section 4.3,
  the periodic reliability tick and a uniform :meth:`~ReliableCoordinator.
  flush`.

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

    * ``UNACKED_KEY`` / ``BUFFER_KEY`` -- the two journal keys;
    * :meth:`_ship` -- first transmission of a group of commands:
      :meth:`_track` its items (journalled before anything is on the
      wire), then send them in the engine's wire form;
    * :meth:`_resend` -- retransmission of one item;
    * the methods that :meth:`_retire` items: ``on_learned`` (how many
      learners' acks retire an item is the engine's rule), and
      ``_on_stable`` for the items a durable checkpoint quorum now covers
      (any learner still lacking those recovers by state transfer, and
      retrying on its behalf would pin the buffer while it is down);

    and may extend :meth:`_forget` (everything a crash loses, at its
    initial value -- also how the state is first created).
    """

    UNACKED_KEY: str
    BUFFER_KEY: str
    retry_state = RetryState

    def __init__(self, pid: str, sim: Runtime, config) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.balance_load = False
        self.retransmissions = 0
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
            # client message, not a half-registered item (which would
            # journal a retry whose timer never re-arms, or arm a flush
            # timer that fires dead and wedges every later partial
            # batch).  Client resubmission or proposer rotation is the
            # re-driver here.
            return
        self.metrics.record_propose(cmd, self.now)
        batching = self.config.batching
        if batching is None:
            self._ship((cmd,))
            return
        self._buffer.append(cmd)
        self._journal_buffer()
        if len(self._buffer) >= batching.max_batch:
            self.flush()
        elif self._flush_timer is None:
            self._flush_timer = self.set_timer(
                batching.flush_interval, self._flush_deadline
            )

    def flush(self) -> None:
        """Ship the buffered commands as one batch now (no-op when empty)."""
        if self._flush_timer is not None:
            self.drop_timer(self._flush_timer)
            self._flush_timer = None
        if not self._buffer:
            return
        cmds = tuple(self._buffer)
        self._buffer = []
        self._journal_buffer()
        self._ship(cmds)

    def _flush_deadline(self) -> None:
        self._flush_timer = None
        self.flush()

    def _journal_buffer(self) -> None:
        # Buffered commands have reached no coordinator yet, so a proposer
        # crash would otherwise lose them beyond the reach of the liveness
        # machinery.
        self.storage.write(self.BUFFER_KEY, tuple(self._buffer))

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

    def _register_unacked(self, item: Hashable) -> bool:
        """Arm the retry timer for *item*; True if newly tracked."""
        retransmit = self.config.retransmit
        if retransmit is None or item in self._unacked:
            return False
        state = self.retry_state(timer=None, interval=retransmit.retry_interval)
        state.timer = self.set_timer(state.interval, lambda: self._retry(item))
        self._unacked[item] = state
        return True

    def _track(self, items) -> None:
        """Track *items* unacked (retransmission on), journalling once."""
        changed = False
        for item in items:
            changed = self._register_unacked(item) or changed
        if changed:
            self._journal_unacked()

    def _retry(self, item: Hashable) -> None:
        state = self._unacked.get(item)
        retransmit = self.config.retransmit
        if state is None or retransmit is None:
            return
        self.retransmissions += 1
        # Exponential backoff, capped: an item stuck behind a long outage
        # keeps being offered without flooding the network meanwhile.
        state.interval = min(state.interval * retransmit.backoff, retransmit.max_interval)
        state.timer = self.set_timer(state.interval, lambda: self._retry(item))
        self._resend(item)

    def _retire(self, items) -> None:
        """Stop retransmitting those of *items* still tracked.

        The shrunken registry is journalled once, so a batch of
        retirements costs one disk write, not one per item.
        """
        changed = False
        for item in items:
            state = self._unacked.pop(item, None)
            if state is None:
                continue
            if state.timer is not None:
                self.drop_timer(state.timer)
            changed = True
        if changed:
            self._journal_unacked()

    def _journal_unacked(self) -> None:
        self.storage.write(self.UNACKED_KEY, tuple(self._unacked))

    # -- crash-recovery ------------------------------------------------------

    def on_recover(self) -> None:
        # Unacked items first: they were in flight before the crash, so
        # re-arming and re-sending them is a retry.
        for item in self.storage.read(self.UNACKED_KEY, ()):
            if self._register_unacked(item):
                self._resend(item)
        # Then the buffer, as one flush.  The rebuilt buffer equals the
        # journal just read, so it needs no re-journalling first.
        buffered = self.storage.read(self.BUFFER_KEY, ())
        if buffered:
            self._buffer = list(buffered)
            self.flush()


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
        self.highest_seen: RoundId = ZERO
        self.rounds_started = 0
        self._last_round_change = 0.0
        self._forget()
        self._fd: FailureDetector | None = None
        if config.liveness is not None:
            peers = list(enumerate(config.topology.coordinators))
            self._fd = FailureDetector(
                self, index, peers, config.liveness, on_check=self._progress_check
            )
        self._start_timers()

    def _forget(self) -> None:
        super()._forget()
        self.crnd: RoundId = ZERO

    def _start_timers(self) -> None:
        if self._fd is not None:
            self._fd.start()
        if self.config.retransmit is not None:
            self.set_periodic_timer(
                self.config.retransmit.gossip_interval, self._reliability_tick
            )

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
        if self._fd is not None:
            self._fd.on_heartbeat(msg)

    def is_leader(self) -> bool:
        return self._fd.is_leader() if self._fd is not None else self.index == 0

    def _recovery_round(self) -> RoundId:
        """The next round of ours above every round seen so far."""
        base = max(self.highest_seen, self.crnd)
        return RoundId(
            mcount=base.mcount,
            count=base.count + 1,
            coord=self.index,
            rtype=self.config.liveness.recovery_rtype,
        )

    def flush(self) -> None:
        """Forward now whatever is held back for coalescing (by default,
        nothing is)."""

    def on_recover(self) -> None:
        # Timers died with the crash.
        self._start_timers()
