"""Shared production-engine plumbing: reliability and checkpointing.

The paper's protocols are stated over reliable channels and unbounded
memory; the production engines (the multi-instance engine of
:mod:`repro.smr.instances` and the generalized engine of
:mod:`repro.core.generalized`) add two layers on top:

* **Retransmission** (always on; :class:`RetransmitConfig` holds its
  timings) -- the self-healing re-drivers that make every end-to-end path
  live on fair-lossy links: proposer-side retransmission with exponential
  backoff, coordinator gossip / re-announcement, and learner gap polling.
* **Checkpointing** (opt-in: :class:`CheckpointConfig`, :class:`StableFrontier`,
  and the snapshot-transfer messages) -- learners periodically checkpoint
  their replica, advertise the frontier (:class:`ICheckpoint`), and every
  process folds the advertisements into one view of the collective
  stable prefix below which per-instance (or per-command) state is
  garbage-collected; laggards below the truncation floor recover through
  chunked, resumable snapshot install (:class:`ISnapshotOffer` /
  :class:`ISnapshotRequest` / :class:`ISnapshotChunk`) instead of log
  replay.

Both engines share these classes -- the configs and their cross-layer
rules (:func:`validate_layers`), the messages, the stable-prefix view,
the transfer state machine and the two checkpoint roles: every proposer,
coordinator and acceptor follows checkpoints through one
:class:`CheckpointFollower` (what differs is what its ``_on_stable``
forgets), and every learner is a :class:`CheckpointingLearner`; the rest
of the proposer and coordinator halves is in
:mod:`repro.core.reliability`.  What *frontier* means differs.  In the
multi-instance engine it is an instance number (every instance below it is
applied in the checkpoint).  In the generalized engine it is the *size* of
a stable prefix of the command-history lattice, and :class:`ICheckpoint`
additionally carries the prefix's command set (``members``) so receivers
can truncate their histories by membership -- command histories interleave
commuting commands, so a stable prefix is a sub-*lattice*, not a sequence
position.  See ``docs/messages.md`` for the full message taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Hashable

from repro.core.runtime import Process, Runtime
from repro.core.sessions import SessionDedup, members_intersection, members_union


@dataclass(frozen=True)
class RetransmitConfig:
    """Timings of the re-drivers (see the engine module docstrings).

    Retransmission is not a layer that can be off: on fair-lossy links
    every message needs a re-driver.  These are only its timings, which
    differ between virtual and wall-clock time.

    Attributes:
        retry_interval: Delay before a proposer's first retransmission of
            an unacked value.
        backoff: Multiplier applied to the retry delay after each attempt.
        max_interval: Cap on the (backed-off) retry delay.
        gossip_interval: Period of the coordinators' gossip / 2a
            re-announce tick.
        catchup_interval: Period of the learners' gap-detection poll.
    """

    retry_interval: float = 6.0
    backoff: float = 2.0
    max_interval: float = 48.0
    gossip_interval: float = 8.0
    catchup_interval: float = 6.0

    def __post_init__(self) -> None:
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be at least 1")
        if self.max_interval < self.retry_interval:
            raise ValueError("max_interval must be at least retry_interval")
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.catchup_interval <= 0:
            raise ValueError("catchup_interval must be positive")


@dataclass
class CheckpointConfig:
    """Checkpointing / log-truncation knobs (see the engine docstrings).

    Attributes:
        interval: Delivered instances (multi-instance engine) or learned
            commands (generalized engine) between learner checkpoints.
        gc_quorum: Collective-safe-frontier policy.  ``None``: truncate
            below the *minimum* advertised frontier over all learners
            (per-replica policy -- nothing a live learner still lacks is
            dropped, but one dead learner halts GC).  ``k``: truncate
            below the k-th highest frontier (quorum-of-replicas policy --
            at least ``k`` learners hold a durable checkpoint covering
            the dropped range, and laggards below it are recovered by
            snapshot install).
        chunk_size: Commands per ``ISnapshotChunk`` during state transfer.
        advertise_interval: Period of the learners' frontier re-announce
            tick (heals lost ``ICheckpoint`` messages; also lets a
            restarted laggard discover how far behind it is without any
            new client traffic).
    """

    interval: int = 32
    gc_quorum: int | None = None
    chunk_size: int = 64
    advertise_interval: float = 8.0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be at least 1")
        if self.gc_quorum is not None and self.gc_quorum < 1:
            raise ValueError("gc_quorum must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.advertise_interval <= 0:
            raise ValueError("advertise_interval must be positive")


def validate_layers(config) -> None:
    """The cross-layer rules every engine config obeys (``__post_init__``).

    *config* is any engine config exposing ``sessions``, ``checkpoint``
    and ``topology.learners``.
    """
    if config.sessions is not None and config.checkpoint is None:
        # The session windows' dedup evidence rides the checkpoint (and
        # the delivered tail is pruned at snapshot time) -- bounding dedup
        # memory without a snapshot carrier would lose the at-most-once
        # guarantee across install/recovery.
        raise ValueError("sessions require checkpoint (the snapshot carrier)")
    if config.checkpoint is None:
        return
    gc_quorum = config.checkpoint.gc_quorum
    if gc_quorum is not None and gc_quorum > len(config.topology.learners):
        # Silently clamping would truncate with fewer durable checkpoint
        # copies than the operator's policy promised.
        raise ValueError(
            f"gc_quorum {gc_quorum} exceeds the {len(config.topology.learners)} learners"
        )


class StableFrontier:
    """One process's view of what the cluster may forget.

    A learner's checkpoint is a stable prefix of what it learned; this
    view folds the advertised ones (``ICheckpoint``) into the collective
    stable prefix.  ``safe_bound()`` is the largest frontier such that
    the checkpoint policy guarantees every truncated record is covered
    by a durable checkpoint: the minimum advertised frontier
    (``gc_quorum=None``) or the k-th highest (``gc_quorum=k``).
    Unheard-from learners count as frontier 0, so the bound can only
    advance on positive evidence; it is monotone because advertised
    frontiers are.

    A checkpoint identified by position (the instances engine: every
    instance below it) needs nothing more -- ``bound`` is what may be
    forgotten.  One that carries its command set (the generalized
    engine: histories interleave commuting commands, so a stable prefix
    is a sub-lattice, not a position) makes ``base`` operative: the
    *intersection* of the member sets of the learners whose frontiers
    justify the bound.  The intersection is what makes truncation safe
    under commuting-command divergence -- a command is only dropped once
    every counted learner has it in a durable checkpoint.  ``union``
    accumulates every advertised-stable command and reconciles transient
    base skew between processes (a command stable *somewhere durable*
    can always be discounted from a compatibility check).  Bases grow
    along a chain: a learner's later checkpoint contains its earlier
    one, so intersections only ever widen.
    """

    def __init__(self, learners, gc_quorum: int | None) -> None:
        self._frontiers: dict[Hashable, int] = {pid: 0 for pid in learners}
        self._quorum = gc_quorum
        # Member sets are frozensets, or compact SessionMembers claims
        # under SessionConfig -- everything below goes through the
        # representation-agnostic members_union/members_intersection.
        self._members: dict[Hashable, object] = {}
        self._held = frozenset()
        self._held_stale = False
        self.bound = 0
        self.base = frozenset()
        self.union = frozenset()

    @classmethod
    def from_config(cls, config) -> "StableFrontier":
        """The view under *config*: any engine config exposing
        ``checkpoint`` and ``topology.learners``.  Without checkpointing
        nothing is ever advertised, so it stays empty."""
        checkpoint = config.checkpoint
        gc_quorum = None if checkpoint is None else checkpoint.gc_quorum
        return cls(config.topology.learners, gc_quorum)

    def safe_bound(self) -> int:
        fronts = sorted(self._frontiers.values(), reverse=True)
        if not fronts:
            return 0
        k = len(fronts) if self._quorum is None else min(self._quorum, len(fronts))
        return fronts[k - 1]

    def fold(self, src: Hashable, frontier: int, members=None) -> bool:
        """Record one advertisement; True when what may be forgotten grew.

        That is ``bound`` for a checkpoint identified by position
        (*members* None) and ``base`` for one carrying its command set --
        which stays put while a contributor's set is still in flight, even
        when ``bound`` advances.
        """
        if src in self._frontiers and frontier > self._frontiers[src]:
            self._frontiers[src] = frontier
        if members:
            previous = self._members.get(src)
            if previous is None or len(members) > len(previous):
                self._members[src] = members
                self.union = members_union(self.union, members)
                self._held_stale = True
        bound = self.safe_bound()
        if bound <= self.bound:
            return False
        if members is None:
            self.bound = bound
            return True
        # The contributors: the learners whose checkpoints justify *bound*.
        sets = [self._members.get(pid) for pid, f in self._frontiers.items() if f >= bound]
        if any(s is None for s in sets):
            return False  # a contributor's member set is still in flight
        self.bound = bound
        base = sets[0]
        for other in sets[1:]:
            base = members_intersection(base, other)
        # Once stable, always stable: the contributors change between
        # bounds, and a new intersection can miss a command an old one
        # held -- which every process that already dropped it keeps
        # dropped, so it must stay outside this process's frame too.
        base = members_union(self.base, base)
        if len(base) <= len(self.base):
            return False
        self.base = base
        self._held_stale = True
        return True

    def held(self):
        """Every command the policy's k learners hold in a checkpoint.

        Counted per command over the member sets, whichever k hold it --
        not read off the learners that justify the current bound.  A
        learner's own checkpoint is among those, so its ``base`` never
        shows a command it lacks; this does, once k peers hold it, and the
        others may have truncated it by then.  Monotone, and it contains
        ``base``.
        """
        if self._held_stale:
            self._held_stale = False
            k = len(self._frontiers) if self._quorum is None else self._quorum
            held = members_union(self._held, self.base)
            for group in combinations(self._members.values(), k):
                common = group[0]
                for other in group[1:]:
                    common = members_intersection(common, other)
                held = members_union(held, common)
            self._held = held
        return self._held

    def members_of(self, src: Hashable):
        """The largest member set *src* advertised (None: none yet)."""
        return self._members.get(src)

    def adopt(self, bound: int, base) -> None:
        """Jump to a checkpoint's stable prefix (recovered or installed)."""
        self.bound = max(self.bound, bound)
        self.base = base
        self.union = members_union(self.union, base)

    def project(self, val):
        """*val* in this process's frame: the stable base stripped.

        Senders lagging behind in truncation still carry stable-prefix
        commands; receivers fold everything into their own base frame
        before comparing or merging.
        """
        return val.without(self.base) if self.base else val

    def outside(self, cmds):
        """The commands of *cmds* in this process's frame (not in the base)."""
        base = self.base
        return [c for c in cmds if c not in base] if base else cmds


# -- checkpoint / state-transfer messages (shared by both engines) -------------


@dataclass(frozen=True)
class ICheckpoint:
    """Learner -> everyone: I hold a durable checkpoint at *frontier*.

    Every instance (or stable-prefix command) below *frontier* is applied
    in the sender's snapshot; receivers fold the advertisement into their
    :class:`StableFrontier` and garbage-collect below it (per the
    :class:`CheckpointConfig` policy).

    ``members`` is used by the generalized engine only: the command *set*
    of the checkpointed stable prefix.  Command histories interleave
    commuting commands in canonical order, so truncation is by membership,
    not by position -- receivers split their history at the largest
    downward-closed prefix inside ``members``.  ``None`` for the
    multi-instance engine, whose frontier is a plain instance number.
    Under :class:`repro.core.sessions.SessionConfig` the set travels as a
    compact :class:`repro.core.sessions.SessionMembers` claim (per-client
    interval runs) instead of a frozenset; both duck-type the membership
    operations the truncation path uses.
    """

    frontier: int
    members: object | None = None  # frozenset | SessionMembers


@dataclass(frozen=True)
class ITruncated:
    """The sender's log was truncated below *floor*.

    Answers requests (catch-up, stale 2as) for instances the sender has
    garbage-collected.  Safe to trust like ``IDecided``: the sender's
    floor was derived from checkpoint advertisements, i.e. every instance
    below it is decided and covered by a durable checkpoint somewhere.
    Learners react by requesting snapshot install; coordinators adopt the
    floor and retire their own sub-floor state.
    """

    floor: int


@dataclass(frozen=True)
class ISnapshotOffer:
    """Peer learner -> laggard: install my checkpoint at *frontier*."""

    frontier: int


@dataclass(frozen=True)
class ISnapshotRequest:
    """Laggard -> checkpoint owner: send snapshot chunks.

    ``chunks=None`` requests the full transfer; a tuple re-requests only
    the listed chunk sequence numbers (the resumable path after loss).
    """

    chunks: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ISnapshotChunk:
    """One chunk of a checkpoint transfer.

    Chunk 0 carries the machine state (the header); every chunk carries a
    slice of the checkpoint's delivered command sequence plus the total
    chunk count, so assembly is order-independent and resumable.
    """

    frontier: int
    seq: int
    total: int
    payload: tuple
    machine: Hashable | None = None


# -- the snapshot-transfer state machines (shared by both engines) -------------


class SnapshotInstaller:
    """Client side of the chunked, resumable snapshot transfer.

    Both engines' learners run the same install machine; only *wants* --
    would a source's checkpoint at a frontier add to what we hold? -- and
    whether a transfer is pinned to one source differ.  On the
    multi-instance engine a checkpoint is a position, wanted when its
    frontier passes the delivery frontier.  On the generalized engine a
    frontier is a command *count* and a checkpoint a set, which a count
    does not order: a peer holding fewer commands can still hold ones we
    lack.  ``sticky_source=True`` is the generalized engine's rule: two
    learners can checkpoint at the same frontier with *different*
    delivered sequences (commuting divergence), so mixing chunks from
    different senders would assemble a snapshot matching neither.  The
    multi-instance engine's agreed total order makes same-frontier
    checkpoints identical, so it adopts the latest sender instead (late
    chunks of an abandoned transfer still help).

    All state here is deliberately volatile: a crash drops the transfer
    and the periodic catch-up tick re-sources it from scratch.
    """

    #: ticks without a new chunk before a transfer is abandoned/re-sourced
    STALL_LIMIT = 4

    def __init__(
        self,
        process: Any,
        wants: Callable[[Hashable, int], bool],
        sticky_source: bool = False,
    ) -> None:
        self._process = process
        self._wants = wants
        self._sticky_source = sticky_source
        self.pending: dict | None = None
        self.avoid: Hashable | None = None  # last stalled-out source

    def reset(self) -> None:
        """Drop all transfer state (crash, or adoption elsewhere)."""
        self.pending = None
        self.avoid = None

    def tick(self, request_install: Callable[[], None]) -> int | None:
        """Drive the in-flight transfer from the periodic catch-up tick.

        Re-requests the missing chunks -- or the whole transfer, if the
        initial request (or every chunk) was lost and we never learned the
        chunk count.  A transfer that makes no progress for several ticks
        is abandoned so *request_install* can re-source it (its sender may
        have crashed); one that ordinary replay already overtook is
        dropped outright (its chunks would all be discarded on arrival
        anyway).

        Returns the frontier of the transfer still in flight after
        servicing, or None -- crucially None right after a stall-abandon
        even if *request_install* started a replacement, so the caller's
        log-tier poll covers the same range the old code did.
        """
        pend = self.pending
        if pend is not None and not self._wants(pend["src"], pend["frontier"]):
            pend = self.pending = None
        if pend is None:
            return None
        received = len(pend["chunks"])
        if received == pend.get("last_received", -1):
            pend["stalls"] = pend.get("stalls", 0) + 1
        else:
            pend["stalls"] = 0
        pend["last_received"] = received
        if pend["stalls"] >= self.STALL_LIMIT:
            # The source stopped answering (likely crashed): abandon and
            # re-source, preferring a different peer.
            self.avoid = pend["src"]
            self.pending = None
            request_install()
            return None
        if pend["total"] is None:
            self._process.send(pend["src"], ISnapshotRequest())
        else:
            missing = tuple(
                seq for seq in range(pend["total"]) if seq not in pend["chunks"]
            )
            if missing:
                self._process.send(pend["src"], ISnapshotRequest(missing))
        return pend["frontier"]

    def request_from_best(self, frontiers: dict[Hashable, int]) -> None:
        """Ask the most advanced known peer we want a checkpoint of.

        A peer whose transfer just stalled out (``avoid``) is skipped when
        any other candidate exists -- its advertisement may be stale
        evidence of a crashed process.
        """
        best_pid, best_frontier = None, 0
        for pid, frontier in frontiers.items():
            if pid == self.avoid or not self._wants(pid, frontier):
                continue
            if best_pid is None or frontier > best_frontier:
                best_pid, best_frontier = pid, frontier
        if best_pid is None and self.avoid is not None:
            avoided = frontiers.get(self.avoid, 0)
            if self._wants(self.avoid, avoided):
                best_pid, best_frontier = self.avoid, avoided
        if best_pid is None:
            return  # no advertisement seen yet; the periodic ticks will come
        self.begin(best_pid, best_frontier)

    def begin(self, src: Hashable, frontier: int) -> None:
        """Begin (or upgrade) a snapshot transfer from *src*.

        A transfer in flight is replaced only by a strictly higher
        frontier: its chunks carry their own frontier, and a sender
        always answers with its *current* checkpoint anyway.  While the
        current transfer has produced no chunk yet, further equal-or-
        lower offers are debounced to the catch-up tick -- a laggard's
        gap poll draws an ``ITruncated``/``ISnapshotOffer`` from every
        acceptor and peer at once, and each full re-request would be
        answered with the complete chunk set.  A dead source cannot pin
        the install: the tick's stall counter abandons and re-sources it.
        """
        pend = self.pending
        if pend is not None and pend["frontier"] >= frontier:
            return
        self.pending = {
            "frontier": frontier,
            "src": src,
            "total": None,
            "chunks": {},
        }
        self._process.send(src, ISnapshotRequest())

    def fold_chunk(
        self, msg: ISnapshotChunk, src: Hashable
    ) -> tuple[int, tuple, Any] | None:
        """Fold one received chunk into the transfer.

        Returns the assembled ``(frontier, delivered, machine_state)``
        when the last chunk arrives (clearing all transfer state), else
        None.  The caller still re-checks the checkpoint against what it
        holds before adopting: assembly can complete after ordinary replay
        overtook the transfer.
        """
        if not self._wants(src, msg.frontier):
            return None  # stale transfer: we advanced past it meanwhile
        pend = self.pending
        if pend is None or pend["frontier"] < msg.frontier:
            pend = self.pending = {
                "frontier": msg.frontier,
                "src": src,
                "total": msg.total,
                "chunks": {},
            }
        elif pend["frontier"] > msg.frontier:
            return None  # chunks of an older transfer we already abandoned
        elif self._sticky_source and pend["src"] != src:
            return None  # late chunks of an abandoned same-frontier transfer
        if not self._sticky_source:
            pend["src"] = src
        pend["total"] = msg.total
        pend["chunks"][msg.seq] = msg
        if len(pend["chunks"]) != msg.total:
            return None
        chunks = [pend["chunks"][seq] for seq in range(pend["total"])]
        frontier = pend["frontier"]
        delivered = tuple(cmd for part in chunks for cmd in part.payload)
        machine_state = chunks[0].machine
        self.reset()
        return frontier, delivered, machine_state


# -- the two checkpoint roles -----------------------------------------------------


class CheckpointFollower(Process):
    """Every non-learner role's half of checkpointing: follow, then forget.

    Proposers, coordinators and acceptors of both engines fold each
    ``ICheckpoint`` into one :class:`StableFrontier` (``_stable``) and,
    when what may be forgotten grew, call :meth:`_on_stable` -- the one
    thing a subclass supplies.  The view is a cache of advertisements,
    rebuilt by the next re-advertisement round, so a crash drops it:
    :meth:`_forget` builds it, and subclasses extend ``_forget`` with
    everything else a crash loses (at its initial value -- also how that
    state is first created).
    """

    VOLATILE = {"_stable"}

    def _forget(self) -> None:
        self._stable = StableFrontier.from_config(self.config)

    def on_icheckpoint(self, msg: ICheckpoint, src: Hashable) -> None:
        if self._stable.fold(src, msg.frontier, msg.members):
            self._on_stable()

    def _on_stable(self) -> None:
        """Forget what the grown stable prefix (``_stable``) covers."""

    def on_crash(self) -> None:
        self._forget()


class CheckpointingLearner(Process):
    """The snapshotter and state-transfer half of an engine's learner.

    Every ``interval`` units of log the learner captures its replica's
    machine state with the delivered sequence, journals the checkpoint
    under one overwritten key, advertises the frontier (``ICheckpoint``,
    re-advertised periodically) and truncates its own log; it serves its
    checkpoint to laggards in chunks, pulls a peer's when it falls below
    the cluster's truncation floor, and after a crash restores its own
    before replaying the rest.

    What differs between engines is the shape of the log, supplied by the
    subclass:

    * :meth:`_frontier` -- the checkpoint position (delivered instances;
      learned commands) and :meth:`_wants` -- whether a peer's checkpoint
      would add to what we hold (its frontier passes ours, unless
      overridden);
    * ``_seen`` -- the at-most-once evidence a checkpoint carries, which
      the subclass builds (from :meth:`_fresh_dedup`);
    * :meth:`_deliver` -- not overridden but *called*: the one way newly
      ordered commands reach ``delivered``, ``_seen`` and the
      :meth:`on_deliver` observers, once per command (instances) or once
      per learn event (generalized);
    * :meth:`_checkpoint_members` -- what a checkpoint carries besides a
      position (the stable prefix's command set where position alone does
      not identify it; ``None`` otherwise);
    * :meth:`_truncate_log` -- what to drop after taking one;
    * :meth:`_forget` / :meth:`_fast_forward` -- the empty log (at start
      and after a crash) / the jump to an adopted checkpoint;
    * :meth:`_on_peer_checkpoint` -- what a peer's advertisement means
      once the base has recorded the peer as an install source (a
      surfaced gap on the instances engine; a fold into the learner's own
      :class:`StableFrontier` on the generalized one; a learner does not
      subclass :class:`CheckpointFollower` because the sources' arrival
      order breaks ties in :meth:`SnapshotInstaller.request_from_best`);
    * ``_catchup_tick`` and ``_install_snapshot`` -- the engine's own gap
      poll and adoption of an assembled transfer.
    """

    #: Whether a transfer is pinned to its first source (see SnapshotInstaller).
    STICKY_SOURCE = False

    # Lost on crash by design: peer frontiers and the snapshot-install
    # scratchpad are re-learned from the next gossip round; the rest are
    # statistics.  The durable part is the checkpoint journal itself.
    VOLATILE = {
        "_installer",
        "_peer_frontiers",
        "snapshot_chunks_sent",
        "snapshot_installs",
        "snapshots_taken",
    }

    def __init__(self, pid: str, sim: Runtime, config) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.snapshots_taken = 0
        self.snapshot_installs = 0
        self.snapshot_chunks_sent = 0
        self._callbacks: list[Callable[[Hashable], None]] = []
        self._adopt_callbacks: list[Callable[[int, tuple], None]] = []
        self._replica = None  # set via register_replica
        self._installer = SnapshotInstaller(self, self._wants, self.STICKY_SOURCE)
        self._forget()
        self._start_timers()

    def _forget(self) -> None:
        self.delivered: list[Hashable] = []  # delivery-order command sequence
        self.snap_frontier = 0  # our durable checkpoint covers [0, here)
        self._snap_members: object | None = None
        self._peer_frontiers: dict[Hashable, int] = {}
        self._installer.reset()

    def _start_timers(self) -> None:
        self.set_periodic_timer(self.config.retransmit.catchup_interval, self._catchup_tick)
        if self.config.checkpoint is not None:
            self.set_periodic_timer(
                self.config.checkpoint.advertise_interval, self._advertise
            )

    def _wants(self, src: Hashable, frontier: int) -> bool:
        """Would *src*'s checkpoint at *frontier* add to what we hold?"""
        return frontier > self._frontier()

    def _checkpoint_members(self) -> object | None:
        return None

    def _fresh_dedup(self, initial=()):
        """Empty at-most-once evidence (plus *initial*): a bounded
        SessionDedup under SessionConfig, an exact set otherwise."""
        sessions = self.config.sessions
        dedup = SessionDedup(sessions.window) if sessions is not None else set()
        dedup.update(initial)
        return dedup

    def retained_dedup(self) -> int:
        """Retained dedup cells (the sessions boundedness metric)."""
        if isinstance(self._seen, SessionDedup):
            return self._seen.retained()
        return len(self._seen)

    def on_deliver(self, callback: Callable[[Hashable], None]) -> None:
        """Observe the delivery stream: ``callback(cmd)``, once per command.

        The stream is ``delivered`` as it grows: a total order on the
        instances engine, an order that agrees with every other learner's
        on each conflicting pair on the generalized engine.
        """
        self._callbacks.append(callback)

    def has_delivered(self, cmd: Hashable) -> bool:
        """O(1): was *cmd* ever delivered here (adopted checkpoints and
        truncated prefixes included)?"""
        return cmd in self._seen

    def _deliver(self, cmds: tuple) -> None:
        """Hand newly ordered *cmds* (none delivered before) to the observers.

        Callback-major: each observer sees the whole tuple before the next
        observer sees any of it.
        """
        self._seen.update(cmds)
        self.delivered.extend(cmds)
        for callback in self._callbacks:
            for cmd in cmds:
                callback(cmd)

    def on_adopt(self, callback: Callable[[int, tuple], None]) -> None:
        """Observe checkpoint adoptions: ``callback(frontier, delivered)``.

        Fired whenever the delivered sequence is replaced wholesale
        (snapshot install or crash-recovery from a journalled
        checkpoint) -- the trace-checker's window into deliveries that
        never pass through the engine's per-command callbacks.
        """
        self._adopt_callbacks.append(callback)

    def register_replica(self, replica) -> None:
        """Attach the replica whose machine state our checkpoints capture."""
        self._replica = replica

    # -- taking and advertising checkpoints ----------------------------------

    def _maybe_snapshot(self) -> None:
        checkpoint = self.config.checkpoint
        if checkpoint is None:
            return
        if self._frontier() - self.snap_frontier >= checkpoint.interval:
            self._take_snapshot()

    def _take_snapshot(self) -> None:
        """Checkpoint the current frontier; advertise; truncate.

        The checkpoint is one overwritten storage key -- checkpoints
        compact the log, they must not become a second growing log.  It
        carries the delivered command sequence (the replica's executed
        order plus the at-most-once dedup evidence) and the machine state,
        so an installer needs nothing else to resume from the frontier.
        """
        frontier = self._frontier()
        machine_state = (
            self._replica.snapshot_state() if self._replica is not None else None
        )
        members = self._checkpoint_members()
        sessions = self.config.sessions
        if sessions is not None:
            # Bounded-memory checkpoint: the dedup evidence rides in its
            # compact session form (packed into the machine field -- the
            # snapshot chunker only carries delivered/machine/frontier)
            # and the delivered tail is pruned to the window.  Decisions
            # older than the window live inside the session floors.
            machine_state = ("sessions1", machine_state, self._seen.state())
            if len(self.delivered) > sessions.window:
                del self.delivered[: len(self.delivered) - sessions.window]
        snapshot = {
            "frontier": frontier,
            "delivered": tuple(self.delivered),
            "machine": machine_state,
        }
        if members is not None:
            snapshot["members"] = members
        self.storage.write("snapshot", snapshot)
        self.snapshots_taken += 1
        self.snap_frontier = frontier
        self._snap_members = members
        self._advertise()
        self._truncate_log(frontier)

    def _advertise(self) -> None:
        if self.config.checkpoint is None or self.snap_frontier <= 0:
            return
        msg = ICheckpoint(self.snap_frontier, self._snap_members)
        self.broadcast(self.config.topology.coordinators, msg)
        self.broadcast(self.config.topology.acceptors, msg)
        self.broadcast(self.config.topology.proposers, msg)
        peers = [pid for pid in self.config.topology.learners if pid != self.pid]
        self.broadcast(peers, msg)

    def on_icheckpoint(self, msg: ICheckpoint, src: Hashable) -> None:
        if self.config.checkpoint is None:
            return
        if msg.frontier > self._peer_frontiers.get(src, 0):
            self._peer_frontiers[src] = msg.frontier
        self._on_peer_checkpoint(msg, src)

    # -- state transfer --------------------------------------------------------

    def on_itruncated(self, msg: ITruncated, src: Hashable) -> None:
        """A sender's log horizon moved past what we hold: install tier."""
        if msg.floor > self._frontier():
            self._request_install()

    def _request_install(self) -> None:
        """Ask the most advanced known peer for its checkpoint."""
        self._installer.request_from_best(self._peer_frontiers)

    def on_isnapshotrequest(self, msg: ISnapshotRequest, src: Hashable) -> None:
        """Answer a pull request from the journalled checkpoint.

        The answer carries our *current* checkpoint even if newer than
        asked: the chunks carry their own frontier, and newer strictly
        helps.  Chunk 0 is the header (machine state, empty payload);
        chunks 1..n slice the delivered sequence.  ``msg.chunks`` selects
        a subset for the resumable path; out-of-range sequence numbers (a
        re-request against a checkpoint that has since advanced) are
        ignored.
        """
        snapshot = self.storage.read("snapshot")
        if snapshot is None:
            return
        chunk_size = self.config.checkpoint.chunk_size
        delivered = snapshot["delivered"]
        total = 1 + (len(delivered) + chunk_size - 1) // chunk_size
        for seq in range(total) if msg.chunks is None else msg.chunks:
            if not 0 <= seq < total:
                continue
            payload = () if seq == 0 else delivered[(seq - 1) * chunk_size : seq * chunk_size]
            machine = snapshot["machine"] if seq == 0 else None
            self.send(
                src, ISnapshotChunk(snapshot["frontier"], seq, total, payload, machine)
            )
            self.snapshot_chunks_sent += 1

    def on_isnapshotchunk(self, msg: ISnapshotChunk, src: Hashable) -> None:
        assembled = self._installer.fold_chunk(msg, src)
        if assembled is not None:
            self._install_snapshot(*assembled)

    def _adopt_checkpoint(self, snapshot: dict) -> None:
        """Fast-forward to a checkpoint (the journalled dict).

        Shared by snapshot install (state transfer) and crash-recovery
        (restoring the learner's own journalled checkpoint): the
        checkpoint's sequence extends everything delivered here, so
        adoption replaces the delivered sequence wholesale.
        """
        frontier = snapshot["frontier"]
        delivered = snapshot["delivered"]
        machine_state = snapshot["machine"]
        self.delivered = list(delivered)
        sessions = self.config.sessions
        if (
            sessions is not None
            and isinstance(machine_state, tuple)
            and machine_state
            and machine_state[0] == "sessions1"
        ):
            _tag, machine_state, sess_state = machine_state
            self._seen = SessionDedup.restore(sess_state, sessions.window)
        else:
            self._seen = set(delivered)
        self._fast_forward(snapshot)
        if self._replica is not None:
            self._replica.install_snapshot(machine_state, delivered)
        self.snap_frontier = frontier
        self._snap_members = snapshot.get("members")
        for callback in self._adopt_callbacks:
            callback(frontier, tuple(delivered))
        self._advertise()

    # -- crash-recovery --------------------------------------------------------

    def on_crash(self) -> None:
        if self.config.checkpoint is None:
            # Legacy behaviour (kept for the pre-checkpoint tests): the
            # learner's delivery state survives the crash object-wise and
            # recovery relies on catch-up only.
            return
        self._forget()
        if self._replica is not None:
            self._replica.install_snapshot(None, ())

    def on_recover(self) -> None:
        # Timers died with the crash; re-arm the gap poll and the frontier
        # re-announce.  Then snapshot-restore + suffix replay: our own
        # journalled checkpoint fast-forwards the frontier; everything
        # above it arrives through the ordinary catch-up path (or snapshot
        # install, if the cluster truncated past us during the outage).
        self._start_timers()
        if self.config.checkpoint is None:
            return
        snapshot = self.storage.read("snapshot")
        if snapshot is not None:
            self._adopt_checkpoint(snapshot)
