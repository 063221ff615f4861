"""Multicoordinated Paxos for consensus (Section 3.1).

The algorithm extends Fast Paxos with *multicoordinated* classic rounds:
any coordinator of round *i* may execute phases 1a and 2a, but an acceptor
accepts a value only when it received phase "2a" messages carrying the
*same* value from every coordinator in some i-coordquorum (Assumption 3:
any two coordinator quorums of a classic round intersect).  Fast rounds
behave as in Fast Paxos: the coordinator sends the special ``Any`` value
and acceptors accept proposals directly from proposers.

Classic Paxos is the special case where every round is classic with a
single one-element coordinator quorum; Fast Paxos is the special case with
single-coordinated classic rounds plus fast rounds.  Both are reachable via
the :class:`repro.core.rounds.RoundSchedule` configuration, and independent
baseline implementations live in :mod:`repro.protocols`.

Collision handling (Section 4.2):

* multicoordinated rounds -- acceptors detect coordinators of one round
  forwarding different values and react as if a phase "1a" message for the
  next round had been received (no disk write is wasted: the conflicting
  values are never accepted);
* fast rounds -- coordinators monitor phase "2b" messages; when no value
  can reach a quorum the round coordinator performs *coordinated recovery*,
  reinterpreting the "2b" messages of round i as "1b" messages of round
  i+1 and jumping straight to phase 2a (two communication steps).

Liveness (Section 4.3): acceptors answer stale rounds with ``Nack``
messages so a coordinator that believes itself leader can start a
higher-numbered round.

Scope note (engine parity): this module is the *single-value consensus*
form of the paper's algorithm -- one decision, then done -- so the
production layers make no sense here and live elsewhere: batching,
retransmission and checkpointing for command *streams* are provided by
the generalized engine (:mod:`repro.core.generalized`, one growing
c-struct) and the multi-instance engine (:mod:`repro.smr.instances`, one
consensus instance per command/batch), both of which reuse this module's
round taxonomy.  The delta wire protocol (suffix-only 2a/2b streams,
stamped catch-up, ``docs/messages.md``) is likewise a stream mechanism:
it is the generalized engine's only wire mode and does not exist here --
a single-value round has no history to ship a delta of.  A driver that
needs a reliable single decision retries ``propose``/``start_round`` on
the ``Nack``/timeout signals above.  See
the root ``README.md`` for the engine feature-parity matrix and
``docs/messages.md`` for the full message taxonomy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

from repro.core.messages import ANY, Nack, Phase1a, Phase1b, Phase2a, Phase2b, Propose
from repro.core.provedsafe import pick_value
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId, RoundSchedule
from repro.core.topology import Topology
from repro.core.runtime import Process, Runtime


@dataclass
class ConsensusConfig:
    """Static configuration shared by all agents of one deployment."""

    topology: Topology
    quorums: QuorumSystem
    schedule: RoundSchedule
    reduce_disk_writes: bool = True

    def __post_init__(self) -> None:
        if tuple(sorted(self.quorums.acceptors)) != tuple(sorted(self.topology.acceptors)):
            raise ValueError("quorum system must be defined over the topology's acceptors")


class Proposer(Process):
    """Sends ⟨propose, v⟩ to coordinators and acceptors (Fast Paxos rule)."""

    def __init__(self, pid: str, sim: Runtime, config: ConsensusConfig) -> None:
        super().__init__(pid, sim)
        self.config = config

    def propose(self, cmd: Hashable) -> None:
        """Propose *cmd*; records the propose instant for latency metrics."""
        self.metrics.record_propose(cmd, self.now)
        msg = Propose(cmd)
        self.broadcast(self.config.topology.coordinators, msg)
        self.broadcast(self.config.topology.acceptors, msg)


class _CoordPhase(enum.Enum):
    IDLE = "idle"
    PHASE1 = "phase1"
    READY = "ready"  # phase 1 done, free to pick, waiting for a proposal
    SENT = "sent"  # value (or Any) sent in a phase "2a" message


class Coordinator(Process):
    """A round coordinator (one of possibly many per round)."""

    def __init__(self, pid: str, sim: Runtime, config: ConsensusConfig, index: int) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.index = index
        self.crnd: RoundId = ZERO
        self.cval: Hashable | None = None
        self.phase = _CoordPhase.IDLE
        self.pending: list[Hashable] = []
        self._pending_set: set[Hashable] = set()  # mirror of pending
        self.highest_seen: RoundId = ZERO
        self.collisions_recovered = 0
        self._p1b: dict[RoundId, dict[Hashable, Phase1b]] = {}
        self._p2b: dict[RoundId, dict[Hashable, Phase2b]] = {}

    # -- round management ---------------------------------------------------

    def start_round(self, rnd: RoundId) -> None:
        """Phase1a(c, i): begin round *rnd* (must be one of its coordinators)."""
        if not self.config.schedule.is_coordinator_of(self.index, rnd):
            raise ValueError(f"coordinator {self.index} does not coordinate {rnd}")
        if rnd <= self.crnd:
            raise ValueError(f"round {rnd} is not above current round {self.crnd}")
        self._adopt(rnd)
        self.broadcast(self.config.topology.acceptors, Phase1a(rnd))

    def _adopt(self, rnd: RoundId) -> None:
        self.crnd = rnd
        self.cval = None
        self.phase = _CoordPhase.PHASE1
        self.highest_seen = max(self.highest_seen, rnd)

    # -- message handlers ------------------------------------------------------

    def on_propose(self, msg: Propose, src: Hashable) -> None:
        if msg.cmd not in self._pending_set:
            self._pending_set.add(msg.cmd)
            self.pending.append(msg.cmd)
        self._try_send_value()

    def on_phase1b(self, msg: Phase1b, src: Hashable) -> None:
        rnd = msg.rnd
        self.highest_seen = max(self.highest_seen, rnd)
        if not self.config.schedule.is_coordinator_of(self.index, rnd):
            return
        if rnd > self.crnd:
            # Another coordinator (or collision detection at an acceptor)
            # started this round; participate in it.
            self._adopt(rnd)
        if rnd != self.crnd or self.phase is not _CoordPhase.PHASE1:
            return
        self._p1b.setdefault(rnd, {})[src] = msg
        msgs = self._p1b[rnd]
        if len(msgs) < self.config.quorums.classic_quorum_size:
            return
        self._phase2(msgs)

    def _phase2(self, msgs: dict[Hashable, Phase1b]) -> None:
        """Phase2a(c, i): pick a value and send it (or Any) to the acceptors."""
        pick = pick_value(self.config.quorums, msgs, self.config.schedule.is_fast)
        if not pick.free:
            self._send_value(pick.value)
            return
        if self.config.schedule.is_fast(self.crnd):
            self._send_value(ANY)
            return
        self.phase = _CoordPhase.READY
        self._try_send_value()

    def _try_send_value(self) -> None:
        if self.phase is _CoordPhase.READY and self.pending:
            self._send_value(self.pending[0])

    def _send_value(self, value: Hashable) -> None:
        self.cval = value
        self.phase = _CoordPhase.SENT
        self.broadcast(
            self.config.topology.acceptors,
            Phase2a(self.crnd, value),
        )

    # -- fast-round collision monitoring & coordinated recovery (§4.2) --------

    def on_phase2b(self, msg: Phase2b, src: Hashable) -> None:
        rnd = msg.rnd
        self.highest_seen = max(self.highest_seen, rnd)
        self._p2b.setdefault(rnd, {})[src] = msg
        if rnd != self.crnd or self.phase is not _CoordPhase.SENT:
            return
        votes = self._p2b[rnd]
        if not self._is_collided(votes):
            return
        next_rnd = self.config.schedule.next_round(self.crnd)
        if not self.config.schedule.is_coordinator_of(self.index, next_rnd):
            return
        # Coordinated recovery: reinterpret round-i "2b" messages as
        # round-(i+1) "1b" messages and go straight to phase 2a.
        as_1b = {acc: Phase1b(next_rnd, rnd, vote.val) for acc, vote in votes.items()}
        self.collisions_recovered += 1
        self._adopt(next_rnd)
        self._phase2(as_1b)

    def _is_collided(self, votes: dict[Hashable, Phase2b]) -> bool:
        """No value can reach an acceptor quorum anymore in this round."""
        if len(votes) < self.config.quorums.classic_quorum_size:
            return False
        needed = self.config.quorums.quorum_size(
            fast=self.config.schedule.is_fast(self.crnd)
        )
        counts: dict[Hashable, int] = {}
        for vote in votes.values():
            counts[vote.val] = counts.get(vote.val, 0) + 1
        missing = self.config.quorums.n - len(votes)
        best = max(counts.values(), default=0)
        return best + missing < needed

    def on_nack(self, msg: Nack, src: Hashable) -> None:
        """Stale-round notification (Section 4.3); drivers may react."""
        self.highest_seen = max(self.highest_seen, msg.higher)


class Acceptor(Process):
    """A Multicoordinated Paxos acceptor (consensus variant).

    Volatile state: ``rnd`` (highest round heard of, kept in memory per the
    Section 4.4 optimization), the phase "2a" buffer and pending proposals.
    Stable state: ``vrnd``/``vval`` (one disk write per acceptance) and the
    MCount watermark.
    """

    # The crash-recovery contract from the docstring, machine-checkable:
    # quorum buffers and pending proposals are rebuilt by retransmission,
    # accept_log mirrors the journal it was appended from, the rest are
    # statistics.
    VOLATILE = {
        "_any_open",
        "_collided",
        "_p2a",
        "_pending_set",
        "accept_log",
        "collisions_detected",
        "pending",
    }

    def __init__(self, pid: str, sim: Runtime, config: ConsensusConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.rnd: RoundId = ZERO
        self.vrnd: RoundId = ZERO
        self.vval: Hashable | None = None
        self.pending: list[Hashable] = []
        self._pending_set: set[Hashable] = set()  # mirror of pending
        self.collisions_detected = 0
        self.accept_log: list[tuple[RoundId, Hashable]] = []  # one disk write each
        self._p2a: dict[RoundId, dict[int, Hashable]] = {}
        self._any_open: set[RoundId] = set()
        self._collided: set[RoundId] = set()
        self.storage.write("mcount", 0)  # the one startup write of §4.4

    # -- phase 1 -------------------------------------------------------------

    def on_phase1a(self, msg: Phase1a, src: Hashable) -> None:
        if msg.rnd <= self.rnd:
            if msg.rnd < self.rnd:
                self.send(src, Nack(self.rnd))
            return
        self._advance_round(msg.rnd)
        self._send_1b(msg.rnd)

    def _send_1b(self, rnd: RoundId) -> None:
        coords = self.config.topology.coordinator_pids(
            self.config.schedule.coordinators_of(rnd)
        )
        self.broadcast(coords, Phase1b(rnd, self.vrnd, self.vval))

    def _advance_round(self, rnd: RoundId) -> None:
        """Update ``rnd``, writing to disk only per the §4.4 policy."""
        previous = self.rnd
        self.rnd = rnd
        if self.config.reduce_disk_writes:
            if rnd.mcount > previous.mcount:
                self.storage.write("mcount", rnd.mcount)
        else:
            self.storage.write("rnd", rnd)

    # -- phase 2 -------------------------------------------------------------

    def on_phase2a(self, msg: Phase2a, src: Hashable) -> None:
        coord = self.config.topology.coordinator_index(src)
        if coord is None:
            return  # only a coordinator's 2a counts toward a coordquorum
        rnd = msg.rnd
        if rnd < self.rnd:
            self.send(src, Nack(self.rnd))
            return
        buffer = self._p2a.setdefault(rnd, {})
        buffer[coord] = msg.val
        if self._detect_collision(rnd, buffer):
            return
        senders = frozenset(buffer)
        for quorum in self.config.schedule.coord_quorums(rnd):
            if not quorum <= senders:
                continue
            values = {buffer[c] for c in quorum}
            if len(values) != 1:
                continue
            # Singleton by the guard above -- extraction order-independent.
            # protolint: ignore[determinism]
            value = next(iter(values))
            if value is ANY:
                self._any_open.add(rnd)
                self._try_fast_accept()
            else:
                self._accept(rnd, value)
            return

    def _detect_collision(self, rnd: RoundId, buffer: dict[int, Hashable]) -> bool:
        """Multicoordinated collision: one round, different forwarded values.

        Reacts as if a phase "1a" message for the next round had been
        received (Section 4.2), *before* accepting anything -- no disk
        write is wasted, unlike fast-round collisions.
        """
        values = {v for v in buffer.values() if v is not ANY}
        if len(values) <= 1 or rnd in self._collided:
            return False
        self._collided.add(rnd)
        self.collisions_detected += 1
        next_rnd = self.config.schedule.next_round(rnd)
        if next_rnd > self.rnd:
            self._advance_round(next_rnd)
            self._send_1b(next_rnd)
        return True

    def _accept(self, rnd: RoundId, value: Hashable) -> None:
        """Phase2b(a, i): accept *value* (at most one value per round)."""
        if rnd < self.rnd or self.vrnd >= rnd:
            return
        if rnd > self.rnd:
            self._advance_round(rnd)
        self.vrnd = rnd
        self.vval = value
        self.accept_log.append((rnd, value))
        self.storage.write_many({"vrnd": rnd, "vval": value})
        vote = Phase2b(rnd, value)
        self.broadcast(self.config.topology.learners, vote)
        coords = self.config.topology.coordinator_pids(
            self.config.schedule.coordinators_of(rnd)
        )
        self.broadcast(coords, vote)

    def on_propose(self, msg: Propose, src: Hashable) -> None:
        if msg.cmd not in self._pending_set:
            self._pending_set.add(msg.cmd)
            self.pending.append(msg.cmd)
        self._try_fast_accept()

    def _try_fast_accept(self) -> None:
        if self.rnd in self._any_open and self.vrnd < self.rnd and self.pending:
            self._accept(self.rnd, self.pending[0])

    # -- crash-recovery ----------------------------------------------------------

    def on_crash(self) -> None:
        self.rnd = ZERO
        self.vrnd = ZERO
        self.vval = None
        self.pending = []
        self._pending_set = set()
        self._p2a = {}
        self._any_open = set()
        self._collided = set()

    def on_recover(self) -> None:
        """Reload stable state; §4.4: bump MCount instead of reading rnd."""
        self.vrnd = self.storage.read("vrnd", ZERO)
        self.vval = self.storage.read("vval", None)
        if self.config.reduce_disk_writes:
            mcount = self.storage.read("mcount", 0) + 1
            self.storage.write("mcount", mcount)
            self.rnd = RoundId(mcount=mcount, count=0, coord=-1, rtype=0)
        else:
            self.rnd = self.storage.read("rnd", ZERO)


class Learner(Process):
    """Learns a value once an acceptor quorum accepted it in one round."""

    def __init__(self, pid: str, sim: Runtime, config: ConsensusConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.learned: Hashable | None = None
        self.learned_at: float | None = None
        self._votes: dict[RoundId, dict[Hashable, Hashable]] = {}

    def on_phase2b(self, msg: Phase2b, src: Hashable) -> None:
        votes = self._votes.setdefault(msg.rnd, {})
        votes[src] = msg.val
        needed = self.config.quorums.quorum_size(
            fast=self.config.schedule.is_fast(msg.rnd)
        )
        count = sum(1 for v in votes.values() if v == msg.val)
        if count < needed:
            return
        if self.learned is not None:
            if self.learned != msg.val:
                raise AssertionError(
                    f"consistency violation at {self.pid}: "
                    f"{self.learned!r} vs {msg.val!r}"
                )
            return
        self.learned = msg.val
        self.learned_at = self.now
        self.metrics.record_learn(msg.val, self.pid, self.now)


@dataclass
class ConsensusCluster:
    """A deployed consensus instance: all agents plus driving helpers."""

    sim: Runtime
    config: ConsensusConfig
    proposers: list[Proposer]
    coordinators: list[Coordinator]
    acceptors: list[Acceptor]
    learners: list[Learner]
    _proposal_index: int = field(default=0)

    def propose(self, cmd: Hashable, delay: float = 0.0, proposer: int | None = None) -> None:
        """Schedule a proposal (round-robin across proposers by default)."""
        if proposer is None:
            proposer = self._proposal_index % len(self.proposers)
            self._proposal_index += 1
        agent = self.proposers[proposer]
        self.sim.schedule(delay, lambda: agent.propose(cmd))

    def start_round(self, rnd: RoundId, coordinator: int | None = None, delay: float = 0.0) -> None:
        index = rnd.coord if coordinator is None else coordinator
        agent = self.coordinators[index]
        self.sim.schedule(delay, lambda: agent.start_round(rnd))

    def decided_values(self) -> list[Hashable]:
        return [l.learned for l in self.learners if l.learned is not None]

    def decision(self) -> Hashable | None:
        values = self.decided_values()
        return values[0] if values else None

    def all_learned(self) -> bool:
        return all(l.learned is not None for l in self.learners)

    def run_until_decided(self, timeout: float = 1_000.0) -> bool:
        return self.sim.run_until(self.all_learned, timeout=timeout)


def build_consensus(
    sim: Runtime,
    n_proposers: int = 1,
    n_coordinators: int = 3,
    n_acceptors: int = 3,
    n_learners: int = 1,
    schedule: RoundSchedule | None = None,
    f: int | None = None,
    e: int | None = None,
    reduce_disk_writes: bool = True,
) -> ConsensusCluster:
    """Deploy a Multicoordinated Paxos consensus instance on *sim*."""
    topology = Topology.build(n_proposers, n_coordinators, n_acceptors, n_learners)
    quorums = QuorumSystem(topology.acceptors, f=f, e=e)
    if schedule is None:
        # Recovery rounds default to single-coordinated (Sections 4.2-4.3):
        # retrying a collided multicoordinated round with another
        # multicoordinated round could collide forever.
        schedule = RoundSchedule(range(n_coordinators), recovery_rtype=1)
    config = ConsensusConfig(
        topology=topology,
        quorums=quorums,
        schedule=schedule,
        reduce_disk_writes=reduce_disk_writes,
    )
    return ConsensusCluster(
        sim=sim,
        config=config,
        proposers=[Proposer(pid, sim, config) for pid in topology.proposers],
        coordinators=[
            Coordinator(pid, sim, config, index)
            for index, pid in enumerate(topology.coordinators)
        ],
        acceptors=[Acceptor(pid, sim, config) for pid in topology.acceptors],
        learners=[Learner(pid, sim, config) for pid in topology.learners],
    )
