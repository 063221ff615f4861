"""Classic Paxos (Section 2.1) as a multi-instance replication protocol.

This is the "original Paxos" baseline: every command goes through the
current leader, which runs one consensus instance per command.  The
implementation follows the paper's practical notes:

* rounds are positive integers owned round-robin by the coordinators
  (round ``r`` is coordinated by coordinator ``(r - 1) % n_coordinators``);
* the leader executes **phase 1 "a priori" for all instances at once**
  (Section 2.1.2): a single ⟨1a⟩ message covers every instance, and
  acceptors answer with all their accepted (instance, vrnd, vval) triples,
  so the steady-state latency is three communication steps per command;
* on leader failure, the failure detector elects the next coordinator,
  which starts a higher round, re-proposes possibly chosen values found in
  the ⟨1b⟩ answers and fills gaps with no-ops.

Learners deliver commands in instance order, which makes this module a
total-order broadcast / SMR substrate and the single-coordinated
availability baseline of experiment E3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.core.liveness import FailureDetector, Heartbeat, LivenessConfig
from repro.core.runtime import Process
from repro.core.topology import Topology
from repro.sim.scheduler import Simulation

NOOP = "__noop__"
"""Filler command used to close instance gaps after a leader change."""


# -- messages (independent of the core vocabulary on purpose) -----------------


@dataclass(frozen=True)
class CPropose:
    cmd: Hashable


@dataclass(frozen=True)
class C1a:
    rnd: int


@dataclass(frozen=True)
class C1b:
    rnd: int
    accepted: tuple[tuple[int, int, Hashable], ...]  # (instance, vrnd, vval)


@dataclass(frozen=True)
class C2a:
    rnd: int
    instance: int
    val: Hashable


@dataclass(frozen=True)
class C2b:
    rnd: int
    instance: int
    val: Hashable


@dataclass(frozen=True)
class CNack:
    higher: int


@dataclass
class ClassicConfig:
    topology: Topology
    quorum_size: int
    liveness: LivenessConfig | None = None

    def __post_init__(self) -> None:
        n = len(self.topology.acceptors)
        if not 1 <= self.quorum_size <= n:
            raise ValueError(f"quorum_size must be in [1, {n}]")
        if 2 * self.quorum_size <= n:
            # Two disjoint quorums could choose different values.
            raise ValueError("quorums must intersect: need 2 * quorum_size > n")


class ClassicProposer(Process):
    """Sends proposals to every coordinator (the leader picks them up)."""

    def __init__(self, pid: str, sim: Simulation, config: ClassicConfig) -> None:
        super().__init__(pid, sim)
        self.config = config

    def propose(self, cmd: Hashable) -> None:
        self.metrics.record_propose(cmd, self.now)
        self.broadcast(self.config.topology.coordinators, CPropose(cmd))


class ClassicCoordinator(Process):
    """A coordinator; at most one believes itself leader at a time."""

    # Coordinators keep no stable state: a recovered coordinator restarts
    # its failure detector and, if it still believes itself leader, runs a
    # fresh phase 1 under a higher round -- which rebuilds everything here.
    VOLATILE = {
        "_p1b",
        "_p2b",
        "assigned",
        "chosen",
        "crnd",
        "highest_seen",
        "next_instance",
        "pending",
        "phase1_done",
    }

    def __init__(self, pid: str, sim: Simulation, config: ClassicConfig, index: int) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.index = index
        self.crnd = 0  # current round (0 = none)
        self.phase1_done = False
        self.next_instance = 0
        self.pending: list[Hashable] = []
        self.assigned: dict[int, Hashable] = {}  # instance -> value sent
        self.chosen: dict[int, Hashable] = {}
        self.highest_seen = 0
        self._p1b: dict[int, dict[str, C1b]] = {}
        self._p2b: dict[tuple[int, int], set[str]] = {}
        self._fd: FailureDetector | None = None
        if config.liveness is not None:
            peers = list(enumerate(config.topology.coordinators))
            self._fd = FailureDetector(
                self, index, peers, config.liveness, on_check=self._progress_check
            )
            self._fd.start()

    # -- round ownership -------------------------------------------------------

    def owns(self, rnd: int) -> bool:
        n = len(self.config.topology.coordinators)
        return rnd >= 1 and (rnd - 1) % n == self.index

    def my_round_above(self, rnd: int) -> int:
        """The smallest round > *rnd* owned by this coordinator."""
        candidate = rnd + 1
        while not self.owns(candidate):
            candidate += 1
        return candidate

    def is_leader(self) -> bool:
        return self._fd.is_leader() if self._fd is not None else self.index == 0

    # -- phase 1 ------------------------------------------------------------------

    def start_round(self, rnd: int) -> None:
        """Phase1a for *all* instances at once (Section 2.1.2)."""
        if not self.owns(rnd):
            raise ValueError(f"coordinator {self.index} does not own round {rnd}")
        if rnd <= self.crnd:
            raise ValueError(f"round {rnd} not above {self.crnd}")
        self.crnd = rnd
        self.highest_seen = max(self.highest_seen, rnd)
        self.phase1_done = False
        self.assigned = {}
        self.broadcast(self.config.topology.acceptors, C1a(rnd))

    def on_c1b(self, msg: C1b, src: Hashable) -> None:
        if msg.rnd != self.crnd or self.phase1_done:
            return
        self._p1b.setdefault(msg.rnd, {})[src] = msg
        msgs = self._p1b[msg.rnd]
        if len(msgs) < self.config.quorum_size:
            return
        self._finish_phase1(msgs)

    def _finish_phase1(self, msgs: dict[str, C1b]) -> None:
        """Re-propose possibly chosen values, fill gaps, resume service."""
        self.phase1_done = True
        by_instance: dict[int, tuple[int, Hashable]] = {}
        for reply in msgs.values():
            for instance, vrnd, vval in reply.accepted:
                best = by_instance.get(instance)
                if best is None or vrnd > best[0]:
                    by_instance[instance] = (vrnd, vval)
        if by_instance:
            top = max(by_instance)
            for instance in range(top + 1):
                if instance in by_instance:
                    value = by_instance[instance][1]
                else:
                    value = NOOP  # gap: close it so later instances can execute
                self._send_2a(instance, value)
            self.next_instance = max(self.next_instance, top + 1)
        self._drain_pending()

    # -- phase 2 -------------------------------------------------------------------

    def on_cpropose(self, msg: CPropose, src: Hashable) -> None:
        if msg.cmd in self.pending or msg.cmd in self.assigned.values():
            return
        if msg.cmd in self.chosen.values():
            return
        self.pending.append(msg.cmd)
        self._drain_pending()

    def _drain_pending(self) -> None:
        if not self.phase1_done or not self.is_leader():
            return
        while self.pending:
            cmd = self.pending.pop(0)
            if cmd in self.assigned.values() or cmd in self.chosen.values():
                continue
            instance = self.next_instance
            self.next_instance += 1
            self._send_2a(instance, cmd)

    def _send_2a(self, instance: int, value: Hashable) -> None:
        self.assigned[instance] = value
        self.metrics.count_command_handled(self.pid)
        self.broadcast(self.config.topology.acceptors, C2a(self.crnd, instance, value))

    def on_c2b(self, msg: C2b, src: Hashable) -> None:
        key = (msg.instance, msg.rnd)
        acks = self._p2b.setdefault(key, set())
        acks.add(src)
        if len(acks) >= self.config.quorum_size:
            self.chosen[msg.instance] = msg.val

    def on_cnack(self, msg: CNack, src: Hashable) -> None:
        self.highest_seen = max(self.highest_seen, msg.higher)

    def on_heartbeat(self, msg: Heartbeat, src: Hashable) -> None:
        if self._fd is not None:
            self._fd.on_heartbeat(msg)

    # -- liveness ---------------------------------------------------------------------

    def _progress_check(self) -> None:
        """Become the active leader if Ω points here and we lack a round."""
        if not self.is_leader():
            return
        if self.owns(self.crnd) and self.phase1_done:
            self._drain_pending()
            return
        if self.crnd > 0 and self.owns(self.crnd) and not self.phase1_done:
            return  # phase 1 in flight
        self.start_round(self.my_round_above(max(self.highest_seen, self.crnd)))

    # -- crash-recovery -----------------------------------------------------------------

    def on_crash(self) -> None:
        self.crnd = 0
        self.phase1_done = False
        self.pending = []
        self.assigned = {}
        self.chosen = {}
        self._p1b = {}
        self._p2b = {}

    def on_recover(self) -> None:
        if self._fd is not None:
            self._fd.start()


class ClassicAcceptor(Process):
    """Per-instance acceptor state under a single round number."""

    def __init__(self, pid: str, sim: Simulation, config: ClassicConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.rnd = 0
        self.votes: dict[int, tuple[int, Hashable]] = {}  # instance -> (vrnd, vval)

    def on_c1a(self, msg: C1a, src: Hashable) -> None:
        if msg.rnd <= self.rnd:
            if msg.rnd < self.rnd:
                self.send(src, CNack(self.rnd))
            return
        self.rnd = msg.rnd
        self.storage.write("rnd", self.rnd)
        accepted = tuple(
            (instance, vrnd, vval)
            for instance, (vrnd, vval) in sorted(self.votes.items())
        )
        self.send(src, C1b(msg.rnd, accepted))

    def on_c2a(self, msg: C2a, src: Hashable) -> None:
        if msg.rnd < self.rnd:
            self.send(src, CNack(self.rnd))
            return
        self.rnd = msg.rnd
        self.votes[msg.instance] = (msg.rnd, msg.val)
        self.storage.write_many(
            {"rnd": self.rnd, f"vote:{msg.instance}": (msg.rnd, msg.val)}
        )
        vote = C2b(msg.rnd, msg.instance, msg.val)
        self.broadcast(self.config.topology.learners, vote)
        self.send(src, vote)

    def on_crash(self) -> None:
        self.rnd = 0
        self.votes = {}

    def on_recover(self) -> None:
        self.rnd = self.storage.read("rnd", 0)
        for key in list(self.storage.keys()):
            if key.startswith("vote:"):
                instance = int(key.split(":", 1)[1])
                self.votes[instance] = self.storage.read(key)


class ClassicLearner(Process):
    """Learns per-instance decisions; delivers them in instance order."""

    def __init__(self, pid: str, sim: Simulation, config: ClassicConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.decided: dict[int, Hashable] = {}
        self.delivered: list[Hashable] = []
        self._delivered_set: set[Hashable] = set()
        self._next_delivery = 0
        self._votes: dict[tuple[int, int], dict[str, Hashable]] = {}
        self._callbacks: list[Callable[[Hashable], None]] = []

    def on_deliver(self, callback: Callable[[Hashable], None]) -> None:
        self._callbacks.append(callback)

    def has_delivered(self, cmd: Hashable) -> bool:
        """O(1) membership test on the delivered sequence."""
        return cmd in self._delivered_set

    def on_c2b(self, msg: C2b, src: Hashable) -> None:
        votes = self._votes.setdefault((msg.instance, msg.rnd), {})
        votes[src] = msg.val
        count = sum(1 for v in votes.values() if v == msg.val)
        if count < self.config.quorum_size:
            return
        existing = self.decided.get(msg.instance)
        if existing is not None:
            if existing != msg.val:
                raise AssertionError(
                    f"consistency violation in instance {msg.instance}: "
                    f"{existing!r} vs {msg.val!r}"
                )
            return
        self.decided[msg.instance] = msg.val
        if msg.val != NOOP:
            self.metrics.record_learn(msg.val, self.pid, self.now)
        self._deliver_ready()

    def _deliver_ready(self) -> None:
        while self._next_delivery in self.decided:
            instance = self._next_delivery
            value = self.decided[instance]
            self._next_delivery += 1
            if value == NOOP:
                continue
            self.delivered.append(value)
            self._delivered_set.add(value)
            for callback in self._callbacks:
                callback(value)


@dataclass
class ClassicCluster:
    """A deployed Classic Paxos group plus driving helpers."""

    sim: Simulation
    config: ClassicConfig
    proposers: list[ClassicProposer]
    coordinators: list[ClassicCoordinator]
    acceptors: list[ClassicAcceptor]
    learners: list[ClassicLearner]
    _proposal_index: int = field(default=0)

    def propose(self, cmd: Hashable, delay: float = 0.0) -> None:
        proposer = self.proposers[self._proposal_index % len(self.proposers)]
        self._proposal_index += 1
        self.sim.schedule(delay, lambda: proposer.propose(cmd))

    def start_round(self, rnd: int, delay: float = 0.0) -> None:
        n = len(self.coordinators)
        coordinator = self.coordinators[(rnd - 1) % n]
        self.sim.schedule(delay, lambda: coordinator.start_round(rnd))

    def everyone_delivered(self, cmds) -> bool:
        cmds = list(cmds)
        return all(
            all(learner.has_delivered(cmd) for cmd in cmds)
            for learner in self.learners
        )

    def run_until_delivered(self, cmds, timeout: float = 2_000.0) -> bool:
        cmds = list(cmds)
        return self.sim.run_until(lambda: self.everyone_delivered(cmds), timeout=timeout)


def build_classic_paxos(
    sim: Simulation,
    n_proposers: int = 1,
    n_coordinators: int = 3,
    n_acceptors: int = 3,
    n_learners: int = 1,
    liveness: LivenessConfig | None = None,
) -> ClassicCluster:
    """Deploy a Classic Paxos group on *sim*."""
    topology = Topology.build(n_proposers, n_coordinators, n_acceptors, n_learners)
    config = ClassicConfig(
        topology=topology,
        quorum_size=n_acceptors // 2 + 1,
        liveness=liveness,
    )
    return ClassicCluster(
        sim=sim,
        config=config,
        proposers=[ClassicProposer(pid, sim, config) for pid in topology.proposers],
        coordinators=[
            ClassicCoordinator(pid, sim, config, index)
            for index, pid in enumerate(topology.coordinators)
        ],
        acceptors=[ClassicAcceptor(pid, sim, config) for pid in topology.acceptors],
        learners=[ClassicLearner(pid, sim, config) for pid in topology.learners],
    )
