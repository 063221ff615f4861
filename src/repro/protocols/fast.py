"""Fast Paxos (Section 2.2), single-instance consensus baseline.

Extends Classic Paxos with *fast* rounds: after phase 1 of a fast round,
the coordinator sends the special ``Any`` value and acceptors then accept
proposals arriving directly from proposers -- two communication steps from
proposal to learning, at the price of bigger (fast) quorums and possible
*collisions* when concurrent proposals are accepted in different orders.

Both collision-recovery variants of Section 2.2 are implemented:

* **coordinated recovery** -- the coordinator of round i monitors phase
  "2b" messages; once no value can reach a fast quorum it reinterprets
  them as phase "1b" messages for round i+1 (which it also owns) and jumps
  straight to phase 2a: two communication steps to recover;
* **uncoordinated recovery** -- acceptors additionally exchange their "2b"
  messages; on a collision each acceptor runs the coordinator's picking
  rule over the "2b" messages (read as "1b" messages for round i+1) and
  accepts directly in the *fast* round i+1: one communication step, but
  acceptors may pick different values and collide again.

Round numbers are positive integers owned round-robin by the coordinators;
the ``fast_rounds`` predicate classifies them (Section 4.5's RType ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.core.runtime import Process
from repro.core.topology import Topology
from repro.sim.scheduler import Simulation


class _FAny:
    _instance: "_FAny | None" = None

    def __new__(cls) -> "_FAny":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "F_ANY"


F_ANY = _FAny()


@dataclass(frozen=True)
class FPropose:
    cmd: Hashable


@dataclass(frozen=True)
class F1a:
    rnd: int


@dataclass(frozen=True)
class F1b:
    rnd: int
    vrnd: int
    vval: Hashable


@dataclass(frozen=True)
class F2a:
    rnd: int
    val: Hashable


@dataclass(frozen=True)
class F2b:
    rnd: int
    val: Hashable


@dataclass
class FastConfig:
    topology: Topology
    n_acceptors: int
    f: int
    e: int
    fast_rounds: Callable[[int], bool]
    uncoordinated: bool = False
    recovery: str = "coordinated"  # "coordinated" | "restart" | "none"

    def __post_init__(self) -> None:
        if self.n_acceptors < 1:
            raise ValueError("n_acceptors must be at least 1")
        if not 0 <= self.f < self.n_acceptors:
            raise ValueError("f must be in [0, n_acceptors)")
        if not 0 <= self.e < self.n_acceptors:
            raise ValueError("e must be in [0, n_acceptors)")
        if self.rounds_per_owner < 1:
            raise ValueError("rounds_per_owner must be at least 1")

    @property
    def classic_quorum_size(self) -> int:
        return self.n_acceptors - self.f

    @property
    def fast_quorum_size(self) -> int:
        return self.n_acceptors - self.e

    def quorum_size(self, rnd: int) -> int:
        return self.fast_quorum_size if self.fast_rounds(rnd) else self.classic_quorum_size

    rounds_per_owner: int = 2

    def owner(self, rnd: int) -> int:
        """Round ownership in blocks of ``rounds_per_owner`` consecutive rounds.

        Coordinated recovery needs the coordinator of a collided round i to
        also coordinate round i+1 (Section 2.2), so consecutive rounds share
        an owner by default.
        """
        block = (rnd - 1) // self.rounds_per_owner
        return block % len(self.topology.coordinators)


@dataclass(frozen=True)
class _FPick:
    free: bool
    value: Hashable = None


def _pick(config: FastConfig, msgs: dict[str, F1b]) -> _FPick:
    """The Fast Paxos picking rule over integer rounds (Section 2.2)."""
    k = max(msg.vrnd for msg in msgs.values())
    if k == 0:
        return _FPick(free=True)
    q_k = config.quorum_size(k)
    min_inter = len(msgs) + q_k - config.n_acceptors
    if min_inter <= 0:
        raise ValueError("quorum requirement violated: k-quorum may miss Q")
    counts: dict[Hashable, int] = {}
    for msg in msgs.values():
        if msg.vrnd == k:
            counts[msg.vval] = counts.get(msg.vval, 0) + 1
    candidates = [value for value, count in counts.items() if count >= min_inter]
    if len(candidates) > 1:
        raise ValueError(f"Fast Quorum Requirement violated: {candidates}")
    if not candidates:
        return _FPick(free=True)
    return _FPick(free=False, value=candidates[0])


class FastProposer(Process):
    """Sends proposals to coordinators *and* acceptors (Section 2.2)."""

    def __init__(self, pid: str, sim: Simulation, config: FastConfig) -> None:
        super().__init__(pid, sim)
        self.config = config

    def propose(self, cmd: Hashable) -> None:
        self.metrics.record_propose(cmd, self.now)
        msg = FPropose(cmd)
        self.broadcast(self.config.topology.coordinators, msg)
        self.broadcast(self.config.topology.acceptors, msg)


class FastCoordinator(Process):
    def __init__(self, pid: str, sim: Simulation, config: FastConfig, index: int) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.index = index
        self.crnd = 0
        self.sent = False
        self.ready = False
        self.pending: list[Hashable] = []
        self.collisions_recovered = 0
        self._p1b: dict[int, dict[str, F1b]] = {}
        self._p2b: dict[int, dict[str, F2b]] = {}

    def start_round(self, rnd: int) -> None:
        if self.config.owner(rnd) != self.index:
            raise ValueError(f"coordinator {self.index} does not own round {rnd}")
        if rnd <= self.crnd:
            raise ValueError(f"round {rnd} not above {self.crnd}")
        self.crnd = rnd
        self.sent = False
        self.ready = False
        self.broadcast(self.config.topology.acceptors, F1a(rnd))

    def on_f1b(self, msg: F1b, src: Hashable) -> None:
        if msg.rnd != self.crnd or self.sent or self.ready:
            return
        self._p1b.setdefault(msg.rnd, {})[src] = msg
        msgs = self._p1b[msg.rnd]
        if len(msgs) < self.config.classic_quorum_size:
            return
        self._phase2(msgs)

    def _phase2(self, msgs: dict[str, F1b]) -> None:
        pick = _pick(self.config, msgs)
        if not pick.free:
            self._send_value(pick.value)
        elif self.config.fast_rounds(self.crnd):
            self._send_value(F_ANY)
        else:
            self.ready = True
            self._drain()

    def on_fpropose(self, msg: FPropose, src: Hashable) -> None:
        if msg.cmd not in self.pending:
            self.pending.append(msg.cmd)
        self._drain()

    def _drain(self) -> None:
        if self.ready and not self.sent and self.pending:
            self._send_value(self.pending[0])

    def _send_value(self, value: Hashable) -> None:
        self.sent = True
        self.ready = False
        self.broadcast(self.config.topology.acceptors, F2a(self.crnd, value))

    # -- coordinated recovery (Section 2.2) ---------------------------------

    def on_f2b(self, msg: F2b, src: Hashable) -> None:
        self._p2b.setdefault(msg.rnd, {})[src] = msg
        if msg.rnd != self.crnd:
            return
        votes = self._p2b[msg.rnd]
        if not self._collided(msg.rnd, votes):
            return
        next_rnd = msg.rnd + 1
        if self.config.owner(next_rnd) != self.index:
            return
        if self.config.recovery == "none":
            return
        self.collisions_recovered += 1
        if self.config.recovery == "restart":
            # Naive recovery: run round i+1 from the very beginning
            # (four communication steps, Section 2.2).
            self.start_round(next_rnd)
            return
        # Coordinated recovery: reinterpret round-i "2b" messages as
        # round-(i+1) "1b" messages and jump to phase 2a (two steps).
        as_1b = {acc: F1b(next_rnd, msg.rnd, vote.val) for acc, vote in votes.items()}
        self.crnd = next_rnd
        self.sent = False
        self.ready = False
        self._phase2(as_1b)

    def _collided(self, rnd: int, votes: dict[str, F2b]) -> bool:
        if len(votes) < self.config.classic_quorum_size:
            return False
        counts: dict[Hashable, int] = {}
        for vote in votes.values():
            counts[vote.val] = counts.get(vote.val, 0) + 1
        missing = self.config.n_acceptors - len(votes)
        return max(counts.values()) + missing < self.config.quorum_size(rnd)


class FastAcceptor(Process):
    # Lost on crash by design: ANY windows and peer votes are re-opened /
    # re-collected under the next round, pending proposals are resent by
    # the proposer, accept_log mirrors the vote journal, the rest are
    # statistics.  Stable state is rnd/vrnd/vval.
    VOLATILE = {
        "_any_open",
        "_peer_votes",
        "_recovered",
        "accept_log",
        "pending",
        "wasted_disk_writes",
    }

    def __init__(self, pid: str, sim: Simulation, config: FastConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.rnd = 0
        self.vrnd = 0
        self.vval: Hashable = None
        self.pending: list[Hashable] = []
        self.wasted_disk_writes = 0
        self.accept_log: list[tuple[int, Hashable]] = []  # one disk write each
        self._any_open: set[int] = set()
        self._peer_votes: dict[int, dict[str, Hashable]] = {}
        self._recovered: set[int] = set()

    def on_f1a(self, msg: F1a, src: Hashable) -> None:
        if msg.rnd <= self.rnd:
            return
        self.rnd = msg.rnd
        self.storage.write("rnd", self.rnd)
        owner = self.config.topology.coordinators[self.config.owner(msg.rnd)]
        self.send(owner, F1b(msg.rnd, self.vrnd, self.vval))

    def on_f2a(self, msg: F2a, src: Hashable) -> None:
        if msg.rnd < self.rnd:
            return
        if msg.val is F_ANY:
            self._any_open.add(msg.rnd)
            self.rnd = max(self.rnd, msg.rnd)
            self._try_fast()
        else:
            self._accept(msg.rnd, msg.val)

    def on_fpropose(self, msg: FPropose, src: Hashable) -> None:
        if msg.cmd not in self.pending:
            self.pending.append(msg.cmd)
        self._try_fast()

    def _try_fast(self) -> None:
        if self.rnd in self._any_open and self.vrnd < self.rnd and self.pending:
            self._accept(self.rnd, self.pending[0])

    def _accept(self, rnd: int, value: Hashable) -> None:
        if rnd < self.rnd or self.vrnd >= rnd:
            return
        self.rnd = rnd
        self.vrnd = rnd
        self.vval = value
        self.accept_log.append((rnd, value))
        self.storage.write_many({"vrnd": rnd, "vval": value})
        vote = F2b(rnd, value)
        self.broadcast(self.config.topology.learners, vote)
        owner = self.config.topology.coordinators[self.config.owner(rnd)]
        self.send(owner, vote)
        if self.config.uncoordinated:
            self.broadcast(self.config.topology.acceptors, vote)

    # -- uncoordinated recovery (Section 2.2) -----------------------------------

    def on_f2b(self, msg: F2b, src: Hashable) -> None:
        if not self.config.uncoordinated:
            return
        votes = self._peer_votes.setdefault(msg.rnd, {})
        votes[src] = msg.val
        rnd = msg.rnd
        if rnd in self._recovered or rnd != self.vrnd:
            return
        if len(votes) < self.config.classic_quorum_size:
            return
        counts: dict[Hashable, int] = {}
        for value in votes.values():
            counts[value] = counts.get(value, 0) + 1
        missing = self.config.n_acceptors - len(votes)
        if max(counts.values()) + missing >= self.config.quorum_size(rnd):
            return  # no collision (yet)
        next_rnd = rnd + 1
        if not self.config.fast_rounds(next_rnd):
            return  # uncoordinated recovery requires a fast successor round
        self._recovered.add(rnd)
        as_1b = {acc: F1b(next_rnd, rnd, value) for acc, value in votes.items()}
        pick = _pick(self.config, as_1b)
        if pick.free:
            # All picks are safe; converge by choosing the most-voted value
            # with a deterministic tie-break (one of the strategies alluded
            # to in Section 2.2 for making acceptors pick the same value).
            value = max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]
        else:
            value = pick.value
        # The round-i acceptance is a wasted disk write: the value was
        # accepted but will never be learned (experiment E5's key metric).
        self.wasted_disk_writes += 1
        self._any_open.add(next_rnd)
        self._accept(next_rnd, value)

    def on_crash(self) -> None:
        self.rnd = 0
        self.vrnd = 0
        self.vval = None
        self.pending = []
        self._any_open = set()
        self._peer_votes = {}

    def on_recover(self) -> None:
        self.rnd = self.storage.read("rnd", 0)
        self.vrnd = self.storage.read("vrnd", 0)
        self.vval = self.storage.read("vval", None)


class FastLearner(Process):
    def __init__(self, pid: str, sim: Simulation, config: FastConfig) -> None:
        super().__init__(pid, sim)
        self.config = config
        self.learned: Hashable = None
        self.learned_at: float | None = None
        self._votes: dict[int, dict[str, Hashable]] = {}

    def on_f2b(self, msg: F2b, src: Hashable) -> None:
        votes = self._votes.setdefault(msg.rnd, {})
        votes[src] = msg.val
        count = sum(1 for v in votes.values() if v == msg.val)
        if count < self.config.quorum_size(msg.rnd):
            return
        if self.learned is not None:
            if self.learned != msg.val:
                raise AssertionError(
                    f"consistency violation: {self.learned!r} vs {msg.val!r}"
                )
            return
        self.learned = msg.val
        self.learned_at = self.now
        self.metrics.record_learn(msg.val, self.pid, self.now)


@dataclass
class FastCluster:
    sim: Simulation
    config: FastConfig
    proposers: list[FastProposer]
    coordinators: list[FastCoordinator]
    acceptors: list[FastAcceptor]
    learners: list[FastLearner]
    _proposal_index: int = field(default=0)

    def propose(self, cmd: Hashable, delay: float = 0.0, proposer: int | None = None) -> None:
        if proposer is None:
            proposer = self._proposal_index % len(self.proposers)
            self._proposal_index += 1
        agent = self.proposers[proposer]
        self.sim.schedule(delay, lambda: agent.propose(cmd))

    def start_round(self, rnd: int, delay: float = 0.0) -> None:
        coordinator = self.coordinators[self.config.owner(rnd)]
        self.sim.schedule(delay, lambda: coordinator.start_round(rnd))

    def all_learned(self) -> bool:
        return all(l.learned is not None for l in self.learners)

    def decision(self) -> Hashable:
        values = [l.learned for l in self.learners if l.learned is not None]
        return values[0] if values else None

    def run_until_decided(self, timeout: float = 1_000.0) -> bool:
        return self.sim.run_until(self.all_learned, timeout=timeout)


def build_fast_paxos(
    sim: Simulation,
    n_proposers: int = 2,
    n_coordinators: int = 2,
    n_acceptors: int = 4,
    n_learners: int = 1,
    f: int | None = None,
    e: int | None = None,
    fast_rounds: Callable[[int], bool] | None = None,
    uncoordinated: bool = False,
    recovery: str = "coordinated",
) -> FastCluster:
    """Deploy a Fast Paxos instance on *sim*.

    By default every round is fast except none -- i.e. ``fast_rounds``
    classifies all rounds as fast, matching the "clustered system"
    configuration of Section 4.5 where uncoordinated recovery chains fast
    rounds.  Pass e.g. ``lambda r: r % 2 == 1`` for alternating fast and
    classic rounds (coordinated recovery into a classic round).
    """
    topology = Topology.build(n_proposers, n_coordinators, n_acceptors, n_learners)
    if f is None:
        f = (n_acceptors - 1) // 2
    if e is None:
        e = max((n_acceptors - f - 1) // 2, 0)
    config = FastConfig(
        topology=topology,
        n_acceptors=n_acceptors,
        f=f,
        e=e,
        fast_rounds=fast_rounds or (lambda rnd: True),
        uncoordinated=uncoordinated,
        recovery=recovery,
    )
    return FastCluster(
        sim=sim,
        config=config,
        proposers=[FastProposer(pid, sim, config) for pid in topology.proposers],
        coordinators=[
            FastCoordinator(pid, sim, config, index)
            for index, pid in enumerate(topology.coordinators)
        ],
        acceptors=[FastAcceptor(pid, sim, config) for pid in topology.acceptors],
        learners=[FastLearner(pid, sim, config) for pid in topology.learners],
    )
