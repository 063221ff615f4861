"""Run metrics: message counts, load distribution, latency, disk writes.

Every experiment in the paper is a statement about one of these quantities:

* E1/E7 -- propose-to-learn latency in communication steps;
* E4 -- the fraction of commands processed by each coordinator/acceptor;
* E5/E6 -- disk writes (total and wasted);
* message complexity for all protocols.

The :class:`Metrics` object is owned by the :class:`repro.sim.scheduler.
Simulation` and updated by the network and by protocol agents.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable


@dataclass(slots=True)
class LatencySample:
    """Propose-to-learn record for one command."""

    command: Hashable
    proposed_at: float
    learned_at: float | None = None

    @property
    def latency(self) -> float | None:
        if self.learned_at is None:
            return None
        return self.learned_at - self.proposed_at


@dataclass
class Metrics:
    """Aggregated counters for a simulation run."""

    messages_sent: Counter = field(default_factory=Counter)
    messages_by_type: Counter = field(default_factory=Counter)
    messages_received: Counter = field(default_factory=Counter)
    messages_dropped: int = 0
    commands_handled: Counter = field(default_factory=Counter)
    #: sharded routing: commands dispatched per engine group ("g0"...,
    #: "xs" for the cross-shard merge group).
    commands_by_group: Counter = field(default_factory=Counter)
    #: optional ``msg -> int`` hook (e.g. the codec's encoded length);
    #: when set, every send is also accounted in bytes per message type
    #: and per directed link.  The net transport bypasses the hook and
    #: reports real frame lengths via :meth:`count_bytes` directly.
    sizer: Any = None
    bytes_by_type: Counter = field(default_factory=Counter)
    bytes_by_link: Counter = field(default_factory=Counter)
    _latency: dict[Hashable, LatencySample] = field(default_factory=dict)

    # -- message accounting (called by the network) ---------------------

    def on_send(self, src: Any, dst: Any, msg: Any) -> None:
        self.messages_sent[src] += 1
        self.messages_by_type[type(msg).__name__] += 1
        if self.sizer is not None:
            self.count_bytes(src, dst, msg, self.sizer(msg))

    def count_bytes(self, src: Any, dst: Any, msg: Any, size: int) -> None:
        """Account *size* wire bytes for *msg* on the ``src -> dst`` link."""
        self.bytes_by_type[type(msg).__name__] += size
        self.bytes_by_link[(src, dst)] += size

    def on_deliver(self, dst: Any, msg: Any) -> None:
        self.messages_received[dst] += 1

    def on_drop(self) -> None:
        self.messages_dropped += 1

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_type.values())

    # -- per-command latency --------------------------------------------

    def record_propose(self, command: Hashable, time: float) -> None:
        """Record the first proposal time of *command* (idempotent)."""
        if command not in self._latency:
            self._latency[command] = LatencySample(command, proposed_at=time)

    def record_learn(self, command: Hashable, learner: Any, time: float) -> None:
        """Record that *learner* learned *command* at *time*.

        The sample's ``learned_at`` keeps the *first* learn time across all
        learners, matching the paper's "value is learned" instant.
        """
        sample = self._latency.get(command)
        if sample is not None and (sample.learned_at is None or time < sample.learned_at):
            sample.learned_at = time

    def latency_of(self, command: Hashable) -> float | None:
        sample = self._latency.get(command)
        return sample.latency if sample else None

    def learned_commands(self) -> list[Hashable]:
        """Commands learned by at least one learner, by first-learn time."""
        learned = [s for s in self._latency.values() if s.learned_at is not None]
        learned.sort(key=lambda s: s.learned_at)
        return [s.command for s in learned]

    def unlearned_commands(self) -> list[Hashable]:
        return [c for c, s in self._latency.items() if s.learned_at is None]

    def latencies(self) -> list[float]:
        """All completed propose-to-learn latencies."""
        values = (s.latency for s in self._latency.values())
        return [v for v in values if v is not None]

    def mean_latency(self) -> float | None:
        samples = self.latencies()
        if not samples:
            return None
        return sum(samples) / len(samples)

    def learn_time(self, command: Hashable) -> float | None:
        sample = self._latency.get(command)
        return sample.learned_at if sample else None

    # -- sharded routing -------------------------------------------------

    def record_group(self, label: str) -> None:
        """Record a command routed to engine group *label*."""
        self.commands_by_group[label] += 1

    # -- load balance (E4) ----------------------------------------------

    def count_command_handled(self, process: Any) -> None:
        """Record that *process* did per-command protocol work."""
        self.commands_handled[process] += 1

    def load_fraction(self, process: Any, total_commands: int) -> float:
        """Fraction of commands in which *process* took part."""
        if total_commands == 0:
            return 0.0
        return self.commands_handled[process] / total_commands
