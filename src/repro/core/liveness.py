"""Liveness machinery: heartbeats, an Ω-style failure detector, leadership.

Section 4.3: safety never depends on leadership, but to guarantee progress
a single coordinator must eventually be entitled to start higher-numbered
rounds.  We implement the standard construction -- an unreliable failure
detector over periodic heartbeats; the leader is the smallest coordinator
index not currently suspected.  The detector is deliberately aggressive
and unreliable (it may suspect live processes under message loss); the
protocols only use it for liveness, so this is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.core.runtime import Process


@dataclass(frozen=True)
class Heartbeat:
    """Periodic aliveness beacon exchanged among coordinators."""

    sender: int


@dataclass(frozen=True)
class LivenessConfig:
    """Tuning knobs for failure detection and stuck-round recovery.

    Attributes:
        heartbeat_period: Interval between heartbeats; each periodic beat
            is followed by the leader's progress check.
        suspect_timeout: Silence span after which a peer is suspected.
        stuck_timeout: Age after which an unserved command triggers a new
            round (covers leader crashes and persistent collisions alike).
    """

    heartbeat_period: float = 4.0
    suspect_timeout: float = 12.0
    stuck_timeout: float = 12.0

    def __post_init__(self) -> None:
        # Mirror NetworkConfig's range checks: a zero or negative period
        # schedules a busy loop, and a suspect timeout at or below the
        # heartbeat period suspects every live peer permanently.
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.stuck_timeout <= 0:
            raise ValueError("stuck_timeout must be positive")
        if self.suspect_timeout <= self.heartbeat_period:
            raise ValueError("suspect_timeout must exceed heartbeat_period")


class FailureDetector:
    """Tracks peer heartbeats for one coordinator process."""

    def __init__(
        self,
        process: Process,
        index: int,
        peers: Sequence[tuple[int, Hashable]],
        config: LivenessConfig,
        on_check: Callable[[], None] | None = None,
    ) -> None:
        self._process = process
        self.index = index
        self._peers = [(i, pid) for i, pid in peers if i != index]
        self.config = config
        self._last_heard: dict[int, float] = {}
        self._on_check = on_check

    def start(self) -> None:
        """Beat now, then beat and check progress every heartbeat period."""
        now = self._process.now
        for peer_index, _ in self._peers:
            self._last_heard[peer_index] = now
        self._beat()
        self._process.set_periodic_timer(self.config.heartbeat_period, self._tick)

    def _beat(self) -> None:
        for _, pid in self._peers:
            self._process.send(pid, Heartbeat(self.index))

    def _tick(self) -> None:
        self._beat()
        if self._on_check is not None:
            self._on_check()

    def on_heartbeat(self, msg: Heartbeat) -> None:
        self._last_heard[msg.sender] = self._process.now

    def suspects(self, peer_index: int) -> bool:
        """Whether *peer_index* is currently suspected of having crashed."""
        if peer_index == self.index:
            return False
        last = self._last_heard.get(peer_index)
        if last is None:
            return True
        return self._process.now - last > self.config.suspect_timeout

    def trusted(self) -> list[int]:
        """Coordinator indices currently believed alive (self included)."""
        alive = [self.index]
        alive.extend(i for i, _ in self._peers if not self.suspects(i))
        return sorted(alive)

    def leader(self) -> int:
        """Ω output: the smallest trusted coordinator index."""
        return self.trusted()[0]

    def is_leader(self) -> bool:
        return self.leader() == self.index
