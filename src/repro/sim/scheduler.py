"""The :class:`Simulation` object: clock, event loop, RNG, network, agents.

Every run is a deterministic function of its seed.  A simulation advances by
popping events off the heap; protocol progress, timers and message delivery
are all events.  Invariant checkers (see :mod:`repro.core.invariants`) can
be registered and run after every event, turning randomized runs into
property checks against the paper's proof obligations.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Hashable

from repro.sim.events import Event, EventQueue
from repro.sim.metrics import Metrics
from repro.sim.network import Network, NetworkConfig
from repro.sim.storage import StableStorage


class SimulationError(RuntimeError):
    """Raised when the simulation is driven past its configured limits."""


class Simulation:
    """A deterministic discrete-event simulation."""

    def __init__(
        self,
        seed: int = 0,
        network: NetworkConfig | None = None,
        max_events: int = 1_000_000,
    ) -> None:
        self.clock = 0.0
        self.rng = random.Random(seed)
        self.queue = EventQueue()
        self.metrics = Metrics()
        self.network = Network(self, network)
        self.processes: dict[Hashable, Any] = {}
        self.max_events = max_events
        self.events_processed = 0
        self._invariant_checks: list[Callable[["Simulation"], None]] = []
        self.delivery_taps: list[Callable[[Hashable, Hashable, Any], None]] = []

    # -- registration -----------------------------------------------------

    def add_process(self, process: Any) -> None:
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process

    def add_invariant_check(self, check: Callable[["Simulation"], None]) -> None:
        """Run *check(sim)* after every processed event (safety oracle)."""
        self._invariant_checks.append(check)

    def add_delivery_tap(self, tap: Callable[[Hashable, Hashable, Any], None]) -> None:
        """Observe every delivered ``(src, dst, msg)`` without touching roles."""
        self.delivery_taps.append(tap)

    # -- Runtime protocol (see repro.core.runtime) -------------------------

    def send(self, src: Hashable, dst: Hashable, msg: Any) -> None:
        """Transport entry point: delegate to the simulated network."""
        self.network.send(src, dst, msg)

    def make_storage(self, owner: str) -> StableStorage:
        """Fresh stable storage for one process (in-memory, crash-proof)."""
        return StableStorage(owner=owner)

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule *action* to run *delay* time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.clock + delay, action)

    def defer(self, process: Any, action: Callable[[], None]) -> None:
        """Run *action* at once: every event delivers one message, so
        there is no delivery batch to wait for."""
        action()

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule *action* at absolute virtual time *time*."""
        if time < self.clock:
            raise ValueError(f"cannot schedule in the past ({time} < {self.clock})")
        return self.queue.push(time, action)

    # -- execution --------------------------------------------------------

    def step(self, until: float = math.inf) -> bool:
        """Process the next event due at or before *until*.

        Returns False when there is none: the queue drained, or (if
        ``bool(self.queue)``) its next event is due after *until*.
        """
        event = self.queue.pop(until)
        if event is None:
            return False
        if event.time < self.clock:  # pragma: no cover - defensive
            raise SimulationError("event heap yielded an event in the past")
        self.clock = event.time
        self.events_processed += 1
        if self.events_processed > self.max_events:
            raise SimulationError(f"exceeded max_events={self.max_events}")
        event.action()
        for check in self._invariant_checks:
            check(self)
        return True

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes *until*."""
        step = self.step
        limit = math.inf if until is None else until
        while step(limit):
            pass
        if self.queue:  # only events after *until* are left
            self.clock = limit

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        """Run until *predicate()* holds.  Returns whether it ever held.

        *predicate* runs after every event, so a long run wants it O(1)
        (``Cluster.run_until_delivered`` keeps a countdown for that).
        """
        if predicate():
            return True
        step = self.step
        limit = math.inf if timeout is None else timeout
        while step(limit):
            if predicate():
                return True
        if self.queue:  # only events after *timeout* are left
            self.clock = limit
        return predicate()

    # -- fault injection helpers -------------------------------------------

    def crash(self, pid: Hashable) -> None:
        self.processes[pid].crash()

    def recover(self, pid: Hashable) -> None:
        self.processes[pid].recover()

    def alive(self, pid: Hashable) -> bool:
        return self.processes[pid].alive
