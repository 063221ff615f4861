"""The runtime seam: everything a protocol role needs from its host.

Role classes (proposers, coordinators, acceptors, learners in
:mod:`repro.smr.instances`, :mod:`repro.core.generalized`,
:mod:`repro.core.multicoordinated`) never touch sockets, wall clocks or
the event heap directly.  They talk to the world exclusively through the
:class:`Process` base class, which in turn talks only to the
:class:`Runtime` protocol defined here: message transport, timers, stable
storage, randomness and the clock.

Two implementations exist:

* :class:`repro.sim.scheduler.Simulation` -- the deterministic
  discrete-event simulator (virtual clock, seeded RNG, in-memory
  network with loss/partition injection).  This is the test oracle.
* :class:`repro.net.transport.NetRuntime` -- an asyncio event loop with
  real UDP sockets (TCP fallback for oversized frames) for deployments
  of the same role classes as OS processes on a network.

The contract that keeps the role code backend-agnostic:

* ``runtime.send(src, dst, msg)`` is asynchronous and unordered; a
  message to *self* is delivered reliably but still asynchronously (a
  fresh dispatch, never a reentrant call).
* ``runtime.clock`` only ever moves forward; roles may compare and
  subtract timestamps but must not use them as identities or assume any
  relation to real time.
* ``runtime.rng`` is the only source of randomness, seeded by the host.
* ``runtime.schedule`` powers :meth:`Process.set_timer`; there is no
  guaranteed relation between timer resolution and message latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    # Annotation only: importing it for real would make this module -- the
    # one every role imports -- depend on the simulator package.
    from repro.sim.storage import StableStorage


class Cancellable(Protocol):
    """A scheduled action's handle: the one method timers need."""

    def cancel(self) -> None: ...


@runtime_checkable
class Runtime(Protocol):
    """What a :class:`Process` requires from its host backend."""

    #: current time in seconds (virtual or wall-clock), monotone
    clock: float
    #: the host's seeded random source -- roles must not seed their own
    rng: random.Random
    #: message/latency accounting (``repro.sim.metrics.Metrics`` API)
    metrics: Any
    #: pid -> process registry (used by drivers and fault injection)
    processes: dict[Hashable, Any]

    def add_process(self, process: Any) -> None: ...

    def schedule(self, delay: float, action: Callable[[], None]) -> Cancellable: ...

    def send(self, src: Hashable, dst: Hashable, msg: Any) -> None: ...

    def make_storage(self, owner: str) -> StableStorage: ...

    def add_delivery_tap(self, tap: Callable[[Hashable, Hashable, Any], None]) -> None: ...


@dataclass
class Timer:
    """Handle for a scheduled (possibly periodic) timer."""

    event: Cancellable | None
    period: float | None = None
    cancelled: bool = field(default=False)

    def cancel(self) -> None:
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()


class Process:
    """Base class for all protocol agents, on any :class:`Runtime`.

    Incoming messages are dispatched to ``on_<messagetype>`` methods by
    the lower-cased class name of the message, e.g. a ``Phase1a``
    dataclass is handled by ``on_phase1a(msg, src)``.

    The failure model is crash-recovery (Section 2.1.1): a crashed
    process drops all incoming messages and timers; on recovery its
    volatile state is reinitialized by :meth:`Process.on_recover`,
    typically from its :class:`repro.sim.storage.StableStorage`.

    The attribute holding the runtime is named ``sim`` for historical
    reasons (the simulator was the first backend); it is any
    :class:`Runtime`.
    """

    def __init__(self, pid: Hashable, sim: Runtime) -> None:
        self.pid = pid
        self.sim = sim
        self.alive = True
        self.crash_count = 0
        self.storage = sim.make_storage(str(pid))
        self._timers: list[Timer] = []
        sim.add_process(self)

    # -- messaging --------------------------------------------------------

    def send(self, dst: Hashable, msg: Any) -> None:
        """Send *msg* to the process with id *dst*."""
        if not self.alive:
            return
        self.sim.send(self.pid, dst, msg)

    def broadcast(self, dsts: Any, msg: Any) -> None:
        """Send *msg* to every destination in *dsts*."""
        for dst in dsts:
            self.send(dst, msg)

    def deliver(self, msg: Any, src: Hashable) -> None:
        """Dispatch *msg* to the matching ``on_<type>`` handler."""
        if not self.alive:
            return
        handler = getattr(self, "on_" + type(msg).__name__.lower(), None)
        if handler is None:
            self.on_unhandled(msg, src)
            return
        handler(msg, src)

    def on_unhandled(self, msg: Any, src: Hashable) -> None:
        """Hook for messages with no dedicated handler (default: error)."""
        raise TypeError(f"{type(self).__name__} {self.pid} cannot handle {msg!r} from {src!r}")

    # -- timers -----------------------------------------------------------

    def set_timer(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run *action* after *delay* time units unless crashed/cancelled."""
        timer = Timer(event=None)

        def fire() -> None:
            # One-shot: retire the handle so long-running processes that
            # arm many timers (e.g. batch flush deadlines) don't accumulate
            # fired Timer/Event/closure triples in _timers forever.
            if timer in self._timers:
                self._timers.remove(timer)
            if timer.cancelled or not self.alive:
                return
            action()

        timer.event = self.sim.schedule(delay, fire)
        self._timers.append(timer)
        return timer

    def set_periodic_timer(self, period: float, action: Callable[[], None]) -> Timer:
        """Run *action* every *period* time units until cancelled/crash."""
        timer = Timer(event=None, period=period)

        def fire() -> None:
            if timer.cancelled or not self.alive:
                return
            action()
            if not timer.cancelled and self.alive:
                timer.event = self.sim.schedule(period, fire)

        timer.event = self.sim.schedule(period, fire)
        self._timers.append(timer)
        return timer

    def drop_timer(self, timer: Timer) -> None:
        """Cancel *timer* and release its handle immediately.

        Use for timers retired on an external signal (e.g. a retransmission
        timer cancelled by an ack): unlike a bare ``cancel()``, the handle
        does not linger in ``_timers`` until the next crash.
        """
        timer.cancel()
        if timer in self._timers:
            self._timers.remove(timer)

    def _cancel_timers(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    # -- failure model ------------------------------------------------------

    def crash(self) -> None:
        """Stop the process: lose volatile state, keep stable storage."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self._cancel_timers()
        self.on_crash()

    def recover(self) -> None:
        """Restart the process; subclasses reload state in *on_recover*."""
        if self.alive:
            return
        self.alive = True
        self.on_recover()

    def on_crash(self) -> None:
        """Hook called when the process crashes (volatile cleanup)."""

    def on_recover(self) -> None:
        """Hook called on recovery (reload from stable storage)."""

    # -- conveniences -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.clock

    @property
    def metrics(self) -> Any:
        return self.sim.metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"{type(self).__name__}({self.pid!r}, {status})"
