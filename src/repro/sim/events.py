"""Event heap for the discrete-event simulator.

Events are ordered by ``(time, sequence_number)``.  The sequence number is a
monotonically increasing tie-breaker, so two events scheduled for the same
virtual time fire in scheduling order.  This makes every simulation run a
deterministic function of its seed.

The heap holds ``(time, seq, event)`` tuples, so every sift compares floats
and ints in C.  ``seq`` is unique per queue, so a comparison never reaches
the third element and :class:`Event` itself needs no ordering.

Cancelled events stay in the heap until popped or compacted; the queue
keeps a live-event counter so ``len``/``bool`` are O(1), and rebuilds the
heap (dropping cancelled entries) whenever cancelled events outnumber live
ones, so long-running simulations with many cancelled timers stay compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable

# Heaps smaller than this are never compacted: rebuilding a handful of
# entries costs more than skipping them at pop time.
_COMPACT_MIN_SIZE = 64


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: Virtual time at which the event fires.
        seq: Tie-breaking sequence number (scheduling order).
        action: Zero-argument callable run when the event fires.
        cancelled: Set via :meth:`cancel`; cancelled events are skipped.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _queue: "EventQueue | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_cancel()


class EventQueue:
    """A min-heap of :class:`Event` objects keyed by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0  # non-cancelled events currently in the heap

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule *action* at virtual time *time* and return its event."""
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time}")
        seq = self._seq
        event = Event(time, seq, action, False, self)
        self._seq = seq + 1
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self, until: float = math.inf) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``.

        An event due after *until* stays queued and ``None`` is returned;
        ``bool(queue)`` then tells "nothing due yet" from "drained".
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[2]
            if event.cancelled:
                event._queue = None
                continue
            if entry[0] > until:
                # Put back the same entry: (time, seq) is unique, so the
                # heap's order is exactly what it was.
                heappush(heap, entry)
                return None
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Return the fire time of the earliest pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2]._queue = None
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop all pending events."""
        for _time, _seq, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0

    # -- internal accounting ----------------------------------------------

    def _on_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for events still in the heap."""
        self._live -= 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and len(self._heap) > 2 * self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries."""
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._queue = None
            else:
                live.append(entry)
        heapify(live)
        self._heap = live
