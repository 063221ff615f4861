"""The ledger's time base: a clock that charges the program, not the host.

The whole cluster and the load generator share one thread, so every
timer, every open-loop due time and every latency sample reads one
clock: ``loop.time()``.  On a shared host the wall clock is the problem,
for the program and for the numbers.  Sizing runs on the 2-vCPU sandbox saw
(a) a busy process get 40-100 % of a core in 3 s windows (hypervisor
steal, gaps up to 70 ms) and (b) the CPU time of *identical* deterministic
work move by +-15 % for seconds to minutes at a time (one simulator seed,
six times in a row: 1.45 1.46 1.96 1.79 1.85 1.99 ms per command).  Under
(a) the engines' sub-second timers (0.3 s retry, 1.2 s suspicion) fire
spuriously and the unbatched stack melts down at a quarter of its
capacity; under (b) every time a run reports, CPU time included, measures
the neighbours.

:class:`ProgramClock` therefore counts seconds as the program spent them:

* a *busy stretch* (handlers running between two ``select()`` calls)
  advances it by the CPU time the process was charged times the host's
  speed factor -- plus, if the process slept inside the stretch (a
  voluntary context switch: disk, a slow system call), by the wall time it
  slept, as it is.  Wall time beyond the CPU time of a stretch in which the
  process never chose to sleep is time the host gave to somebody else
  (steal, preemption): it is counted in ``stolen`` and is not on the clock;
* waiting in ``select()`` advances it at the wall rate, but by no more
  than the timeout asked for when it is the timeout that ends the wait;
* the speed factor (:class:`HostSpeed`) is ``REFERENCE_S`` over the median
  of the last few timings of a fixed kernel of interpreter work, taken
  every 50 ms.  Each timing runs the kernel twice to warm its own caches
  and times the third run, so the factor is the host's speed -- clock
  rate, a busy hyperthread sibling, memory contention -- and not the cache
  state the program left behind: on an undisturbed host it is 1 on every
  saturated workload (0.85-0.97 on the open loops, whose every burst of
  work starts on a core that just woke up), and a change that makes the
  interpreter colder is not divided out.

So a reported millisecond is a millisecond of the undisturbed host the
baseline was taken on, and equals ``time.process_time()`` /
``time.monotonic()`` there.  The CPU time as the host charged it is reported
beside the cost metric (``host.cpu_ms_per_cmd``), with
``clock.speed_factor`` and ``clock.stolen_frac``.  The probe cannot move out
of the timed window: a burst before and one after a 5 s window miss
disturbances that start and end inside it (README, *Why a reference clock*).
"""

from __future__ import annotations

import asyncio
import heapq
import json
import resource
import selectors
import statistics
import time
from collections import deque
from dataclasses import dataclass

_PAYLOAD = {"rnd": [0, 1, 0, 2], "instance": 4711, "val": {"cid": "c0:17", "op": "put",
            "key": "k42", "arg": 17}, "acceptor": "acc1", "votes": [[1, "x" * 24], [2, None]]}

#: The kernel's CPU cost, warm, on the undisturbed sandbox the first
#: baseline was taken on: the speed factor is 1 there.
REFERENCE_S = 212e-6


@dataclass(frozen=True)
class _Vote:
    rnd: tuple
    instance: int
    val: str


def _kernel() -> int:
    """A fixed piece of the work the program mostly does.

    Half JSON round trips of a small tagged message (``net/codec.py`` is
    tagged JSON), half what the engines and the simulator do around them:
    frozen-dataclass construction and hashing, nested dict updates, a heap.
    """
    checksum = 0
    for index in range(10):
        checksum += len(json.loads(json.dumps(_PAYLOAD, sort_keys=True))["votes"])
    heap: list = []
    votes: dict = {}
    seen = set()
    for index in range(75):
        vote = _Vote((0, index, 0, 2), index, "v%d" % (index % 7))
        votes.setdefault(vote.instance % 13, {})[vote.rnd] = vote.val
        seen.add(vote)
        heapq.heappush(heap, (index * 7919 % 101, index))
        if index % 3 == 0:
            checksum += heapq.heappop(heap)[1]
        checksum += len(type(vote).__name__.lower())
    return checksum + len(seen)


class HostSpeed:
    """How fast the host runs the interpreter right now (1: as the baseline's did)."""

    KEEP = 5  # the factor is the median over the last timings: a quarter of a second

    def __init__(self) -> None:
        self.costs: deque = deque(maxlen=self.KEEP)
        self.factor = 1.0
        for _ in range(self.KEEP):
            self.sample()

    def sample(self) -> None:
        _kernel()  # twice untimed: the third run finds the probe's own
        _kernel()  # working set in the caches, whatever the program left there
        started = time.process_time()
        _kernel()
        self.costs.append(time.process_time() - started)
        self.factor = REFERENCE_S / statistics.median(self.costs)


def _voluntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


class ProgramClock:
    """Seconds as the program spent them (see the module docstring)."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.now = 0.0  # the clock at the last commit
        self.busy = 0.0  # seconds of handler work, at reference speed
        self.cpu = 0.0  # the same work in CPU seconds as the host charged them
        self.blocked = 0.0  # seconds handlers slept (in a system call)
        self.idle = 0.0  # seconds waited in select()
        self.stolen = 0.0  # seconds the host gave to somebody else
        self._cpu_mark = time.process_time()
        self._wall_mark = time.monotonic()
        self._switch_mark = _voluntary_switches()

    def read(self) -> float:
        """The clock now: time a stretch slept shows once it is committed."""
        return self.now + (time.process_time() - self._cpu_mark) * self.speed.factor

    def commit(self) -> None:
        """Fold the busy stretch so far into the clock."""
        cpu, wall, switches = time.process_time(), time.monotonic(), _voluntary_switches()
        used = cpu - self._cpu_mark
        gap = max((wall - self._wall_mark) - used, 0.0)
        self.cpu += used
        self.busy += used * self.speed.factor
        self.now += used * self.speed.factor
        if switches != self._switch_mark:
            self.blocked += gap
            self.now += gap
        else:
            self.stolen += gap
        self._cpu_mark, self._wall_mark, self._switch_mark = cpu, wall, switches

    def probe(self) -> None:
        """Re-time the host.  The probe's own time is nobody's."""
        self.commit()  # the stretch so far was run at the old factor
        self.speed.sample()
        self._cpu_mark, self._wall_mark = time.process_time(), time.monotonic()

    def waited(self, timeout: float | None, timed_out: bool) -> None:
        """Account for a ``select()`` that was entered right after a commit."""
        cpu, wall = time.process_time(), time.monotonic()
        polling = cpu - self._cpu_mark  # stays in the next busy stretch
        waited = max((wall - self._wall_mark) - polling, 0.0)
        if timed_out and timeout is not None and waited > timeout:
            # Woken by the timeout, late: the host was slow to run us again
            # (every socket here is written by this very thread, so nothing
            # can arrive while it sleeps).  The program asked for `timeout`.
            self.stolen += waited - timeout
            waited = timeout
        self.idle += waited
        self.now += waited
        self._wall_mark = wall - polling
        self._switch_mark = _voluntary_switches()  # select's own sleep is no handler's

    def usage(self) -> dict[str, float]:
        """Seconds so far, by kind."""
        self.commit()
        return {kind: getattr(self, kind) for kind in ("busy", "cpu", "blocked", "idle", "stolen")}


class _Selector(selectors.DefaultSelector):
    """Tells the clock where busy stretches end and how long waits were."""

    def __init__(self, clock: ProgramClock) -> None:
        super().__init__()
        self.clock = clock

    def select(self, timeout=None):
        self.clock.commit()
        events = super().select(timeout)
        self.clock.waited(timeout, timed_out=not events)
        return events


class ProgramLoop(asyncio.SelectorEventLoop):
    """A selector loop whose ``time()`` is a :class:`ProgramClock`."""

    PROBE_EVERY_S = 0.05

    def __init__(self) -> None:
        self.clock = ProgramClock()
        super().__init__(_Selector(self.clock))
        self.call_soon(self._probe)

    def time(self) -> float:
        return self.clock.read()

    def _probe(self) -> None:
        self.clock.probe()
        self.call_later(self.PROBE_EVERY_S, self._probe)
