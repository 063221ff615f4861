"""Span tracing from outside: timing wrappers around the public seams.

Nothing in ``src/repro`` knows about this module.  :class:`Tracer`
replaces, for the length of one traced repetition, the public functions
at each layer boundary with wrappers that record a span
``(name, start, end, parent)`` in memory:

========================  ===========================================
layer                     seam
========================  ===========================================
``net/codec.py``          ``repro.net.transport.encode`` / ``decode``
``net/transport.py``      ``NetRuntime.send``
engines (via runtime)     ``Process.deliver`` -- named by role class
                          and message type
``sim/storage.py``        ``StableStorage.write/write_many/append/
                          append_many/truncate_below``
``cstruct/history.py``    ``CommandHistory.leq/lub/glb/extend``
``shard/router.py``       ``ShardRouter.propose``
``sim/scheduler.py``      ``Simulation.step``
========================  ===========================================

Spans are stamped with ``time.process_time()``: on a shared host the CPU
clock is the only one that does not charge a layer for time the
hypervisor gave to somebody else, and it makes the self times add up to
the process CPU the end-to-end cost metric is computed from.  A span's
*self time* is its duration minus the durations of its direct children;
what no span covers (asyncio, syscalls outside ``send``, the receive
pump, timer callbacks, the wrappers themselves) is the residual.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

import repro.net.transport as transport
from repro.core.runtime import Process
from repro.cstruct.history import CommandHistory
from repro.net.transport import NetRuntime
from repro.shard.router import ShardRouter
from repro.sim.scheduler import Simulation
from repro.sim.storage import StableStorage

_STORAGE_OPS = ("write", "write_many", "append", "append_many", "truncate_below")
_CSTRUCT_OPS = ("leq", "lub", "glb", "extend")
_ROLES = ("proposer", "coordinator", "acceptor", "learner")


def role_of(class_name: str) -> str:
    """The engine role a ``Process`` subclass plays, from its class name."""
    lowered = class_name.lower()
    for role in _ROLES:
        if role in lowered:
            return role
    return "other"


class Tracer:
    """Records spans while installed; aggregates self time per span name."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index) once closed
        self._open: list[int] = []  # indices of the spans currently open
        self._undo: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str | None, namer: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.process_time

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = name if namer is None else namer(*args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)

        return traced

    def _patch(self, owner, attr: str, name: str | None, namer: Callable | None = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, namer))
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        handler_names: dict = {}

        def handler_name(process, msg, *_rest) -> str:
            key = (type(process), type(msg))
            label = handler_names.get(key)
            if label is None:
                label = handler_names[key] = (
                    f"engine.{role_of(key[0].__name__)}.{key[1].__name__}"
                )
            return label

        # transport.py imported encode/decode by name, so the module
        # globals -- not codec.py's -- are what NetRuntime calls.
        self._patch(transport, "encode", "codec.encode")
        self._patch(transport, "decode", "codec.decode")
        self._patch(NetRuntime, "send", "transport.send")
        self._patch(Process, "deliver", None, handler_name)
        for op in _STORAGE_OPS:
            self._patch(StableStorage, op, f"storage.{op}")
        for op in _CSTRUCT_OPS:
            self._patch(CommandHistory, op, f"cstruct.{op}")
        self._patch(ShardRouter, "propose", "shard.route")
        self._patch(Simulation, "step", "sim.step")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def mark(self) -> int:
        """Index of the next span: everything before it is set-up."""
        return len(self.spans)

    # -- aggregation --------------------------------------------------------

    def self_times(self, since: int = 0) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over closed spans from *since*."""
        spans = self.spans
        child_time: dict[int, float] = defaultdict(float)
        for index in range(since, len(spans)):
            span = spans[index]
            if span is not None and span[3] >= since:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index in range(since, len(spans)):
            span = spans[index]
            if span is None:
                continue  # still open: the repetition ended inside it
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += (span[2] - span[1]) - child_time.get(index, 0.0)
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def dump(self, path: str, since: int = 0) -> None:
        """Write the recorded spans as JSON lines (after the repetition)."""
        with open(path, "w") as out:
            for index in range(since, len(self.spans)):
                span = self.spans[index]
                if span is not None:
                    name, start, end, parent = span
                    out.write(json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    ))
                    out.write("\n")
