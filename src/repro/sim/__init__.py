"""Discrete-event simulation substrate.

The paper's quantitative claims are stated in communication steps, message
counts and disk writes.  This package provides a deterministic, seeded
discrete-event simulator in which those quantities are exactly measurable:

* :mod:`repro.sim.events` -- the event heap and virtual clock primitives.
* :mod:`repro.sim.network` -- a point-to-point network with configurable
  latency, jitter, loss, duplication and partitions.
* :class:`Process`, :class:`Timer` -- the agent runtime (handlers, timers,
  crash and recovery), re-exported from :mod:`repro.core.runtime`.
* :mod:`repro.sim.storage` -- write-counted stable storage that survives
  crashes (the disk model of Section 4.4).
* :mod:`repro.sim.scheduler` -- the :class:`Simulation` object tying the
  pieces together.
* :mod:`repro.sim.metrics` -- counters for messages, disk writes and
  propose-to-learn latency.
"""

from repro.core.runtime import Process, Timer
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import Metrics
from repro.sim.network import Network, NetworkConfig
from repro.sim.scheduler import Simulation
from repro.sim.storage import StableStorage

__all__ = [
    "Event",
    "EventQueue",
    "Metrics",
    "Network",
    "NetworkConfig",
    "Process",
    "Simulation",
    "StableStorage",
    "Timer",
]
