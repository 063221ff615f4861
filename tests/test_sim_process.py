"""Process runtime: dispatch, timers, crash-recovery."""

from dataclasses import dataclass

import pytest

from repro.core.runtime import Process
from repro.sim.scheduler import Simulation


@dataclass(frozen=True)
class Ping:
    payload: int = 0


@dataclass(frozen=True)
class Unknown:
    pass


class Echo(Process):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.seen = []
        self.recovered = 0

    def on_ping(self, msg, src):
        self.seen.append((msg.payload, src))

    def on_recover(self):
        self.recovered += 1


def test_dispatch_by_message_type_name():
    sim = Simulation()
    a = Echo("a", sim)
    b = Echo("b", sim)
    a.send("b", Ping(7))
    sim.run()
    assert b.seen == [(7, "a")]


def test_unhandled_message_raises():
    sim = Simulation()
    a = Echo("a", sim)
    Echo("b", sim)
    a.send("b", Unknown())
    with pytest.raises(TypeError):
        sim.run()


def test_broadcast_reaches_all():
    sim = Simulation()
    a = Echo("a", sim)
    others = [Echo(f"p{i}", sim) for i in range(3)]
    a.broadcast([p.pid for p in others], Ping(1))
    sim.run()
    assert all(p.seen == [(1, "a")] for p in others)


def test_crashed_process_drops_messages():
    sim = Simulation()
    a = Echo("a", sim)
    b = Echo("b", sim)
    b.crash()
    a.send("b", Ping(1))
    sim.run()
    assert b.seen == []


def test_crashed_process_does_not_send():
    sim = Simulation()
    a = Echo("a", sim)
    b = Echo("b", sim)
    a.crash()
    a.send("b", Ping(1))
    sim.run()
    assert b.seen == []


def test_timer_fires_after_delay():
    sim = Simulation()
    a = Echo("a", sim)
    fired = []
    a.set_timer(5.0, lambda: fired.append(sim.clock))
    sim.run()
    assert fired == [5.0]


def test_timer_cancel():
    sim = Simulation()
    a = Echo("a", sim)
    fired = []
    timer = a.set_timer(5.0, lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []


def test_crash_cancels_timers():
    sim = Simulation()
    a = Echo("a", sim)
    fired = []
    a.set_timer(5.0, lambda: fired.append(1))
    a.crash()
    sim.run()
    assert fired == []


def test_periodic_timer_repeats_until_cancel():
    sim = Simulation()
    a = Echo("a", sim)
    fired = []

    def tick():
        fired.append(sim.clock)
        if len(fired) == 3:
            timer.cancel()

    timer = a.set_periodic_timer(2.0, tick)
    sim.run(until=100)
    assert fired == [2.0, 4.0, 6.0]


def test_recover_calls_hook_and_restores_liveness():
    sim = Simulation()
    a = Echo("a", sim)
    b = Echo("b", sim)
    b.crash()
    b.recover()
    assert b.recovered == 1
    a.send("b", Ping(9))
    sim.run()
    assert b.seen == [(9, "a")]


def test_crash_is_idempotent():
    sim = Simulation()
    a = Echo("a", sim)
    a.crash()
    a.crash()
    assert a.crash_count == 1


def test_storage_survives_crash():
    sim = Simulation()
    a = Echo("a", sim)
    a.storage.write("vrnd", 3)
    a.crash()
    a.recover()
    assert a.storage.read("vrnd") == 3


def test_fired_one_shot_timers_are_retired():
    """Fired timers must not accumulate in the process timer list."""
    sim = Simulation()
    proc = Echo("p", sim)
    for i in range(10):
        proc.set_timer(float(i + 1), lambda: None)
    assert len(proc._timers) == 10
    sim.run()
    assert proc._timers == []
    # A periodic timer stays registered until cancelled.
    periodic = proc.set_periodic_timer(1.0, lambda: None)
    sim.run(until=sim.clock + 5)
    assert periodic in proc._timers
