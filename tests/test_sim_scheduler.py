"""Simulation driver: clock, run/run_until, limits, invariant hooks."""

import pytest

from repro.core.runtime import Process
from repro.sim.scheduler import Simulation, SimulationError


def test_clock_advances_with_events():
    sim = Simulation()
    times = []
    sim.schedule(1.0, lambda: times.append(sim.clock))
    sim.schedule(4.0, lambda: times.append(sim.clock))
    sim.run()
    assert times == [1.0, 4.0]
    assert sim.clock == 4.0


def test_run_until_time_bound():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.clock == 5.0
    sim.run()
    assert fired == [1, 2]


def test_run_until_predicate():
    sim = Simulation()
    state = {"done": False}
    sim.schedule(3.0, lambda: state.update(done=True))
    sim.schedule(9.0, lambda: None)
    assert sim.run_until(lambda: state["done"], timeout=100)
    assert sim.clock == 3.0


def test_run_until_predicate_timeout():
    sim = Simulation()
    sim.schedule(50.0, lambda: None)
    assert not sim.run_until(lambda: False, timeout=10.0)
    assert sim.clock == 10.0


def test_run_until_already_true():
    sim = Simulation()
    assert sim.run_until(lambda: True)


def test_schedule_in_past_rejected():
    sim = Simulation()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_max_events_guard():
    sim = Simulation(max_events=10)

    def loop():
        sim.schedule(1.0, loop)

    sim.schedule(1.0, loop)
    with pytest.raises(SimulationError):
        sim.run()


def test_duplicate_process_id_rejected():
    sim = Simulation()
    Process("a", sim)
    with pytest.raises(ValueError):
        Process("a", sim)


def test_invariant_check_runs_after_each_event():
    sim = Simulation()
    counted = []
    sim.add_invariant_check(lambda s: counted.append(s.clock))
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert counted == [1.0, 2.0]


def test_invariant_violation_propagates():
    sim = Simulation()

    def check(s):
        raise AssertionError("violated")

    sim.add_invariant_check(check)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(AssertionError):
        sim.run()


def test_crash_and_recover_helpers():
    sim = Simulation()
    p = Process("a", sim)
    sim.crash("a")
    assert not sim.alive("a")
    sim.recover("a")
    assert sim.alive("a")
