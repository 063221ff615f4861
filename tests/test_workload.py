"""Workload generation."""

import pytest

from benchmarks.conftest import format_table
from repro.smr.machine import kv_conflict
from repro.smr.workload import Workload, WorkloadConfig


def test_generates_requested_count():
    workload = Workload.generate(WorkloadConfig(n_commands=25))
    assert len(workload.commands) == 25
    assert len(workload.arrival_times) == 25


def test_uniform_arrivals_are_periodic():
    config = WorkloadConfig(n_commands=4, period=3.0, start=10.0)
    workload = Workload.generate(config)
    times = [workload.arrival_times[c] for c in workload.commands]
    assert times == [13.0, 16.0, 19.0, 22.0]


def test_burst_arrivals_group_commands():
    config = WorkloadConfig(n_commands=6, arrival="burst", burst_size=2, period=5.0)
    workload = Workload.generate(config)
    times = [workload.arrival_times[c] for c in workload.commands]
    assert times[0] == times[1]
    assert times[2] == times[3] and times[2] == times[0] + 5.0


def test_poisson_arrivals_monotone():
    config = WorkloadConfig(n_commands=50, arrival="poisson", period=2.0, seed=3)
    workload = Workload.generate(config)
    times = [workload.arrival_times[c] for c in workload.commands]
    assert times == sorted(times)


def test_conflict_rate_zero_gives_commuting_commands():
    workload = Workload.generate(WorkloadConfig(n_commands=30, conflict_rate=0.0))
    rel = kv_conflict()
    for i, a in enumerate(workload.commands):
        for b in workload.commands[i + 1 :]:
            assert not rel(a, b)


def test_conflict_rate_one_makes_writes_conflict():
    workload = Workload.generate(WorkloadConfig(n_commands=10, conflict_rate=1.0))
    rel = kv_conflict()
    writes = [c for c in workload.commands if c.op == "put"]
    assert len(writes) == 10
    for i, a in enumerate(writes):
        for b in writes[i + 1 :]:
            assert rel(a, b)


def test_read_fraction_generates_gets():
    workload = Workload.generate(
        WorkloadConfig(n_commands=100, read_fraction=1.0, conflict_rate=1.0)
    )
    assert all(c.op == "get" for c in workload.commands)
    rel = kv_conflict()
    assert not rel(workload.commands[0], workload.commands[1])


def test_same_seed_reproducible():
    a = Workload.generate(WorkloadConfig(n_commands=20, conflict_rate=0.5, seed=7))
    b = Workload.generate(WorkloadConfig(n_commands=20, conflict_rate=0.5, seed=7))
    assert a.commands == b.commands
    assert a.arrival_times == b.arrival_times


def test_span_is_last_arrival():
    workload = Workload.generate(WorkloadConfig(n_commands=3, period=2.0, start=1.0))
    assert workload.span == 7.0


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(conflict_rate=1.5)
    with pytest.raises(ValueError):
        WorkloadConfig(read_fraction=-0.1)
    with pytest.raises(ValueError):
        WorkloadConfig(arrival="bogus")
    with pytest.raises(ValueError):
        WorkloadConfig(arrival="burst", burst_size=0)


def test_format_table_alignment():
    rows = [{"name": "x", "value": 1.25}, {"name": "longer", "value": 2}]
    rendered = format_table(rows, title="T")
    lines = rendered.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([])
