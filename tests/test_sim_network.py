"""Network model: latency, jitter, loss, duplication, partitions."""

from dataclasses import dataclass

import pytest

from repro.core.runtime import Process
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation


@dataclass(frozen=True)
class Ping:
    payload: int = 0


class Sink(Process):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.received = []

    def on_ping(self, msg, src):
        self.received.append((self.now, msg.payload))


def test_unit_latency_delivery():
    sim = Simulation(network=NetworkConfig(latency=1.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    a.send("b", Ping(1))
    sim.run()
    assert b.received == [(1.0, 1)]


def test_custom_latency():
    sim = Simulation(network=NetworkConfig(latency=2.5))
    a = Sink("a", sim)
    b = Sink("b", sim)
    a.send("b", Ping(1))
    sim.run()
    assert b.received == [(2.5, 1)]


def test_self_send_is_instantaneous():
    sim = Simulation(network=NetworkConfig(latency=5.0, drop_rate=0.9))
    a = Sink("a", sim)
    a.send("a", Ping(1))
    sim.run()
    assert a.received == [(0.0, 1)]


def test_zero_jitter_preserves_send_order():
    sim = Simulation(seed=1)
    a = Sink("a", sim)
    b = Sink("b", sim)
    for i in range(10):
        a.send("b", Ping(i))
    sim.run()
    assert [p for _, p in b.received] == list(range(10))


def test_jitter_delays_within_bounds():
    sim = Simulation(seed=3, network=NetworkConfig(latency=1.0, jitter=2.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    for i in range(50):
        a.send("b", Ping(i))
    sim.run()
    assert all(1.0 <= t <= 3.0 for t, _ in b.received)


def test_jitter_can_invert_messages():
    sim = Simulation(seed=3, network=NetworkConfig(latency=1.0, jitter=2.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    for i in range(50):
        a.send("b", Ping(i))
    sim.run()
    order = [p for _, p in b.received]
    assert order != sorted(order)


def test_drop_rate_loses_messages():
    sim = Simulation(seed=5, network=NetworkConfig(drop_rate=0.5))
    a = Sink("a", sim)
    b = Sink("b", sim)
    for i in range(200):
        a.send("b", Ping(i))
    sim.run()
    assert 50 < len(b.received) < 150
    assert sim.metrics.messages_dropped == 200 - len(b.received)


def test_duplicate_rate_duplicates():
    sim = Simulation(seed=5, network=NetworkConfig(duplicate_rate=1.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    a.send("b", Ping(1))
    sim.run()
    assert len(b.received) == 2


def test_partition_blocks_both_directions():
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    sim.network.block("a", "b")
    a.send("b", Ping(1))
    b.send("a", Ping(2))
    sim.run()
    assert a.received == [] and b.received == []


def test_unblock_heals_link():
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    sim.network.block("a", "b")
    sim.network.unblock("a", "b")
    a.send("b", Ping(1))
    sim.run()
    assert len(b.received) == 1


def test_group_partition_and_heal():
    sim = Simulation()
    nodes = [Sink(f"n{i}", sim) for i in range(4)]
    sim.network.partition({"n0", "n1"}, {"n2", "n3"})
    nodes[0].send("n2", Ping(1))
    nodes[0].send("n1", Ping(2))
    sim.run()
    assert nodes[2].received == []
    assert len(nodes[1].received) == 1
    sim.network.heal()
    nodes[0].send("n2", Ping(3))
    sim.run()
    assert len(nodes[2].received) == 1


def test_delivery_to_dead_process_counts_as_drop():
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    a.send("b", Ping(1))
    b.crash()
    sim.run()
    assert sim.metrics.messages_dropped == 1


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(latency=0)
    with pytest.raises(ValueError):
        NetworkConfig(jitter=-1)
    with pytest.raises(ValueError):
        NetworkConfig(drop_rate=-0.1)
    with pytest.raises(ValueError):
        NetworkConfig(drop_rate=1.1)
    with pytest.raises(ValueError):
        NetworkConfig(duplicate_rate=-0.1)
    with pytest.raises(ValueError):
        NetworkConfig(duplicate_rate=2.0)


def test_rate_ranges_are_consistent():
    """Both rates accept the full closed interval [0, 1] (documented)."""
    assert NetworkConfig(drop_rate=1.0).drop_rate == 1.0
    assert NetworkConfig(duplicate_rate=1.0).duplicate_rate == 1.0
    assert NetworkConfig(drop_rate=0.0, duplicate_rate=0.0) is not None


def test_full_drop_rate_loses_every_remote_message():
    sim = Simulation(seed=1, network=NetworkConfig(drop_rate=1.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    a.send("b", Ping(1))  # dropped
    a.send("a", Ping(2))  # self-delivery is reliable
    sim.run(until=10)
    assert b.received == []
    assert a.received == [(0.0, 2)]
    assert sim.metrics.messages_dropped == 1


# -- drop filters and latency shapers (composition semantics) ----------------


def test_drop_filter_drops_matching_messages():
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    sim.network.add_drop_filter(lambda src, dst, msg: dst == "b")
    a.send("b", Ping(1))
    a.send("a", Ping(2))  # self-delivery bypasses filters
    sim.run()
    assert b.received == []
    assert a.received == [(0.0, 2)]
    assert sim.metrics.messages_dropped == 1


def test_every_drop_filter_sees_every_message():
    """No short-circuit: a filter observes traffic even when an earlier
    filter already dropped the message (regression: stateful filters --
    flap schedules, counters -- must not depend on stacking order)."""
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    seen_first, seen_second = [], []

    def first(src, dst, msg):
        seen_first.append(msg.payload)
        return True  # drops everything

    def second(src, dst, msg):
        seen_second.append(msg.payload)
        return False

    sim.network.add_drop_filter(first, label="a-first")
    sim.network.add_drop_filter(second, label="z-second")
    for i in range(3):
        a.send("b", Ping(i))
    sim.run()
    assert b.received == []
    assert seen_first == [0, 1, 2]
    assert seen_second == [0, 1, 2]  # called despite first dropping
    assert sim.metrics.messages_dropped == 3  # one drop per message, not per filter


def test_drop_filters_apply_in_sorted_label_order():
    sim = Simulation()
    a = Sink("a", sim)
    Sink("b", sim)
    calls = []
    sim.network.add_drop_filter(lambda s, d, m: calls.append("z") or False, label="z")
    sim.network.add_drop_filter(lambda s, d, m: calls.append("a") or False, label="a")
    a.send("b", Ping(1))
    sim.run()
    assert calls == ["a", "z"]  # sorted by (label, seq), not insertion order


def test_same_label_filters_keep_registration_order():
    sim = Simulation()
    a = Sink("a", sim)
    Sink("b", sim)
    calls = []
    sim.network.add_drop_filter(lambda s, d, m: calls.append(1) or False, label="x")
    sim.network.add_drop_filter(lambda s, d, m: calls.append(2) or False, label="x")
    a.send("b", Ping(1))
    sim.run()
    assert calls == [1, 2]  # sequence number breaks the tie


def test_remove_drop_filter_restores_traffic():
    sim = Simulation()
    a = Sink("a", sim)
    b = Sink("b", sim)
    drop = lambda src, dst, msg: True  # noqa: E731
    sim.network.add_drop_filter(drop)
    a.send("b", Ping(1))
    sim.run()
    sim.network.remove_drop_filter(drop)
    assert not sim.network._drop_filters
    a.send("b", Ping(2))
    sim.run()
    assert [p for _, p in b.received] == [2]


def test_latency_shapers_chain_in_sorted_order():
    sim = Simulation(network=NetworkConfig(latency=1.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    # Applied sorted by label: double first, then add one -> 1*2 + 1 = 3.
    sim.network.add_latency_shaper(lambda s, d, delay: delay + 1.0, label="b-add")
    sim.network.add_latency_shaper(lambda s, d, delay: delay * 2.0, label="a-mul")
    a.send("b", Ping(1))
    sim.run()
    assert b.received == [(3.0, 1)]


def test_latency_shaper_never_applies_to_self_delivery():
    sim = Simulation(network=NetworkConfig(latency=1.0))
    a = Sink("a", sim)
    sim.network.add_latency_shaper(lambda s, d, delay: delay + 100.0)
    a.send("a", Ping(1))
    sim.run()
    assert a.received == [(0.0, 1)]


def test_negative_shaped_delay_is_clamped():
    sim = Simulation(network=NetworkConfig(latency=1.0))
    a = Sink("a", sim)
    b = Sink("b", sim)
    shaper = lambda s, d, delay: -5.0  # noqa: E731
    sim.network.add_latency_shaper(shaper)
    a.send("b", Ping(1))
    sim.run()
    assert b.received == [(0.0, 1)]
    sim.network.remove_latency_shaper(shaper)
    assert not sim.network._latency_shapers


def test_identical_seeds_give_identical_runs():
    def run(seed):
        sim = Simulation(seed=seed, network=NetworkConfig(jitter=1.0, drop_rate=0.2))
        a = Sink("a", sim)
        b = Sink("b", sim)
        for i in range(50):
            a.send("b", Ping(i))
        sim.run()
        return b.received

    assert run(9) == run(9)
    assert run(9) != run(10)
