"""Metrics: latency tracking, message counting, load fractions."""

from dataclasses import fields

from repro.cstruct.commands import Command
from repro.sim.metrics import Metrics


def test_latency_propose_then_learn():
    metrics = Metrics()
    metrics.record_propose("c1", 10.0)
    metrics.record_learn("c1", "l0", 13.0)
    assert metrics.latency_of("c1") == 3.0


def test_first_learn_wins():
    metrics = Metrics()
    metrics.record_propose("c1", 0.0)
    metrics.record_learn("c1", "l0", 5.0)
    metrics.record_learn("c1", "l1", 3.0)
    metrics.record_learn("c1", "l0", 9.0)
    assert metrics.latency_of("c1") == 3.0


def test_record_propose_idempotent():
    metrics = Metrics()
    metrics.record_propose("c1", 1.0)
    metrics.record_propose("c1", 9.0)  # retransmission keeps the original
    metrics.record_learn("c1", "l0", 4.0)
    assert metrics.latency_of("c1") == 3.0


def test_unlearned_has_no_latency():
    metrics = Metrics()
    metrics.record_propose("c1", 1.0)
    assert metrics.latency_of("c1") is None
    assert metrics.unlearned_commands() == ["c1"]


def test_learned_commands_sorted_by_learn_time():
    metrics = Metrics()
    for cid, t_prop, t_learn in [("a", 0, 9), ("b", 1, 4), ("c", 2, 6)]:
        metrics.record_propose(cid, t_prop)
        metrics.record_learn(cid, "l", t_learn)
    assert metrics.learned_commands() == ["b", "c", "a"]


def test_mean_latency():
    metrics = Metrics()
    for cid, lat in [("a", 2.0), ("b", 4.0)]:
        metrics.record_propose(cid, 0.0)
        metrics.record_learn(cid, "l", lat)
    assert metrics.mean_latency() == 3.0


def test_mean_latency_empty_is_none():
    assert Metrics().mean_latency() is None


def test_message_counters():
    metrics = Metrics()

    class Ping:
        pass

    metrics.on_send("a", "b", Ping())
    metrics.on_send("a", "c", Ping())
    metrics.on_deliver("b", Ping())
    metrics.on_drop()
    assert metrics.total_messages == 2
    assert metrics.messages_sent["a"] == 2
    assert metrics.messages_by_type["Ping"] == 2
    assert metrics.messages_received["b"] == 1
    assert metrics.messages_dropped == 1


def test_load_fraction():
    metrics = Metrics()
    for _ in range(3):
        metrics.count_command_handled("coord0")
    assert metrics.load_fraction("coord0", 4) == 0.75
    assert metrics.load_fraction("coord1", 4) == 0.0
    assert metrics.load_fraction("coord0", 0) == 0.0


def test_learning_a_command_never_proposed_here_retains_nothing():
    # A learner's node-local Metrics (one per NetRuntime) sees record_learn
    # for every command and record_propose for none: it must not grow.
    metrics = Metrics()
    metrics.record_learn(Command("c9:1", "put", "k", 1), "learn0", 4.0)
    assert [f.name for f in fields(metrics) if getattr(metrics, f.name)] == []
