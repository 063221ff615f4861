"""The delivery-batch seam (``Process.defer``) and the generalized
coordinator's one 2a per socket drain.

On sockets a drain of a node's UDP socket is one delivery batch: what a
handler defers runs once after the drain's last datagram.  The
generalized coordinator defers its forward, so every proposal one drain
delivers costs one ``extend`` and one ``Phase2aDelta`` per acceptor.  On
the simulator a deferred action runs at once, so traces do not move.
"""

from __future__ import annotations

import asyncio

from repro.core.generalized import GeneralizedConfig
from repro.core.messages import Phase1a, Phase2aDelta, ProposeBatch
from repro.core.quorums import QuorumSystem
from repro.core.rounds import RoundId, RoundSchedule
from repro.core.runtime import Process
from repro.core.topology import Topology
from repro.cstruct.commands import Command
from repro.cstruct.history import CommandHistory
from repro.net.cluster import Deployment, wall_clock_retransmit
from repro.sim.scheduler import Simulation
from repro.smr.machine import kv_conflict
from tests.conftest import wire_frame
from tests.test_net_runtime import _FakeUdp, _pair


class Deferrer(Process):
    """Defers ``first`` for round count 0 and ``second`` for any other,
    logging each handler's start and end and each action as it runs."""

    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.log = []

    def on_phase1a(self, msg, src) -> None:
        self.log.append(("in", msg.rnd.count))
        self.defer(self.first if msg.rnd.count == 0 else self.second)
        self.log.append(("out", msg.rnd.count))

    def first(self) -> None:
        self.log.append("first")

    def second(self) -> None:
        self.log.append("second")


def _frames(n):
    return [wire_frame(("pa", "pb", Phase1a(RoundId(0, i, 0, 2)))) for i in range(n)]


# -- the seam -------------------------------------------------------------------


def test_actions_deferred_in_a_drain_run_once_after_it_in_first_deferred_order():
    async def main():
        book, ra, rb = _pair()
        await rb.start()
        node = Deferrer("pb", rb)
        real = rb._udp
        rb._udp = _FakeUdp(real, recv_script=[*_frames(3), BlockingIOError()])
        rb._pump()
        assert node.log == [
            ("in", 0), ("out", 0), ("in", 1), ("out", 1), ("in", 2), ("out", 2),
            "first", "second",
        ]
        assert rb.errors == []
        rb._udp = real
        await rb.stop()

    asyncio.run(main())


def test_an_action_whose_process_crashed_during_the_drain_is_skipped():
    async def main():
        book, ra, rb = _pair()
        await rb.start()
        node = Deferrer("pb", rb)
        restart = []

        def crash_before_message_1(src, dst, msg):
            if msg.rnd.count == 1:
                node.crash()
                if restart:
                    node.recover()

        rb.add_delivery_tap(crash_before_message_1)
        real = rb._udp
        for recovers, expected in [
            (False, [("in", 0), ("out", 0)]),
            # What the restarted process defers runs; its past life's not.
            (True, [("in", 0), ("out", 0), ("in", 1), ("out", 1), "second"]),
        ]:
            restart[:] = [True] if recovers else []
            node.log.clear()
            node.recover()
            rb._udp = _FakeUdp(real, recv_script=[*_frames(2), BlockingIOError()])
            rb._pump()
            assert node.log == expected
        assert node.crash_count == 2 and rb.errors == []
        rb._udp = real
        await rb.stop()

    asyncio.run(main())


def test_outside_a_drain_a_deferred_action_runs_at_once():
    """A TCP frame, a same-node send and a timer are no drain: the action
    runs inside the handler that defers it."""

    async def main():
        book, ra, rb = _pair(mtu=20)  # every frame ra sends goes over TCP
        await ra.start()
        await rb.start()
        node = Deferrer("pb", rb)
        ra.send("pa", "pb", Phase1a(RoundId()))
        Deferrer("pb2", rb).send("pb", Phase1a(RoundId(0, 1, 0, 2)))
        node.set_timer(0.0, lambda: node.on_phase1a(Phase1a(RoundId(0, 2, 0, 2)), "pb"))
        assert await rb.wait_until(lambda: len(node.log) == 9, timeout=5.0)
        runs = sorted(node.log[i:i + 3] for i in range(0, 9, 3))
        assert runs == [
            [("in", 0), "first", ("out", 0)],
            [("in", 1), "second", ("out", 1)],
            [("in", 2), "second", ("out", 2)],
        ]
        assert ra.frames_tcp == 1 and rb.frames_udp == 0 and rb.errors == []
        await ra.stop()
        await rb.stop()

    asyncio.run(main())


def test_the_simulator_runs_a_deferred_action_at_once():
    sim = Simulation(seed=1)
    node = Deferrer("p", sim)
    node.deliver(Phase1a(RoundId()), "q")
    node.deliver(Phase1a(RoundId()), "q")
    assert node.log == [("in", 0), "first", ("out", 0)] * 2
    node.crash()
    node.defer(node.first)  # a crashed process defers nothing
    assert node.log == [("in", 0), "first", ("out", 0)] * 2


# -- the generalized coordinator ------------------------------------------------


def _config() -> GeneralizedConfig:
    topology = Topology.build(1, 3, 3, 2)
    return GeneralizedConfig(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors, f=1),
        schedule=RoundSchedule(range(3), recovery_rtype=1),
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=wall_clock_retransmit(),
    )


async def _started(config: GeneralizedConfig) -> Deployment:
    dep = Deployment(config, seed=5)
    await dep.start()
    coordinators = [dep.roles[pid] for pid in config.topology.coordinators]
    assert await dep.driver.wait_until(
        lambda: all(c._sent2a is not None for c in coordinators), timeout=10.0
    )
    return dep


def _tap_deltas(dep: Deployment, config: GeneralizedConfig) -> list:
    """``(coordinator, acceptor, cmds)`` of every non-empty 2a delta."""
    seen = []

    def tap(src, dst, msg):
        if type(msg) is Phase2aDelta and msg.cmds:
            seen.append((src, dst, msg.cmds))

    for pid in config.topology.acceptors:
        dep.runtime_of(pid).add_delivery_tap(tap)
    return seen


def test_proposals_landing_in_one_drain_cost_one_2a_delta_per_acceptor():
    async def main():
        config = _config()
        dep = await _started(config)
        try:
            deltas = _tap_deltas(dep, config)
            proposer = dep.cluster.proposers[0]
            cmds = [Command(f"c{i}", "put", f"k{i % 2}", i) for i in range(6)]
            for cmd in cmds:  # no await in between: six datagrams queue up
                proposer.propose(cmd)
            view = dep.view()
            assert await dep.driver.wait_until(
                lambda: view.everyone_delivered(cmds), timeout=10.0
            )
            assert dep.errors() == []
            pairs = [(coord, acc) for coord, acc, _ in deltas]
            expected = {
                (coord, acc)
                for coord in config.topology.coordinators
                for acc in config.topology.acceptors
            }
            assert sorted(pairs) == sorted(expected)  # one each, not six
            assert all(sorted(got) == sorted(cmds) for _, _, got in deltas)
        finally:
            await dep.stop()

    asyncio.run(main())


def test_a_coordinator_crashed_mid_drain_forwards_none_of_it():
    async def main():
        config = _config()
        dep = await _started(config)
        try:
            deltas = _tap_deltas(dep, config)
            victim_pid = config.topology.coordinators[2]
            victim = dep.roles[victim_pid]
            runtime = dep.runtime_of(victim_pid)
            batches = []
            sent_at_crash = []

            def crash_on_second_batch(src, dst, msg):
                if dst == victim_pid and type(msg) is ProposeBatch:
                    batches.append(msg)
                    if len(batches) == 2:  # the first one is already handled
                        victim.crash()
                        sent_at_crash.append(runtime.metrics.messages_sent[victim_pid])

            runtime.add_delivery_tap(crash_on_second_batch)
            proposer = dep.cluster.proposers[0]
            cmds = [Command(f"c{i}", "put", f"k{i}", i) for i in range(4)]
            for cmd in cmds:  # no await in between: one drain at the victim
                proposer.propose(cmd)
            view = dep.view()
            # The other two coordinators are a coordinator quorum.
            assert await dep.driver.wait_until(
                lambda: view.everyone_delivered(cmds), timeout=10.0
            )
            assert dep.errors() == [] and not victim.alive
            assert sent_at_crash and (
                runtime.metrics.messages_sent[victim_pid] == sent_at_crash[0]
            )
            assert {coord for coord, _, _ in deltas} == set(
                config.topology.coordinators[:2]
            )
        finally:
            await dep.stop()

    asyncio.run(main())
