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
from repro.net.codec import decode, split
from repro.sim.scheduler import Simulation
from repro.smr.client import Client, PipelinedClient
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


class Shipper(Deferrer):
    """A :class:`Deferrer` whose ``second`` also sends a message to ``pa``."""

    def second(self) -> None:
        super().second()
        self.send("pa", Phase1a(RoundId(0, 9, 0, 2)))


def test_outside_a_drain_a_deferred_action_runs_at_the_iterations_end():
    """Outside a drain the rest of the loop iteration is the batch: what
    it defers runs once, after it, before the one flush of what the
    iteration and the action sent; a crashed process's action, or one
    its past life deferred, is skipped."""

    async def main():
        book, ra, rb = _pair()
        await rb.start()
        node = Shipper("pb", rb)
        real = rb._udp
        rb._udp = fake = _FakeUdp(real)
        node.on_phase1a(Phase1a(RoundId(0, 1, 0, 2)), "pa")
        node.send("pa", Phase1a(RoundId(0, 8, 0, 2)))
        node.on_phase1a(Phase1a(RoundId(0, 2, 0, 2)), "pa")
        assert node.log == [("in", 1), ("out", 1), ("in", 2), ("out", 2)]
        assert fake.sent == []
        await asyncio.sleep(0)
        assert node.log[4:] == ["second"]  # once, after both handlers
        # One datagram: the handler's send, then the action's.
        (datagram,) = fake.sent
        envelopes = split(datagram)
        assert [decode(p).rnd.count for p in envelopes[2::3]] == [8, 9]

        for recovers in (False, True):
            node.log.clear()
            node.on_phase1a(Phase1a(RoundId(0, 1, 0, 2)), "pa")
            node.crash()
            if recovers:
                node.recover()
            await asyncio.sleep(0)
            assert node.log == [("in", 1), ("out", 1)]  # skipped
            node.recover()
        assert len(fake.sent) == 1 and rb.errors == []
        rb._udp = real
        await rb.stop()

    asyncio.run(main())


def test_a_tcp_frame_a_same_node_send_and_a_timer_are_batches_of_their_own():
    """None of them is a drain: the action runs after the handler that
    defers it returns, not inside it."""

    async def main():
        book, ra, rb = _pair(mtu=20)  # every frame ra sends goes over TCP
        await ra.start()
        await rb.start()
        node = Deferrer("pb", rb)
        ra.send("pa", "pb", Phase1a(RoundId()))
        assert await rb.wait_until(lambda: len(node.log) == 3, timeout=5.0)
        Deferrer("pb2", rb).send("pb", Phase1a(RoundId(0, 1, 0, 2)))
        assert await rb.wait_until(lambda: len(node.log) == 6, timeout=5.0)
        node.set_timer(0.0, lambda: node.on_phase1a(Phase1a(RoundId(0, 2, 0, 2)), "pb"))
        assert await rb.wait_until(lambda: len(node.log) == 9, timeout=5.0)
        assert node.log == [
            ("in", 0), ("out", 0), "first",
            ("in", 1), ("out", 1), "second",
            ("in", 2), ("out", 2), "second",
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
            # Two proposals, no await in between: the first ships at the
            # flush, the second at the end of this loop iteration, and the
            # driver's one datagram to the victim is one drain there.
            for i, cmd in enumerate(cmds):
                if i == 2:
                    proposer.flush()
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


# -- the generalized proposer ---------------------------------------------------


def _tap_proposals(dep: Deployment, config: GeneralizedConfig) -> dict:
    """Coordinator -> the ``cmds`` of every ``ProposeBatch`` it got."""
    seen = {pid: [] for pid in config.topology.coordinators}

    def tap(src, dst, msg):
        if type(msg) is ProposeBatch and dst in seen:
            seen[dst].append(msg.cmds)

    for pid in config.topology.coordinators:
        dep.runtime_of(pid).add_delivery_tap(tap)
    return seen


def test_a_pipelined_refill_is_one_proposal_at_each_coordinator():
    """An unbatched generalized proposer ships what one loop iteration
    hands it as one ``ProposeBatch``: the commands a client issues
    together (its window, then each refill) are never split."""

    async def main():
        config = _config()
        dep = await _started(config)
        try:
            proposals = _tap_proposals(dep, config)
            client = PipelinedClient("c", dep.cluster, window=4)
            dep.cluster.attach_client(client)
            groups = []
            pump = client._pump

            def recorded_pump():
                before = set(client.in_flight)
                pump()
                if client.in_flight - before:
                    groups.append(client.in_flight - before)

            client._pump = recorded_pump
            cmds = [Command(f"c{i}", "put", f"k{i % 3}", i) for i in range(16)]
            client.submit(cmds)
            view = dep.view()
            assert await dep.driver.wait_until(
                lambda: client.all_completed() and view.everyone_delivered(cmds),
                timeout=10.0,
            )
            assert dep.errors() == []
            assert len(groups[0]) == 4  # the first window
            for got in proposals.values():
                assert set(got[0]) == groups[0]
                for group in groups:
                    assert any(group <= set(cmds_) for cmds_ in got), group
        finally:
            await dep.stop()

    asyncio.run(main())


def test_a_proposer_crashed_before_its_batch_ends_ships_nothing():
    """The crash loses the buffered command before it is shipped; the
    client's resubmission, to the recovered proposer, delivers it."""

    async def main():
        config = _config()
        dep = await _started(config)
        try:
            proposals = _tap_proposals(dep, config)
            proposer = dep.cluster.proposers[0]
            client = Client("c", dep.cluster, retry_interval=0.3)
            dep.cluster.attach_client(client)
            propose = proposer.propose

            def propose_then_crash(cmd):
                propose(cmd)
                assert proposer._buffer == [cmd]
                proposer.crash()
                proposer.recover()

            proposer.propose = propose_then_crash
            lost = client.issue(Command("c0", "put", "k", 0))
            assert await dep.driver.wait_until(lambda: client.issue_times, timeout=5.0)
            proposer.propose = propose
            await asyncio.sleep(0.1)  # inside the client's retry interval
            assert all(got == [] for got in proposals.values())
            assert client.retries == {}
            view = dep.view()
            assert await dep.driver.wait_until(
                lambda: view.everyone_delivered([lost]), timeout=10.0
            )
            assert client.retries[lost] >= 1 and dep.errors() == []
            assert all(set(got) == {(lost,)} for got in proposals.values())
        finally:
            await dep.stop()

    asyncio.run(main())
