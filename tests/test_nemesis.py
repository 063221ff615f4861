"""Nemesis primitives: seeded determinism, teardown, fault behavior.

The two satellite contracts:

* **Determinism** -- a nemesis with a fixed seed produces the identical
  fault schedule (its ``log``) on identical deployments, and a different
  seed produces a different one; episode randomness never consumes the
  simulation's own RNG stream.
* **Teardown** -- healing (scheduled or global) removes every drop
  filter and latency shaper the episodes installed and recovers every
  process a crash storm downed.
"""

from repro.chaos import mixed_soak, split_brain
from repro.core.runtime import Process
from repro.sim.nemesis import (
    AsymmetricPartition,
    ClusterView,
    CrashStorm,
    Episode,
    FlappingLinks,
    IsolateLeader,
    LatencySkew,
    Nemesis,
    Scenario,
    SymmetricPartition,
)
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import LivenessConfig, RetransmitConfig, build_smr
from tests.conftest import cmd


class Node(Process):
    def __init__(self, pid, sim):
        super().__init__(pid, sim)
        self.received = []

    def on_probe(self, msg, src):
        self.received.append((src, self.now))


from dataclasses import dataclass  # noqa: E402


@dataclass(frozen=True)
class Probe:
    n: int = 0


def mesh(sim, n=4):
    return [Node(f"n{i}", sim) for i in range(n)]


def view_of(nodes) -> ClusterView:
    pids = tuple(node.pid for node in nodes)
    return ClusterView(acceptors=pids[: len(pids) // 2], learners=pids[len(pids) // 2 :])


def ping_all(nodes):
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.send(b.pid, Probe())


# -- determinism --------------------------------------------------------------


def soak_log(seed, nemesis_seed):
    sim = Simulation(seed=seed, network=NetworkConfig(latency=1.0, jitter=0.5))
    cluster = build_smr(sim, n_learners=2)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=2, rtype=2))
    view = ClusterView.of(cluster)
    nem = Nemesis(sim, view, seed=nemesis_seed)
    horizon = nem.apply(mixed_soak(view, seed=nemesis_seed, episodes=10))
    for i in range(20):
        cluster.propose(cmd(f"c{i}"), delay=1.0 + 2.0 * i)
    sim.run_until(lambda: sim.clock >= horizon, timeout=horizon + 1)
    nem.heal()
    return tuple(nem.log)


def test_same_seed_same_schedule():
    assert soak_log(3, 11) == soak_log(3, 11)


def test_different_seed_different_schedule():
    assert soak_log(3, 11) != soak_log(3, 12)


def test_mixed_soak_is_pure_in_view_and_seed():
    view = ClusterView(acceptors=("a0", "a1"), learners=("l0",))
    assert mixed_soak(view, 7) == mixed_soak(view, 7)
    assert mixed_soak(view, 7) != mixed_soak(view, 8)


def test_episode_randomness_does_not_touch_sim_rng():
    def run(with_nemesis):
        sim = Simulation(seed=5, network=NetworkConfig(latency=1.0, jitter=1.0))
        nodes = mesh(sim)
        bystander = Node("bystander", sim)  # faulted; exchanges no traffic
        if with_nemesis:
            nem = Nemesis(sim, view_of(nodes), seed=1)
            # Faults that *draw* randomness but only touch the bystander,
            # so any jitter difference must come from rng perturbation.
            nem.apply(
                Scenario(
                    "idle",
                    (
                        Episode(0.5, 2.0, CrashStorm(victims=(bystander.pid,), stagger=0.1)),
                        Episode(0.5, 2.0, LatencySkew(targets=(bystander.pid,))),
                    ),
                )
            )
        ping_all(nodes)
        sim.run_until(lambda: False, timeout=10.0)
        return [(n.pid, n.received) for n in nodes]

    assert run(False) == run(True)


# -- teardown -----------------------------------------------------------------


def test_heal_removes_all_hooks_and_recovers_crashes():
    sim = Simulation(seed=2, network=NetworkConfig(latency=1.0))
    nodes = mesh(sim, 6)
    view = view_of(nodes)
    nem = Nemesis(sim, view, seed=4)
    nem.apply(
        Scenario(
            "storm",
            (
                Episode(0.1, 0.0, SymmetricPartition(("n0",), ("n1",))),
                Episode(0.2, 0.0, FlappingLinks(pairs=(("n2", "n3"),))),
                Episode(0.3, 0.0, LatencySkew(targets=("n4",))),
                Episode(0.4, 0.0, CrashStorm(victims=("n5",), stagger=0.0)),
            ),
        )
    )
    sim.run_until(lambda: sim.clock >= 1.0, timeout=5.0)
    assert nem.open_episodes == 4
    assert sim.network._drop_filters and sim.network._latency_shapers
    assert not sim.alive("n5")
    nem.heal()
    assert nem.open_episodes == 0
    assert not sim.network._drop_filters
    assert not sim.network._latency_shapers
    assert sim.alive("n5")


def test_scheduled_heal_tears_down_without_explicit_heal():
    sim = Simulation(seed=2, network=NetworkConfig(latency=1.0))
    nodes = mesh(sim)
    nem = Nemesis(sim, view_of(nodes), seed=4)
    horizon = nem.apply(
        Scenario("brief", (Episode(0.5, 1.0, SymmetricPartition(("n0",), ("n1",))),))
    )
    sim.run_until(lambda: sim.clock >= horizon + 0.1, timeout=10.0)
    assert nem.open_episodes == 0
    assert not sim.network._drop_filters
    nem.heal()  # idempotent on an already-healed nemesis


def test_crash_storm_does_not_recover_scripted_crashes():
    """The storm only recovers processes *it* crashed."""
    sim = Simulation(seed=2)
    nodes = mesh(sim)
    nem = Nemesis(sim, view_of(nodes), seed=4)
    sim.crash("n0")  # scripted, pre-existing
    nem.apply(Scenario("s", (Episode(0.1, 0.0, CrashStorm(victims=("n0", "n1"), stagger=0.0)),)))
    sim.run_until(lambda: sim.clock >= 0.5, timeout=5.0)
    assert not sim.alive("n0") and not sim.alive("n1")
    nem.heal()
    assert sim.alive("n1")
    assert not sim.alive("n0")  # was already down when the storm struck


# -- fault behavior -----------------------------------------------------------


def test_asymmetric_partition_is_one_way():
    sim = Simulation(seed=1, network=NetworkConfig(latency=1.0))
    nodes = mesh(sim, 2)
    nem = Nemesis(sim, view_of(nodes), seed=0)
    nem.apply(Scenario("a", (Episode(0.0, 0.0, AsymmetricPartition(("n0",), ("n1",))),)))
    sim.run_until(lambda: sim.clock >= 0.5, timeout=5.0)
    nodes[0].send("n1", Probe())
    nodes[1].send("n0", Probe())
    sim.run_until(lambda: sim.clock >= 3.0, timeout=5.0)
    assert nodes[1].received == []  # n0 -> n1 dead
    assert len(nodes[0].received) == 1  # n1 -> n0 alive


def test_symmetric_partition_cuts_both_ways():
    sim = Simulation(seed=1, network=NetworkConfig(latency=1.0))
    nodes = mesh(sim, 3)
    nem = Nemesis(sim, view_of(nodes), seed=0)
    nem.apply(Scenario("s", (Episode(0.0, 0.0, SymmetricPartition(("n0",), ("n1",))),)))
    sim.run_until(lambda: sim.clock >= 0.5, timeout=5.0)
    ping_all(nodes)
    sim.run_until(lambda: sim.clock >= 3.0, timeout=5.0)
    assert [src for src, _ in nodes[0].received] == ["n2"]
    assert [src for src, _ in nodes[1].received] == ["n2"]
    assert sorted(src for src, _ in nodes[2].received) == ["n0", "n1"]


def test_isolate_leader_resolves_current_leader():
    sim = Simulation(seed=6, network=NetworkConfig(latency=1.0))
    cluster = build_smr(sim, n_learners=2)
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=2, rtype=2))
    view = ClusterView.of(cluster)
    nem = Nemesis(sim, view, seed=0)
    nem.apply(Scenario("iso", (Episode(1.0, 0.0, IsolateLeader()),)))
    sim.run_until(lambda: sim.clock >= 2.0, timeout=5.0)
    leader = view.leaders()[0]
    assert any(f"isolate leaders ['{leader}']" in line for _, line in nem.log)
    nem.heal()


def test_latency_skew_slows_targeted_links_only():
    sim = Simulation(seed=1, network=NetworkConfig(latency=1.0))
    nodes = mesh(sim, 3)
    nem = Nemesis(sim, view_of(nodes), seed=0)
    nem.apply(
        Scenario(
            "slow",
            (Episode(0.0, 0.0, LatencySkew(targets=("n0",), factor=5.0, extra=0.0)),),
        )
    )
    sim.run_until(lambda: sim.clock >= 0.5, timeout=5.0)
    t0 = sim.clock
    nodes[1].send("n0", Probe())
    nodes[1].send("n2", Probe())
    sim.run_until(lambda: sim.clock >= t0 + 10.0, timeout=20.0)
    ((_, at_n0),) = nodes[0].received
    ((_, at_n2),) = nodes[2].received
    assert at_n0 - t0 == 5.0  # 1.0 * factor
    assert at_n2 - t0 == 1.0  # untargeted link unshaped
    nem.heal()


def test_flapping_links_alternate_and_stop_on_heal():
    sim = Simulation(seed=1, network=NetworkConfig(latency=0.1))
    nodes = mesh(sim, 2)
    nem = Nemesis(sim, view_of(nodes), seed=9)
    nem.apply(
        Scenario(
            "flap",
            (Episode(0.0, 0.0, FlappingLinks(pairs=(("n0", "n1"),), mean_period=2.0)),),
        )
    )
    for i in range(100):
        sim.schedule(0.2 * i, lambda: nodes[0].send("n1", Probe()))
    sim.run_until(lambda: sim.clock >= 20.0, timeout=30.0)
    flips = [line for _, line in nem.log if "flap " in line]
    assert len(flips) >= 2  # both down and up transitions happened
    assert 0 < len(nodes[1].received) < 100  # some dropped, some delivered
    nem.heal()
    healed_at = len(nem.log)
    sim.run_until(lambda: sim.clock >= 40.0, timeout=60.0)
    assert len(nem.log) == healed_at  # no flip logs after teardown
    assert not sim.network._drop_filters


def test_engine_converges_after_soak_heal():
    """End to end: an SMR cluster delivers everything once the nemesis heals."""
    sim = Simulation(seed=13, network=NetworkConfig(latency=1.0, jitter=0.5))
    cluster = build_smr(
        sim,
        n_learners=2,
        retransmit=RetransmitConfig(retry_interval=4.0),
        liveness=LivenessConfig(
            heartbeat_period=2.0, suspect_timeout=8.0, stuck_timeout=10.0,
        ),
    )
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=2, rtype=2))
    view = ClusterView.of(cluster)
    nem = Nemesis(sim, view, seed=21)
    horizon = nem.apply(split_brain(view, at=2.0, duration=15.0))
    cmds = [cmd(f"c{i}") for i in range(10)]
    for i, command in enumerate(cmds):
        cluster.propose(command, delay=1.0 + 1.0 * i)
    sim.run_until(lambda: sim.clock >= horizon, timeout=horizon + 1)
    nem.heal()
    assert sim.run_until(lambda: cluster.everyone_delivered(cmds), timeout=2_000.0)
    orders = cluster.delivery_orders()
    assert len(set(orders)) == 1  # identical total order at every learner
