"""Transport conformance: the same scenarios on the simulator and on sockets.

The Runtime seam's contract is that the role classes cannot tell the
backends apart.  This suite runs one scenario matrix -- basic liveness,
lossy-link convergence, learner crash + snapshot-install recovery --
against **both** implementations:

* ``sim``: the deterministic :class:`Simulation` (virtual time, seeded
  drops), the repository's test oracle;
* ``net``: a :class:`Deployment` -- one asyncio runtime per node,
  every message crossing a real loopback UDP/TCP socket through the
  versioned codec, wall-clock timers.

The *assertions* are identical (all commands delivered everywhere,
learner orders identical, no transport errors); only the time scales
differ (simulator units vs sub-second wall-clock configs).  A socket case
with an MTU below the default must also have sent frames over the TCP
fallback.  Slow wall-clock cases are skipped under ``CI=quick``.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass

import pytest

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.cluster import deploy
from repro.core.liveness import LivenessConfig
from repro.cstruct.commands import Command
from repro.net.cluster import (
    Deployment,
    wall_clock_checkpoint,
    wall_clock_liveness,
    wall_clock_retransmit,
)
from repro.net.transport import DEFAULT_MTU
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.client import PipelinedClient
from repro.smr.instances import build_smr, make_instances_config

QUICK = os.environ.get("CI") == "quick"
slow = pytest.mark.skipif(QUICK, reason="wall-clock case skipped under CI=quick")

SHAPE = dict(n_proposers=2, n_coordinators=3, n_acceptors=3, n_learners=2)


@dataclass(frozen=True)
class Scenario:
    """One conformance case, backend-agnostic."""

    name: str
    n_commands: int
    loss: float = 0.0
    checkpoint: bool = False
    crash_learner: bool = False
    mtu: int = DEFAULT_MTU  # net only; small values force the TCP path
    seed: int = 5


# 90 B sits between the small frames (heartbeats, gossip, nacks) and the
# per-command ones, so most of BASIC's frames take the TCP fallback; the
# instances engine's frames are too small for RECOVERY's 300 B to do that.
BASIC = Scenario("basic", n_commands=20, mtu=90)
LOSSY = Scenario("lossy", n_commands=30, loss=0.15, seed=7)
RECOVERY = Scenario(
    "recovery", n_commands=36, loss=0.05, checkpoint=True, crash_learner=True,
    mtu=300, seed=9,
)


def _commands(scenario: Scenario) -> list[Command]:
    return [
        Command(f"tc-{scenario.name}-{i}", "put", f"k{i % 4}", i)
        for i in range(scenario.n_commands)
    ]


def _assert_converged(scenario, delivered, orders, errors=()):
    assert delivered, f"{scenario.name}: not all commands delivered everywhere"
    assert len(set(orders)) == 1, f"{scenario.name}: learner orders diverge"
    assert len(orders[0]) == scenario.n_commands
    assert not errors, f"{scenario.name}: transport errors: {errors}"


def _assert_small_mtu_used_tcp(scenario, deployment):
    if scenario.mtu < DEFAULT_MTU:
        tcp = sum(r.frames_tcp for r in deployment.runtimes.values())
        assert tcp > 0, f"{scenario.name}: mtu {scenario.mtu} sent no TCP frame"


# -- simulator backend ---------------------------------------------------------


def run_sim(scenario: Scenario, built: str = "kwargs") -> list[tuple]:
    sim = Simulation(
        seed=scenario.seed,
        network=NetworkConfig(drop_rate=scenario.loss),
        max_events=8_000_000,
    )
    layers = dict(
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
        checkpoint=(
            CheckpointConfig(interval=8, chunk_size=4, gc_quorum=1)
            if scenario.checkpoint
            else None
        ),
    )
    if built == "kwargs":
        cluster = build_smr(sim, **SHAPE, **layers)
    else:  # the public builder every backend uses, from a ready config
        cluster = deploy(sim, make_instances_config(**SHAPE, **layers))
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    cmds = _commands(scenario)
    for index, cmd in enumerate(cmds):
        cluster.propose(cmd, delay=5.0 + 2.0 * index)
    if scenario.crash_learner:
        victim = cluster.learners[0]
        sim.schedule(20.0, victim.crash)
        sim.schedule(45.0, victim.recover)
    delivered = cluster.run_until_delivered(cmds, timeout=50_000)
    _assert_converged(scenario, delivered, cluster.delivery_orders())
    return cluster.delivery_orders()


# -- asyncio/socket backend ----------------------------------------------------


async def run_net(scenario: Scenario) -> None:
    config = make_instances_config(
        **SHAPE,
        retransmit=wall_clock_retransmit(),
        liveness=wall_clock_liveness(),
        checkpoint=(
            wall_clock_checkpoint(interval=8, chunk_size=4, gc_quorum=1)
            if scenario.checkpoint
            else None
        ),
    )
    deployment = Deployment(
        config, seed=scenario.seed, loss_rate=scenario.loss, mtu=scenario.mtu
    )
    await deployment.start()
    try:
        client = PipelinedClient("conformance", deployment.cluster, window=4)
        deployment.cluster.attach_client(client)
        cmds = _commands(scenario)
        client.submit(cmds)
        if scenario.crash_learner:
            victim = config.topology.learners[0]
            deployment.driver.schedule(1.0, lambda: deployment.crash(victim))
            deployment.driver.schedule(3.0, lambda: deployment.recover(victim))
        view = deployment.view()
        delivered = await deployment.driver.wait_until(
            lambda: view.everyone_delivered(cmds), timeout=60.0
        )
        _assert_converged(
            scenario, delivered, view.delivery_orders(), deployment.errors()
        )
        _assert_small_mtu_used_tcp(scenario, deployment)
    finally:
        await deployment.stop()


# -- the matrix ----------------------------------------------------------------


@pytest.mark.parametrize("built", ["kwargs", "config"])
@pytest.mark.parametrize("scenario", [BASIC, LOSSY, RECOVERY], ids=lambda s: s.name)
def test_sim_backend(scenario, built):
    """Same seed, same run: ``build_smr`` is ``deploy`` over the config its
    kwargs describe, so both give the identical delivery orders."""
    assert run_sim(scenario, built) == run_sim(scenario, "kwargs")


def test_net_backend_basic():
    asyncio.run(run_net(BASIC))


@slow
def test_net_backend_lossy():
    asyncio.run(run_net(LOSSY))


@slow
def test_net_backend_recovery():
    asyncio.run(run_net(RECOVERY))


# -- generalized engine --------------------------------------------------------
#
# The same contract for the generalized engine: identical scenarios and
# assertions on the simulator and on loopback sockets.  Learned c-structs
# are partial orders, so "orders identical" becomes "per-key projections
# of the delivered order identical" (commands on one key all conflict
# under ``kv_conflict``; commuting commands may interleave freely).

GEN_BASIC = Scenario("gen-basic", n_commands=16)
GEN_LOSSY = Scenario("gen-lossy", n_commands=24, loss=0.15, seed=7)
GEN_RECOVERY = Scenario(
    "gen-recovery", n_commands=24, loss=0.05, checkpoint=True,
    crash_learner=True, mtu=300, seed=9,
)

KEYS = 3


def _gen_commands(scenario: Scenario) -> list[Command]:
    return [
        Command(f"gc-{scenario.name}-{i}", "put", f"k{i % KEYS}", i)
        for i in range(scenario.n_commands)
    ]


def _per_key_orders(learners, cmds) -> dict[str, set[tuple]]:
    """Per-key projection of each learner's delivered order."""
    out: dict[str, set[tuple]] = {}
    for key in sorted({c.key for c in cmds}):
        wanted = {c for c in cmds if c.key == key}
        orders = set()
        for learner in learners:
            seen: set = set()
            order = []
            for cmd in learner.delivered:
                if cmd in wanted and cmd not in seen:
                    seen.add(cmd)
                    order.append(cmd)
            orders.add(tuple(order))
        out[key] = orders
    return out


def _assert_gen_converged(scenario, learned, learners, cmds, errors=()):
    assert learned, f"{scenario.name}: not all commands learned everywhere"
    for key, orders in _per_key_orders(learners, cmds).items():
        assert len(orders) == 1, f"{scenario.name}: order on {key!r} diverges"
        assert len(next(iter(orders))) == sum(1 for c in cmds if c.key == key)
    assert not errors, f"{scenario.name}: transport errors: {errors}"


def run_gen_sim(scenario: Scenario) -> None:
    from repro.core.generalized import build_generalized
    from repro.cstruct.history import CommandHistory
    from repro.smr.machine import kv_conflict

    sim = Simulation(
        seed=scenario.seed,
        network=NetworkConfig(drop_rate=scenario.loss),
        max_events=8_000_000,
    )
    cluster = build_generalized(
        sim,
        CommandHistory.bottom(kv_conflict()),
        **SHAPE,
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
        checkpoint=(
            CheckpointConfig(interval=8, chunk_size=4, gc_quorum=1)
            if scenario.checkpoint
            else None
        ),
    )
    cluster.start_round(cluster.config.schedule.make_round(0, 1, 2))
    cmds = _gen_commands(scenario)
    for index, cmd in enumerate(cmds):
        cluster.propose(cmd, delay=5.0 + 2.0 * index)
    if scenario.crash_learner:
        victim = cluster.learners[0]
        sim.schedule(20.0, victim.crash)
        sim.schedule(45.0, victim.recover)
    learned = cluster.run_until_delivered(cmds, timeout=50_000)
    _assert_gen_converged(scenario, learned, cluster.learners, cmds)


async def run_gen_net(scenario: Scenario) -> None:
    from repro.core.generalized import GeneralizedConfig
    from repro.core.quorums import QuorumSystem
    from repro.core.rounds import RoundSchedule
    from repro.core.topology import Topology
    from repro.cstruct.history import CommandHistory
    from repro.smr.machine import kv_conflict

    topology = Topology.build(
        SHAPE["n_proposers"], SHAPE["n_coordinators"],
        SHAPE["n_acceptors"], SHAPE["n_learners"],
    )
    config = GeneralizedConfig(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors, f=1),
        schedule=RoundSchedule(range(SHAPE["n_coordinators"]), recovery_rtype=1),
        bottom=CommandHistory.bottom(kv_conflict()),
        retransmit=wall_clock_retransmit(),
        liveness=wall_clock_liveness(),
        checkpoint=(
            wall_clock_checkpoint(interval=8, chunk_size=4, gc_quorum=1)
            if scenario.checkpoint
            else None
        ),
    )
    deployment = Deployment(
        config, seed=scenario.seed, loss_rate=scenario.loss, mtu=scenario.mtu
    )
    await deployment.start()
    try:
        cmds = _gen_commands(scenario)
        for index, cmd in enumerate(cmds):
            deployment.cluster.propose(cmd, delay=0.3 + 0.02 * index)
        if scenario.crash_learner:
            victim = config.topology.learners[0]
            deployment.driver.schedule(1.0, lambda: deployment.crash(victim))
            deployment.driver.schedule(3.0, lambda: deployment.recover(victim))
        view = deployment.view()
        learned = await deployment.driver.wait_until(
            lambda: view.everyone_delivered(cmds), timeout=60.0
        )
        _assert_gen_converged(
            scenario, learned, deployment.learners, cmds, deployment.errors()
        )
        _assert_small_mtu_used_tcp(scenario, deployment)
    finally:
        await deployment.stop()


@pytest.mark.parametrize(
    "scenario", [GEN_BASIC, GEN_LOSSY, GEN_RECOVERY], ids=lambda s: s.name
)
def test_gen_sim_backend(scenario):
    run_gen_sim(scenario)


def test_gen_net_backend_basic():
    asyncio.run(run_gen_net(GEN_BASIC))


@slow
def test_gen_net_backend_lossy():
    asyncio.run(run_gen_net(GEN_LOSSY))


@slow
def test_gen_net_backend_recovery():
    asyncio.run(run_gen_net(GEN_RECOVERY))


# -- the driver's handle ------------------------------------------------------
#
# A handle that proposes on one node while the learners live on others
# sees completions only through the learners' reports to its proposers
# (``IAck`` / ``Learned``), which they send only under a RetransmitConfig.


def _bare_generalized_config():
    from repro.core.generalized import GeneralizedConfig
    from repro.core.quorums import QuorumSystem
    from repro.core.rounds import RoundSchedule
    from repro.core.topology import Topology
    from repro.cstruct.history import CommandHistory
    from repro.smr.machine import kv_conflict

    topology = Topology.build(1, 2, 3, 2)
    return GeneralizedConfig(
        topology=topology,
        quorums=QuorumSystem(topology.acceptors),
        schedule=RoundSchedule(range(2), recovery_rtype=1),
        bottom=CommandHistory.bottom(kv_conflict()),
    )


@pytest.mark.parametrize(
    "make_config",
    [lambda: make_instances_config(**SHAPE), _bare_generalized_config],
    ids=["instances", "generalized"],
)
def test_driver_handle_requires_retransmit(make_config):
    async def run() -> None:
        deployment = Deployment(make_config())
        try:
            with pytest.raises(ValueError, match="RetransmitConfig"):
                await deployment.start()
        finally:
            await deployment.stop()

    asyncio.run(run())


def test_client_completes_through_the_handle_on_the_simulator():
    """``attach_client`` is the handle's, so it works on both backends."""
    sim = Simulation(seed=3)
    cluster = build_smr(sim, **SHAPE, retransmit=RetransmitConfig())
    cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
    client = PipelinedClient("sim-client", cluster, window=4)
    cluster.attach_client(client)
    cmds = _commands(BASIC)
    client.submit(cmds, delay=5.0)
    assert sim.run_until(
        lambda: client.all_completed() and cluster.all_acked(cmds), timeout=5_000
    )
    with pytest.raises(ValueError, match="RetransmitConfig"):
        build_smr(Simulation(seed=3), **SHAPE).attach_client(client)


# -- sharded deployment -------------------------------------------------------
#
# The same contract one level up: N instances-engine groups plus the
# generalized merge group behind the shard router, on one simulator and
# on one loopback address book.  One acceptor of ``g0`` crashes mid-run
# and recovers; every command must still execute at every replica of
# every owning group, with zero per-key divergence.

SHARD_RECOVERY = Scenario("shard-recovery", n_commands=24, loss=0.02, seed=11)
SHARD_VICTIM = "g0.acc2"


def _shard_commands(scenario: Scenario, shard_map) -> list[Command]:
    """Single-key commands on both groups, every fourth one cross-shard."""
    keys = [shard_map.first_keys(gid, 1)[0] for gid in range(2)]
    return [
        Command(
            f"sc-{scenario.name}-{i}", "put",
            f"{keys[0]}|{keys[1]}" if i % 4 == 3 else keys[i % 2], i,
        )
        for i in range(scenario.n_commands)
    ]


def _assert_shard_converged(scenario, executed, deployment, errors=()):
    assert executed, f"{scenario.name}: not every command executed everywhere"
    assert deployment.divergent_keys() == [], f"{scenario.name}: replicas diverge"
    assert deployment.router.stats()["routed_cross"] == scenario.n_commands // 4
    assert not errors, f"{scenario.name}: transport errors: {errors}"


def test_sharded_sim_backend():
    from repro.shard import ShardedDeployment

    scenario = SHARD_RECOVERY
    sim = Simulation(
        seed=scenario.seed,
        network=NetworkConfig(drop_rate=scenario.loss),
        max_events=8_000_000,
    )
    deployment = ShardedDeployment.build(
        sim, 2, retransmit=RetransmitConfig(), liveness=LivenessConfig()
    ).start()
    cmds = _shard_commands(scenario, deployment.shard_map)
    for index, cmd in enumerate(cmds):
        deployment.router.propose(cmd, delay=5.0 + 2.0 * index)
    sim.schedule(20.0, lambda: sim.crash(SHARD_VICTIM))
    sim.schedule(45.0, lambda: sim.recover(SHARD_VICTIM))
    executed = deployment.run_until_executed(cmds, timeout=50_000)
    _assert_shard_converged(scenario, executed, deployment)


@slow
def test_sharded_net_backend():
    from repro.shard.net import ShardedLoopbackDeployment

    scenario = SHARD_RECOVERY

    async def run() -> None:
        deployment = ShardedLoopbackDeployment(
            2, seed=scenario.seed, loss_rate=scenario.loss, mtu=scenario.mtu
        )
        await deployment.start()
        try:
            cmds = _shard_commands(scenario, deployment.shard_map)
            for index, cmd in enumerate(cmds):
                deployment.router.propose(cmd, delay=0.3 + 0.05 * index)
            deployment.driver.schedule(0.6, lambda: deployment.crash(SHARD_VICTIM))
            deployment.driver.schedule(1.2, lambda: deployment.recover(SHARD_VICTIM))
            executed = await deployment.run_until_executed(cmds, timeout=60.0)
            assert deployment.roles[SHARD_VICTIM].crash_count == 1
            _assert_shard_converged(scenario, executed, deployment, deployment.errors())
        finally:
            await deployment.stop()

    asyncio.run(run())
