"""Sharded conformance on the subprocess launcher (``repro.net.node``).

A 2-group sharded cluster as real OS processes: each group's
coordinators + acceptors in their own ``python -m repro.net.node``
child, the merge group likewise, and two learner-site children each
hosting one :class:`~repro.shard.replica.ShardReplica` per group (the
group learner and the merge learner are co-sited by the *cosited*
:func:`~repro.net.cluster.node_plan`).  The driver hosts the
proposers and a :class:`~repro.shard.router.ShardRouter`, submits a
mixed single-shard + cross-shard workload, and audits the replicas'
per-key executed orders over the wire (``CtlKeyOrders``):

* every command executed by every replica of every owning group;
* **zero per-key divergence** -- for each (group, key), all sites
  report the identical cid sequence (the invariant
  ``ShardedDeployment.divergent_keys`` checks on the simulator).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.liveness import LivenessConfig
from repro.core.reliability import UNBATCHED
from repro.cstruct.commands import Command
from repro.cstruct.sharding import ShardMap
from repro.net.cluster import (
    DRIVER_NODE,
    Deployment,
    address_book,
    wall_clock_liveness,
    wall_clock_retransmit,
)
from repro.net.node import ControlClient, configs_from_spec, control_pid
from repro.shard.router import ShardRouter

QUICK = os.environ.get("CI") == "quick"

ROOT = Path(__file__).resolve().parent.parent

SHAPE = {"n_proposers": 1, "n_coordinators": 2, "n_acceptors": 3, "n_learners": 2}
N_GROUPS = 2
N_CMDS = 24
CROSS_EVERY = 4


def reserve_ports(count: int) -> list[int]:
    """Localhost ports free for both UDP and TCP (see cluster_launcher)."""
    holds, ports = [], []
    while len(ports) < count:
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        udp.bind(("127.0.0.1", 0))
        port = udp.getsockname()[1]
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            tcp.bind(("127.0.0.1", port))
        except OSError:
            udp.close()
            continue
        holds += [udp, tcp]
        ports.append(port)
    for sock in holds:
        sock.close()
    return ports


def workload(shard_map) -> list[Command]:
    """Mixed ops over both groups, every ``CROSS_EVERY``-th cross-shard."""
    keys = [shard_map.first_keys(gid, 2) for gid in range(N_GROUPS)]
    cmds = []
    for i in range(N_CMDS):
        if i % CROSS_EVERY == CROSS_EVERY - 1:
            cmds.append(
                Command(f"x{i}", "put", f"{keys[0][0]}|{keys[1][0]}", i)
            )
            continue
        gid = i % N_GROUPS
        key = keys[gid][(i // N_GROUPS) % len(keys[gid])]
        op, arg = (("put", i), ("inc", 1), ("get", None))[i % 3]
        cmds.append(Command(f"s{i}", op, key, arg))
    return cmds


async def drive() -> None:
    spec_base = {
        "shape": SHAPE,
        "sharded": {"n_groups": N_GROUPS},
        "retransmit": vars(wall_clock_retransmit()),
        "liveness": vars(wall_clock_liveness()),
        "lifetime": 120.0,
    }
    shard_map = ShardMap(N_GROUPS)
    configs = configs_from_spec(spec_base)
    group_configs = configs[:-1]
    book = address_book(configs, cosited=True)
    remote_nodes = sorted(set(book.nodes) - {DRIVER_NODE})
    for node, port in zip(remote_nodes, reserve_ports(len(remote_nodes))):
        book.nodes[node] = ("127.0.0.1", port)

    deployment = Deployment(configs, seed=99, book=book, nodes=[DRIVER_NODE])
    await deployment.start(start_round=False)
    driver = deployment.driver

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    children: list[subprocess.Popen] = []
    control: ControlClient | None = None
    try:
        for node in remote_nodes:
            spec = {
                **spec_base,
                "node": node,
                "seed": 99,
                "driver": DRIVER_NODE,
                **book.to_json(),
            }
            children.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.net.node", json.dumps(spec)],
                    env=env,
                )
            )

        *groups, merge = deployment.clusters
        router = ShardRouter(driver, shard_map, groups, merge)
        control = ControlClient(control_pid(DRIVER_NODE), driver, set(remote_nodes))
        assert await driver.wait_until(control.all_ready, timeout=30.0), (
            f"nodes never ready: {sorted(control.expected - control.hellos)}"
        )
        coordinator_nodes = sorted(
            {
                book.node_of(config.topology.coordinators[0])
                for config in configs
            }
        )
        control.start_nodes(coordinator_nodes)

        cmds = workload(shard_map)
        cross = [c for c in cmds if len(shard_map.groups_of(c)) > 1]
        assert cross, "workload must include cross-shard commands"
        for index, cmd in enumerate(cmds):
            router.propose(cmd, delay=0.3 + 0.05 * index)

        site_nodes = sorted(
            {book.node_of(pid) for pid in group_configs[0].topology.learners}
        )
        n_replicas = N_GROUPS * SHAPE["n_learners"]

        def executed_everywhere() -> bool:
            orders = control.replica_key_orders()
            if len(orders) < n_replicas:
                return False
            for cmd in cmds:
                for gid in shard_map.groups_of(cmd):
                    for site in range(SHAPE["n_learners"]):
                        replica = orders.get((gid, site), {})
                        for key in shard_map.owned_keys(cmd, gid):
                            if cmd.cid not in replica.get(key, ()):
                                return False
            return True

        done = False
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            control.audit_key_orders(site_nodes)
            await driver.wait_until(
                lambda: len(control.key_orders) >= len(site_nodes), timeout=5.0
            )
            if executed_everywhere():
                done = True
                break
            await asyncio.sleep(0.3)
        orders = control.replica_key_orders()
        assert done, (
            "commands never executed everywhere: "
            f"{ {rep: {k: len(v) for k, v in o.items()} for rep, o in orders.items()} }"
        )

        # Zero per-key divergence across the sites of each group.
        divergent = []
        for gid in range(N_GROUPS):
            keys = sorted(
                {
                    key
                    for site in range(SHAPE["n_learners"])
                    for key in orders[(gid, site)]
                }
            )
            for key in keys:
                per_site = {
                    orders[(gid, site)].get(key, ())
                    for site in range(SHAPE["n_learners"])
                }
                if len(per_site) > 1:
                    divergent.append((gid, key))
        assert divergent == [], f"per-key divergence across sites: {divergent}"

        # Every cross-shard command executed once in *each* owning group.
        for cmd in cross:
            for gid in shard_map.groups_of(cmd):
                (key,) = shard_map.owned_keys(cmd, gid)
                for site in range(SHAPE["n_learners"]):
                    assert orders[(gid, site)][key].count(cmd.cid) == 1
    finally:
        if control is not None:
            control.shutdown_cluster(remote_nodes)
            await asyncio.sleep(0.3)
        await deployment.stop()
        deadline = time.monotonic() + 10.0
        for child in children:
            try:
                child.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.kill()


@pytest.mark.skipif(QUICK, reason="subprocess cluster skipped under CI=quick")
def test_sharded_cluster_as_os_processes():
    asyncio.run(drive())


# -- the spec every node derives its configs from --------------------------------


def sharded_spec(**entries) -> dict:
    spec = {"shape": SHAPE, "sharded": {"n_groups": N_GROUPS}, **entries}
    return json.loads(json.dumps(spec))  # as a node receives it


def test_sharded_spec_batching_reaches_every_group():
    batching = {"max_batch": 5, "flush_interval": 0.03, "pipeline_depth": 2}
    *groups, merge = configs_from_spec(sharded_spec(batching=batching))
    assert len(groups) == N_GROUPS
    for config in groups:
        assert vars(config.batching) == batching
    # The entry describes the groups' batching; the merge group (another
    # engine) keeps its own default rather than one guessed from it.
    assert merge.batching == UNBATCHED


@pytest.mark.parametrize("sharded", [True, False])
@pytest.mark.parametrize("entry", [{}, {"liveness": None}])
def test_spec_without_liveness_gets_the_default_detector(sharded, entry):
    """Liveness always runs: an absent or null entry is the default timing."""
    spec = sharded_spec(**entry) if sharded else {"shape": SHAPE, **entry}
    configs = configs_from_spec(spec)
    assert len(configs) == (N_GROUPS + 1 if sharded else 1)
    assert all(config.liveness == LivenessConfig() for config in configs)


@pytest.mark.parametrize("layer", ["checkpoint", "sessions"])
def test_sharded_spec_refuses_a_layer_it_cannot_honour(layer):
    with pytest.raises(ValueError, match=layer):
        configs_from_spec(sharded_spec(**{layer: {}}))
    # An explicit null is "layer off", as in a classic spec.
    assert len(configs_from_spec(sharded_spec(**{layer: None}))) == N_GROUPS + 1


@pytest.mark.parametrize("sharded", [True, False])
def test_spec_refuses_an_unknown_top_level_key(sharded):
    spec = sharded_spec(retransmitt={}) if sharded else {"shape": SHAPE, "retransmitt": {}}
    with pytest.raises(ValueError, match="retransmitt"):
        configs_from_spec(spec)
