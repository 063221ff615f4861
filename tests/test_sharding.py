"""Sharded multi-group consensus: routing, barriers, convergence.

The `repro.shard` layer runs N independent engine groups behind a
key-hashed router, with cross-shard commands decided by a generalized
merge group and spliced into each owning group's stream at barrier
placeholders.  The correctness claims tested here:

* **Isolation** -- with disjoint keys the sharded deployment is
  *observationally identical* to N independent single-group runs: the
  default network consumes no RNG, so each group's trace is a pure
  function of its own inputs, and the delivered sequences must match a
  standalone cluster of the same shape command for command.
* **Convergence** -- after any run (clean, lossy, crashed) every
  replica of every group agrees on every key's command order, and the
  barrier splice gives cross-shard commands the *same* relative order
  at every owning group.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import RetransmitConfig
from repro.core.cluster import deploy
from repro.cstruct.commands import Command
from repro.cstruct.sharding import ShardKeyConflict, ShardMap, key_group, split_key
from repro.shard import ShardedDeployment, barrier_command
from repro.shard.deploy import make_group_config
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation


# -- key hashing and conflicts ------------------------------------------------


def test_key_group_is_deterministic_and_in_range():
    for n in (1, 2, 4, 7):
        for i in range(64):
            gid = key_group(f"k{i}", n)
            assert 0 <= gid < n
            assert gid == key_group(f"k{i}", n)  # process-stable


def test_shard_map_routes_multi_key_commands():
    shard_map = ShardMap(4)
    ka = shard_map.first_keys(0, 1)[0]
    kb = shard_map.first_keys(3, 1)[0]
    single = Command("s", "put", ka, 1)
    cross = Command("x", "put", f"{ka}|{kb}", 1)
    assert shard_map.groups_of(single) == (0,)
    assert shard_map.groups_of(cross) == (0, 3)
    assert not shard_map.is_cross_shard(single)
    assert shard_map.is_cross_shard(cross)
    assert shard_map.owned_keys(cross, 0) == (ka,)
    assert shard_map.owned_keys(cross, 3) == (kb,)
    assert shard_map.owned_keys(cross, 1) == ()


def test_first_keys_are_the_lowest_indexed_keys_of_the_group():
    shard_map = ShardMap(3)
    for gid in range(3):
        for prefix in ("k", "x"):
            keys = shard_map.first_keys(gid, 4, prefix=prefix)
            owned = [f"{prefix}{i}" for i in range(200) if key_group(f"{prefix}{i}", 3) == gid]
            assert keys == owned[:4]


def test_split_key_dedups_and_preserves_order():
    assert split_key("") == ()
    assert split_key("a") == ("a",)
    assert split_key("b|a|b") == ("b", "a")


def test_shard_key_conflict_is_key_intersection_plus_a_write():
    conflict = ShardKeyConflict(read_ops=frozenset({"get"}))
    wa = Command("1", "put", "a|b", 1)
    wb = Command("2", "put", "b|c", 2)
    rc = Command("3", "get", "b", None)
    other = Command("4", "put", "z", 4)
    assert conflict.conflicts(wa, wb)  # share b, both write
    assert conflict.conflicts(wa, rc)  # read vs write on b
    assert not conflict.conflicts(rc, Command("5", "get", "b|c", None))
    assert not conflict.conflicts(wa, other)  # disjoint keys
    # Every shape the key test branches on (0, 1, 2, 3 keys a side), an
    # equal copy included, against the definition.
    keysets = ["", "a", "b", "a|b", "b|c", "c|d|a", "d|e|f"]
    cmds = [
        Command(f"{op}{i}", op, key, None)
        for i, key in enumerate(keysets) for op in ("put", "get")
    ]
    for a in cmds:
        assert not conflict.conflicts(a, a)
        assert not conflict.conflicts(a, Command(a.cid, a.op, a.key, a.arg))
        for b in cmds:
            shared = set(split_key(a.key)) & set(split_key(b.key))
            expected = a != b and bool(shared) and "put" in (a.op, b.op)
            assert conflict.conflicts(a, b) == conflict(a, b) == expected


def test_barrier_command_shape():
    cmd = Command("x1", "put", "a|b", 1)
    bar = barrier_command(7, 2, cmd)
    assert bar.cid == "xb7@g2"
    assert bar.key == ""  # keyless: never key-conflicts, never applied
    assert bar.arg == (7, "x1")


# -- isolation: disjoint keys == N independent groups -------------------------


def test_disjoint_key_run_is_identical_to_standalone_groups():
    """Per-group delivered sequences match a standalone single group.

    The default network model is deterministic (no RNG draws with zero
    jitter/loss), so a group that never interacts with the others must
    produce, event for event, the trace it would produce alone: same
    commands, same instances, same delivery order at every learner.
    """
    n_groups = 3
    shard_map = ShardMap(n_groups)
    per_group = {
        gid: [
            Command(f"g{gid}c{j}", "put", key, j)
            for j, key in enumerate(
                shard_map.first_keys(gid, 3) * 4  # 12 commands on 3 keys
            )
        ]
        for gid in range(n_groups)
    }

    sim = Simulation(seed=7)
    deployment = ShardedDeployment.build(sim, n_groups).start()
    for cmds in per_group.values():
        for j, cmd in enumerate(cmds):
            deployment.router.propose(cmd, delay=5.0 + 1.5 * j)
    assert deployment.run_until_executed(
        [c for cmds in per_group.values() for c in cmds]
    )
    assert deployment.router.stats()["routed_cross"] == 0
    assert deployment.divergent_keys() == []

    for gid, cmds in per_group.items():
        alone = Simulation(seed=7)
        cluster = deploy(alone, make_group_config(f"g{gid}"))
        rnd = cluster.config.schedule.make_round(coord=0, count=1, rtype=2)
        cluster.start_round(rnd)
        for j, cmd in enumerate(cmds):
            cluster.propose(cmd, delay=5.0 + 1.5 * j)
        assert alone.run_until(lambda: cluster.everyone_delivered(cmds))
        assert cluster.delivery_orders() == deployment.groups[gid].delivery_orders()


# -- convergence under faults -------------------------------------------------


def build_mixed_workload(shard_map: ShardMap, n_groups: int, per_group: int, cross: int):
    """Single-shard streams on keys *shared* with the cross commands.

    Sharing keys between the single-shard streams and the cross-shard
    commands is the strong test: the barrier splice must put the cross
    command at the same point of each shared key's order on every
    replica of every owning group.
    """
    cmds = []
    group_keys = {gid: shard_map.first_keys(gid, 2) for gid in range(n_groups)}
    for gid in range(n_groups):
        for j in range(per_group):
            key = group_keys[gid][j % 2]
            cmds.append(Command(f"g{gid}c{j}", "put", key, j))
    for x in range(cross):
        a, b = x % n_groups, (x + 1) % n_groups
        key = f"{group_keys[a][0]}|{group_keys[b][0]}"
        cmds.append(Command(f"x{x}", "put", key, x))
    return cmds


FAULTS = ["clean", "loss", "crash", "loss+crash"]


@pytest.mark.parametrize("n_groups", [2, 3])
@pytest.mark.parametrize("fault", FAULTS)
def test_cross_shard_convergence(n_groups, fault):
    """Zero per-key divergence across the 8-config fault matrix."""
    for seed in (3, 11):
        drop_rate = 0.1 if "loss" in fault else 0.0
        sim = Simulation(
            seed=seed,
            network=NetworkConfig(drop_rate=drop_rate),
            max_events=6_000_000,
        )
        retransmit = RetransmitConfig(
            retry_interval=6.0, gossip_interval=6.0, catchup_interval=5.0
        )
        deployment = ShardedDeployment.build(
            sim,
            n_groups,
            retransmit=retransmit,
        ).start()
        cmds = build_mixed_workload(
            deployment.shard_map, n_groups, per_group=8, cross=4
        )
        for j, cmd in enumerate(cmds):
            deployment.router.propose(cmd, delay=5.0 + 2.0 * j)
        if "crash" in fault:
            # One acceptor down in every group (and the merge group):
            # below each quorum system's f, so progress must continue.
            def crash_everywhere():
                for gid in range(n_groups):
                    deployment.crash_group(gid, "acceptors", index=2)
                sim.crash(deployment.merge_config.topology.acceptors[2])

            sim.schedule(12.0, crash_everywhere)

        assert deployment.run_until_executed(cmds, timeout=40_000.0), (
            f"{fault} n_groups={n_groups} seed={seed}: commands not executed"
        )
        assert deployment.divergent_keys() == [], (
            f"{fault} n_groups={n_groups} seed={seed}: replicas diverged"
        )
        stats = deployment.router.stats()
        assert stats["routed_cross"] == 4
        for replicas in deployment.replicas:
            for replica in replicas:
                assert replica.barriers_crossed > 0


def test_cross_shard_key_orders_include_the_cross_command():
    """The splice lands the cross command inside each shared key's order."""
    sim = Simulation(seed=5)
    deployment = ShardedDeployment.build(sim, 2).start()
    ka = deployment.shard_map.first_keys(0, 1)[0]
    kb = deployment.shard_map.first_keys(1, 1)[0]
    before = [Command("a0", "put", ka, 0), Command("b0", "put", kb, 0)]
    cross = Command("x0", "put", f"{ka}|{kb}", 1)
    after = [Command("a1", "put", ka, 2), Command("b1", "put", kb, 2)]
    for j, cmd in enumerate([*before, cross, *after]):
        deployment.router.propose(cmd, delay=5.0 + 4.0 * j)
    assert deployment.run_until_executed([*before, cross, *after])
    assert deployment.divergent_keys() == []
    assert deployment.key_order(ka) == ("a0", "x0", "a1")
    assert deployment.key_order(kb) == ("b0", "x0", "b1")
    # Each owning group applied only its own key projection.
    for gid, key in ((0, ka), (1, kb)):
        for replica in deployment.replicas[gid]:
            assert replica.machine._data[key] == 2
            assert replica.results["x0"] == 1


def test_conflicting_cross_commands_execute_in_merge_order_everywhere():
    """Two conflicting cross commands splice in the same relative order."""
    sim = Simulation(seed=9)
    deployment = ShardedDeployment.build(sim, 3).start()
    shard_map = deployment.shard_map
    k0 = shard_map.first_keys(0, 1)[0]
    k1 = shard_map.first_keys(1, 1)[0]
    k2 = shard_map.first_keys(2, 1)[0]
    # x0 and x1 share k1, so the merge history orders them; groups 0, 1
    # and 2 must all observe that order through their barriers.
    x0 = Command("x0", "put", f"{k0}|{k1}", 10)
    x1 = Command("x1", "put", f"{k1}|{k2}", 11)
    deployment.router.propose(x0, delay=5.0)
    deployment.router.propose(x1, delay=5.5)
    assert deployment.run_until_executed([x0, x1])
    assert deployment.divergent_keys() == []
    order = deployment.key_order(k1)
    assert sorted(order) == ["x0", "x1"]
    # The shared-key order is what the merge history decided -- identical
    # at every replica of the owning group (divergent_keys covers that),
    # and the non-shared keys saw exactly their own command.
    assert deployment.key_order(k0) == ("x0",)
    assert deployment.key_order(k2) == ("x1",)


def test_keyless_commands_ride_group_zero():
    sim = Simulation(seed=13)
    deployment = ShardedDeployment.build(sim, 3).start()
    noop = Command("n0", "put", "", None)
    deployment.router.propose(noop, delay=5.0)
    assert deployment.run_until_executed([noop])
    assert deployment.router.session_scope("") == "g0"
    assert all(r.has_executed(noop) for r in deployment.replicas[0])


def test_router_session_scopes():
    sim = Simulation(seed=1)
    deployment = ShardedDeployment.build(sim, 4)
    router = deployment.router
    shard_map = deployment.shard_map
    ka = shard_map.first_keys(1, 1)[0]
    kb = shard_map.first_keys(2, 1)[0]
    assert router.session_scope(ka) == "g1"
    assert router.session_scope(f"{ka}|{ka}") == "g1"
    assert router.session_scope(f"{ka}|{kb}") == "xs"


def test_single_group_sharding_degenerates_to_one_engine():
    """n_groups=1: everything is single-shard, no barriers, no merge load."""
    sim = Simulation(seed=21)
    deployment = ShardedDeployment.build(sim, 1).start()
    cmds = [Command(f"c{i}", "put", f"k{i % 3}", i) for i in range(9)]
    cmds.append(Command("m", "put", "k0|k1|k2", 99))  # multi-key, one group
    for j, cmd in enumerate(cmds):
        deployment.router.propose(cmd, delay=5.0 + j)
    assert deployment.run_until_executed(cmds)
    stats = deployment.router.stats()
    assert stats["routed_cross"] == 0 and stats["barriers"] == 0
    assert deployment.divergent_keys() == []
