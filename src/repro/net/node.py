"""One cluster node as an OS process: ``python -m repro.net.node '<spec>'``.

A *node spec* is a JSON object (one argv element, or on stdin when the
argument is ``-``) that tells the process who it is and who everyone
else is::

    {
      "node": "acc0",                    # this node's name
      "seed": 3,                         # deployment seed (each node adds its index)
      "nodes": {"acc0": ["127.0.0.1", 40001], ...},
      "placement": {"acc0": "acc0", "prop0": "driver", ...},
      "shape": {"n_proposers": 2, "n_coordinators": 2,
                "n_acceptors": 3, "n_learners": 2, "f": 1},
      "batching": {...} | null,          # dataclass field dicts
      "retransmit": {...},
      "checkpoint": {...} | null,
      "liveness": {...} | null,
      "mtu": 1400, "loss_rate": 0.0,
      "lifetime": 120.0                  # hard exit deadline (orphan cap)
    }

Every node builds the **identical** :class:`InstancesConfig` from
``shape`` and the optional layer entries ``batching``, ``retransmit``,
``checkpoint``, ``liveness`` and ``sessions`` (nodes never exchange
configuration -- only wire messages) and runs its own node of the
:class:`repro.net.cluster.Deployment` over the shipped address book,
which instantiates exactly the roles its placement hosts.  The role
classes are byte-for-byte the ones the simulator runs.  Batching,
retransmission and liveness always run: an absent or ``null``
``batching`` is :data:`~repro.core.reliability.UNBATCHED`, and an absent
or ``null`` ``retransmit`` or ``liveness`` gets the default timings.

A spec may instead describe one node of a **sharded** deployment by
adding ``"sharded": {"n_groups": N}``: the node then derives every
group's instances-engine config (pid prefixes ``g0.``, ``g1.``...) plus
the generalized merge group (``xs.``) from the same ``shape``, deploys
whichever of those roles its placement hosts, and wires a
:class:`~repro.shard.replica.ShardReplica` for every (group, site) whose
group learner and merge learner are both local -- the *cosited*
:func:`repro.net.cluster.node_plan` places them together for exactly
that reason.  There ``batching`` configures the groups, and
``checkpoint`` / ``sessions`` -- layers a sharded deployment does not
run -- are refused, as is any top-level key this module does not read
(:func:`configs_from_spec`).

Control plane
-------------

Each node also hosts a :class:`ControlAgent` (pid ``ctl@<node>``), and
the driver hosts a :class:`ControlClient` (pid ``ctl@driver``).  The
``Ctl*`` messages ride the same runtime, codec and wire as the protocol
itself -- readiness, round bootstrap, order audits and shutdown are just
more messages (see ``docs/messages.md`` / ``docs/transport.md``):

* ``CtlHello`` -- node -> driver, re-sent periodically until the driver's
  ``CtlWelcome`` confirms the handshake (boot-order independence);
* ``CtlStart`` -- driver -> the round-zero coordinator's node, once every
  node said hello: start the bootstrap round.  Gating the round on the
  handshake means phase 1 is never shouted at unbound ports;
* ``CtlOrders`` / ``CtlOrdersReply`` -- order audit: a learner node
  replies with each local learner's delivered sequence, so the driver
  can assert all learners delivered the identical order;
* ``CtlShutdown`` -- node exits cleanly; a node whose learner has a
  snapshot install in flight first *drains* it (polling every
  ``DRAIN_POLL`` seconds, at most ``DRAIN_GRACE``), so a shutdown
  racing a state transfer does not orphan a half-installed laggard.
  The ``lifetime`` deadline is the backstop for orphaned nodes when a
  driver dies.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.liveness import LivenessConfig
from repro.core.reliability import UNBATCHED, BatchingConfig
from repro.core.rounds import ZERO
from repro.core.runtime import Process
from repro.core.sessions import SessionConfig
from repro.cstruct.sharding import ShardMap
from repro.net import codec
from repro.net.cluster import Deployment, bootstrap_round, control_pid
from repro.net.transport import DEFAULT_MTU, AddressBook, NetRuntime
from repro.shard.deploy import make_sharded_configs, shard_replicas
from repro.smr.instances import InstancesConfig, make_instances_config

HELLO_INTERVAL = 0.25
DRAIN_POLL = 0.1
DRAIN_GRACE = 5.0


# -- control messages ----------------------------------------------------------


@dataclass(frozen=True)
class CtlHello:
    """Node -> driver: my runtime is bound and my roles are deployed."""

    node: str


@dataclass(frozen=True)
class CtlWelcome:
    """Driver -> node: hello received, stop re-sending it."""


@dataclass(frozen=True)
class CtlStart:
    """Driver -> one coordinator's node: start the bootstrap round."""

    coord: int


@dataclass(frozen=True)
class CtlOrders:
    """Driver -> node: report every local learner's delivered order."""


@dataclass(frozen=True)
class CtlOrdersReply:
    """Node -> driver: ``orders`` is a tuple of (learner pid, delivered)."""

    node: str
    orders: tuple


@dataclass(frozen=True)
class CtlShutdown:
    """Driver -> node: exit cleanly."""


@dataclass(frozen=True)
class CtlKeyOrders:
    """Driver -> node: report every local shard replica's per-key order."""


@dataclass(frozen=True)
class CtlKeyOrdersReply:
    """Node -> driver: ``orders`` is a tuple of (group, site, key orders).

    Each entry is ``(gid, site, ((key, (cid, ...)), ...))`` -- one local
    :class:`~repro.shard.replica.ShardReplica`'s executed cid sequence
    per owned key, the raw material of the driver's zero-divergence
    audit.
    """

    node: str
    orders: tuple


class ControlAgent(Process):
    """The node-side management endpoint (one per OS process).

    ``configs`` is every engine config the deployment runs -- one
    :class:`InstancesConfig` on the classic path, the N group configs
    plus the merge config on the sharded path; the agent only ever acts
    on the roles of those configs its own node hosts.
    """

    def __init__(
        self,
        pid: str,
        sim: NetRuntime,
        roles: dict[str, Any],
        configs: list,
        driver: str,
        replicas: tuple = (),
    ) -> None:
        super().__init__(pid, sim)
        self.roles = roles
        self.configs = list(configs)
        self.driver = driver
        self.replicas = tuple(replicas)  # (gid, site, ShardReplica)
        self.shutdown_requested = False
        self._drain_deadline = 0.0
        self._hello_timer = self.set_periodic_timer(HELLO_INTERVAL, self._hello)
        self._hello()

    def _hello(self) -> None:
        self.send(self.driver, CtlHello(node=self.sim.node))

    def on_ctlwelcome(self, msg: CtlWelcome, src: Hashable) -> None:
        if self._hello_timer is not None:
            self.drop_timer(self._hello_timer)
            self._hello_timer = None

    def on_ctlstart(self, msg: CtlStart, src: Hashable) -> None:
        for config in self.configs:
            pid = config.topology.coordinators[msg.coord]
            coordinator = self.roles.get(pid)
            if coordinator is not None and coordinator.crnd == ZERO:
                coordinator.start_round(bootstrap_round(config))

    def on_ctlorders(self, msg: CtlOrders, src: Hashable) -> None:
        orders = tuple(
            (pid, tuple(self.roles[pid].delivered))
            for config in self.configs
            for pid in config.topology.learners
            if pid in self.roles
        )
        self.send(src, CtlOrdersReply(node=self.sim.node, orders=orders))

    def on_ctlkeyorders(self, msg: CtlKeyOrders, src: Hashable) -> None:
        orders = tuple(
            (
                gid,
                site,
                tuple(
                    (key, tuple(cids))
                    for key, cids in sorted(replica.key_orders.items())
                ),
            )
            for gid, site, replica in self.replicas
        )
        self.send(src, CtlKeyOrdersReply(node=self.sim.node, orders=orders))

    def on_ctlshutdown(self, msg: CtlShutdown, src: Hashable) -> None:
        self._drain_deadline = self.sim.clock + DRAIN_GRACE
        self._drain()

    def _installs_in_flight(self) -> bool:
        """Any hosted learner mid-way through a snapshot install?"""
        for role in self.roles.values():
            installer = getattr(role, "_installer", None)
            if installer is not None and installer.pending is not None:
                return True
        return False

    def _drain(self) -> None:
        """Poll until in-flight snapshot installs finish (grace-capped)."""
        if self._installs_in_flight() and self.sim.clock < self._drain_deadline:
            self.set_timer(DRAIN_POLL, self._drain)
            return
        self.shutdown_requested = True


class ControlClient(Process):
    """The driver-side management endpoint."""

    def __init__(self, pid: str, sim: NetRuntime, expected: set[str]) -> None:
        super().__init__(pid, sim)
        self.expected = set(expected)
        self.hellos: set[str] = set()
        self.orders: dict[str, tuple] = {}
        self.key_orders: dict[str, tuple] = {}

    def on_ctlhello(self, msg: CtlHello, src: Hashable) -> None:
        self.hellos.add(msg.node)
        self.send(src, CtlWelcome())

    def on_ctlordersreply(self, msg: CtlOrdersReply, src: Hashable) -> None:
        self.orders[msg.node] = msg.orders

    def on_ctlkeyordersreply(self, msg: CtlKeyOrdersReply, src: Hashable) -> None:
        self.key_orders[msg.node] = msg.orders

    def all_ready(self) -> bool:
        return self.expected <= self.hellos

    def start_cluster(self, coord: int = 0) -> None:
        node = self.sim.book.node_of(self.config_coordinator_pid(coord))
        self.send(control_pid(node), CtlStart(coord=coord))

    def start_nodes(self, nodes: list[str], coord: int = 0) -> None:
        """Bootstrap rounds on *nodes* (every config hosted there starts)."""
        for node in nodes:
            self.send(control_pid(node), CtlStart(coord=coord))

    def config_coordinator_pid(self, coord: int) -> str:
        # The driver knows the topology only through the address book:
        # coordinator pids are the placement keys named by Topology.build.
        return f"coord{coord}"

    def audit_orders(self, nodes: list[str]) -> None:
        self.orders = {}
        for node in nodes:
            self.send(control_pid(node), CtlOrders())

    def learner_orders(self) -> dict[str, tuple]:
        """Learner pid -> delivered order, over all audited nodes."""
        return {
            pid: order
            for reply in self.orders.values()
            for pid, order in reply
        }

    def audit_key_orders(self, nodes: list[str]) -> None:
        self.key_orders = {}
        for node in nodes:
            self.send(control_pid(node), CtlKeyOrders())

    def replica_key_orders(self) -> dict[tuple[int, int], dict[str, tuple]]:
        """(group, site) -> {key: executed cid order}, over audited nodes."""
        return {
            (gid, site): {key: tuple(cids) for key, cids in orders}
            for reply in self.key_orders.values()
            for gid, site, orders in reply
        }

    def shutdown_cluster(self, nodes: list[str]) -> None:
        for node in nodes:
            self.send(control_pid(node), CtlShutdown())


codec.register_module(sys.modules[__name__])


# -- spec handling -------------------------------------------------------------


def _cfg(cls: type, data: dict | None) -> Any:
    return None if data is None else cls(**data)


def config_from_spec(spec: dict) -> InstancesConfig:
    """The engine config every node derives from the shared ``shape``."""
    return make_instances_config(
        **spec["shape"],
        batching=_cfg(BatchingConfig, spec.get("batching")) or UNBATCHED,
        retransmit=RetransmitConfig(**(spec.get("retransmit") or {})),
        checkpoint=_cfg(CheckpointConfig, spec.get("checkpoint")),
        liveness=LivenessConfig(**(spec.get("liveness") or {})),
        sessions=_cfg(SessionConfig, spec.get("sessions")),
    )


#: Every top-level key of a node spec (see the module docstring).
SPEC_KEYS = frozenset({
    "node", "seed", "nodes", "placement", "driver", "shape", "sharded",
    "batching", "retransmit", "checkpoint", "liveness", "sessions",
    "mtu", "loss_rate", "lifetime",
})


def configs_from_spec(spec: dict) -> list:
    """Every engine config of the spec's deployment, in deployment order.

    One :class:`InstancesConfig` classically; for a sharded spec the N
    group configs followed by the merge config.  Every node (and the
    driver) derives the identical list.  Sharded groups run without
    checkpointing (see :mod:`repro.shard.deploy`), so ``batching`` (the
    groups'), ``retransmit`` and ``liveness`` are the layers that apply
    there.  A spec is outside input: a key that would be ignored -- a
    misspelt one, or a layer the deployment cannot honour -- raises
    ``ValueError`` naming it rather than starting a node that is not the
    one described.
    """
    unknown = sorted(set(spec) - SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown node spec key(s): {', '.join(unknown)}")
    if "sharded" not in spec:
        return [config_from_spec(spec)]
    for layer in ("checkpoint", "sessions"):
        if spec.get(layer) is not None:
            raise ValueError(f"a sharded deployment cannot honour the spec's {layer!r} layer")
    return make_sharded_configs(
        spec["sharded"]["n_groups"],
        **spec["shape"],
        batching=_cfg(BatchingConfig, spec.get("batching")) or UNBATCHED,
        retransmit=RetransmitConfig(**(spec.get("retransmit") or {})),
        liveness=LivenessConfig(**(spec.get("liveness") or {})),
    )


async def run_node(spec: dict) -> None:
    """Serve one node until shutdown (or the ``lifetime`` deadline)."""
    configs = configs_from_spec(spec)
    deployment = Deployment(
        configs,
        seed=spec.get("seed", 0),
        loss_rate=spec.get("loss_rate", 0.0),
        mtu=spec.get("mtu", DEFAULT_MTU),
        book=AddressBook.from_json(spec),
        nodes=[spec["node"]],
    )
    # The driver starts the rounds over the control plane (CtlStart).
    await deployment.start(start_round=False)
    replicas: tuple = ()
    if "sharded" in spec:
        *group_configs, merge_config = configs
        shard_map = ShardMap(spec["sharded"]["n_groups"])
        replicas = tuple(
            shard_replicas(shard_map, group_configs, merge_config, deployment.roles)
        )
    runtime = deployment.runtimes[spec["node"]]
    agent = ControlAgent(
        control_pid(runtime.node),
        runtime,
        deployment.roles,
        configs,
        driver=control_pid(spec.get("driver", "driver")),
        replicas=replicas,
    )
    try:
        await runtime.wait_until(
            lambda: agent.shutdown_requested, timeout=spec.get("lifetime", 120.0)
        )
    finally:
        await deployment.stop()


def main(argv: list[str]) -> int:
    raw = argv[1] if len(argv) > 1 else "-"
    spec = json.loads(sys.stdin.read() if raw == "-" else raw)
    asyncio.run(run_node(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
