"""Deploying engine configs across networked runtimes.

The role classes are deployment-agnostic: they see only the Runtime
surface, and :func:`repro.core.cluster.deploy` builds whichever of a
config's roles one runtime hosts.  This module adds what the
:class:`~repro.net.transport.NetRuntime` backend needs on top, once for
both engines and for any number of configs on one address book:

* :func:`node_plan` -- the placement: all proposers on the *driver* node
  next to the client (as a real client-facing frontend would be), and
  either every other role on its own node or, *cosited*, one node per
  group plus one per learner site;
* :class:`Deployment` -- one :class:`NetRuntime` per node this process
  runs (all of the book's by default: the whole cluster on real
  loopback sockets, the workhorse of the conformance suite and the
  performance ledger), the shared codec context, the driver-side
  :class:`~repro.core.cluster.Cluster` handle per config, and
  ``crash``/``recover``/``errors``.  A subprocess launcher runs only
  the driver node here and ships the same book to one
  :mod:`repro.net.node` per remaining node, which runs only its own.

Wall-clock tuning: the engines' reliability timers default to simulator
time scales (seconds that cost nothing).  :func:`wall_clock_retransmit`
/ :func:`wall_clock_checkpoint` provide sub-second periods so a lossy
loopback run converges in human time.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.checkpoint import CheckpointConfig, RetransmitConfig
from repro.core.cluster import Cluster, deploy
from repro.core.liveness import LivenessConfig
from repro.core.rounds import RoundId
from repro.net.codec import CodecContext
from repro.net.transport import DEFAULT_MTU, AddressBook, NetRuntime, loopback_book

DRIVER_NODE = "driver"


def control_pid(node: str) -> str:
    """The pid of *node*'s control agent (``ctl@<node>``, see :mod:`repro.net.node`)."""
    return f"ctl@{node}"


def wall_clock_retransmit() -> RetransmitConfig:
    """Reliability periods in real sub-second time (vs simulator units)."""
    return RetransmitConfig(
        retry_interval=0.3,
        backoff=1.5,
        max_interval=2.0,
        gossip_interval=0.4,
        catchup_interval=0.25,
    )


def wall_clock_liveness() -> LivenessConfig:
    """Failure detection / stuck-round recovery at wall-clock periods.

    Lossy runs need it for the same reason the simulator's lossy tests
    enable it: a multicoordinated collision leaves an instance no round
    can decide, and only the leader's stuck-command check (starting a
    single-coordinated recovery round) restores progress.
    """
    return LivenessConfig(
        heartbeat_period=0.3,
        suspect_timeout=1.2,
        check_period=0.3,
        stuck_timeout=1.0,
        recovery_rtype=1,
    )


def wall_clock_checkpoint(
    interval: int = 16, chunk_size: int = 8, gc_quorum: int | None = None
) -> CheckpointConfig:
    """Checkpointing with a wall-clock advertise period (and small chunks,
    so snapshot state transfer exercises the TCP path)."""
    return CheckpointConfig(
        interval=interval,
        gc_quorum=gc_quorum,
        chunk_size=chunk_size,
        advertise_interval=0.5,
    )


def node_plan(configs: Iterable[Any], cosited: bool = False) -> dict[str, str]:
    """pid -> node for every role of *configs*, plus each node's control pid.

    Proposers ride on the driver node (they front for the client or the
    shard router).  By default every coordinator, acceptor and learner
    gets its own node named after its pid, so crashing a node crashes
    exactly one role.  *cosited* is the subprocess layout of a sharded
    cluster: each config's coordinators and acceptors share one node
    named after their pid prefix (``g0``, ``xs``), and site *i*'s
    learners of **every** config share node ``site<i>`` -- a
    :class:`~repro.shard.replica.ShardReplica` subscribes to its group
    learner and the merge learner in the same process, exactly as on
    the simulator.
    """
    placement = {}
    for config in configs:
        topology = config.topology
        for pid in topology.proposers:
            placement[pid] = DRIVER_NODE
        for pid in (*topology.coordinators, *topology.acceptors):
            placement[pid] = pid.split(".", 1)[0] if cosited else pid
        for site, pid in enumerate(topology.learners):
            placement[pid] = f"site{site}" if cosited else pid
    for node in {*placement.values(), DRIVER_NODE}:
        placement[control_pid(node)] = node
    return placement


def address_book(configs: Iterable[Any], cosited: bool = False) -> AddressBook:
    """:func:`node_plan`'s placement, every node on an ephemeral loopback port."""
    placement = node_plan(configs, cosited)
    book = loopback_book(sorted(set(placement.values())))
    book.placement.update(placement)
    return book


def bootstrap_round(config: Any) -> RoundId:
    """The multicoordinated round a fresh cluster starts with."""
    return config.schedule.make_round(coord=0, count=1, rtype=2)


def codec_context_for(configs: Iterable[Any]) -> CodecContext | None:
    """The codec context every node of a deployment of *configs* must share.

    ``CommandHistory`` payloads travel as linear extensions and are
    rebuilt receiver-side against the deployment's conflict relation:
    that of the (one) config carrying a bottom c-struct.  Instances-engine
    payloads ignore the context.
    """
    for config in configs:
        bottom = getattr(config, "bottom", None)
        if bottom is not None:
            return CodecContext(bottom.conflict)
    return None


class Deployment:
    """Engine configs on one address book: a runtime per node run here.

    *configs* is one engine config or a sequence of them (the N shard
    groups plus the merge group share one book); *book* defaults to
    :func:`address_book`; *nodes* names the book's nodes this process
    runs (default: all -- every inter-role message still crosses a real
    UDP or TCP loopback socket through the codec).  Every node derives
    its runtime seed as ``seed + index`` over the sorted node names, so
    a node run alone gets the seed it has in the whole-book deployment.
    """

    def __init__(
        self,
        configs: Any,
        seed: int = 0,
        loss_rate: float = 0.0,
        mtu: int = DEFAULT_MTU,
        book: AddressBook | None = None,
        nodes: Iterable[str] | None = None,
    ) -> None:
        self.configs = list(configs) if isinstance(configs, (list, tuple)) else [configs]
        self.book = book if book is not None else address_book(self.configs)
        context = codec_context_for(self.configs)
        self.runtimes: dict[str, NetRuntime] = {
            node: NetRuntime(
                node, self.book, seed=seed + index, loss_rate=loss_rate, mtu=mtu,
                codec_context=context,
            )
            for index, node in enumerate(sorted(self.book.nodes))
            if nodes is None or node in nodes
        }
        self.roles: dict[str, Any] = {}
        self.clusters: list[Cluster] = []  # the driver's handles, one per config
        self._handle_of: dict[str, Cluster] = {}

    @property
    def driver(self) -> NetRuntime:
        return self.runtimes[DRIVER_NODE]

    @property
    def config(self) -> Any:
        return self.configs[0]

    @property
    def cluster(self) -> Cluster:
        """The driver's handle of the first (often only) config."""
        return self.clusters[0]

    async def start(self, start_round: bool = True) -> "Deployment":
        """Bind every runtime, deploy its roles and bootstrap the rounds.

        A launcher whose coordinators run elsewhere passes
        ``start_round=False`` and starts them over the control plane.
        """
        for runtime in self.runtimes.values():
            await runtime.start()
        # Roles need the running loop (timers); the driver's come last.
        for node in sorted(self.runtimes, key=lambda name: name == DRIVER_NODE):
            for config in self.configs:
                handle = deploy(
                    self.runtimes[node], config,
                    lambda pid, node=node: self.book.node_of(pid) == node,
                )
                self.roles.update(handle.roles)
                self._handle_of.update(dict.fromkeys(handle.roles, handle))
                if node == DRIVER_NODE:
                    if not handle.proposers:
                        raise ValueError(f"no proposer placed on driver node {node!r}")
                    self.clusters.append(handle)
        if start_round:
            for config in self.configs:
                rnd = bootstrap_round(config)
                self._handle_of[config.topology.coordinators[rnd.coord]].start_round(rnd)
        return self

    async def stop(self) -> None:
        for runtime in self.runtimes.values():
            await runtime.stop()

    def view(self, index: int = 0) -> Cluster:
        """Whole-cluster handle of ``configs[index]`` over every role run here.

        The read-only surface (``delivery_orders``, ``everyone_delivered``,
        ``*_stats``, ``retained_state``) on the real backend, as on the
        simulator.
        """
        config = self.configs[index]
        return config.cluster_class()(self.driver, config, self.roles)

    def runtime_of(self, pid: str) -> NetRuntime:
        return self.runtimes[self.book.node_of(pid)]

    def crash(self, pid: str) -> None:
        self.runtime_of(pid).crash(pid)

    def recover(self, pid: str) -> None:
        self.runtime_of(pid).recover(pid)

    @property
    def learners(self) -> list[Any]:
        return [self.roles[pid] for config in self.configs for pid in config.topology.learners]

    def errors(self) -> list[BaseException]:
        return [err for runtime in self.runtimes.values() for err in runtime.errors]


#: The per-engine names of :class:`Deployment`.
LoopbackDeployment = GeneralizedLoopbackDeployment = Deployment  # for benchmarks/ledger only
