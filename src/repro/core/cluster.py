"""One group, one handle: a config's four roles on any :class:`Runtime`.

The paper's roles (proposers, coordinators, acceptors, learners --
Section 3) are the same four in the instances engine and the generalized
engine, on the simulator and on sockets.  This module is the one place
that builds them from a config and drives them:

* :func:`deploy` instantiates on one runtime the roles a ``hosted(pid)``
  predicate selects -- all of them on the simulator, the ones its node
  hosts on a :class:`~repro.net.transport.NetRuntime`;
* :class:`Cluster` is the handle over those roles: ``propose``,
  ``start_round``, ``flush``, ``set_load_balancing``, the delivery
  predicates (``everyone_delivered``, ``run_until_delivered``,
  ``delivery_orders``), ``attach_client`` with its completion tap, and
  the per-layer counters every engine's roles keep
  (``retransmission_stats``, ``checkpoint_stats``).

The *config type* names the engine, so no caller switches on it, to
build a group or to consume one: ``role_classes()`` (the four role
classes) and ``cluster_class()`` (the :class:`Cluster` subclass adding
the engine's read-only statistics, the only engine-specific part of a
handle).  Delivery and completion need no such hook: both engines'
learners hand out commands through the one
:meth:`~repro.core.checkpoint.CheckpointingLearner.on_deliver` stream
and report to the proposers with the one
:class:`~repro.core.messages.Learned`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping

from repro.core.messages import Learned
from repro.core.rounds import RoundId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


class Cluster:
    """Handle over the roles of one config that *roles* holds.

    ``sim`` is the runtime proposals and rounds are scheduled on.  A
    handle from :func:`deploy` holds what that runtime hosts; one built
    over every role of a deployment is a whole-cluster view for the
    read-only statistics.
    """

    def __init__(self, sim: Runtime, config: Any, roles: Mapping[Hashable, Any]) -> None:
        self.sim = sim
        self.config = config
        topology = config.topology
        self.proposers = [roles[pid] for pid in topology.proposers if pid in roles]
        self.coordinators = [roles[pid] for pid in topology.coordinators if pid in roles]
        self.acceptors = [roles[pid] for pid in topology.acceptors if pid in roles]
        self.learners = [roles[pid] for pid in topology.learners if pid in roles]
        self.roles = {
            role.pid: role
            for role in (*self.proposers, *self.coordinators, *self.acceptors, *self.learners)
        }
        if self.proposers and len(self.learners) < len(topology.learners):
            self._require_reports("a handle that proposes away from the learners")
        self._proposal_index = 0
        self._clients: list[Any] = []
        # command -> bitmask of the processes that reported it (a bit per
        # reporter, in order of first report): one small int per command
        # for the life of the handle, not a set.
        self.acked: dict[Hashable, int] = {}
        self._reporter_bit: dict[Hashable, int] = {}

    def _require_reports(self, who: str) -> None:
        if self.config.retransmit is None:
            # Learners report to the proposers (Learned) only under
            # a RetransmitConfig; without one, completion is unobservable
            # and an attached client would wait forever.
            raise ValueError(f"{who} observes completion only under a RetransmitConfig")

    def propose(self, cmd: Hashable, delay: float = 0.0, proposer: int | None = None) -> None:
        if proposer is None:
            proposer = self._proposal_index % len(self.proposers)
            self._proposal_index += 1
        agent = self.proposers[proposer]
        self.sim.schedule(delay, lambda: agent.propose(cmd))

    def start_round(self, rnd: RoundId, coordinator: int | None = None, delay: float = 0.0) -> None:
        index = rnd.coord if coordinator is None else coordinator
        agent = self.roles[self.config.topology.coordinators[index]]
        self.sim.schedule(delay, lambda: agent.start_round(rnd))

    def set_load_balancing(self, enabled: bool) -> None:
        for proposer in self.proposers:
            proposer.balance_load = enabled

    def flush(self) -> None:
        """Ship every held proposer's partial batch -- and whatever a
        held coordinator is coalescing -- now."""
        for agent in (*self.proposers, *self.coordinators):
            agent.flush()

    # -- delivery ------------------------------------------------------------

    def everyone_delivered(self, cmds: Iterable[Hashable]) -> bool:
        """Every held learner has delivered every one of *cmds*."""
        learners = self.learners
        return all(learner.has_delivered(cmd) for cmd in cmds for learner in learners)

    def run_until_delivered(self, cmds: Iterable[Hashable], timeout: float = 5_000.0) -> bool:
        cmds = list(cmds)
        return self.sim.run_until(lambda: self.everyone_delivered(cmds), timeout=timeout)

    def delivery_orders(self) -> list[tuple]:
        """Per-learner delivered sequences (for order-agreement assertions)."""
        return [tuple(learner.delivered) for learner in self.learners]

    # -- completion ----------------------------------------------------------

    def attach_client(self, client: Any) -> None:
        """Complete *client*'s commands when any learner reports them.

        The learners' reports (``Learned``) reach the proposers, which
        live on ``sim``; a delivery tap reads each one.  ``acked`` keeps
        the reporting learners per command, so "every learner confirmed"
        is observable here.
        """
        self._require_reports("a client attached to a cluster handle")
        if not self._clients:
            self.sim.add_delivery_tap(self._tap)
        self._clients.append(client)

    def all_acked(self, cmds: Iterable[Hashable], by: int | None = None) -> bool:
        """Every command reported by *by* learners (default: all of them)."""
        need = len(self.config.topology.learners) if by is None else by
        return all(self.acked.get(cmd, 0).bit_count() >= need for cmd in cmds)

    def _tap(self, src: Hashable, dst: Hashable, msg: Any) -> None:
        if msg.__class__ is not Learned:
            return
        bit = self._reporter_bit.setdefault(src, 1 << len(self._reporter_bit))
        for cmd in msg.cmds:
            self.acked[cmd] = self.acked.get(cmd, 0) | bit
            for client in self._clients:
                client._note_complete(cmd)

    # -- per-layer counters --------------------------------------------------

    #: Reliability counters every engine's roles keep (an engine's subclass
    #: extends the table): stats key -> (role list name, counter attribute).
    reliability_counters: Mapping[str, tuple[str, str]] = {
        "retransmissions": ("proposers", "retransmissions"),
        "reannounced_2a": ("coordinators", "reannounced_2a"),
        "catchup_requests": ("learners", "catchup_requests"),
    }

    def retransmission_stats(self) -> dict[str, int]:
        """Aggregate reliability-layer counters across the cluster."""
        return {
            key: sum(getattr(role, counter) for role in getattr(self, roles))
            for key, (roles, counter) in self.reliability_counters.items()
        }

    def checkpoint_stats(self) -> dict[str, int]:
        """Aggregate checkpoint/GC counters across the cluster."""
        return {
            "snapshots": sum(l.snapshots_taken for l in self.learners),
            "installs": sum(l.snapshot_installs for l in self.learners),
            "chunks_sent": sum(l.snapshot_chunks_sent for l in self.learners),
            "min_snap_frontier": min(l.snap_frontier for l in self.learners),
            "acceptor_floor": min(a.gc_floor for a in self.acceptors),
            "coordinator_floor": min(c.gc_floor for c in self.coordinators),
        }


def deploy(
    sim: Runtime, config: Any, hosted: Callable[[Hashable], bool] | None = None
) -> Cluster:
    """Instantiate on *sim* the roles of *config* that *hosted* selects.

    Every runtime of a deployment calls this with the identical config
    (nodes never exchange configuration, only messages); the union over
    all of them is the cluster a simulator hosts whole (the default).
    Roles are built proposers, coordinators, acceptors, learners --
    seeded runs depend on that order.
    """
    topology = config.topology
    proposer, coordinator, acceptor, learner = config.role_classes()
    hosts = hosted or (lambda pid: True)
    roles = [
        *(proposer(pid, sim, config) for pid in topology.proposers if hosts(pid)),
        *(
            coordinator(pid, sim, config, index)
            for index, pid in enumerate(topology.coordinators)
            if hosts(pid)
        ),
        *(acceptor(pid, sim, config) for pid in topology.acceptors if hosts(pid)),
        *(learner(pid, sim, config) for pid in topology.learners if hosts(pid)),
    ]
    return config.cluster_class()(sim, config, {role.pid: role for role in roles})
