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
  (``retransmission_stats``, ``checkpoint_stats``);
* :class:`CountdownLatch` is what keeps ``run_until_delivered`` (and the
  sharded ``run_until_executed``) O(1) per event.

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

from functools import partial
from heapq import heapify, heappop
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.core.messages import Learned
from repro.core.rounds import RoundId
from repro.core.sessions import session_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


class CountdownLatch:
    """A run-until-done predicate over (site, item) pairs, O(1) per event.

    One latch serves every run of a handle over *sites* sites.
    ``is_done(site, item)`` is the exact test and ``key(item)`` names an
    item the way the test does (two items with one key are one pair).
    The handle subscribes once: :meth:`note` with each item a site
    reaches, :meth:`recount` for a site whose state changed wholesale (a
    checkpoint adoption reaches items it does not name).  Both are no-ops
    outside :meth:`run`.  :meth:`reached` is the stop predicate: O(1)
    while a pair is pending; at zero it re-arms from exact state -- the
    exact scan -- and holds iff that scan finds nothing pending.

    ``lane(item)``, when given, is ``(lane, rank)`` or ``None``: reaching
    one item of a lane may also reach every item of that lane up to some
    rank, unnamed (a session window's floor sliding past them, see
    :class:`~repro.core.sessions.SessionDedup`).  A note then re-tests
    the lane's lowest pending ranks until one is not done.

    The count can only err low: a pair leaves ``pending`` only once its
    site has reached the item, and a crash that loses a delivery does not
    put it back.  So the count is zero at the first event after which
    every pair is done -- a run stops at the event where a scan after
    every event would stop -- and a count that reached zero early is
    re-armed.
    """

    def __init__(
        self,
        sites: int,
        is_done: Callable[[int, Any], bool],
        key: Callable[[Any], Hashable] = lambda item: item,
        lane: Callable[[Any], tuple[Hashable, int] | None] | None = None,
    ) -> None:
        self._sites = sites
        self._is_done = is_done
        self._key = key
        self._lane = lane
        self._watch([[]] * sites)

    def _watch(self, wanted: Sequence[Iterable[Any]]) -> None:
        key = self._key
        self._wanted = [{key(item): item for item in items} for items in wanted]
        # Armed by the first reached(): until then nothing is pending.
        self._pending: list[dict[Hashable, Any]] = [{} for _ in range(self._sites)]
        self._lanes: list[dict[Hashable, list]] = [{} for _ in range(self._sites)]
        self.remaining = 0  # == the pending pairs, summed over sites

    def run(self, sim, wanted: Sequence[Iterable[Any]], timeout: float) -> bool:
        """``sim.run_until`` every site reached every item of its
        ``wanted[site]``; returns whether they did."""
        self._watch(wanted)
        try:
            return sim.run_until(self.reached, timeout=timeout)
        finally:
            self._watch([[]] * self._sites)

    def note(self, site: int, item: Any) -> None:
        """*site* reached *item*."""
        if not self.remaining:
            return
        if self._pending[site].pop(self._key(item), None) is not None:
            self.remaining -= 1
        if self._lane is not None:
            lane = self._lane(item)
            if lane is not None and lane[0] in self._lanes[site]:
                self._drain_lane(site, lane[0])

    def recount(self, site: int) -> None:
        """Re-read *site*'s pending pairs from exact state."""
        pending = self._pending[site]
        done = [key for key, item in pending.items() if self._is_done(site, item)]
        for key in done:
            del pending[key]
        self.remaining -= len(done)

    def reached(self) -> bool:
        """Is every pair done?  Exact; scans only when the count is zero."""
        if self.remaining:
            return False
        is_done = self._is_done
        self._pending = [
            {key: item for key, item in wanted.items() if not is_done(site, item)}
            for site, wanted in enumerate(self._wanted)
        ]
        self.remaining = sum(map(len, self._pending))
        if self._lane is not None:
            self._lanes = [self._lanes_of(pending) for pending in self._pending]
        return not self.remaining

    def _lanes_of(self, pending: dict[Hashable, Any]) -> dict[Hashable, list]:
        lanes: dict[Hashable, list] = {}
        for index, (key, item) in enumerate(pending.items()):
            lane = self._lane(item)
            if lane is not None:
                lanes.setdefault(lane[0], []).append((lane[1], index, key))
        for heap in lanes.values():
            heapify(heap)
        return lanes

    def _drain_lane(self, site: int, lane: Hashable) -> None:
        """Drop the lane's lowest-ranked pairs while they are done."""
        heap = self._lanes[site][lane]
        pending = self._pending[site]
        while heap:
            item = pending.get(heap[0][2])
            if item is not None:
                if not self._is_done(site, item):
                    return
                del pending[heap[0][2]]
                self.remaining -= 1
            heappop(heap)
        del self._lanes[site][lane]


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
        self._proposal_index = 0
        self._clients: list[Any] = []
        # command -> bitmask of the processes that reported it (a bit per
        # reporter, in order of first report): one small int per command
        # for the life of the handle, not a set.
        self.acked: dict[Hashable, int] = {}
        self._reporter_bit: dict[Hashable, int] = {}
        # run_until_delivered's latch, fed by one on_deliver + on_adopt
        # subscription per learner (made by the first run).
        self._latch: CountdownLatch | None = None

    def propose(self, cmd: Hashable, delay: float = 0.0, proposer: int | None = None) -> None:
        """Hand *cmd* to proposer *proposer*, by default the next one up:
        at once, or *delay* time units from now.

        The default pick walks the rotation past crashed proposers (a
        client's resubmission must not go back to the one that lost it),
        and takes the rotation's next one when none is up.
        """
        if proposer is None:
            start, count = self._proposal_index, len(self.proposers)
            up = (s for s in range(count) if self.proposers[(start + s) % count].alive)
            step = next(up, 0)
            proposer = (start + step) % count
            self._proposal_index = start + step + 1
        agent = self.proposers[proposer]
        if delay:
            self.sim.schedule(delay, lambda: agent.propose(cmd))
        else:
            agent.propose(cmd)

    def start_round(self, rnd: RoundId, coordinator: int | None = None, delay: float = 0.0) -> None:
        index = rnd.coord if coordinator is None else coordinator
        agent = self.roles[self.config.topology.coordinators[index]]
        self.sim.schedule(delay, lambda: agent.start_round(rnd))

    def set_load_balancing(self, enabled: bool) -> None:
        for proposer in self.proposers:
            proposer.balance_load = enabled

    def flush(self) -> None:
        """Ship every held proposer's partial batch now."""
        for agent in self.proposers:
            agent.flush()

    # -- delivery ------------------------------------------------------------

    def everyone_delivered(self, cmds: Iterable[Hashable]) -> bool:
        """Every held learner has delivered every one of *cmds*."""
        learners = self.learners
        return all(learner.has_delivered(cmd) for cmd in cmds for learner in learners)

    def run_until_delivered(self, cmds: Iterable[Hashable], timeout: float = 5_000.0) -> bool:
        """Run until :meth:`everyone_delivered` holds, at O(1) per event.

        A :class:`CountdownLatch` over (learner, command) pairs decides
        when the exact check runs; the run stops at the same event as
        one that checked after every event.
        """
        learners = self.learners
        if self._latch is None:
            sessions = {}
            if self.config.sessions is not None:
                # A session dedup knows a command by its (client, seq) and
                # counts a client's whole window-floor prefix as delivered.
                sessions = {"key": lambda cmd: session_key(cmd) or cmd, "lane": session_key}
            latch = self._latch = CountdownLatch(
                len(learners), lambda site, cmd: learners[site].has_delivered(cmd), **sessions
            )
            for site, learner in enumerate(learners):
                learner.on_deliver(partial(latch.note, site))
                learner.on_adopt(lambda _frontier, _cmds, site=site: latch.recount(site))
        return self._latch.run(self.sim, [list(cmds)] * len(learners), timeout)

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
