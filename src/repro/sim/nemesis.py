"""Nemesis: composable adversarial fault schedules over the simulated network.

The base fault surface (:class:`~repro.sim.network.Network`) offers
primitives -- drop filters, latency shapers, crashes.  This module turns
them into *scenarios*: declarative, seedable scripts of timed fault
episodes that apply unchanged to the instances engine, the generalized
engine, and sharded deployments.

Structure:

* :class:`ClusterView` -- role-pid view over any deployment shape (a
  :class:`~repro.core.cluster.Cluster` handle of either engine, or a
  sharded deployment's handles), so a scenario can say "the leader" or
  "a learner quorum" without naming pids.
* :class:`Fault` subclasses -- frozen-dataclass fault primitives:
  asymmetric/symmetric partitions, leader and learner-quorum isolation,
  flapping links, skewed per-link latency, crash storms.
* :class:`Episode`/:class:`Scenario` -- ``(at, duration, fault)``
  triples under a name; purely declarative data.
* :class:`Nemesis` -- the engine: schedules episode begin/heal on the
  sim clock, derives one ``random.Random`` per episode from
  ``(seed, scenario name, episode index)`` so the fault schedule is a
  deterministic function of the seed and independent of installation
  interleaving, keeps an append-only ``log`` of every begin/heal/crash
  (the determinism witness: same seed |rarr| identical log), and
  guarantees teardown -- every filter, shaper and crash installed by an
  episode is removed/recovered on heal.

Episode randomness never touches ``sim.rng``: installing a nemesis does
not perturb the seeded schedule of everything else beyond the faults it
injects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Simulation

Teardown = Callable[[], None]


# ---------------------------------------------------------------------------
# Cluster views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterView:
    """Role-pid view of a deployment, for target selection by role.

    ``clusters`` holds the underlying cluster objects (each with
    ``.coordinators`` role instances) so faults that target "the current
    leader" can resolve it at episode-begin time, not at build time.
    """

    proposers: tuple = ()
    coordinators: tuple = ()
    acceptors: tuple = ()
    learners: tuple = ()
    clusters: tuple = ()

    @property
    def all_pids(self) -> tuple:
        return self.proposers + self.coordinators + self.acceptors + self.learners

    def leaders(self) -> tuple:
        """Current leader coordinator pid of every underlying cluster."""
        out = []
        for cluster in self.clusters:
            chosen = None
            for coord in cluster.coordinators:
                if coord.is_leader():
                    chosen = coord.pid
                    break
            out.append(chosen if chosen is not None else cluster.coordinators[0].pid)
        return tuple(out)

    def learner_quorums(self, count: int = 0) -> tuple:
        """Per-cluster learner majorities (or *count* learners), flattened."""
        out = []
        for cluster in self.clusters:
            pids = [l.pid for l in cluster.learners]
            k = count if count else len(pids) // 2 + 1
            out.extend(pids[: min(k, len(pids))])
        return tuple(out)

    @classmethod
    def of(cls, deployment) -> "ClusterView":
        """Build a view from any supported deployment shape.

        Accepts a :class:`~repro.core.cluster.Cluster` handle (the one
        type both engines deploy) or anything with ``groups`` and
        ``merge`` handles -- a sharded deployment, whose view is the
        union over its engine groups plus the merge group.
        """
        if hasattr(deployment, "groups") and hasattr(deployment, "merge"):
            clusters = list(deployment.groups) + [deployment.merge]
        else:
            clusters = [deployment]
        proposers: list = []
        coordinators: list = []
        acceptors: list = []
        learners: list = []
        for cluster in clusters:
            proposers.extend(p.pid for p in cluster.proposers)
            coordinators.extend(c.pid for c in cluster.coordinators)
            acceptors.extend(a.pid for a in cluster.acceptors)
            learners.extend(l.pid for l in cluster.learners)
        return cls(
            proposers=tuple(proposers),
            coordinators=tuple(coordinators),
            acceptors=tuple(acceptors),
            learners=tuple(learners),
            clusters=tuple(clusters),
        )


# ---------------------------------------------------------------------------
# Fault primitives
# ---------------------------------------------------------------------------


class Fault:
    """A fault primitive.  Subclasses are declarative frozen dataclasses.

    ``begin`` installs the fault and returns teardown callbacks; it may
    only draw randomness from the *rng* it is handed (the episode RNG),
    never from the simulation's.
    """

    def describe(self) -> str:
        return type(self).__name__

    def begin(
        self, nem: "Nemesis", idx: int, rng: random.Random, duration: float
    ) -> list[Teardown]:
        raise NotImplementedError


def _in(pid, group) -> bool:
    return pid in group


@dataclass(frozen=True)
class AsymmetricPartition(Fault):
    """Messages from *sources* to *dests* are dropped; the reverse lives."""

    sources: tuple
    dests: tuple

    def begin(self, nem, idx, rng, duration):
        sources, dests = frozenset(self.sources), frozenset(self.dests)

        def drop(src, dst, msg) -> bool:
            return _in(src, sources) and _in(dst, dests)

        nem.note(idx, f"asym {sorted(sources)} -> {sorted(dests)} dead")
        return [nem.install_drop(idx, drop)]


@dataclass(frozen=True)
class SymmetricPartition(Fault):
    """Both directions between *side_a* and *side_b* are dropped."""

    side_a: tuple
    side_b: tuple

    def begin(self, nem, idx, rng, duration):
        a, b = frozenset(self.side_a), frozenset(self.side_b)

        def drop(src, dst, msg) -> bool:
            return (_in(src, a) and _in(dst, b)) or (_in(src, b) and _in(dst, a))

        nem.note(idx, f"partition {sorted(a)} <x> {sorted(b)}")
        return [nem.install_drop(idx, drop)]


@dataclass(frozen=True)
class IsolateLeader(Fault):
    """Cut every link touching the *current* leader(s), resolved at begin."""

    def begin(self, nem, idx, rng, duration):
        targets = frozenset(nem.view.leaders())

        def drop(src, dst, msg) -> bool:
            return _in(src, targets) != _in(dst, targets)

        nem.note(idx, f"isolate leaders {sorted(targets)}")
        return [nem.install_drop(idx, drop)]


@dataclass(frozen=True)
class IsolateLearnerQuorum(Fault):
    """Cut every link touching a learner majority (or *count* learners)."""

    count: int = 0

    def begin(self, nem, idx, rng, duration):
        targets = frozenset(nem.view.learner_quorums(self.count))

        def drop(src, dst, msg) -> bool:
            return _in(src, targets) != _in(dst, targets)

        nem.note(idx, f"isolate learner quorum {sorted(targets)}")
        return [nem.install_drop(idx, drop)]


@dataclass(frozen=True)
class FlappingLinks(Fault):
    """Links that go up and down on a precomputed random schedule.

    ``pairs`` names concrete links; when empty, *picks* random pairs are
    drawn from the view.  The flap schedule (alternating up/down holds of
    ``U(0.5, 1.5) * mean_period``) is precomputed from the episode RNG at
    begin, so it is a pure function of the nemesis seed.
    """

    pairs: tuple = ()
    picks: int = 2
    mean_period: float = 4.0

    def begin(self, nem, idx, rng, duration):
        pairs = list(self.pairs)
        if not pairs:
            pids = sorted(nem.view.all_pids)
            for _ in range(self.picks):
                a, b = rng.sample(pids, 2)
                pairs.append((a, b))
        ends = {p for pair in pairs for p in pair}
        linkset = frozenset(frozenset(pair) for pair in pairs)
        state = {"down": False, "torn": False}
        horizon = duration if duration > 0 else 10.0 * self.mean_period

        def drop(src, dst, msg) -> bool:
            return (
                state["down"]
                and src in ends
                and dst in ends
                and frozenset((src, dst)) in linkset
            )

        nem.note(idx, f"flapping {sorted(sorted(pair) for pair in pairs)}")
        t = rng.uniform(0.5, 1.5) * self.mean_period / 2.0
        while t < horizon:
            def flip():
                if state["torn"]:
                    return
                state["down"] = not state["down"]
                nem.note(idx, f"flap {'down' if state['down'] else 'up'}")

            nem.sim.schedule(t, flip)
            t += rng.uniform(0.5, 1.5) * self.mean_period

        def tear() -> None:
            state["torn"] = True
            state["down"] = False

        return [nem.install_drop(idx, drop), tear]


@dataclass(frozen=True)
class LatencySkew(Fault):
    """Skew delay on links touching the targets: ``delay*factor + U(0, extra)``.

    When ``targets`` is empty, *picks* random pids are drawn from the
    view.  The per-message jitter comes from a shaper-private RNG seeded
    off the episode RNG, so the sim's own draw sequence is unmoved.
    """

    targets: tuple = ()
    picks: int = 1
    factor: float = 3.0
    extra: float = 2.0

    def begin(self, nem, idx, rng, duration):
        targets = list(self.targets)
        if not targets:
            targets = rng.sample(sorted(nem.view.all_pids), self.picks)
        chosen = frozenset(targets)
        srng = random.Random(rng.getrandbits(64))
        factor, extra = self.factor, self.extra

        def shape(src, dst, delay: float) -> float:
            if _in(src, chosen) or _in(dst, chosen):
                return delay * factor + srng.uniform(0.0, extra)
            return delay

        nem.note(idx, f"latency skew x{factor} on {sorted(chosen)}")
        return [nem.install_shaper(idx, shape)]


@dataclass(frozen=True)
class CrashStorm(Fault):
    """Crash a burst of processes (staggered), recover them on heal.

    Victims are ``victims`` when given, otherwise *picks* draws from the
    named role pools.  Only live processes are crashed; only processes
    this episode crashed (and that are still down) are recovered -- a
    storm composes safely with other storms and scripted crashes.
    """

    victims: tuple = ()
    picks: int = 2
    roles: tuple = ("coordinators", "acceptors", "learners")
    stagger: float = 0.5

    def begin(self, nem, idx, rng, duration):
        victims = list(self.victims)
        if not victims:
            pool = sorted(
                {pid for role in self.roles for pid in getattr(nem.view, role)}
            )
            victims = rng.sample(pool, min(self.picks, len(pool)))
        crashed: list = []
        nem.note(idx, f"crash storm {sorted(victims)}")
        for i, pid in enumerate(victims):
            def strike(pid=pid):
                if nem.sim.alive(pid):
                    crashed.append(pid)
                    nem.note(idx, f"crash {pid}")
                    nem.sim.crash(pid)

            nem.sim.schedule(i * self.stagger, strike)

        def tear() -> None:
            for pid in crashed:
                if not nem.sim.alive(pid):
                    nem.note(idx, f"recover {pid}")
                    nem.sim.recover(pid)

        return [tear]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    """One timed fault: begins at offset *at*, heals after *duration*.

    ``duration <= 0`` means "until the scenario-wide :meth:`Nemesis.heal`"
    (an open-ended fault).
    """

    at: float
    duration: float
    fault: Fault


@dataclass(frozen=True)
class Scenario:
    """A named, declarative schedule of fault episodes."""

    name: str
    episodes: tuple = ()

    def horizon(self) -> float:
        """Offset by which every finite episode has healed."""
        return max((e.at + max(e.duration, 0.0) for e in self.episodes), default=0.0)


@dataclass
class _Active:
    idx: int
    fault: Fault
    teardowns: list = field(default_factory=list)
    done: bool = False


class Nemesis:
    """Applies :class:`Scenario` schedules to one simulation + deployment."""

    def __init__(self, sim: "Simulation", view: ClusterView, seed: int = 0) -> None:
        self.sim = sim
        self.view = view
        self.seed = seed
        self.log: list[tuple[float, str]] = []
        self._open: dict[int, _Active] = {}
        self._next_idx = 0

    # -- plumbing used by faults ------------------------------------------

    def note(self, idx: int, text: str) -> None:
        self.log.append((round(self.sim.clock, 9), f"E{idx:03d} {text}"))

    def install_drop(self, idx: int, fn) -> Teardown:
        """Register a drop filter under this episode's label; returns remover."""
        net = self.sim.network
        net.add_drop_filter(fn, label=f"nem{idx:04d}")
        return lambda: net.remove_drop_filter(fn)

    def install_shaper(self, idx: int, fn) -> Teardown:
        net = self.sim.network
        net.add_latency_shaper(fn, label=f"nem{idx:04d}")
        return lambda: net.remove_latency_shaper(fn)

    # -- applying scenarios ------------------------------------------------

    def apply(self, scenario: Scenario) -> float:
        """Schedule every episode of *scenario* from the current sim clock.

        Returns the absolute sim time by which all finite episodes have
        healed (open-ended episodes heal only via :meth:`heal`).
        """
        base = self.sim.clock
        for episode in scenario.episodes:
            idx = self._next_idx
            self._next_idx += 1
            rng = random.Random(f"{self.seed}|{scenario.name}|{idx}")
            self.sim.schedule_at(
                base + episode.at,
                lambda episode=episode, idx=idx, rng=rng: self._begin(
                    episode, idx, rng
                ),
            )
        return base + scenario.horizon()

    def _begin(self, episode: Episode, idx: int, rng: random.Random) -> None:
        active = _Active(idx=idx, fault=episode.fault)
        self.note(idx, f"begin {episode.fault.describe()}")
        active.teardowns = episode.fault.begin(self, idx, rng, episode.duration)
        self._open[idx] = active
        if episode.duration > 0:
            self.sim.schedule(episode.duration, lambda: self._end(active))

    def _end(self, active: _Active) -> None:
        if active.done:
            return
        active.done = True
        for teardown in active.teardowns:
            teardown()
        self._open.pop(active.idx, None)
        self.note(active.idx, f"heal {active.fault.describe()}")

    # -- global heal -------------------------------------------------------

    def heal(self) -> None:
        """Tear down every still-open episode immediately."""
        for idx in sorted(self._open):
            self._end(self._open[idx])

    @property
    def open_episodes(self) -> int:
        return len(self._open)
