"""Point-to-point network model.

The network delivers each message after ``latency + U(0, jitter)`` time
units, where the uniform jitter term is drawn from the simulation's seeded
RNG.  With ``jitter == 0`` all messages sent at the same instant arrive in
send order at every destination -- the "spontaneous ordering" of clustered
systems in Section 4.5.  Non-zero jitter produces message inversions, the
precondition for fast-round collisions.

Messages can also be dropped (``drop_rate``), duplicated
(``duplicate_rate``), or blocked by explicit partitions.  Local delivery
(``src == dst``) is instantaneous-but-asynchronous: it costs zero latency
and is never dropped, modelling a process handing a message to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Simulation

DropFilter = Callable[[Hashable, Hashable, Any], bool]
LatencyShaper = Callable[[Hashable, Hashable, float], float]


@dataclass
class NetworkConfig:
    """Tunable network behaviour.

    Attributes:
        latency: Base one-way delay of every link (one communication step).
        jitter: Upper bound of the uniform extra delay; 0 means messages
            between any pair of processes are spontaneously ordered.
        drop_rate: Probability that a message is silently lost, in
            ``[0, 1]``; 1.0 models a fully lossy network (every non-local
            message dropped, like a total partition).
        duplicate_rate: Probability that a message is delivered twice, in
            ``[0, 1]``; 1.0 duplicates every non-local message.
    """

    latency: float = 1.0
    jitter: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError("latency must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")


class Network:
    """Delivers messages between registered processes via the event queue."""

    def __init__(self, sim: "Simulation", config: NetworkConfig | None = None) -> None:
        self._sim = sim
        self.config = config or NetworkConfig()
        self._blocked: set[tuple[Hashable, Hashable]] = set()
        self._drop_filters: dict[tuple[str, int], DropFilter] = {}
        self._latency_shapers: dict[tuple[str, int], LatencyShaper] = {}
        self._hook_seq = 0
        # The hooks in sorted key order, rebuilt when one is added or
        # removed, so a send never sorts.
        self._drop_chain: tuple[DropFilter, ...] = ()
        self._shaper_chain: tuple[LatencyShaper, ...] = ()

    # -- targeted loss (deterministic fault injection) --------------------

    def add_drop_filter(self, filter_fn: DropFilter, label: str = "") -> DropFilter:
        """Drop every non-local message for which *filter_fn* returns True.

        ``filter_fn(src, dst, msg)`` runs before the random loss model and
        consumes no sim RNG itself, so with random loss/jitter/duplication
        disabled a filter injects targeted, deterministic loss (e.g. "drop
        all I2b to learner 1") without perturbing the seeded schedule of
        everything else.  (With ``drop_rate``/``jitter``/``duplicate_rate``
        active, a filtered message skips the draws it would have consumed,
        so later random decisions shift.)  Returns the filter for removal.

        Composition semantics (stacked filters): filters are keyed by
        ``(label, registration seq)`` and evaluated in sorted key order;
        **every** registered filter sees **every** non-local, non-blocked
        message -- there is no short-circuit on the first match.  A message
        is dropped iff at least one filter returned True.  This makes
        stacked *stateful* filters (counting, flapping, burst schedules)
        deterministic and independent of what other faults happen to be
        installed: each filter's internal state advances over the same
        message sequence whether it is registered first, last, or alone.
        """
        self._drop_filters[(label, self._hook_seq)] = filter_fn
        self._hook_seq += 1
        self._drop_chain = _chain(self._drop_filters)
        return filter_fn

    def remove_drop_filter(self, filter_fn: DropFilter) -> None:
        """Stop applying *filter_fn* (no-op if already removed)."""
        for key, registered in list(self._drop_filters.items()):
            if registered is filter_fn:
                del self._drop_filters[key]
        self._drop_chain = _chain(self._drop_filters)

    # -- latency shaping (skewed per-link distributions) -------------------

    def add_latency_shaper(self, shaper: LatencyShaper, label: str = "") -> LatencyShaper:
        """Rewrite per-message delay: ``shaper(src, dst, delay) -> delay``.

        Shapers run after the base ``latency + U(0, jitter)`` computation,
        in sorted ``(label, registration seq)`` order, each receiving the
        previous shaper's output; the result is clamped to ``>= 0``.  A
        shaper must not touch the simulation's RNG -- if it needs
        randomness (skewed per-link distributions) it carries its own
        seeded ``random.Random`` so the rest of the schedule is unmoved.
        Local delivery (``src == dst``) is never shaped.  Returns the
        shaper for removal.
        """
        self._latency_shapers[(label, self._hook_seq)] = shaper
        self._hook_seq += 1
        self._shaper_chain = _chain(self._latency_shapers)
        return shaper

    def remove_latency_shaper(self, shaper: LatencyShaper) -> None:
        """Stop applying *shaper* (no-op if already removed)."""
        for key, registered in list(self._latency_shapers.items()):
            if registered is shaper:
                del self._latency_shapers[key]
        self._shaper_chain = _chain(self._latency_shapers)

    # -- partitions ------------------------------------------------------

    def block(self, a: Hashable, b: Hashable) -> None:
        """Drop all future messages between *a* and *b* (both directions)."""
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def unblock(self, a: Hashable, b: Hashable) -> None:
        """Heal the link between *a* and *b*."""
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def partition(self, group_a: set, group_b: set) -> None:
        """Block every link crossing the two groups."""
        for a in group_a:
            for b in group_b:
                self.block(a, b)

    def heal(self) -> None:
        """Remove all partitions."""
        self._blocked.clear()

    # -- sending ---------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, msg: Any) -> None:
        """Send *msg* from *src* to *dst*, applying the network model."""
        metrics = self._sim.metrics
        metrics.on_send(src, dst, msg)
        if src == dst:
            # Self-delivery: immediate, reliable, still asynchronous.
            self._schedule_delivery(src, dst, msg, delay=0.0)
            return
        if (src, dst) in self._blocked:
            metrics.on_drop()
            return
        if self._drop_chain:
            dropped = False
            for drop in self._drop_chain:
                # No short-circuit: every filter observes every message so
                # stateful filters stay deterministic under stacking (see
                # add_drop_filter).
                if drop(src, dst, msg):
                    dropped = True
            if dropped:
                metrics.on_drop()
                return
        config = self.config
        rng = self._sim.rng
        if config.drop_rate and rng.random() < config.drop_rate:
            metrics.on_drop()
            return
        copies = 1
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            copies = 2
        for _ in range(copies):
            delay = config.latency
            if config.jitter:
                delay += rng.uniform(0.0, config.jitter)
            for shape in self._shaper_chain:
                delay = shape(src, dst, delay)
            self._schedule_delivery(src, dst, msg, max(0.0, delay))

    def _schedule_delivery(self, src: Hashable, dst: Hashable, msg: Any, delay: float) -> None:
        def deliver() -> None:
            process = self._sim.processes.get(dst)
            if process is None or not process.alive:
                self._sim.metrics.on_drop()
                return
            self._sim.metrics.on_deliver(dst, msg)
            for tap in self._sim.delivery_taps:
                tap(src, dst, msg)
            process.deliver(msg, src)

        self._sim.schedule(delay, deliver)


def _chain(hooks: dict) -> tuple:
    """*hooks*' values in sorted ``(label, registration seq)`` key order."""
    return tuple(hooks[key] for key in sorted(hooks))
