"""Clients: issue commands and track completion.

A :class:`Client` proposes commands through a cluster (either engine) and
observes completion at a replica's execution (``watch_replica``) or at a
learner's delivery (``watch_learner``), giving end-to-end request latency
on top of the protocol-level propose-to-learn metric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cstruct.commands import Command


@dataclass
class Client:
    """A closed-loop or open-loop command issuer.

    With ``retry_interval`` set the client resubmits a command that has
    not completed within that span, doubling the wait each attempt (at
    most ``max_retries`` resubmissions).  Resubmission is safe end to end:
    coordinators deduplicate in-flight proposals, and learners deliver a
    command at most once even if it is decided in two instances.  It is
    the one re-driver of a proposer crash: proposers keep no stable state
    (Section 4.4), so a crash loses whatever they buffered or had in
    flight, and each resubmission goes to the next proposer that is up
    (:meth:`repro.core.cluster.Cluster.propose`).

    With ``session`` set the client stamps every command it *creates*
    (:meth:`make_command`) with a ``"<session>:<seq>"`` id in issue
    order, opting in to the learners' bounded per-client dedup windows
    (:class:`repro.core.sessions.SessionConfig`).  The window contract --
    at most ``window`` commands in flight, sequences issued in order --
    holds by construction: sequences are stamped from a monotone counter
    and the pipelined client's ``window`` bounds in-flight commands.

    **Router-aware sessions.** When the cluster is a shard router
    (anything exposing ``session_scope(key)``), a session client keeps
    one session window *per scope* -- commands are stamped
    ``"<session>@<scope>:<seq>"`` from a per-scope monotone counter
    (scopes are ``g<N>`` per group, ``xs`` for cross-shard).  One global
    counter would interleave scopes and leave permanent sequence gaps in
    each group's window; per-scope counters keep every group's cid
    stream dense, so the learner-side window contract holds per group.
    """

    name: str
    cluster: object  # any cluster exposing .propose(cmd, delay=...)
    retry_interval: float | None = None
    max_retries: int = 8
    session: str | None = None
    issued: list[Command] = field(default_factory=list)
    completed: dict[Command, float] = field(default_factory=dict)
    issue_times: dict[Command, float] = field(default_factory=dict)
    retries: dict[Command, int] = field(default_factory=dict)
    _next_seq: int = field(default=0)
    _scope_seqs: dict = field(default_factory=dict)
    # Issued commands none of whose issues has fired yet: with
    # ``issue_times`` (the fired ones) they are exactly the distinct
    # commands of ``issued``, and the set is only as big as the backlog.
    _unfired: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.retry_interval is not None and self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def make_command(self, op: str, key: str, arg=None) -> Command:
        """A new command, session-stamped when this client has a session."""
        if self.session is not None:
            scope_of = getattr(self.cluster, "session_scope", None)
            if scope_of is not None:
                # Router-aware mode: one dense session window per scope.
                scope = scope_of(key)
                seq = self._scope_seqs.get(scope, 0)
                self._scope_seqs[scope] = seq + 1
                return Command(f"{self.session}@{scope}:{seq}", op, key, arg)
            cid = f"{self.session}:{self._next_seq}"
        else:
            cid = f"{self.name}-{self._next_seq}"
        self._next_seq += 1
        return Command(cid, op, key, arg)

    def issue(self, cmd: Command, delay: float = 0.0) -> Command:
        """Propose *cmd* after *delay* simulated time units."""
        sim = self.cluster.sim
        self.issued.append(cmd)
        if cmd not in self.issue_times:
            self._unfired.add(cmd)

        def fire() -> None:
            self._unfired.discard(cmd)
            self.issue_times[cmd] = sim.clock
            # Route through the cluster's proposer rotation.
            self.cluster.propose(cmd)
            if self.retry_interval is not None:
                sim.schedule(self.retry_interval, lambda: self._watchdog(cmd))

        sim.schedule(delay, fire)
        return cmd

    def _watchdog(self, cmd: Command) -> None:
        if cmd in self.completed:
            return
        attempts = self.retries.get(cmd, 0)
        if attempts >= self.max_retries:
            return
        self.retries[cmd] = attempts + 1
        self.cluster.propose(cmd)
        backoff = self.retry_interval * (2 ** (attempts + 1))
        self.cluster.sim.schedule(backoff, lambda: self._watchdog(cmd))

    def watch_replica(self, replica) -> None:
        """Record completion when *replica* executes one of our commands.

        Commands can also reach the replica through a snapshot install
        (chunked state transfer to a learner below the truncation floor),
        which fast-forwards the executed sequence without running the
        machine -- so no execute observer fires.  When the replica's
        learner exposes ``on_adopt``, adopted commands are marked complete
        from there; otherwise a pipelined client whose whole window lands
        in a snapshot would wedge.
        """

        def observer(cmd, result) -> None:
            self._note_complete(cmd)

        replica.on_execute(observer)
        self._watch_adoptions(getattr(replica, "learner", None))

    def watch_learner(self, learner) -> None:
        """Record completion when *learner* delivers one of our commands.

        Completion at learn time, on either engine, without deploying a
        replica.  Snapshot adoptions bypass ``on_deliver`` just as they
        bypass replica execution, so adopted commands complete via
        ``on_adopt`` when the learner exposes it.
        """
        learner.on_deliver(self._note_complete)
        self._watch_adoptions(learner)

    def _watch_adoptions(self, learner) -> None:
        on_adopt = getattr(learner, "on_adopt", None)
        if on_adopt is None:
            return

        def adopted(frontier, delivered) -> None:
            for cmd in delivered:
                self._note_complete(cmd)

        on_adopt(adopted)

    def _note_complete(self, cmd) -> None:
        if cmd in self.issue_times and cmd not in self.completed:
            self.completed[cmd] = self.cluster.sim.clock

    def latency(self, cmd: Command) -> float | None:
        if cmd not in self.completed or cmd not in self.issue_times:
            return None
        return self.completed[cmd] - self.issue_times[cmd]

    def all_completed(self) -> bool:
        """O(1): has every issued command completed?

        ``completed`` is a subset of ``issue_times``, so comparing sizes
        is exact once no issued command is still waiting to fire.
        """
        return not self._unfired and len(self.completed) == len(self.issue_times)


@dataclass
class PipelinedClient(Client):
    """A closed-loop client that keeps a window of commands in flight.

    ``submit`` enqueues a backlog of commands; the client immediately
    issues up to ``window`` of them and replaces each completed command
    with the next one from the backlog, keeping the pipeline saturated.
    This is the closed-loop load generator for the batching layer: with a
    window larger than the proposer's batch size, batches fill on arrival
    pressure instead of timer flushes, and the generalized engine sees a
    steady multi-command frontier to merge per round trip.

    Watch a replica (``watch_replica``) or a learner (``watch_learner``)
    so completions are observed; otherwise the window never refills.
    """

    window: int = 4
    backlog: deque = field(default_factory=deque)
    in_flight: set = field(default_factory=set)
    peak_in_flight: int = field(default=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 1:
            raise ValueError("window must be positive")

    def submit(self, cmds, delay: float = 0.0) -> None:
        """Enqueue *cmds* and start pumping after *delay* time units."""
        self.backlog.extend(cmds)
        self.cluster.sim.schedule(delay, self._pump)

    def _pump(self) -> None:
        issued = False
        while self.backlog and len(self.in_flight) < self.window:
            cmd = self.backlog.popleft()
            self.in_flight.add(cmd)
            self.issue(cmd)
            issued = True
        self.peak_in_flight = max(self.peak_in_flight, len(self.in_flight))
        if issued and not self.backlog:
            # Tail flush for batching engines: the last commands of the
            # backlog would otherwise sit in a partial batch until the
            # flush deadline.  The epsilon delay makes it run after the
            # issues above have hopped through their own zero-delay
            # schedule and landed at the proposers; no-op when nothing is
            # buffered or the cluster has no batching layer.
            flush = getattr(self.cluster, "flush", None)
            if flush is not None:
                self.cluster.sim.schedule(1e-6, flush)

    def _note_complete(self, cmd) -> None:
        already = cmd in self.completed
        super()._note_complete(cmd)
        if not already and cmd in self.in_flight:
            self.in_flight.discard(cmd)
            self._pump()

    def all_completed(self) -> bool:
        return not self.backlog and not self.in_flight and super().all_completed()
