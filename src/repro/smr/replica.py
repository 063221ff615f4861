"""Replicas: state machines driven by a learner's delivery stream.

One contract on either engine: a :class:`Replica` subscribes to its
learner with ``on_deliver`` and executes every command **at most once, in
delivery order**, keeping the result of the first execution.  What
"delivery order" promises is the learner's, not the replica's:

* on the instances engine (and the Classic Paxos baseline) it is one
  total order -- one consensus instance per value, delivered in instance
  order -- so every replica executes the same sequence;
* on the generalized engine it is one order *per conflicting pair*: the
  single Generalized Consensus instance yields a growing command history,
  conflicting commands are delivered in the same relative order at every
  learner, commuting commands may interleave differently, and the final
  states coincide because the state machine is deterministic over
  conflicts.
"""

from __future__ import annotations

from typing import Callable

from repro.cstruct.commands import Command
from repro.smr.machine import StateMachine


class Replica:
    """A state machine fed by one learner's ``on_deliver`` stream.

    Learners deliver each command once, but duplicates can still arrive
    (a command decided in two instances, client resubmission, overlapping
    learn events): they are dropped, and ``results`` keeps the result of
    the *first* execution, so a resubmitted non-idempotent command cannot
    silently change its recorded outcome.

    Checkpointing: when the learner supports it (``register_replica``),
    the replica registers itself so the learner can capture
    :meth:`snapshot_state` at its delivery frontier and restore via
    :meth:`install_snapshot` -- on crash-recovery from the learner's own
    journalled checkpoint, and on snapshot-based state transfer from a
    peer when this replica lags below the cluster's truncation floor.
    """

    def __init__(self, learner, machine: StateMachine) -> None:
        self.learner = learner
        self.machine = machine
        self.executed: list[Command] = []
        self.results: dict[Command, object] = {}
        self._executed_set: set[Command] = set()
        self._observers: list[Callable[[Command, object], None]] = []
        learner.on_deliver(self._on_deliver)
        register = getattr(learner, "register_replica", None)
        if register is not None:
            register(self)

    def on_execute(self, observer: Callable[[Command, object], None]) -> None:
        self._observers.append(observer)

    def order_signature(self) -> tuple[Command, ...]:
        """The applied command sequence (for cross-replica agreement checks)."""
        return tuple(self.executed)

    def _on_deliver(self, cmd) -> None:
        if cmd in self._executed_set:
            return
        result = self.machine.apply(cmd)
        self.executed.append(cmd)
        self._executed_set.add(cmd)
        self.results[cmd] = result
        for observer in self._observers:
            observer(cmd, result)

    # -- checkpointing ------------------------------------------------------

    def snapshot_state(self):
        """The machine state at the current execution frontier."""
        return self.machine.snapshot()

    def install_snapshot(self, machine_state, executed) -> None:
        """Adopt a checkpoint: machine state plus its executed sequence.

        Adopting a peer checkpoint wholesale preserves replica agreement
        on either engine: under a total order our executed sequence is a
        prefix of the checkpoint's (a pure fast-forward); under the
        generalized order compatible histories order every conflicting
        pair identically, so the states coincide.  With ``machine_state``
        None (a checkpoint taken by a learner with no attached machine,
        or a reset) the state is rebuilt by deterministic replay of
        *executed* from the initial state.  ``results`` of fast-forwarded
        commands are not reconstructed -- clients that need them must
        watch a replica that executed live.
        """
        executed = list(executed)
        if machine_state is None:
            self.machine.restore(None)
            for cmd in executed:
                self.machine.apply(cmd)
        else:
            self.machine.restore(machine_state)
        self.executed = executed
        self._executed_set = set(executed)
        self.results = {}


OrderedReplica = Replica  # the name benchmarks/ledger imports (ROADMAP 2d)
