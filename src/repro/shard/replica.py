"""Sharded replicas: per-group total order + merge-group barrier splices.

Each engine group delivers its own total order of single-shard commands.
A cross-shard command is *not* in that stream; instead the router plants
a **barrier** placeholder in every owning group and proposes the real
command to the merge group's generalized engine.  A replica executing
its group's stream stalls at a barrier until the merge group has learned
the barrier's command, then executes the command's *ancestor closure*
in the merge history -- the conflicting cross-shard commands ordered
before it -- restricted to commands touching this group, in a
deterministic topological order.

Why the ancestor closure and not a linear-extension prefix: replicas of
different groups (and laggard replicas of the same group) observe the
merge history at different sizes, so any "execute everything learned so
far" rule would splice *unrelated* cross-shard commands at different
barrier points on different replicas.  The closure of a learned command,
by contrast, is final and identical at every learner (learned histories
grow compatibly, and compatible histories agree on every shared
command's predecessor set), so every replica of every owning group
splices exactly the same conflicting commands in exactly the same
relative order -- the per-key order agrees everywhere.

A command pulled forward by one barrier's closure is skipped when its
own barrier later reaches the head of the group stream (the
``_executed_cids`` check), keeping execution exactly-once per replica.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from repro.cstruct.commands import Command
from repro.cstruct.sharding import ShardMap

#: The op of a barrier placeholder sequenced by an owning group.
BARRIER_OP = "__xbar__"


def barrier_command(bid: int, group: int, cmd: Command) -> Command:
    """The placeholder group *group* sequences for cross-shard *cmd*.

    Keyless on purpose: barriers must be totally ordered *within their
    group stream* (the instances engine already does that) but must not
    key-conflict with anything.  The cid embeds the barrier id and group
    so it is unique per (command, group) and -- containing no trailing
    ``:<digits>`` -- falls into the session layer's exact overflow set
    rather than a client window.
    """
    return Command(f"xb{bid}@g{group}", BARRIER_OP, "", (bid, cmd.cid))


class ShardReplica:
    """One site's state machine for one group of a sharded deployment.

    Subscribes to the group's learner (the total order of single-shard
    commands and barriers) and to the co-sited merge-group learner (the
    c-struct of cross-shard commands).  Applies to ``machine`` only the
    keys this group owns: a cross-shard command executes once per owning
    group, each group applying its own key projection.
    """

    def __init__(
        self,
        group: int,
        shard_map: ShardMap,
        learner,
        merge_learner,
        machine=None,
    ) -> None:
        if machine is None:
            from repro.smr.machine import KVStore

            machine = KVStore()
        self.group = group
        self.shard_map = shard_map
        self.machine = machine
        self.executed: list[Command] = []
        self.results: dict[str, Hashable] = {}
        self.key_orders: dict[str, list[str]] = {}
        self.barriers_crossed = 0
        self._executed_cids: set[str] = set()
        self._pending: deque[Command] = deque()
        self._merge_index: dict[str, Command] = {}
        self._merge_learner = merge_learner
        self._observers: list[Callable[[Command, Hashable], None]] = []
        learner.on_deliver(self._on_deliver)
        merge_learner.on_deliver(self._on_merge_deliver)

    def on_execute(self, observer: Callable[[Command, Hashable], None]) -> None:
        """Register ``observer(cmd, result)``, fired per executed command."""
        self._observers.append(observer)

    def has_executed(self, cmd: Command) -> bool:
        return cmd.cid in self._executed_cids

    def order_signature(self) -> tuple[str, ...]:
        """The executed cid sequence (for replica-agreement assertions)."""
        return tuple(cmd.cid for cmd in self.executed)

    # -- learner feeds -------------------------------------------------------

    def _on_deliver(self, cmd: Command) -> None:
        self._pending.append(cmd)
        self._drain()

    def _on_merge_deliver(self, cmd: Command) -> None:
        self._merge_index[cmd.cid] = cmd
        self._drain()

    # -- execution -----------------------------------------------------------

    def _drain(self) -> None:
        while self._pending:
            head = self._pending[0]
            if head.op != BARRIER_OP:
                self._pending.popleft()
                if head.cid not in self._executed_cids:
                    self._execute(head)
                continue
            _bid, cid = head.arg
            if cid in self._executed_cids:
                # Pulled forward by an earlier barrier's closure.
                self._pending.popleft()
                continue
            target = self._merge_index.get(cid)
            if target is None:
                return  # stall: the merge group has not learned it yet
            self._pending.popleft()
            self.barriers_crossed += 1
            self._execute_closure(target)

    def _execute_closure(self, target: Command) -> None:
        """Execute *target* and its unexecuted merge-history ancestors.

        The closure walk prunes at already-executed commands: their own
        ancestors were executed with them (closures are downward closed),
        so the frontier of new work stays O(new commands).
        """
        history = self._merge_learner.learned
        closure: dict[Command, frozenset] = {}
        stack = [target]
        while stack:
            cmd = stack.pop()
            if cmd in closure or cmd.cid in self._executed_cids:
                continue
            preds = history.predecessors(cmd)
            closure[cmd] = preds
            stack.extend(sorted(preds))
        # Deterministic Kahn order over the closure sub-digraph: always
        # take the minimum ready command, so every replica (whatever its
        # closure dict insertion order) executes the same sequence.
        remaining = {
            cmd: {p for p in preds if p in closure}
            for cmd, preds in closure.items()
        }
        while remaining:
            ready = min(c for c, ps in remaining.items() if not ps)
            del remaining[ready]
            for ps in remaining.values():
                ps.discard(ready)
            self._execute(ready)

    def _execute(self, cmd: Command) -> None:
        owned = self.shard_map.owned_keys(cmd, self.group)
        if not owned:
            # A cross-shard ancestor touching only other groups: record
            # it as executed (so its own barrier later skips) without
            # applying anything here.
            if self.shard_map.groups_of(cmd):
                self._executed_cids.add(cmd.cid)
                return
            # Keyless command routed to this group: apply as-is.
            result = self.machine.apply(cmd)
        elif owned == (cmd.key,):
            result = self.machine.apply(cmd)
        else:
            # Key projection of a multi-key command: apply per owned key,
            # in written order (the same at every replica).
            result = None
            for key in owned:
                result = self.machine.apply(Command(cmd.cid, cmd.op, key, cmd.arg))
        self.executed.append(cmd)
        self._executed_cids.add(cmd.cid)
        self.results[cmd.cid] = result
        for key in owned:
            self.key_orders.setdefault(key, []).append(cmd.cid)
        for observer in self._observers:
            observer(cmd, result)
