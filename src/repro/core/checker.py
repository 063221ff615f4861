"""Offline trace checker: linearizability + c-struct invariants.

:mod:`repro.core.invariants` asserts spec-level safety *inside* a run
(decisions per round, chosen c-structs).  This module promotes those
obligations to **trace level**: roles record append-only event traces
(proposes, deliveries, checkpoint adoptions, client invoke/complete),
and :func:`check_trace` validates the client-visible claims after the
fact:

* **per-key total order** -- every site's per-key sequence of
  conflicting (non-read) commands is prefix-compatible with every
  other's, across replicas, engines, groups, crashes and checkpoint
  adoptions (prefix-compatibility is checked against the longest
  sequence, which two-way-covers pairwise compatibility);
* **read anchoring** -- a read conflicts with writes, so the number of
  writes ordered before it must agree wherever it executes;
* **no decision regression** -- recovery replays and snapshot installs
  open new *epochs*; every epoch joins the same pool and must stay
  prefix-compatible, so an order that "comes back different" after a
  crash is a reported divergence;
* **result agreement + linearizability of results** -- all sites report
  the same result per command, and replaying the agreed per-key witness
  order (writes in agreed order, reads at their anchors) through the KV
  semantics must reproduce every recorded result;
* **real-time order** -- if a command completed before another was
  invoked (client-side timestamps) the witness must order them that
  way;
* **nontriviality** -- only proposed commands are delivered.

On violation the checker reports a minimal counterexample window: the
key, the two sites, and the sequences around the first divergent
position.

The module doubles as a CLI for CI's must-be-red self-test::

    PYTHONPATH=src python -m repro.core.checker trace.json

exits 1 iff the trace violates an invariant.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Sequence

#: Sentinel for "no result was recorded" (``None`` is a real KV result).
UNRECORDED = "__unrecorded__"

_READ_OPS = frozenset({"get"})
_KNOWN_OPS = frozenset({"put", "get", "inc", "cas"})


def _plain(value: Any) -> Any:
    """Normalize tuples to lists so in-memory and JSON traces compare equal."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One append-only trace record.

    Kinds: ``propose`` (a command entered the system), ``deliver`` (a
    site delivered/executed a command under one key), ``adopt`` (a site
    replaced its delivered sequence with a checkpoint's -- ``seq`` holds
    ``(cid, op, key, arg)`` rows), ``invoke``/``complete`` (client-side
    real-time interval of a command).
    """

    t: float
    site: str
    kind: str
    cid: str = ""
    op: str = ""
    key: str = ""
    arg: Any = None
    result: Any = UNRECORDED
    incarnation: int = 0
    seq: tuple = ()


def trace_to_json(events: Sequence[TraceEvent]) -> str:
    return json.dumps([asdict(e) for e in events], default=str)


def trace_from_json(text: str) -> list[TraceEvent]:
    out = []
    for row in json.loads(text):
        row["seq"] = tuple(tuple(entry) for entry in row.get("seq", ()))
        out.append(TraceEvent(**row))
    return out


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class TraceRecorder:
    """Subscribes to role hooks and accumulates an append-only trace.

    One recorder can watch several deployments at once (sites are named
    by pid / replica label, already namespaced per engine and group).
    Client-side real-time stamps come from :meth:`note_client`, which
    reads them off the client after the run: only the client knows when
    a command left it and when its completion landed.
    """

    def __init__(self, sim=None) -> None:
        self.events: list[TraceEvent] = []
        self._sim = sim

    @property
    def _now(self) -> float:
        return float(self._sim.clock) if self._sim is not None else 0.0

    def record(self, **kw) -> None:
        self.events.append(TraceEvent(t=self._now, **kw))

    # -- client / harness side --------------------------------------------

    def note_propose(self, cmd) -> None:
        self.record(
            site="client", kind="propose", cid=cmd.cid, op=cmd.op, key=cmd.key,
            arg=_plain(cmd.arg),
        )

    def note_client(self, client) -> None:
        """Add *client*'s real-time intervals, from its own records.

        Called once the run is over: every issued command is invoked at
        its issue time, and only a command the client saw complete gets
        a ``complete``, at that time -- one still in flight stays open to
        the end, which is what the real-time check must assume of it.
        """
        for cmd, at in client.issue_times.items():
            self.events.append(TraceEvent(
                t=at, site="client", kind="invoke", cid=cmd.cid, op=cmd.op,
                key=cmd.key, arg=_plain(cmd.arg),
            ))
            if cmd in client.completed:
                self.events.append(TraceEvent(
                    t=client.completed[cmd], site="client", kind="complete", cid=cmd.cid
                ))

    # -- role side ---------------------------------------------------------

    def _record_deliver(self, site: str, cmd, incarnation: int = 0, result=UNRECORDED) -> None:
        if getattr(cmd, "cid", None) is None:
            return
        self.record(
            site=site, kind="deliver", cid=cmd.cid, op=cmd.op, key=cmd.key,
            arg=_plain(cmd.arg), incarnation=incarnation, result=result,
        )

    def _watch_adopt(self, learner, site: str) -> None:
        """Record checkpoint adoptions as the recording site's new prefix.

        Both the learner's own delivered sequence and its attached
        replica's executed sequence are replaced wholesale by
        ``_adopt_checkpoint`` (the replica via ``install_snapshot``), so
        one adopt event covers whichever of the two feeds *site*.
        """

        def on_adopt(frontier: int, delivered: tuple) -> None:
            seq = tuple(
                (c.cid, c.op, c.key, _plain(c.arg))
                for c in delivered
                if getattr(c, "cid", None) is not None
            )
            self.record(
                site=site, kind="adopt",
                incarnation=learner.crash_count, seq=seq,
            )

        learner.on_adopt(on_adopt)

    def attach(self, handle, replicas: Sequence | None = None) -> None:
        """Watch every learner *handle* holds (either engine).

        With *replicas* (one ``Replica`` per learner, in learner order)
        deliveries are recorded at the replica's execution point and
        carry machine results; otherwise at the learner's delivery
        stream, order-only.
        """
        for index, learner in enumerate(handle.learners):
            if replicas is None:
                site = learner.pid

                def on_deliver(cmd, l=learner, s=site) -> None:
                    self._record_deliver(s, cmd, incarnation=l.crash_count)

                learner.on_deliver(on_deliver)
            else:
                site = f"{learner.pid}.replica"

                def on_execute(cmd, result, l=learner, s=site) -> None:
                    self._record_deliver(
                        s, cmd, incarnation=l.crash_count, result=_plain(result)
                    )

                replicas[index].on_execute(on_execute)
            self._watch_adopt(learner, site)

    # The names ``benchmarks/ledger`` calls (frozen; ROADMAP item 2d).
    attach_smr = attach_generalized = attach

    def attach_sharded(self, deployment) -> None:
        """Watch every replica of a ``ShardedDeployment``.

        Cross-shard commands are recorded once per owned key; results of
        multi-key projections are not recorded (their machine result is
        the last projection's, not a client-meaningful value).
        """
        shard_map = deployment.shard_map
        for gid, replicas in enumerate(deployment.replicas):
            for site, replica in enumerate(replicas):
                label = f"g{gid}.replica{site}"

                def on_execute(cmd, result, gid=gid, label=label) -> None:
                    keys = shard_map.owned_keys(cmd, gid)
                    if not keys:
                        return
                    recorded = _plain(result) if len(keys) == 1 else UNRECORDED
                    for key in keys:
                        self.record(
                            site=label, kind="deliver", cid=cmd.cid, op=cmd.op,
                            key=key, arg=_plain(cmd.arg), result=recorded,
                        )

                replica.on_execute(on_execute)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    window: tuple = ()

    def render(self) -> str:
        lines = [f"[{self.kind}] {self.detail}"]
        lines.extend(f"    {w}" for w in self.window)
        return "\n".join(lines)


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)
    events: int = 0
    sites: int = 0
    keys: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (
            f"trace: {self.events} events, {self.sites} sites, "
            f"{self.keys} keys -> "
            f"{'OK' if self.ok else f'{len(self.violations)} violation(s)'}"
        )
        return "\n".join([head] + [v.render() for v in self.violations])


@dataclass
class _Epoch:
    """One contiguous delivery regime at one site.

    A new epoch opens when a site re-delivers a command it already
    delivered (replay-from-scratch recovery) or adopts a checkpoint
    (its sequence is replaced wholesale).  Every closed epoch joins the
    pool and is checked against every other -- which is exactly the
    no-regression-across-recovery obligation.
    """

    tag: str
    seen: set = field(default_factory=set)  # (cid, key) pairs
    perkey: dict = field(default_factory=dict)  # key -> list[(cid, is_write)]

    def add(self, cid: str, key: str, is_write: bool) -> None:
        self.seen.add((cid, key))
        self.perkey.setdefault(key, []).append((cid, is_write))


def _window(
    key: str, tag_a: str, seq_a: list, tag_b: str, seq_b: list, pos: int
) -> tuple:
    lo = max(0, pos - 3)
    return (
        f"key {key!r} first divergence at position {pos}",
        f"{tag_a}: ... {seq_a[lo:pos + 4]}",
        f"{tag_b}: ... {seq_b[lo:pos + 4]}",
    )


def _apply_kv(state: dict, key: str, op: str, arg: Any) -> Any:
    """Replay one op with the KVStore semantics; returns its result."""
    if op == "put":
        state[key] = arg
        return arg
    if op == "get":
        return state.get(key)
    if op == "inc":
        state[key] = state.get(key, 0) + (arg if arg is not None else 1)
        return state[key]
    if op == "cas":
        expected, new = arg
        if _plain(state.get(key)) == _plain(expected):
            state[key] = new
            return True
        return False
    return UNRECORDED  # unknown op: no expectation


def check_trace(
    events: Iterable[TraceEvent], read_ops: frozenset = _READ_OPS
) -> CheckReport:
    """Validate a trace; returns a report with all violations found."""
    events = list(events)
    report = CheckReport(events=len(events))

    # -- phase 1: fold events into per-site epochs ------------------------
    current: dict[str, _Epoch] = {}
    epoch_counter: dict[str, int] = {}
    pool: list[_Epoch] = []
    info: dict[str, tuple] = {}  # cid -> (op, arg) for replay
    results: dict[str, dict[str, Any]] = {}  # cid -> site -> recorded result
    proposed: set = set()
    delivered_cids: set = set()
    invoke_t: dict[str, float] = {}
    complete_t: dict[str, float] = {}

    def fresh(site: str) -> _Epoch:
        n = epoch_counter.get(site, 0)
        epoch_counter[site] = n + 1
        epoch = _Epoch(tag=f"{site}#e{n}")
        current[site] = epoch
        return epoch

    def close(site: str) -> None:
        epoch = current.get(site)
        if epoch is not None and epoch.perkey:
            pool.append(epoch)

    for ev in events:
        if ev.kind == "propose":
            proposed.add(ev.cid)
            info.setdefault(ev.cid, (ev.op, ev.arg))
        elif ev.kind == "invoke":
            proposed.add(ev.cid)
            info.setdefault(ev.cid, (ev.op, ev.arg))
            invoke_t.setdefault(ev.cid, ev.t)
        elif ev.kind == "complete":
            complete_t.setdefault(ev.cid, ev.t)
        elif ev.kind == "deliver":
            delivered_cids.add(ev.cid)
            info.setdefault(ev.cid, (ev.op, ev.arg))
            if ev.result != UNRECORDED:
                results.setdefault(ev.cid, {})[ev.site] = _plain(ev.result)
            epoch = current.get(ev.site)
            if epoch is None:
                epoch = fresh(ev.site)
            elif (ev.cid, ev.key) in epoch.seen:
                # Re-delivery: a recovery replayed history from (or back
                # past) this command -- open a new epoch.
                close(ev.site)
                epoch = fresh(ev.site)
            epoch.add(ev.cid, ev.key, ev.op not in read_ops)
        elif ev.kind == "adopt":
            close(ev.site)
            epoch = fresh(ev.site)
            for row in ev.seq:
                cid, op, key = row[0], row[1], row[2]
                if len(row) > 3:
                    info.setdefault(cid, (op, row[3]))
                delivered_cids.add(cid)
                if key:
                    epoch.add(cid, key, op not in read_ops)
    for site in sorted(current):
        close(site)

    report.sites = len(epoch_counter)
    all_keys = sorted({key for epoch in pool for key in epoch.perkey})
    report.keys = len(all_keys)

    # -- phase 2: nontriviality -------------------------------------------
    if proposed:
        ghosts = sorted(delivered_cids - proposed)
        for cid in ghosts[:5]:
            report.violations.append(
                Violation("nontriviality", f"delivered cid {cid!r} was never proposed")
            )

    # -- phase 3: per-key order agreement ---------------------------------
    witnesses: dict[str, list] = {}  # key -> agreed write order (cids)
    anchors: dict[str, dict[str, int]] = {}  # key -> read cid -> #writes before
    for key in all_keys:
        entries = []  # (epoch tag, write seq, read anchors)
        for epoch in pool:
            seq = epoch.perkey.get(key)
            if not seq:
                continue
            writes = [cid for cid, is_write in seq if is_write]
            reads = {}
            wcount = 0
            for cid, is_write in seq:
                if is_write:
                    wcount += 1
                else:
                    reads[cid] = wcount
            entries.append((epoch.tag, writes, reads))
        longest = max(entries, key=lambda e: len(e[1]))
        witnesses[key] = longest[1]
        # Every write sequence must be a prefix of the longest (prefix-
        # compatibility against the longest covers pairwise: two prefixes
        # of one sequence are comparable).
        for tag, writes, _reads in entries:
            for pos, cid in enumerate(writes):
                if longest[1][pos] != cid:
                    report.violations.append(
                        Violation(
                            "order-divergence",
                            f"sites {tag} and {longest[0]} disagree on the "
                            f"write order of key {key!r}",
                            _window(key, tag, writes, longest[0], longest[1], pos),
                        )
                    )
                    break
        # Read anchors: the number of writes ordered before a read is
        # fixed by the conflict relation; all sites must agree.
        agreed: dict[str, tuple[int, str]] = {}
        for tag, _writes, reads in entries:
            for cid, anchor in reads.items():
                prior = agreed.get(cid)
                if prior is None:
                    agreed[cid] = (anchor, tag)
                elif prior[0] != anchor:
                    report.violations.append(
                        Violation(
                            "read-anchor",
                            f"read {cid!r} on key {key!r} executes after "
                            f"{prior[0]} writes at {prior[1]} but after "
                            f"{anchor} writes at {tag}",
                        )
                    )
        anchors[key] = {cid: anchor for cid, (anchor, _tag) in agreed.items()}

    # -- phase 4: result agreement + replay -------------------------------
    for cid in sorted(results):
        values = results[cid]
        distinct = {json.dumps(v, sort_keys=True, default=str) for v in values.values()}
        if len(distinct) > 1:
            report.violations.append(
                Violation(
                    "result-divergence",
                    f"sites report different results for {cid!r}: "
                    f"{sorted((s, values[s]) for s in values)}",
                )
            )
    for key in all_keys:
        state: dict = {}
        poisoned = False
        reads_at: dict[int, list[str]] = {}
        for cid, anchor in anchors[key].items():
            reads_at.setdefault(anchor, []).append(cid)
        for pos in range(len(witnesses[key]) + 1):
            for cid in sorted(reads_at.get(pos, ())):
                if poisoned or cid not in info:
                    continue
                expected = state.get(key)
                _check_result(report, results, cid, key, expected)
            if pos == len(witnesses[key]):
                break
            cid = witnesses[key][pos]
            if cid not in info or info[cid][0] not in _KNOWN_OPS:
                poisoned = True  # unknown op/arg: later values undefined
                continue
            if poisoned:
                continue
            op, arg = info[cid]
            expected = _apply_kv(state, key, op, arg)
            if expected != UNRECORDED:
                _check_result(report, results, cid, key, expected)

    # -- phase 5: real-time order -----------------------------------------
    inf = float("inf")
    for key in all_keys:
        writes = witnesses[key]
        n = len(writes)
        invokes = [invoke_t.get(cid, -inf) for cid in writes]
        completes = [complete_t.get(cid, inf) for cid in writes]
        # sufmin[i] = (min completion among writes at positions >= i, pos)
        sufmin: list[tuple[float, int]] = [(inf, -1)] * (n + 1)
        for i in range(n - 1, -1, -1):
            sufmin[i] = min(sufmin[i + 1], (completes[i], i))
        premax: list[tuple[float, int]] = [(-inf, -1)] * (n + 1)
        for i in range(n):
            premax[i + 1] = max(premax[i], (invokes[i], i))
        for i in range(n):
            later_min, later_pos = sufmin[i + 1]
            if later_min < invokes[i]:
                report.violations.append(
                    Violation(
                        "real-time",
                        f"key {key!r}: write {writes[later_pos]!r} completed "
                        f"at {later_min} before write {writes[i]!r} was "
                        f"invoked at {invokes[i]}, yet the agreed order "
                        f"puts it after",
                    )
                )
        for cid, anchor in sorted(anchors[key].items()):
            r_invoke = invoke_t.get(cid, -inf)
            r_complete = complete_t.get(cid, inf)
            later_min, later_pos = sufmin[anchor]
            if later_min < r_invoke:
                report.violations.append(
                    Violation(
                        "real-time",
                        f"key {key!r}: write {writes[later_pos]!r} completed "
                        f"before read {cid!r} was invoked, yet the agreed "
                        f"order puts the write after the read",
                    )
                )
            earlier_max, earlier_pos = premax[anchor]
            if r_complete < earlier_max:
                report.violations.append(
                    Violation(
                        "real-time",
                        f"key {key!r}: read {cid!r} completed before write "
                        f"{writes[earlier_pos]!r} was invoked, yet the "
                        f"agreed order puts the read after the write",
                    )
                )
    return report


def _check_result(
    report: CheckReport, results: dict, cid: str, key: str, expected: Any
) -> None:
    for site, observed in sorted(results.get(cid, {}).items()):
        if _plain(observed) != _plain(expected):
            report.violations.append(
                Violation(
                    "result-mismatch",
                    f"{site} recorded result {observed!r} for {cid!r} on key "
                    f"{key!r}; replaying the agreed order yields "
                    f"{expected!r}",
                )
            )


# ---------------------------------------------------------------------------
# CLI (CI must-be-red self-test entry point)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.checker",
        description="Validate a recorded trace against the consistency "
        "invariants; exits 1 on violation.",
    )
    parser.add_argument("trace", help="path to a trace JSON file")
    args = parser.parse_args(argv)
    with open(args.trace) as fh:
        events = trace_from_json(fh.read())
    report = check_trace(events)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
