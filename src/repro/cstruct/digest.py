"""Rolling digests, delta trails and id-interval runs.

The delta wire protocol replaces "re-send the whole c-struct" with
"send the unsent suffix against a stamped base".  A *stamp* is the pair
``(size, digest)`` of a command set: ``size`` orders states on one
monotone stream, and ``digest`` (an XOR of per-command 64-bit hashes,
order-independent because the underlying object is a *set*) detects
divergence -- two honest peers whose stamps match hold the same command
set except with probability ~2^-64 per comparison.  On mismatch the
protocol falls back to a full message (fetch-on-mismatch repair), so a hash collision can cost a redundant transfer but never
correctness: learners still run the quorum/glb machinery on the
reconstructed values.

Three building blocks live here, engine-agnostic:

* :func:`command_hash` / :func:`digest_of` / :func:`digest_add` -- the
  rolling set digest.  Hashing is ``blake2b(repr(cmd))`` rather than
  Python's ``hash()``: the latter is salted per process and would make
  stamps meaningless across OS-process nodes (``net/``).
* :class:`DeltaTrail` -- a bounded ring of recent extensions addressable
  by base stamp, so a responder can answer a stamped catch-up poll with
  exactly the suffix the poller is missing (or a cheap "you're current"
  ack) instead of its full vote.  It serves the generalized engine's
  streams only: there the c-structs are cumulative, so without deltas
  every vote re-ships the whole history.  The instances engine's
  decisions are per instance and need no stamps.
* ``runs_*`` -- sorted disjoint inclusive integer intervals, the compact
  representation behind per-client session windows
  (:mod:`repro.core.sessions`): a client's delivered sequence numbers
  collapse to O(gaps) interval cells instead of O(history) set entries.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable

from repro.cstruct.commands import Command

_DIGEST_BYTES = 8


def command_hash(cmd: object) -> int:
    """A deterministic 64-bit hash of *cmd*, stable across processes.

    Commands are frozen dataclasses whose ``repr`` shows exactly their
    fields (cached non-field state is excluded), so the repr is a
    canonical byte string wherever the command travels.  Memoized on a
    :class:`Command`: every stamp along a delta stream rolls each command
    in again, ~30 times on its way through a cluster.
    """
    if cmd.__class__ is not Command:
        return _blake2b_of_repr(cmd)
    digest = getattr(cmd, "_chash", None)
    if digest is None:
        digest = _blake2b_of_repr(cmd)
        object.__setattr__(cmd, "_chash", digest)
    return digest


def _blake2b_of_repr(cmd: object) -> int:
    raw = repr(cmd).encode("utf-8", "surrogatepass")
    return int.from_bytes(
        hashlib.blake2b(raw, digest_size=_DIGEST_BYTES).digest(), "big"
    )


def digest_of(cmds: Iterable) -> int:
    """The XOR set digest of *cmds* (order-independent)."""
    digest = 0
    for cmd in cmds:
        digest ^= command_hash(cmd)
    return digest


def digest_add(digest: int, cmds: Iterable) -> int:
    """*digest* rolled forward by the (disjoint) additions *cmds*."""
    for cmd in cmds:
        digest ^= command_hash(cmd)
    return digest


class DeltaTrail:
    """A bounded ring of recent extensions, addressable by base stamp.

    ``append`` records each extension together with the (size, digest)
    stamp of the state it extended; ``suffix_from(size, digest)``
    reassembles the concatenation of every extension after a matching
    stamp -- exactly the delta a peer holding that state is missing.
    ``None`` means the stamp is unknown (too old, or a diverged peer):
    the caller falls back to a full transfer.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.size = 0
        self.digest = 0
        self._entries: deque = deque()

    def reset(self, size: int, digest: int) -> None:
        """Forget the trail and restart from the state stamped here."""
        self._entries.clear()
        self.size = size
        self.digest = digest

    def append(self, cmds: Iterable) -> None:
        cmds = tuple(cmds)
        if not cmds:
            return
        self._entries.append((self.size, self.digest, cmds))
        self.size += len(cmds)
        self.digest = digest_add(self.digest, cmds)
        while len(self._entries) > self.limit:
            self._entries.popleft()

    def suffix_from(self, size: int, digest: int) -> tuple | None:
        if size == self.size and digest == self.digest:
            return ()
        out: list = []
        found = False
        for base_size, base_digest, cmds in self._entries:
            if found:
                out.extend(cmds)
            elif base_size == size and base_digest == digest:
                found = True
                out.extend(cmds)
        return tuple(out) if found else None


# -- integer interval runs -----------------------------------------------------
#
# A *runs* value is a sequence of inclusive (lo, hi) pairs, sorted and
# disjoint with gaps of at least one between consecutive runs.  The
# mutating helpers (`runs_add`, `runs_clamp`) work on lists of [lo, hi]
# lists; the pure helpers accept any normalized pair sequence and return
# tuples of tuples (the canonical wire/snapshot form).


def runs_add(runs: list, value: int) -> bool:
    """Insert *value*; True if it was new.  Amortized O(1) for in-order
    arrivals (the common case: sequence numbers), O(log n) otherwise."""
    if not runs:
        runs.append([value, value])
        return True
    last = runs[-1]
    if value == last[1] + 1:
        last[1] = value
        return True
    if last[0] <= value <= last[1]:
        return False
    if value > last[1] + 1:
        runs.append([value, value])
        return True
    lo, hi = 0, len(runs) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        run = runs[mid]
        if value < run[0] - 1:
            hi = mid - 1
        elif value > run[1] + 1:
            lo = mid + 1
        else:
            if run[0] <= value <= run[1]:
                return False
            if value == run[0] - 1:
                run[0] = value
                if mid > 0 and runs[mid - 1][1] + 1 == value:
                    run[0] = runs[mid - 1][0]
                    del runs[mid - 1]
            else:  # value == run[1] + 1
                run[1] = value
                if mid + 1 < len(runs) and runs[mid + 1][0] - 1 == value:
                    run[1] = runs[mid + 1][1]
                    del runs[mid + 1]
            return True
    runs.insert(lo, [value, value])
    return True


def runs_contains(runs, value: int) -> bool:
    lo, hi = 0, len(runs) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        run = runs[mid]
        if value < run[0]:
            hi = mid - 1
        elif value > run[1]:
            lo = mid + 1
        else:
            return True
    return False


def runs_count(runs) -> int:
    return sum(hi - lo + 1 for lo, hi in runs)


def runs_clamp(runs: list, floor: int) -> None:
    """Drop every value <= *floor* (window compaction)."""
    while runs and runs[0][1] <= floor:
        del runs[0]
    if runs and runs[0][0] <= floor:
        runs[0][0] = floor + 1


def runs_merge(a, b) -> tuple:
    """The union of two runs values, normalized."""
    out: list = []
    for lo, hi in sorted([tuple(r) for r in a] + [tuple(r) for r in b]):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def runs_intersect(a, b) -> tuple:
    out: list = []
    a = [tuple(r) for r in a]
    b = [tuple(r) for r in b]
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def runs_issubset(a, b) -> bool:
    return runs_intersect(a, b) == tuple(tuple(r) for r in a)
