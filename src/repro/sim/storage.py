"""Stable storage with write accounting and log compaction.

Section 4.4 of the paper argues about the cost of the protocols in *disk
writes*: acceptors must persist every accepted value, while coordinators
never need stable storage.  :class:`StableStorage` models a per-process
durable key/value store whose contents survive crashes, and counts every
write so benchmarks (experiment E6) can report exact disk-write totals.

Prefix-keyed journals
---------------------

Per-instance protocol records (acceptor votes, most prominently) are kept
as *journals*: a key prefix plus an integer index, written with
:meth:`StableStorage.append` and read back in index order with
:meth:`StableStorage.prefix_items`.  Journals are the unit of log
compaction: once a checkpoint makes every record below some instance
redundant, :meth:`StableStorage.truncate_below` drops the whole prefix
range in a single (batched) disk write and durably records the new
*floor*, so a recovering process can distinguish "truncated because
snapshotted" from "never written".  :meth:`StableStorage.clear` is scoped
per prefix for the same reason -- a recovery path that needs one journal
wiped must not clobber unrelated keys.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator

#: Separator between a journal prefix and its integer index.
PREFIX_SEP = ":"


class StableStorage:
    """Durable per-process key/value store with a write counter.

    The store survives :meth:`repro.core.runtime.Process.crash`; volatile
    process state does not.  Values are expected to be immutable (the
    protocol implementations only store tuples, frozen dataclasses and
    c-structs), so no defensive copying is performed.

    ``write_count`` counts disk writes (a group write is one).
    ``write_counts`` counts the values written per plain key, and per
    journal *prefix* for journal entries (``write_counts["vote"]`` is
    every vote ever journalled), so it holds one counter per name the
    protocol writes under, not one per entry that truncation has since
    dropped.
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._data: dict[str, Any] = {}
        self._floors: dict[str, int] = {}  # journal prefix -> truncation floor
        self.write_count = 0
        self.read_count = 0
        self.truncate_count = 0
        self.write_counts: Counter = Counter()  # per key / journal prefix

    def write(self, key: str, value: Any) -> None:
        """Persist *value* under *key*, counting one disk write."""
        self._data[key] = value
        self.write_count += 1
        self.write_counts[key] += 1

    def write_many(self, items: dict[str, Any]) -> None:
        """Persist several keys with a *single* disk write.

        Models the common implementation trick of batching the fields of a
        protocol state record (vrnd, vval) into one synchronous write.
        """
        self._data.update(items)
        self.write_count += 1
        for key in items:
            self.write_counts[key] += 1

    def read(self, key: str, default: Any = None) -> Any:
        """Return the value stored under *key*, or *default*."""
        self.read_count += 1
        return self._data.get(key, default)

    # -- prefix-keyed journals (compaction unit) ---------------------------

    @staticmethod
    def journal_key(prefix: str, index: int) -> str:
        return f"{prefix}{PREFIX_SEP}{index}"

    @staticmethod
    def _journal_index(key: str, head: str) -> int | None:
        """The entry index if *key* is a journal entry of *head*, else None.

        The single accept/reject rule for journal membership, shared by
        every prefix operation so they cannot drift apart.
        """
        if not key.startswith(head):
            return None
        try:
            return int(key[len(head):])
        except ValueError:
            return None

    def _journal_entries(self, prefix: str) -> list[tuple[int, str]]:
        """Unsorted ``(index, key)`` pairs of the *prefix* journal."""
        head = prefix + PREFIX_SEP
        entries = []
        for key in self._data:
            index = self._journal_index(key, head)
            if index is not None:
                entries.append((index, key))
        return entries

    def append(self, prefix: str, index: int, value: Any) -> None:
        """Journal *value* as entry *index* of the *prefix* journal.

        One disk write, like :meth:`write`; the entry is addressable as
        ``f"{prefix}:{index}"`` and participates in prefix truncation.
        """
        self._data[self.journal_key(prefix, index)] = value
        self.write_count += 1
        self.write_counts[prefix] += 1

    def append_many(self, prefix: str, start_index: int, values) -> None:
        """Journal *values* as consecutive entries from *start_index* on.

        A single disk write for the whole group (the journal analogue of
        :meth:`write_many` -- real implementations group-commit one
        segment append).  The generalized engine uses it to journal a
        batch-accept's fresh command delta without paying one synchronous
        write per command.
        """
        values = list(values)
        if not values:
            return
        for offset, value in enumerate(values):
            self._data[self.journal_key(prefix, start_index + offset)] = value
        self.write_count += 1
        self.write_counts[prefix] += len(values)

    def prefix_items(self, prefix: str) -> list[tuple[int, Any]]:
        """All ``(index, value)`` journal entries of *prefix*, index order."""
        self.read_count += 1
        return [
            (index, self._data[key])
            for index, key in sorted(self._journal_entries(prefix))
        ]

    def prefix_count(self, prefix: str) -> int:
        """Number of retained journal entries under *prefix* (no I/O cost:
        an in-memory index in a real implementation)."""
        return len(self._journal_entries(prefix))

    def truncate_below(self, prefix: str, bound: int) -> int:
        """Drop every *prefix* journal entry with index < *bound*.

        The whole compaction -- deleting the range and durably recording
        the new floor -- costs a single disk write (real implementations
        rewrite one segment header or advance a start offset).  Returns
        the number of entries removed.  The floor is monotone: truncating
        below a lower bound than the current floor is a no-op.
        """
        if bound <= self._floors.get(prefix, 0):
            return 0
        doomed = [
            key for index, key in self._journal_entries(prefix) if index < bound
        ]
        for key in doomed:
            del self._data[key]
        self._floors[prefix] = bound
        self.write_count += 1
        self.truncate_count += 1
        return len(doomed)

    def floor(self, prefix: str) -> int:
        """The durably recorded truncation floor of the *prefix* journal.

        Entries below the floor were compacted away *after* being covered
        by a checkpoint -- a recovering process must treat them as
        snapshotted, not lost.  0 if the journal was never truncated.
        """
        return self._floors.get(prefix, 0)

    # -- housekeeping ------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def delete(self, key: str) -> None:
        """Remove *key* (one disk write); missing keys are a no-op."""
        if key in self._data:
            del self._data[key]
            self.write_count += 1

    def clear(self, prefix: str | None = None) -> None:
        """Erase stored state, scoped to one journal *prefix* if given.

        ``clear()`` erases everything (used by tests modelling total disk
        loss); ``clear(prefix)`` erases only that journal's entries and its
        truncation floor, leaving unrelated keys intact -- recovery paths
        that need one journal wiped must not clobber the rest.
        """
        if prefix is None:
            self._data.clear()
            self._floors.clear()
            return
        for _, key in self._journal_entries(prefix):
            del self._data[key]
        self._floors.pop(prefix, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StableStorage(owner={self.owner!r}, keys={sorted(self._data)}, "
            f"writes={self.write_count})"
        )
