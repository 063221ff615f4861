"""Stable storage: durability semantics and write accounting."""

from repro.sim.storage import StableStorage


def test_write_then_read():
    storage = StableStorage("a")
    storage.write("k", 42)
    assert storage.read("k") == 42


def test_read_default():
    assert StableStorage().read("missing", "fallback") == "fallback"


def test_write_count_increments_per_write():
    storage = StableStorage()
    storage.write("a", 1)
    storage.write("a", 2)
    storage.write("b", 3)
    assert storage.write_count == 3


def test_write_many_is_one_disk_write():
    storage = StableStorage()
    storage.write_many({"vrnd": 1, "vval": "x"})
    assert storage.write_count == 1
    assert storage.read("vrnd") == 1
    assert storage.read("vval") == "x"


def test_per_key_write_counts():
    storage = StableStorage()
    storage.write("rnd", 1)
    storage.write("rnd", 2)
    storage.write_many({"vrnd": 1, "vval": "x"})
    assert storage.write_counts["rnd"] == 2
    assert storage.write_counts["vrnd"] == 1
    assert storage.write_counts["vval"] == 1


def test_contains_and_keys():
    storage = StableStorage()
    storage.write("a", 1)
    assert "a" in storage
    assert "b" not in storage
    assert list(storage.keys()) == ["a"]


def test_read_count_increments():
    storage = StableStorage()
    storage.read("a")
    storage.read("b")
    assert storage.read_count == 2


def test_clear_erases_but_keeps_counters():
    storage = StableStorage()
    storage.write("a", 1)
    storage.clear()
    assert "a" not in storage
    assert storage.write_count == 1


# -- prefix-keyed journals and compaction -------------------------------------


def test_append_and_prefix_items_in_index_order():
    storage = StableStorage()
    storage.append("vote", 3, "c")
    storage.append("vote", 1, "a")
    storage.append("vote", 2, "b")
    assert storage.prefix_items("vote") == [(1, "a"), (2, "b"), (3, "c")]
    assert storage.prefix_count("vote") == 3
    assert storage.read("vote:2") == "b"  # addressable like any key
    assert storage.write_count == 3  # one disk write per journal append


def test_prefix_items_ignores_other_prefixes_and_non_indices():
    storage = StableStorage()
    storage.append("vote", 1, "a")
    storage.append("other", 2, "x")
    storage.write("vote:meta", "not an entry")
    storage.write("votes:1", "different prefix")
    assert storage.prefix_items("vote") == [(1, "a")]
    assert storage.prefix_count("vote") == 1


def test_truncate_below_compacts_and_records_durable_floor():
    storage = StableStorage()
    for i in range(6):
        storage.append("vote", i, f"v{i}")
    writes = storage.write_count
    removed = storage.truncate_below("vote", 4)
    assert removed == 4
    assert storage.prefix_items("vote") == [(4, "v4"), (5, "v5")]
    assert storage.floor("vote") == 4
    # The whole compaction is one batched disk write.
    assert storage.write_count == writes + 1
    assert storage.truncate_count == 1


def test_truncate_below_is_monotone():
    storage = StableStorage()
    storage.append("vote", 0, "a")
    storage.truncate_below("vote", 3)
    assert storage.truncate_below("vote", 2) == 0  # lower bound: no-op
    assert storage.floor("vote") == 3
    storage.append("vote", 5, "b")
    assert storage.truncate_below("vote", 6) == 1
    assert storage.floor("vote") == 6


def test_truncate_leaves_unrelated_keys_alone():
    storage = StableStorage()
    storage.write("rnd", 7)
    storage.append("vote", 0, "a")
    storage.append("snap", 0, "s")
    storage.truncate_below("vote", 10)
    assert storage.read("rnd") == 7
    assert storage.prefix_items("snap") == [(0, "s")]


def test_clear_scoped_to_one_prefix():
    """The all-or-nothing clear() bug: scoped recovery wipes must not
    clobber unrelated journals or flat keys."""
    storage = StableStorage()
    storage.write("rnd", 7)
    storage.append("vote", 0, "a")
    storage.append("vote", 1, "b")
    storage.append("snap", 0, "s")
    storage.truncate_below("vote", 1)
    storage.clear("vote")
    assert storage.prefix_count("vote") == 0
    assert storage.floor("vote") == 0  # the journal restarts from scratch
    assert storage.read("rnd") == 7
    assert storage.prefix_items("snap") == [(0, "s")]
    storage.clear()  # unscoped: everything goes
    assert "rnd" not in storage
    assert storage.prefix_count("snap") == 0


def test_delete_single_key():
    storage = StableStorage()
    storage.write("a", 1)
    writes = storage.write_count
    storage.delete("a")
    assert "a" not in storage
    assert storage.write_count == writes + 1
    storage.delete("missing")  # no-op, no write
    assert storage.write_count == writes + 1


def test_journal_writes_are_counted_under_their_prefix():
    """A long-lived journal keeps one counter per prefix, not one per entry
    that truncation has long since dropped."""
    storage = StableStorage()
    for index in range(1_000):
        storage.append("vote", index, ("r", index))
        if index % 2:
            storage.append_many("gvote", index, ["a", "b"])
        if index % 50 == 49:
            storage.truncate_below("vote", index)
            storage.truncate_below("gvote", index)
    storage.write("rnd", 1)
    assert dict(storage.write_counts) == {"vote": 1_000, "gvote": 1_000, "rnd": 1}
    assert storage.prefix_count("vote") == 1  # entry 999: the rest is truncated
