"""Digraph c-struct ops ≡ the paper-verbatim oracle, at scale.

The incremental constraint-digraph implementation of
:mod:`repro.cstruct.history` (per-command conflicting-predecessor sets,
suffix-diff ``leq``, one-pass digraph merges for ``lub``/``is_compatible``)
is validated here against the paper's recursive operators
(:mod:`repro.cstruct.history_ops`) on randomized histories of up to ~64
commands across conflict densities:

* dense  -- every pair conflicts (``AlwaysConflict``);
* moderate -- a few shared keys (``KeyConflict`` over 3 keys, some reads);
* sparse -- many keys (``KeyConflict`` over 12 keys);
* empty  -- nothing conflicts (``NeverConflict``).

A second group of regression tests pins the ``_trusted`` fast paths: every
operation's output must carry a canonical sequence *and* a predecessor map
identical to a from-scratch rebuild -- the fast paths may never skip
canonicalization invariants.
"""

from hypothesis import given, settings, strategies as st

from repro.cstruct import history_ops as ops
from repro.cstruct.base import glb_set, is_compatible_set, lub_set
from repro.cstruct.commands import (
    AlwaysConflict,
    Command,
    CustomConflict,
    KeyConflict,
    NeverConflict,
)
from repro.cstruct.history import CommandHistory, _canonical, _digraph_of


def _pool(n_cmds: int, keys: list[str], read_every: int = 4) -> list[Command]:
    return [
        Command(
            cid=f"c{i:03d}",
            op="get" if read_every and i % read_every == 0 else "put",
            key=keys[i % len(keys)],
            arg=i,
        )
        for i in range(n_cmds)
    ]


DENSE_POOL = _pool(64, ["k"], read_every=0)
MODERATE_POOL = _pool(64, ["a", "b", "c"])
SPARSE_POOL = _pool(64, [f"k{j}" for j in range(12)])

# CustomConflict keeps the base partition() (None -- no bucket info), so
# this scenario exercises the full-scan branches of append/extend that the
# partitioned relations never take.
CUSTOM = CustomConflict(fn=lambda a, b: a.key == b.key and "put" in (a.op, b.op))

SCENARIOS = st.sampled_from(
    [
        (AlwaysConflict(), DENSE_POOL),
        (KeyConflict(), MODERATE_POOL),
        (KeyConflict(), SPARSE_POOL),
        (NeverConflict(), MODERATE_POOL),
        (CUSTOM, MODERATE_POOL),
    ]
)


def _lists(pool_and_rel):
    rel, pool = pool_and_rel
    return st.lists(st.sampled_from(pool), max_size=64)


@st.composite
def two_histories(draw):
    rel, pool = draw(SCENARIOS)
    xs = draw(st.lists(st.sampled_from(pool), max_size=64))
    ys = draw(st.lists(st.sampled_from(pool), max_size=64))
    return rel, CommandHistory.of(rel, *xs), CommandHistory.of(rel, *ys)


@st.composite
def history_family(draw, size=3):
    rel, pool = draw(SCENARIOS)
    histories = [
        CommandHistory.of(rel, *draw(st.lists(st.sampled_from(pool), max_size=24)))
        for _ in range(size)
    ]
    return rel, histories


def _oracle_glb(rel, h, g):
    return CommandHistory.of(rel, *ops.prefix(h.cmds, g.cmds, rel))


def assert_trusted_invariants(h: CommandHistory) -> None:
    """The fast-path output equals a from-scratch canonical rebuild."""
    assert h.cmds == _canonical(h.cmds, h.conflict)
    assert h._preds == _digraph_of(h.cmds, h.conflict)
    assert h._set == frozenset(h.cmds)


# -- pairwise ops against the paper oracle ----------------------------------


@settings(max_examples=120, deadline=None)
@given(two_histories())
def test_glb_matches_oracle(data):
    rel, h, g = data
    direct = h.glb(g)
    assert direct == _oracle_glb(rel, h, g)
    assert_trusted_invariants(direct)


@settings(max_examples=120, deadline=None)
@given(two_histories())
def test_is_compatible_matches_oracle(data):
    rel, h, g = data
    expected = ops.are_compatible(h.cmds, g.cmds, rel)
    assert h.is_compatible(g) == expected
    assert g.is_compatible(h) == expected


@settings(max_examples=120, deadline=None)
@given(two_histories())
def test_lub_matches_oracle(data):
    rel, h, g = data
    if not ops.are_compatible(h.cmds, g.cmds, rel):
        return
    direct = h.lub(g)
    assert direct == CommandHistory.of(rel, *ops.lub(h.cmds, g.cmds))
    assert_trusted_invariants(direct)


@settings(max_examples=120, deadline=None)
@given(two_histories())
def test_leq_matches_oracle(data):
    """``h ⊑ g`` ⟺ the oracle glb (greatest lower bound) is ``h`` itself."""
    rel, h, g = data
    expected = _oracle_glb(rel, h, g) == h
    assert h.leq(g) == expected


@settings(max_examples=80, deadline=None)
@given(two_histories(), st.lists(st.integers(0, 63), max_size=8))
def test_leq_on_true_extensions(data, indices):
    """Extensions built by append/extend are always ⊒ their base."""
    rel, h, g = data
    extension = h.extend(g.cmds)
    assert h.leq(extension)
    assert extension == h.lub(extension)
    assert_trusted_invariants(extension)


# -- set-level folds against the paper's pairwise iteration ------------------


@settings(max_examples=80, deadline=None)
@given(history_family())
def test_glb_set_matches_oracle_fold(data):
    rel, hs = data
    folded = glb_set(hs)
    assert folded == CommandHistory.of(
        rel, *ops.glb_many([h.cmds for h in hs], rel)
    )
    assert_trusted_invariants(folded)


@settings(max_examples=80, deadline=None)
@given(history_family())
def test_is_compatible_set_equals_pairwise(data):
    """The running-lub accumulation agrees with the O(k²) pairwise scan."""
    rel, hs = data
    pairwise = all(
        a.is_compatible(b) for i, a in enumerate(hs) for b in hs[i + 1 :]
    )
    assert is_compatible_set(hs) == pairwise


@settings(max_examples=80, deadline=None)
@given(history_family())
def test_lub_set_matches_oracle_fold(data):
    rel, hs = data
    if not is_compatible_set(hs):
        return
    folded = lub_set(hs)
    assert folded == CommandHistory.of(rel, *ops.lub_many([h.cmds for h in hs]))
    assert_trusted_invariants(folded)


# -- _trusted regression: fast paths never skip canonicalization -------------


@settings(max_examples=60, deadline=None)
@given(two_histories())
def test_append_chain_keeps_invariants(data):
    rel, h, g = data
    grown = h
    for cmd in g.cmds[:8]:
        grown = grown.append(cmd)
        assert_trusted_invariants(grown)


@settings(max_examples=60, deadline=None)
@given(two_histories())
def test_op_chains_keep_invariants(data):
    """Mixed op chains (glb of lub, lub of glb) stay canonical throughout."""
    rel, h, g = data
    m = h.glb(g)
    assert_trusted_invariants(m)
    assert m.lub(h) == h  # absorption, exercising lub on glb outputs
    if h.is_compatible(g):
        j = h.lub(g)
        assert_trusted_invariants(j)
        assert j.glb(h) == h


def test_delta_after_roundtrip_dense():
    rel = AlwaysConflict()
    base = CommandHistory.of(rel, *DENSE_POOL[:10])
    full = base.extend(DENSE_POOL[10:20])
    assert base.extend(full.delta_after(base)) == full


# -- conflict-relation memoization -------------------------------------------


def test_key_conflict_keeps_no_pair_memo_and_answers_as_conflicts():
    rel = KeyConflict()
    pool = MODERATE_POOL[:16]
    for a in pool:
        for b in pool:
            assert rel(a, b) == rel.conflicts(a, b)
            assert rel(a, b) == rel(b, a)  # symmetric
    assert not hasattr(rel, "_pair_cache")


def test_custom_conflict_cache_memoizes_predicate():
    calls = []

    def predicate(a, b):
        calls.append((a, b))
        return a.key == b.key

    rel = CustomConflict(fn=predicate)
    a, b = MODERATE_POOL[0], MODERATE_POOL[1]
    first = rel(a, b)
    count = len(calls)
    assert rel(a, b) == first
    assert rel(b, a) == first  # symmetric entry served from the cache
    assert len(calls) == count


def test_cache_eviction_clears_at_limit():
    class TinyCache(KeyConflict):
        cache_limit = 4

    rel = TinyCache()
    for cmd in SPARSE_POOL[:12]:
        rel(cmd, SPARSE_POOL[20])
    assert len(rel._pair_cache) <= 2 * TinyCache.cache_limit


def test_uncached_relation_has_no_cache():
    rel = AlwaysConflict()
    rel(MODERATE_POOL[0], MODERATE_POOL[1])
    assert not hasattr(rel, "_pair_cache")


def test_partition_soundness_on_builtin_relations():
    """conflicts(a, b) implies partition(a) == partition(b)."""
    for rel in (KeyConflict(), AlwaysConflict(), NeverConflict()):
        for a in MODERATE_POOL[:12]:
            for b in MODERATE_POOL[:12]:
                if rel(a, b):
                    assert rel.partition(a) == rel.partition(b)


# -- stable-prefix split (checkpointing support) -----------------------------


@st.composite
def history_and_members(draw):
    """A history plus a candidate stable-member set (possibly partial)."""
    rel, pool = draw(SCENARIOS)
    xs = draw(st.lists(st.sampled_from(pool), max_size=48))
    h = CommandHistory.of(rel, *xs)
    members = frozenset(draw(st.lists(st.sampled_from(pool), max_size=48)))
    return rel, h, members


@settings(max_examples=120, deadline=None)
@given(history_and_members())
def test_stable_split_prefix_is_genuine_prefix(data):
    """The split prefix is a downward-closed member-only prefix: ⊑ self."""
    rel, h, members = data
    prefix, tail = h.stable_split(members)
    assert prefix._set <= members or not prefix.cmds
    assert prefix.leq(h)
    # Oracle cross-check: a genuine prefix is its own glb with the whole.
    assert tuple(ops.prefix(prefix.cmds, h.cmds, rel)) == prefix.cmds
    assert_trusted_invariants(prefix)
    assert_trusted_invariants(tail)


@settings(max_examples=120, deadline=None)
@given(history_and_members())
def test_stable_split_reconstructs_exactly(data):
    """``prefix • tail-order`` rebuilds the original history."""
    rel, h, members = data
    prefix, tail = h.stable_split(members)
    assert prefix._set.isdisjoint(tail._set)
    assert prefix._set | tail._set == h._set
    assert prefix.extend(tail.linear_extension()) == h


@settings(max_examples=120, deadline=None)
@given(history_and_members())
def test_stable_split_prefix_is_maximal(data):
    """No tail command in *members* could have joined the prefix."""
    rel, h, members = data
    prefix, tail = h.stable_split(members)
    for cmd in tail.cmds:
        if cmd in members:
            # Blocked by a conflicting predecessor outside the prefix.
            assert not (h._preds[cmd] <= prefix._set)


@settings(max_examples=120, deadline=None)
@given(history_and_members())
def test_without_equals_split_tail(data):
    rel, h, members = data
    assert h.without(members) == h.stable_split(members)[1]
    assert h.without(frozenset()) is h


def test_stable_split_full_and_empty_members():
    rel = KeyConflict()
    h = CommandHistory.of(rel, *MODERATE_POOL[:12])
    prefix, tail = h.stable_split(h._set)
    assert prefix == h and not tail.cmds
    prefix, tail = h.stable_split(frozenset())
    assert not prefix.cmds and tail == h
