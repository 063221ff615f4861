"""Property-based safety of the value-picking rules.

The central obligation (Section 2.2, Definition 1): if a value *was
chosen* at some round k -- i.e. a full k-quorum accepted (an extension of)
it -- then any value picked from phase "1b" messages of a later round must
extend it.  We generate random vote configurations that *contain* a chosen
value and check the pick; and for the consensus rule, random splits that
never elect two candidates.
"""

from hypothesis import given, settings, strategies as st

from repro.core.messages import Phase1b
from repro.core.provedsafe import pick_value, proved_safe
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId
from repro.cstruct.commands import Command, KeyConflict
from repro.cstruct.history import CommandHistory

REL = KeyConflict()
POOL = [Command(str(i), "put", key) for i, key in enumerate("xxyy")]
K_FAST = RoundId(0, 1, 0, 0)
NEW = RoundId(0, 2, 0, 1)


def is_fast(rnd):
    return rnd.rtype == 0 and rnd != ZERO


def history(cmds):
    return CommandHistory.of(REL, *cmds)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(POOL), max_size=3),  # the chosen prefix
    st.lists(st.lists(st.sampled_from(POOL), max_size=2), min_size=4, max_size=4),
)
def test_proved_safe_extends_chosen_values(chosen_cmds, extras):
    """Every acceptor accepted an extension of `chosen`; the pick must too."""
    n = 4
    system = QuorumSystem(range(n))  # F=1, E=1: classic 3, fast 3
    chosen = history(chosen_cmds)
    msgs = {}
    for acceptor, extra in enumerate(extras):
        accepted = chosen.extend(extra)
        msgs[acceptor] = Phase1b(NEW, vrnd=K_FAST, vval=accepted)
    picks = proved_safe(system, msgs, is_fast)
    assert picks
    for pick in picks:
        assert chosen.leq(pick), f"pick {pick} does not extend chosen {chosen}"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(POOL), max_size=3),
    st.integers(min_value=3, max_value=4),  # quorum reporting the value
)
def test_pick_value_repropose_chosen(chosen_cmds, reporters):
    """Consensus: a value accepted by a full quorum must be re-proposed."""
    if not chosen_cmds:
        return
    system = QuorumSystem(range(4))
    value = chosen_cmds[0]
    msgs = {}
    for acceptor in range(4):
        if acceptor < reporters:
            msgs[acceptor] = Phase1b(NEW, vrnd=K_FAST, vval=value)
        else:
            msgs[acceptor] = Phase1b(NEW, vrnd=ZERO, vval=None)
    pick = pick_value(system, msgs, is_fast)
    assert not pick.free
    assert pick.value == value


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pick_value_never_elects_two(data):
    """Legal splits (below min intersection each) always come out free."""
    system = QuorumSystem(range(4))
    a, b = POOL[0], POOL[1]
    # With |Q| = 4 and q_k = 3 the minimal intersection is 3: any 2/2 split
    # is provably unchoosable for both values.
    votes = data.draw(st.permutations([a, a, b, b]))
    msgs = {
        acceptor: Phase1b(NEW, vrnd=K_FAST, vval=value)
        for acceptor, value in enumerate(votes)
    }
    pick = pick_value(system, msgs, is_fast)
    assert pick.free


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(POOL), max_size=3), min_size=3, max_size=3)
)
def test_proved_safe_initial_round_returns_reported_or_bottom(vote_lists):
    """With vrnd = ZERO everywhere the pick is ⊥ (nothing constrains it)."""
    system = QuorumSystem(range(3))
    bottom = CommandHistory.bottom(REL)
    msgs = {
        acceptor: Phase1b(NEW, vrnd=ZERO, vval=bottom)
        for acceptor in range(3)
    }
    picks = proved_safe(system, msgs, is_fast)
    assert picks == [bottom]
