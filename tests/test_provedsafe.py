"""Value-picking rules: the Fast Paxos rule and Definition 1's ProvedSafe."""

import pytest

from repro.core.messages import Phase1b
from repro.core.provedsafe import Pick, pick_value, proved_safe
from repro.core.quorums import QuorumSystem
from repro.core.rounds import ZERO, RoundId
from repro.cstruct.commands import KeyConflict
from repro.cstruct.history import CommandHistory
from tests.conftest import cmd

R1 = RoundId(0, 1, 0, 0)  # a fast round (rtype 0 under the default policy)
R2 = RoundId(0, 2, 0, 1)  # a classic round


def fast_map(rnd):
    return rnd.rtype == 0 and rnd != ZERO


def msg(acc, rnd, vrnd, vval):
    return Phase1b(rnd=rnd, vrnd=vrnd, vval=vval)


# -- consensus rule (Section 2.2) ------------------------------------------------


def test_pick_free_when_nothing_accepted():
    system = QuorumSystem(range(3))
    msgs = {a: msg(a, R2, ZERO, None) for a in range(3)}
    assert pick_value(system, msgs, fast_map) == Pick(free=True)


def test_pick_value_from_classic_round():
    system = QuorumSystem(range(3))
    v = cmd("v")
    msgs = {
        0: msg(0, R2, R2, v),
        1: msg(1, R2, ZERO, None),
        2: msg(2, R2, ZERO, None),
    }
    # k = R2 classic, q_k = 2, |Q| = 3, min intersection = 2?  No: 3+2-3 = 2,
    # a single reporter is not enough to prove choosability -> free.
    assert pick_value(system, msgs, fast_map).free


def test_pick_value_quorum_reported():
    system = QuorumSystem(range(3))
    v = cmd("v")
    msgs = {
        0: msg(0, R2, R2, v),
        1: msg(1, R2, R2, v),
        2: msg(2, R2, ZERO, None),
    }
    pick = pick_value(system, msgs, fast_map)
    assert not pick.free and pick.value == v


def test_pick_highest_round_dominates():
    system = QuorumSystem(range(3))
    old, new = cmd("old"), cmd("new")
    r3 = RoundId(0, 3, 0, 1)
    msgs = {
        0: msg(0, r3, R2, old),
        1: msg(1, r3, r3, new),
        2: msg(2, r3, r3, new),
    }
    pick = pick_value(system, msgs, fast_map)
    assert pick.value == new


def test_pick_fast_round_split_is_free():
    """Case 1 of Section 2.2: no k-quorum partially agreed -> free."""
    system = QuorumSystem(range(4))  # F=1, E=1: classic 3, fast 3
    a, b = cmd("a"), cmd("b")
    msgs = {
        0: msg(0, R2, R1, a),
        1: msg(1, R2, R1, a),
        2: msg(2, R2, R1, b),
        3: msg(3, R2, R1, b),
    }
    # min intersection with a fast 3-quorum: 4+3-4 = 3 > 2 votes each -> free.
    assert pick_value(system, msgs, fast_map).free


def test_pick_fast_round_dominant_value():
    """Case 2 of Section 2.2: exactly one value may have been chosen."""
    system = QuorumSystem(range(4))
    a, b = cmd("a"), cmd("b")
    msgs = {
        0: msg(0, R2, R1, a),
        1: msg(1, R2, R1, a),
        2: msg(2, R2, R1, a),
        3: msg(3, R2, R1, b),
    }
    pick = pick_value(system, msgs, fast_map)
    assert not pick.free and pick.value == a


def test_pick_empty_rejected():
    with pytest.raises(ValueError):
        pick_value(QuorumSystem(range(3)), {}, fast_map)


def test_pick_detects_quorum_requirement_violation():
    """Two choosable values means the deployment's quorums were wrong.

    We forge an unreachable state: a phase-1 "quorum" of only two
    acceptors, so the minimal k-quorum intersection is 1 and both reported
    values qualify as choosable.  The rule must refuse rather than pick.
    """
    system = QuorumSystem(range(4))
    a, b = cmd("a"), cmd("b")
    r9 = RoundId(0, 9, 0, 1)
    bad = {
        0: msg(0, r9, R2, a),
        1: msg(1, r9, R2, b),
    }
    with pytest.raises(ValueError):
        pick_value(system, bad, fast_map)


# -- ProvedSafe over c-structs (Definition 1) --------------------------------------


REL = KeyConflict()
A, B, C = cmd("a", "put", "x"), cmd("b", "put", "x"), cmd("c", "put", "y")


def hist(*cmds):
    return CommandHistory.of(REL, *cmds)


def test_proved_safe_initial_state_returns_bottom():
    system = QuorumSystem(range(3))
    msgs = {a: msg(a, R2, ZERO, hist()) for a in range(3)}
    picks = proved_safe(system, msgs, fast_map)
    assert picks == [hist()]


def test_proved_safe_unanimous_classic_round():
    system = QuorumSystem(range(3))
    value = hist(A, C)
    msgs = {
        0: msg(0, R2, R2, value),
        1: msg(1, R2, R2, value),
        2: msg(2, R2, ZERO, hist()),
    }
    picks = proved_safe(system, msgs, fast_map)
    assert picks == [value]


def test_proved_safe_merges_compatible_fast_values():
    """Γ's lub combines what different quorum intersections prove."""
    system = QuorumSystem(range(4))
    msgs = {
        0: msg(0, R2, R1, hist(A, C)),
        1: msg(1, R2, R1, hist(A)),
        2: msg(2, R2, R1, hist(C)),
        3: msg(3, R2, R1, hist()),
    }
    picks = proved_safe(system, msgs, fast_map)
    assert len(picks) == 1
    # Nothing is provably chosen beyond the glbs, but the lub of the glbs
    # must extend every provably-chosen prefix and stay within the union.
    assert picks[0].command_set() <= {A, C}


def test_proved_safe_free_case_returns_reported_values():
    """QinterRAtk empty: any value reported at k is pickable."""
    system = QuorumSystem(range(4))
    value = hist(A)
    msgs = {
        0: msg(0, R2, R1, value),
        1: msg(1, R2, ZERO, hist()),
        2: msg(2, R2, ZERO, hist()),
        3: msg(3, R2, ZERO, hist()),
    }
    # k-acceptors = {0} smaller than the min intersection (3) -> free case.
    picks = proved_safe(system, msgs, fast_map)
    assert picks == [value]


def test_proved_safe_incompatible_split_keeps_common_prefix():
    system = QuorumSystem(range(4))
    msgs = {
        0: msg(0, R2, R1, hist(C, A, B)),
        1: msg(1, R2, R1, hist(C, A, B)),
        2: msg(2, R2, R1, hist(C, B, A)),
        3: msg(3, R2, R1, hist(C, B, A)),
    }
    picks = proved_safe(system, msgs, fast_map)
    assert len(picks) == 1
    assert picks[0].contains(C)


def test_proved_safe_empty_rejected():
    with pytest.raises(ValueError):
        proved_safe(QuorumSystem(range(3)), {}, fast_map)
