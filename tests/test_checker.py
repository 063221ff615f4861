"""Offline trace checker: each invariant catches its planted violation.

The checker is only trustworthy if it is demonstrably *red* on bad
traces -- every test here plants one specific violation in an otherwise
clean trace and asserts the checker reports exactly that kind (plus a
minimal counterexample window for order divergence).  The JSON fixtures
under ``tests/checker_fixtures/`` feed the CI must-be-red self-test.
"""

import json
import os

import pytest

from repro.core.checker import (
    UNRECORDED,
    TraceEvent,
    TraceRecorder,
    check_trace,
    main,
    trace_from_json,
    trace_to_json,
)
from repro.cstruct.commands import Command
from repro.smr.client import Client

FIXTURES = os.path.join(os.path.dirname(__file__), "checker_fixtures")


def ev(kind, site="s0", cid="", t=0.0, key="", op="", arg=None,
       result=UNRECORDED, seq=()):
    return TraceEvent(t=t, site=site, kind=kind, cid=cid, op=op, key=key,
                      arg=arg, result=result, seq=seq)


def propose(cid, op="put", key="k", arg=None, t=0.0):
    return ev("propose", site="client", cid=cid, op=op, key=key, arg=arg, t=t)


def deliver(site, cid, op="put", key="k", arg=None, result=UNRECORDED, t=1.0):
    return ev("deliver", site=site, cid=cid, op=op, key=key, arg=arg,
              result=result, t=t)


def kinds(report):
    return sorted({v.kind for v in report.violations})


# -- clean traces -------------------------------------------------------------


def test_empty_trace_is_ok():
    assert check_trace([]).ok


def test_agreeing_sites_are_ok():
    events = [propose("a"), propose("b")]
    for site in ("s0", "s1"):
        events += [deliver(site, "a", arg=1), deliver(site, "b", arg=2)]
    report = check_trace(events)
    assert report.ok
    assert report.sites == 2 and report.keys == 1


def test_prefix_is_compatible_with_longer_sequence():
    events = [propose(c) for c in "abc"]
    events += [deliver("s0", c, arg=i) for i, c in enumerate("abc")]
    events += [deliver("s1", c, arg=i) for i, c in enumerate("ab")]  # lagging
    assert check_trace(events).ok


def test_reads_commute_with_reads():
    """Two sites interleave reads differently between the same writes: OK."""
    events = [propose("w1"), propose("r1", op="get"), propose("r2", op="get")]
    events += [
        deliver("s0", "w1", arg=5),
        deliver("s0", "r1", op="get"),
        deliver("s0", "r2", op="get"),
        deliver("s1", "w1", arg=5),
        deliver("s1", "r2", op="get"),
        deliver("s1", "r1", op="get"),
    ]
    assert check_trace(events).ok


# -- per-key order ------------------------------------------------------------


def test_order_divergence_is_caught_with_window():
    events = [propose(c) for c in "abcd"]
    events += [deliver("s0", c, arg=0) for c in "abcd"]
    events += [deliver("s1", c, arg=0) for c in "abdc"]  # swapped tail
    report = check_trace(events)
    assert kinds(report) == ["order-divergence"]
    (violation,) = report.violations
    assert "'k'" in violation.detail
    assert violation.window  # minimal counterexample window present
    assert any("position 2" in line for line in violation.window)


def test_divergence_across_keys_is_per_key():
    events = [propose("a", key="x"), propose("b", key="y")]
    events += [deliver("s0", "a", key="x"), deliver("s0", "b", key="y")]
    events += [deliver("s1", "b", key="y"), deliver("s1", "a", key="x")]
    assert check_trace(events).ok  # different keys never conflict


def test_read_anchor_disagreement_is_caught():
    events = [propose("w1"), propose("w2"), propose("r", op="get")]
    events += [
        deliver("s0", "w1", arg=1),
        deliver("s0", "r", op="get"),   # r after 1 write
        deliver("s0", "w2", arg=2),
        deliver("s1", "w1", arg=1),
        deliver("s1", "w2", arg=2),
        deliver("s1", "r", op="get"),   # r after 2 writes
    ]
    report = check_trace(events)
    assert kinds(report) == ["read-anchor"]


# -- nontriviality ------------------------------------------------------------


def test_ghost_delivery_is_caught():
    events = [propose("a"), deliver("s0", "a"), deliver("s0", "ghost")]
    report = check_trace(events)
    assert kinds(report) == ["nontriviality"]
    assert "ghost" in report.violations[0].detail


def test_trace_without_proposes_skips_nontriviality():
    # Role-only traces (no client instrumentation) still get order checks.
    events = [deliver("s0", "a"), deliver("s1", "a")]
    assert check_trace(events).ok


# -- results ------------------------------------------------------------------


def test_result_divergence_between_sites_is_caught():
    events = [propose("a", op="inc")]
    events += [
        deliver("s0", "a", op="inc", result=1),
        deliver("s1", "a", op="inc", result=2),
    ]
    report = check_trace(events)
    assert "result-divergence" in kinds(report)


def test_result_mismatch_against_witness_replay_is_caught():
    events = [propose("a", arg=5), propose("r", op="get")]
    events += [
        deliver("s0", "a", arg=5, result=5),
        deliver("s0", "r", op="get", result=99),  # replay says 5
    ]
    report = check_trace(events)
    assert kinds(report) == ["result-mismatch"]
    assert "99" in report.violations[0].detail


def test_cas_results_are_replayed():
    events = [
        propose("w", arg=1),
        propose("c1", op="cas", arg=(1, 2)),
        propose("c2", op="cas", arg=(1, 3)),
    ]
    events += [
        deliver("s0", "w", arg=1, result=1),
        deliver("s0", "c1", op="cas", arg=(1, 2), result=True),
        deliver("s0", "c2", op="cas", arg=(1, 3), result=False),
    ]
    assert check_trace(events).ok
    # Flip the second CAS result: the replay must notice.
    events[-1] = deliver("s0", "c2", op="cas", arg=(1, 3), result=True)
    assert kinds(check_trace(events)) == ["result-mismatch"]


# -- epochs: crash replays and checkpoint adoptions ---------------------------


def test_consistent_replay_after_crash_is_ok():
    events = [propose("a"), propose("b")]
    events += [deliver("s0", "a"), deliver("s0", "b")]
    # Replay from scratch (re-delivery of "a" opens a new epoch).
    events += [deliver("s0", "a"), deliver("s0", "b")]
    assert check_trace(events).ok


def test_regressed_replay_after_crash_is_caught():
    events = [propose("a"), propose("b")]
    events += [deliver("s0", "a"), deliver("s0", "b")]
    events += [deliver("s1", "a"), deliver("s1", "b")]
    # s0 comes back with the opposite order: decision regression.
    events += [deliver("s0", "b"), deliver("s0", "a")]
    report = check_trace(events)
    assert kinds(report) == ["order-divergence"]


def test_adoption_matching_peers_is_ok():
    events = [propose("a"), propose("b"), propose("c")]
    events += [deliver("s0", c) for c in "abc"]
    events += [
        ev("adopt", site="s1", seq=(("a", "put", "k", None), ("b", "put", "k", None))),
        deliver("s1", "c"),
    ]
    assert check_trace(events).ok


def test_adoption_divergent_from_peers_is_caught():
    events = [propose("a"), propose("b")]
    events += [deliver("s0", "a"), deliver("s0", "b")]
    events += [
        ev("adopt", site="s1", seq=(("b", "put", "k", None), ("a", "put", "k", None))),
    ]
    report = check_trace(events)
    assert kinds(report) == ["order-divergence"]


# -- real-time order ----------------------------------------------------------


def test_real_time_inversion_is_caught():
    events = [
        ev("invoke", site="client", cid="a", op="put", key="k", t=0.0),
        ev("complete", site="client", cid="a", t=1.0),   # a done at t=1
        ev("invoke", site="client", cid="b", op="put", key="k", t=5.0),
        ev("complete", site="client", cid="b", t=6.0),
        deliver("s0", "b", t=7.0),
        deliver("s0", "a", t=7.0),  # order b < a inverts real time
    ]
    report = check_trace(events)
    assert "real-time" in kinds(report)


def test_concurrent_commands_may_order_either_way():
    events = [
        ev("invoke", site="client", cid="a", op="put", key="k", t=0.0),
        ev("invoke", site="client", cid="b", op="put", key="k", t=0.0),
        ev("complete", site="client", cid="a", t=9.0),
        ev("complete", site="client", cid="b", t=9.0),
        deliver("s0", "b", t=5.0),
        deliver("s0", "a", t=5.0),
    ]
    assert check_trace(events).ok


def test_note_client_stamps_contradicting_the_agreed_order_are_red():
    """The client's own stamps are what the real-time check must see:
    ``a`` completed at t=1, ``b`` was issued at t=5, the sites agree on b < a."""
    a, b, c = (Command(cid, "put", "k", cid) for cid in "abc")
    client = Client("c0", cluster=None)
    client.issue_times.update({a: 0.0, b: 5.0, c: 5.5})
    client.completed.update({a: 1.0, b: 6.0})  # c never completed

    rec = TraceRecorder()
    for site in ("s0", "s1"):
        for command in (b, a):
            rec._record_deliver(site, command)
    deliveries = list(rec.events)
    rec.note_client(client)
    stamps = {(e.kind, e.cid): e.t for e in rec.events if e.site == "client"}
    assert stamps == {
        ("invoke", "a"): 0.0, ("complete", "a"): 1.0,
        ("invoke", "b"): 5.0, ("complete", "b"): 6.0,
        ("invoke", "c"): 5.5,  # still open: no complete is made up for it
    }
    assert kinds(check_trace(rec.events)) == ["real-time"]

    # What the soak used to record instead -- every command invoked before
    # the run and completed after it -- makes every pair concurrent, so the
    # same deliveries pass: the check could not fire.
    whole_run = [
        ev(kind, site="client", cid=cid, op="put", key="k", t=t)
        for cid in "abc"
        for kind, t in (("invoke", 0.0), ("complete", 7.0))
    ]
    assert check_trace(deliveries + whole_run).ok


# -- serialization + CLI ------------------------------------------------------


def test_json_round_trip_preserves_events():
    events = [
        propose("a", arg=(1, 2)),
        deliver("s0", "a", arg=(1, 2), result=(1, 2)),
        ev("adopt", site="s0", seq=(("a", "put", "k", [1, 2]),)),
    ]
    assert check_trace(events).ok
    back = trace_from_json(trace_to_json(events))
    assert check_trace(back).ok
    assert len(back) == len(events)


def test_recorder_stamps_sim_clock():
    class FakeSim:
        clock = 4.5

    rec = TraceRecorder(FakeSim())
    rec.note_propose(type("C", (), {"cid": "a", "op": "put", "key": "k", "arg": 1})())
    assert rec.events[0].t == 4.5


def test_cli_green_on_clean_fixture(capsys):
    assert main([os.path.join(FIXTURES, "clean_trace.json")]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_red_on_divergent_fixture(capsys):
    assert main([os.path.join(FIXTURES, "divergent_trace.json")]) == 1
    out = capsys.readouterr().out
    assert "order-divergence" in out


def test_fixture_traces_match_their_labels():
    with open(os.path.join(FIXTURES, "divergent_trace.json")) as fh:
        divergent = trace_from_json(fh.read())
    report = check_trace(divergent)
    assert not report.ok
    assert "order-divergence" in kinds(report)
    with open(os.path.join(FIXTURES, "clean_trace.json")) as fh:
        clean = trace_from_json(fh.read())
    assert check_trace(clean).ok


def test_cli_rejects_missing_file():
    with pytest.raises(OSError):
        main([os.path.join(FIXTURES, "no_such_trace.json")])


def test_render_mentions_counts():
    events = [propose("a"), deliver("s0", "a")]
    text = check_trace(events).render()
    assert "1 sites" in text or "1 site" in text or "sites" in text
    assert json.loads(trace_to_json(events))  # sanity: serializable
