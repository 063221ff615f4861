"""protolint: each rule fires on the planted fixtures and only there.

The fixture corpus under ``lint_fixtures/`` is the analyzer's oracle:
``violations/`` plants one instance of every defect class each rule
exists to catch (including the minimized ``_observed`` durability bug
that motivated the tool), and ``clean/`` is a miniature protocol that
exercises the same constructs correctly.  A rule change that stops
firing on a plant, or starts firing on the clean corpus, fails here.
The final test is the gate CI enforces: the production tree itself is
finding-free.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, run_lint
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"


def messages(findings, rule=None):
    return [f.message for f in findings if rule is None or f.rule == rule]


# -- durability ---------------------------------------------------------------


def test_durability_catches_observed_bug():
    findings = run_lint(
        [VIOLATIONS / "durability_observed.py"], rules=["durability"]
    )
    assert any(
        "BuggyCoordinator._observed" in m for m in messages(findings)
    ), findings


def test_durability_partial_journaling():
    findings = run_lint(
        [VIOLATIONS / "durability_observed.py"], rules=["durability"]
    )
    texts = messages(findings)
    # horizon is mutated in on_vote and never journalled...
    assert any("PartiallyDurable.horizon" in m for m in texts)
    # ...while the journalled, restored, and VOLATILE attrs stay silent.
    assert not any(".votes" in m for m in texts)
    assert not any(".stats" in m for m in texts)
    assert not any(".crnd" in m for m in texts)


def test_durability_findings_name_the_handler():
    findings = run_lint(
        [VIOLATIONS / "durability_observed.py"], rules=["durability"]
    )
    assert any("on_propose" in m for m in messages(findings))


def test_rules_see_through_in_repo_base_classes():
    """Handlers, VOLATILE and journalling inherited from a shared base count."""
    findings = run_lint(
        [VIOLATIONS / "inherited_handler.py"],
        rules=["durability", "taxonomy"],
        auto_docs=False,
    )
    texts = messages(findings)
    # The subclass defines no on_recover of its own, yet its handler is
    # analysed -- and only the planted attribute is flagged.
    assert any("WindowedProposer._window" in m and "on_ack" in m for m in texts)
    assert not any("_unacked" in m or "retransmissions" in m for m in texts)
    # Taxonomy: on_ack below the base still handles Ack.
    assert not any("Ack" in m for m in messages(findings, "taxonomy"))


# -- determinism --------------------------------------------------------------


def test_determinism_catches_each_hazard():
    findings = run_lint(
        [VIOLATIONS / "determinism_hazards.py"], rules=["determinism"]
    )
    texts = " | ".join(messages(findings))
    assert "random.random()" in texts
    assert "without a seed" in texts
    assert "wall-clock read time.time()" in texts
    assert "id()-based ordering" in texts
    assert "iteration over a set feeds an ordered sink" in texts
    assert "iteration over .values() feeds an ordered sink" in texts
    assert "next(iter(<set>))" in texts
    assert "list(<set>)" in texts


# -- taxonomy -----------------------------------------------------------------


def test_taxonomy_catches_every_drift_direction():
    findings = run_lint(
        [VIOLATIONS / "taxonomy_drift.py"],
        rules=["taxonomy"],
        docs=VIOLATIONS / "docs.md",
    )
    texts = " | ".join(messages(findings))
    assert "message Orphan is sent but no Process subclass" in texts
    assert "message Ghost has a handler but is never constructed" in texts
    assert "handler on_retired matches no frozen-dataclass" in texts
    assert "message Pong has no row" in texts
    assert "documented message Legacy does not exist" in texts
    # Ping is handled, constructed, and documented: silent.
    assert "message Ping" not in texts


# -- config -------------------------------------------------------------------


def test_config_catches_missing_and_partial_validation():
    findings = run_lint(
        [VIOLATIONS / "config_unvalidated.py"], rules=["config"]
    )
    texts = " | ".join(messages(findings))
    assert "TimeoutConfig has numeric fields" in texts
    assert "PartialConfig.depth" in texts
    # rate is referenced in __post_init__, label is not numeric: silent.
    assert "PartialConfig.rate" not in texts
    assert "label" not in texts


# -- fields -------------------------------------------------------------------


def test_fields_catches_unread_and_self_naming_fields():
    findings = run_lint([VIOLATIONS / "unread_fields.py"], rules=["fields"])
    texts = " | ".join(messages(findings))
    assert "Ballot.voter is read by no on_ballot handler" in texts
    assert "Offer.hint is read by no on_offer handler" in texts
    # Read by a helper the handler calls, and by a base-class method: silent.
    assert "Offer.cmd" not in texts
    assert "Ballot.rnd" not in texts and "Ballot.val" not in texts
    assert len(findings) == 2


# -- clean corpus -------------------------------------------------------------


def test_clean_fixture_has_zero_findings_across_all_rules():
    findings = run_lint([CLEAN], docs=CLEAN / "docs.md")
    assert findings == [], [f.render() for f in findings]


# -- suppressions -------------------------------------------------------------


def test_inline_suppression_silences_one_line(tmp_path):
    hazard = "import time\n\ndef f():\n    return time.time()\n"
    unsuppressed = tmp_path / "a.py"
    unsuppressed.write_text(hazard)
    suppressed = tmp_path / "b.py"
    suppressed.write_text(
        hazard.replace(
            "return time.time()",
            "return time.time()  # protolint: ignore[determinism]",
        )
    )
    assert run_lint([unsuppressed], rules=["determinism"]) != []
    assert run_lint([suppressed], rules=["determinism"]) == []


def test_comment_line_suppression_reaches_next_line(tmp_path):
    path = tmp_path / "c.py"
    path.write_text(
        "import time\n\ndef f():\n"
        "    # justified: host-time logging only\n"
        "    # protolint: ignore[determinism]\n"
        "    return time.time()\n"
    )
    assert run_lint([path], rules=["determinism"]) == []


def test_unknown_rule_is_an_error():
    with pytest.raises(ValueError):
        run_lint([CLEAN], rules=["no-such-rule"])


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    assert (
        lint_main(
            ["--docs", str(CLEAN / "docs.md"), str(CLEAN)]
        )
        == 0
    )
    assert (
        lint_main(
            ["--docs", str(VIOLATIONS / "docs.md"), str(VIOLATIONS)]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "[durability]" in out and "[taxonomy]" in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in RULES:
        assert name in out


# -- the gate -----------------------------------------------------------------


def test_production_tree_is_finding_free():
    findings = run_lint([REPO / "src" / "repro"], docs=REPO / "docs" / "messages.md")
    assert findings == [], "\n".join(f.render() for f in findings)
