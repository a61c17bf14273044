"""reprolint's own test suite: every rule has positive and negative fixtures.

The fixture trees under ``fixtures/bad`` and ``fixtures/good`` mirror the
``repro/`` package layout so path-targeted rules (RL002/RL003) fire on the
right files.  ``bad`` must produce exactly the findings catalogued here;
``good`` must scan clean — that pins both the detectors and their
false-positive guards (sorted() wrapping, holds-lock markers, reasoned
suppressions, seeded RNG).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.reprolint import check_paths, main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def _findings(root: Path) -> list[tuple[str, str, int]]:
    """(relative file, rule id, line) triples for every finding under root."""
    return [
        (path.relative_to(root).as_posix(), finding.rule, finding.line)
        for path, finding in check_paths([root])
    ]


# ----------------------------------------------------------------------
# Negative fixtures: the good tree is entirely clean.
# ----------------------------------------------------------------------


def test_good_tree_is_clean():
    assert _findings(GOOD) == []


# ----------------------------------------------------------------------
# Positive fixtures: the bad tree produces each rule's catalogued findings.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bad_findings():
    return _findings(BAD)


def _rules_for(findings, rel):
    return sorted((rule, line) for path, rule, line in findings if path == rel)


def test_rl001_hot_loop_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/core/sweep.py")
    assert all(rule == "RL001" for rule, _ in hits)
    lines = [line for _, line in hits]
    # attribute re-lookup, hash(), list display, dict() call
    assert lines == [16, 17, 18, 20]


def test_rl002_set_iteration_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/stream/miner.py")
    assert all(rule == "RL002" for rule, _ in hits)
    assert [line for _, line in hits] == [9, 16, 20]


def test_rl003_unguarded_write_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/serve/core.py")
    assert all(rule == "RL003" for rule, _ in hits)
    assert [line for _, line in hits] == [20, 23]


def test_rl004_layering_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/match/service.py")
    assert all(rule == "RL004" for rule, _ in hits)
    assert [line for _, line in hits] == [5, 6, 8]


def test_rl005_wall_clock_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/match/store.py")
    assert all(rule == "RL005" for rule, _ in hits)
    assert [line for _, line in hits] == [7, 8, 12, 16]


def test_rl006_obs_guard_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/core/obs_loop.py")
    assert all(rule == "RL006" for rule, _ in hits)
    # factory + mutator on line 15, mutator on 16, span on 17, factory +
    # mutator on 19 (per-line RL001 suppressions isolate RL006)
    assert [line for _, line in hits] == [15, 15, 16, 17, 19, 19]


def test_rl006_allows_pre_bound_guards():
    assert _findings(GOOD / "repro" / "core" / "obs_loop.py") == []


def test_rl007_storage_seam_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/stream/storage_client.py")
    assert all(rule == "RL007" for rule, _ in hits)
    assert [line for _, line in hits] == [5, 6, 8]


def test_rl007_allows_imports_inside_repro_db():
    assert _findings(GOOD / "repro" / "db" / "index.py") == []


def test_rl008_metric_name_violations(bad_findings):
    hits = _rules_for(bad_findings, "repro/match/obs_names.py")
    assert all(rule == "RL008" for rule, _ in hits)
    # f-string, concatenation, variable, uppercase literal, space in literal
    assert [line for _, line in hits] == [5, 6, 8, 10, 11]


def test_rl008_allows_literals_and_reasoned_suppression():
    assert _findings(GOOD / "repro" / "match" / "obs_names.py") == []


def test_rl000_directive_errors(bad_findings):
    hits = _rules_for(bad_findings, "repro/serve/protocol.py")
    # The reasonless disable is RL000 and does NOT suppress the RL002 it names;
    # the unknown directive is a second RL000.
    assert hits == [("RL000", 8), ("RL002", 8), ("RL000", 11)] or hits == sorted(
        [("RL000", 8), ("RL002", 8), ("RL000", 11)]
    )


def test_every_rule_has_positive_coverage(bad_findings):
    fired = {rule for _, rule, _ in bad_findings}
    assert {
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
        "RL000",
    } <= fired


# ----------------------------------------------------------------------
# Markers and suppressions (behaviour pinned via the good tree).
# ----------------------------------------------------------------------


def test_standalone_marker_applies_to_next_line():
    # good/repro/core/sweep.py carries its hot-loop marker on its own line;
    # were it not shifted onto the loop, the marked-loop walk would miss the
    # loop and (for a required file) RL001 would fire at line 1.
    assert _findings(GOOD / "repro" / "core" / "sweep.py") == []


def test_reasoned_suppression_silences_named_rule():
    assert _findings(GOOD / "repro" / "serve" / "protocol.py") == []


# ----------------------------------------------------------------------
# The real source tree ships clean — the same gate CI enforces.
# ----------------------------------------------------------------------


def test_src_tree_is_clean():
    repo_root = Path(__file__).resolve().parents[2]
    assert check_paths([repo_root / "src"]) == []


# ----------------------------------------------------------------------
# CLI behaviour.
# ----------------------------------------------------------------------


def test_cli_exit_codes_and_output(capsys):
    assert main([str(GOOD)]) == 0
    assert main([str(BAD)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL004" in out
    # file:line: RULE message rendering
    assert any(line.count(":") >= 2 for line in out.splitlines())


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
    ):
        assert rule_id in out
