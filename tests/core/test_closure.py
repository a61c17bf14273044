"""Tests for closure checking and landmark border checking (Theorems 4-5)."""

from dataclasses import replace

import pytest

from repro.core.closure import ClosureChecker
from repro.core.instance_growth import ins_grow
from repro.core.pattern import Pattern
from repro.core.support import initial_support_set, sup_comp
from repro.db.index import InvertedEventIndex


def build_prefix_sets(index, pattern):
    """Leftmost support sets of every prefix of ``pattern`` (length 1..m)."""
    sets = [initial_support_set(index, pattern.at(1))]
    for j in range(2, len(pattern) + 1):
        sets.append(ins_grow(index, sets[-1], pattern.at(j)))
    return sets


class TestExample35:
    """AB is non-closed (ACB has equal support) but NOT prunable."""

    def test_ab_not_closed(self, table3_index):
        checker = ClosureChecker(table3_index)
        pattern = Pattern("AB")
        prefix_sets = build_prefix_sets(table3_index, pattern)
        decision = checker.check(prefix_sets[-1], prefix_sets)
        assert not decision.closed
        assert decision.witness is not None

    def test_ab_not_prunable(self, table3_index):
        # The leftmost support set of ACB ends at positions (6, 9, 4) which
        # shift right of AB's (2, 6, 4): Theorem 5 does not apply, and indeed
        # ABD is a closed pattern with prefix AB.
        checker = ClosureChecker(table3_index)
        pattern = Pattern("AB")
        prefix_sets = build_prefix_sets(table3_index, pattern)
        decision = checker.check(prefix_sets[-1], prefix_sets)
        assert not decision.prunable


class TestExample36:
    """AA is non-closed AND prunable (ACA keeps the landmark border)."""

    def test_aa_decision(self, table3_index):
        checker = ClosureChecker(table3_index)
        pattern = Pattern("AA")
        prefix_sets = build_prefix_sets(table3_index, pattern)
        decision = checker.check(prefix_sets[-1], prefix_sets)
        assert not decision.closed
        assert decision.prunable
        assert decision.pruning_witness == Pattern("ACA")

    def test_leftmost_support_sets_match_paper(self, table3):
        assert sup_comp(table3, "AA").last_positions() == [(1, 4), (2, 5), (2, 7)]
        assert sup_comp(table3, "ACA").last_positions() == [(1, 4), (2, 5), (2, 7)]

    def test_consequence_aad_not_closed(self, table3):
        # As the paper works out, sup(AAD) = sup(ACAD) = 3.
        assert sup_comp(table3, "AAD").support == 3
        assert sup_comp(table3, "ACAD").support == 3


class TestClosedPatterns:
    @pytest.mark.parametrize("pattern", ["ACB", "ABD", "ACAD", "AD"])
    def test_closed_patterns_detected(self, table3_index, pattern):
        checker = ClosureChecker(table3_index)
        pattern = Pattern(pattern)
        prefix_sets = build_prefix_sets(table3_index, pattern)
        decision = checker.check(prefix_sets[-1], prefix_sets)
        assert decision.closed
        assert not decision.prunable

    @pytest.mark.parametrize("pattern", ["A", "AC", "AB", "AA", "C", "D"])
    def test_non_closed_patterns_detected(self, table3_index, pattern):
        checker = ClosureChecker(table3_index)
        pattern = Pattern(pattern)
        prefix_sets = build_prefix_sets(table3_index, pattern)
        assert not checker.check(prefix_sets[-1], prefix_sets).closed


class TestCheckerOptions:
    def test_lbcheck_disabled_never_prunes(self, table3_index):
        checker = ClosureChecker(table3_index, enable_lbcheck=False)
        pattern = Pattern("AA")
        prefix_sets = build_prefix_sets(table3_index, pattern)
        decision = checker.check(prefix_sets[-1], prefix_sets)
        assert not decision.closed
        assert not decision.prunable

    def test_append_supports_are_reused(self, table3_index):
        checker = ClosureChecker(table3_index)
        pattern = Pattern("AB")
        prefix_sets = build_prefix_sets(table3_index, pattern)
        # Pass the grown append children: the checker should not recompute
        # them (extensions_evaluated counts only what it computed itself).
        children = {e: ins_grow(table3_index, prefix_sets[-1], e) for e in "ABCD"}
        decision = checker.check(prefix_sets[-1], prefix_sets, children=children)
        assert not decision.closed
        assert decision.extensions_evaluated <= 8
        plain = ClosureChecker(table3_index).check(prefix_sets[-1], prefix_sets)
        assert replace(decision, extensions_evaluated=0) == replace(
            plain, extensions_evaluated=0
        )
        assert decision.extensions_evaluated <= plain.extensions_evaluated
        # The children are parked on the node, for the probes below it.
        node = checker.path[-1]
        for e, child in children.items():
            assert node.sets[node.key(2, e)] is child

    def test_candidate_events_filtered_by_support(self, table3_index):
        checker = ClosureChecker(table3_index)
        # Only A and D occur 5 times in the Table III database.
        assert checker._candidate_events(5) == ["A", "D"]
        assert set(checker._candidate_events(4)) == {"A", "B", "C", "D"}
        assert checker._candidate_events(6) == []
