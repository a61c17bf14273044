"""Tests for the CloGSgrow closed-pattern miner (Algorithm 4)."""

import pytest

from repro.core.clogsgrow import CloGSgrow, mine_closed
from repro.core.gsgrow import mine_all
from repro.core.pattern import Pattern
from repro.core.reference import closed_patterns_bruteforce
from repro.db.database import SequenceDatabase


class TestRunningExample:
    """The Table III database with min_sup = 3 (Examples 3.4-3.6)."""

    def test_closed_set_contents(self, table3):
        closed = mine_closed(table3, 3)
        assert "ACB" in closed and closed.support_of("ACB") == 3
        assert "ABD" in closed and closed.support_of("ABD") == 3
        assert "ACAD" in closed and closed.support_of("ACAD") == 3
        assert "AD" in closed and closed.support_of("AD") == 5
        # Non-closed patterns must not be reported.
        for pattern in ("A", "AB", "AA", "AC", "AAD", "C", "D"):
            assert pattern not in closed

    def test_closed_is_much_smaller_than_all(self, table3):
        all_patterns = mine_all(table3, 3)
        closed = mine_closed(table3, 3)
        assert len(closed) < len(all_patterns)

    def test_matches_bruteforce(self, table3):
        assert mine_closed(table3, 3).as_dict() == closed_patterns_bruteforce(table3, 3)

    def test_lbcheck_prunes_nodes(self, table3):
        miner = CloGSgrow(3)
        miner.mine(table3)
        assert miner.stats.nodes_pruned_lbcheck >= 1  # at least the AA subtree


class TestEquivalenceWithAndWithoutLBCheck:
    @pytest.mark.parametrize("min_sup", [2, 3, 4])
    def test_same_output_table3(self, table3, min_sup):
        with_pruning = mine_closed(table3, min_sup, enable_lbcheck=True)
        without_pruning = mine_closed(table3, min_sup, enable_lbcheck=False)
        assert with_pruning.as_dict() == without_pruning.as_dict()

    def test_pruning_visits_fewer_or_equal_nodes(self, table3):
        pruned = CloGSgrow(3, enable_lbcheck=True)
        pruned.mine(table3)
        unpruned = CloGSgrow(3, enable_lbcheck=False)
        unpruned.mine(table3)
        assert pruned.stats.nodes_visited <= unpruned.stats.nodes_visited


class TestAgainstBruteForce:
    @pytest.mark.parametrize("min_sup", [2, 3, 4])
    def test_example11(self, example11, min_sup):
        assert mine_closed(example11, min_sup).as_dict() == closed_patterns_bruteforce(
            example11, min_sup
        )

    @pytest.mark.parametrize("min_sup", [3, 4, 5])
    def test_table2(self, table2, min_sup):
        assert mine_closed(table2, min_sup).as_dict() == closed_patterns_bruteforce(
            table2, min_sup
        )

    def test_example_2_3_closed_abc_not_ab(self, table2):
        closed = mine_closed(table2, 4)
        assert "ABC" in closed
        assert "AB" not in closed


class TestCompletenessProperties:
    @pytest.mark.parametrize("min_sup", [2, 3])
    def test_every_frequent_pattern_has_closed_superpattern_with_equal_support(
        self, table3, min_sup
    ):
        all_patterns = mine_all(table3, min_sup)
        closed = mine_closed(table3, min_sup)
        for entry in all_patterns:
            assert any(
                entry.pattern.is_subpattern_of(c.pattern) and c.support == entry.support
                for c in closed
            ), f"{entry.pattern} has no closed super-pattern with equal support"

    def test_closed_set_is_subset_of_all_frequent(self, table3):
        all_patterns = mine_all(table3, 3)
        closed = mine_closed(table3, 3)
        assert closed.is_subset_of(all_patterns)


class TestOptions:
    def test_store_instances(self, table3):
        closed = mine_closed(table3, 3, store_instances=True)
        assert closed["ACB"].support_set is not None

    def test_max_length_interacts_with_closedness(self, table3):
        # With a length cap the reported set is "closed among patterns of
        # length <= cap": every reported pattern is frequent and no reported
        # pattern has an equal-support super-pattern *within the cap*.
        capped = mine_closed(table3, 3, max_length=2)
        assert all(len(p) <= 2 for p in capped.patterns())
        assert all(entry.support >= 3 for entry in capped)

    def test_events_restrict_the_patterns_not_the_closure_check(self):
        # A's append AB has A's support although B is not among the events,
        # so no append bound may be taken from the restricted list.
        db = SequenceDatabase.from_strings(["ABCAB", "AB"])
        assert mine_closed(db, 2).as_dict() == {Pattern("AB"): 3}
        assert len(mine_closed(db, 2, events=["A"])) == 0
        assert len(mine_closed(db, 2, events=["A", "C"], max_length=1)) == 0

    def test_empty_database(self):
        assert len(mine_closed(SequenceDatabase(), 1)) == 0

    def test_single_sequence_single_event(self):
        db = SequenceDatabase.from_strings(["AAAA"])
        closed = mine_closed(db, 2)
        # Landmarks may share positions at *different* indices without
        # overlapping (Definition 2.3), so in AAAA the greedy support set of
        # AA is {<1,2>, <2,3>, <3,4>} (support 3) and that of AAA is
        # {<1,2,3>, <2,3,4>} (support 2).  All three supports differ, so all
        # three patterns are closed.
        assert closed.as_dict() == {Pattern("A"): 4, Pattern("AA"): 3, Pattern("AAA"): 2}

    def test_repeated_block_collapses_to_longest(self):
        db = SequenceDatabase.from_strings(["ABCABCABC"])
        closed = mine_closed(db, 3)
        assert closed.as_dict() == {Pattern("ABC"): 3}


class _PathAuditingMiner(CloGSgrow):
    """CloGSgrow that checks, at every node, that per-node state is the live path."""

    def _prepare(self, index):
        super()._prepare(index)
        self.checker = self._checker
        self.live = []
        self.audits = 0

    def _mine_fre(self, index, support_set, events, prefix_sets):
        self.live.append(support_set.pattern.events)
        try:
            yield from super()._mine_fre(index, support_set, events, prefix_sets)
        finally:
            self.live.pop()

    def _accept(self, support_set, index, prefix_sets, events):
        accepted = super()._accept(support_set, index, prefix_sets, events)
        self._audit()
        return accepted

    def _grow_child(self, index, support_set, event):
        self._audit()
        return super()._grow_child(index, support_set, event)

    def _audit(self):
        self.audits += 1
        assert [node.events for node in self.checker.path] == self.live


class _ChildRecordingMiner(CloGSgrow):
    """CloGSgrow that records the child events of every frequent node it visits."""

    def _prepare(self, index):
        super()._prepare(index)
        self.roots = index.frequent_events(self.config.min_sup)
        self.child_events = {}

    def _mine_fre(self, index, support_set, events, prefix_sets):
        if support_set.support >= self.config.min_sup:
            self.child_events[support_set.pattern] = list(events)
        yield from super()._mine_fre(index, support_set, events, prefix_sets)


class TestPathScopedState:
    def test_node_state_never_outlives_the_live_path(self, table3):
        miner = _PathAuditingMiner(2)
        result = miner.mine(table3)
        assert result.as_dict() == CloGSgrow(2).mine(table3).as_dict()
        assert miner.audits > 0
        # Leaving the last root drops the last node.
        assert miner.checker.path == []

    def test_node_state_is_dropped_when_the_dfs_is_abandoned(self, table3):
        miner = _PathAuditingMiner(2, max_patterns=3)
        assert len(miner.mine(table3)) == 3
        assert miner.checker.path == []

    def test_each_child_is_grown_once_per_visit_of_its_parent(self, table3):
        miner = _ChildRecordingMiner(2)
        miner.mine(table3)
        visited = miner.child_events
        # The child events of P = Q∘x are P's frequent siblings: the events e
        # whose Q∘e the DFS visited (Q was not pruned, or P would not be visited).
        for pattern, events in visited.items():
            if len(pattern) == 1:
                assert events == miner.roots
            else:
                parent = pattern.prefix(len(pattern) - 1)
                assert events == [e for e in visited[parent] if parent.grow(e) in visited]
        # Uncapped, every visited node grows each of its children once.
        assert miner.stats.dfs_grow_calls == sum(len(events) for events in visited.values())
        # Growing every event at every node would take more.
        assert miner.stats.dfs_grow_calls < len(visited) * len(miner.roots)
