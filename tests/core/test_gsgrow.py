"""Tests for the GSgrow miner (Algorithm 3)."""

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow, MinerConfig, mine_all
from repro.core.pattern import Pattern
from repro.core.reference import frequent_patterns_bruteforce
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.obs import MetricsRegistry


class TestConfigValidation:
    def test_min_sup_must_be_positive(self):
        with pytest.raises(ValueError):
            GSgrow(0)

    def test_max_length_must_be_positive(self):
        with pytest.raises(ValueError):
            GSgrow(2, max_length=0)

    def test_max_patterns_must_be_non_negative(self):
        with pytest.raises(ValueError):
            GSgrow(2, max_patterns=-1)

    def test_config_defaults(self):
        config = MinerConfig()
        assert config.min_sup == 2
        assert config.max_length is None
        assert not config.store_instances


class TestExample34:
    """Example 3.4 runs GSgrow on the Table III database with min_sup = 3."""

    def test_reported_supports(self, table3):
        result = mine_all(table3, 3)
        assert result.support_of("A") == 5
        assert result.support_of("AC") == 4
        assert result.support_of("ACB") == 3
        assert result.support_of("AB") == 3
        assert result.support_of("ABD") == 3
        assert result.support_of("AA") == 3
        assert result.support_of("ACA") == 3
        assert "AAA" not in result  # |I_AAA| = 1 < 3, pruned by Apriori

    def test_every_frequent_pattern_is_frequent(self, table3):
        result = mine_all(table3, 3)
        assert all(entry.support >= 3 for entry in result)

    def test_matches_bruteforce_frequent_set(self, table3):
        expected = frequent_patterns_bruteforce(table3, 3)
        result = mine_all(table3, 3)
        assert result.as_dict() == expected


class TestAgainstBruteForce:
    @pytest.mark.parametrize("min_sup", [2, 3, 4])
    def test_example11(self, example11, min_sup):
        assert mine_all(example11, min_sup).as_dict() == frequent_patterns_bruteforce(
            example11, min_sup
        )

    @pytest.mark.parametrize("min_sup", [3, 4, 5])
    def test_table2(self, table2, min_sup):
        assert mine_all(table2, min_sup).as_dict() == frequent_patterns_bruteforce(
            table2, min_sup
        )

    def test_max_gap_grandchild_of_infrequent_sibling(self):
        # Under a maximum gap ABC is frequent while AC is not, so growing
        # P∘e∘f only when P∘f is frequent must stay off for constrained runs.
        db = SequenceDatabase.from_strings(["ABC", "ABC"])
        result = mine_all(db, 2, constraint=GapConstraint(0, 0))
        assert result.as_dict() == {
            Pattern(p): 2 for p in ("A", "B", "C", "AB", "BC", "ABC")
        }


class TestOptions:
    def test_accepts_prebuilt_index(self, table3):
        index = InvertedEventIndex(table3)
        assert mine_all(index, 3).as_dict() == mine_all(table3, 3).as_dict()

    def test_max_length(self, table3):
        result = mine_all(table3, 3, max_length=2)
        assert all(len(p) <= 2 for p in result.patterns())
        assert "AC" in result and "ACB" not in result

    def test_max_patterns_caps_output(self, table3):
        result = mine_all(table3, 3, max_patterns=5)
        assert len(result) == 5

    def test_store_instances(self, table3):
        result = mine_all(table3, 3, store_instances=True)
        entry = result["ACB"]
        assert entry.support_set is not None
        assert entry.support_set.support == 3
        assert entry.per_sequence == {1: 2, 2: 1}

    def test_without_store_instances_no_support_sets(self, table3):
        result = mine_all(table3, 3)
        assert result["ACB"].support_set is None

    def test_restricted_events(self, table3):
        result = mine_all(table3, 3, events=["A", "C"])
        assert set("".join(str(e) for e in p) for p in result.patterns()) <= {
            "A", "C", "AC", "CA", "AA", "CC", "ACA", "CAC", "AAC", "ACC", "CCA", "CAA",
        }
        assert "AB" not in result

    def test_min_sup_one_returns_every_subsequence_pattern(self):
        db = SequenceDatabase.from_strings(["AB"])
        result = mine_all(db, 1)
        assert result.as_dict() == {
            Pattern("A"): 1,
            Pattern("B"): 1,
            Pattern("AB"): 1,
        }

    def test_empty_database(self):
        assert len(mine_all(SequenceDatabase(), 1)) == 0

    def test_threshold_above_everything(self, table3):
        assert len(mine_all(table3, 100)) == 0


class TestStats:
    def test_stats_are_populated(self, table3):
        miner = GSgrow(3)
        result = miner.mine(table3)
        stats = miner.stats.as_dict()
        assert stats["patterns_reported"] == len(result)
        assert stats["nodes_visited"] >= len(result)
        assert stats["ins_grow_calls"] > 0

    def test_stats_reset_between_runs(self, table3):
        miner = GSgrow(3)
        miner.mine(table3)
        first = miner.stats.patterns_reported
        miner.mine(table3)
        assert miner.stats.patterns_reported == first

    @pytest.mark.parametrize("stop", ["max_patterns", "abandoned"])
    def test_early_stopped_mine_records_its_dfs_phase(self, table3, stop):
        obs = MetricsRegistry()
        if stop == "max_patterns":
            miner = CloGSgrow(2, max_patterns=2, obs=obs)
            assert len(miner.mine(table3)) == 2
        else:
            miner = CloGSgrow(2, obs=obs)
            patterns = miner.mine_iter(table3)
            next(patterns)
            patterns.close()
        assert sorted(miner.stats.phase_seconds) == ["dfs", "prepare", "total"]
        CloGSgrow(2, obs=obs).mine(table3)
        snapshot = obs.snapshot()
        runs = snapshot["counters"]["mine.runs"]
        assert runs == 2
        for phase in ("prepare", "dfs", "total"):
            assert snapshot["histograms"][f"mine.phase.{phase}.seconds"]["count"] == runs
