"""Tests for :mod:`repro.core.results` containers."""

import pickle

import pytest

from repro.api import mine_many
from repro.core.clogsgrow import CloGSgrow
from repro.core.pattern import Pattern
from repro.core.results import NO_COUNTS, MinedPattern, MiningResult


def entry(pattern, support):
    return MinedPattern(pattern=Pattern(pattern), support=support)


@pytest.fixture
def sample_result():
    result = MiningResult(min_sup=2, algorithm="test")
    result.add(entry("A", 10))
    result.add(entry("AB", 6))
    result.add(entry("ABC", 6))
    result.add(entry("ABD", 3))
    result.add(entry("XY", 3))
    return result


class TestMinedPattern:
    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            MinedPattern(pattern=Pattern("A"), support=-1)

    def test_len_and_describe(self):
        e = entry("ACB", 3)
        assert len(e) == 3
        assert e.describe() == "ACB (sup=3)"

    def test_density(self):
        assert entry("ABC", 1).density() == pytest.approx(1.0)
        assert entry("AABB", 1).density() == pytest.approx(0.5)
        assert MinedPattern(pattern=Pattern(""), support=0).density() == 0.0


class TestContainerBasics:
    def test_len_iter_contains(self, sample_result):
        assert len(sample_result) == 5
        assert "AB" in sample_result
        assert "ZZ" not in sample_result
        assert {str(e.pattern) for e in sample_result} == {"A", "AB", "ABC", "ABD", "XY"}

    def test_lookup(self, sample_result):
        assert sample_result.support_of("AB") == 6
        assert sample_result["ABC"].support == 6
        assert sample_result.get("missing") is None
        with pytest.raises(KeyError):
            sample_result["missing"]

    def test_add_replaces_existing_pattern(self, sample_result):
        sample_result.add(entry("AB", 7))
        assert len(sample_result) == 5
        assert sample_result.support_of("AB") == 7

    def test_as_dict(self, sample_result):
        assert sample_result.as_dict()[Pattern("XY")] == 3

    def test_repr(self, sample_result):
        assert "5 patterns" in repr(sample_result)


class TestViews:
    def test_sorted_by_support(self, sample_result):
        supports = [e.support for e in sample_result.sorted_by_support()]
        assert supports == sorted(supports, reverse=True)

    def test_sorted_by_length(self, sample_result):
        lengths = [len(e.pattern) for e in sample_result.sorted_by_length()]
        assert lengths == sorted(lengths, reverse=True)

    def test_filtering_views(self, sample_result):
        assert len(sample_result.with_min_length(2)) == 4
        assert len(sample_result.with_support_at_least(6)) == 3
        assert len(sample_result.filter(lambda e: str(e.pattern).startswith("A"))) == 4

    def test_longest_and_most_frequent(self, sample_result):
        assert str(sample_result.longest().pattern) in {"ABC", "ABD"}
        assert str(sample_result.most_frequent().pattern) == "A"
        # Support ties (AB and ABC both have support 6) go to the longer pattern.
        assert str(sample_result.most_frequent(min_length=2).pattern) == "ABC"

    def test_longest_of_empty_result(self):
        assert MiningResult().longest() is None
        assert MiningResult().most_frequent() is None

    def test_summary(self, sample_result):
        text = sample_result.summary()
        assert "5 patterns" in text
        assert MiningResult().summary() == "0 patterns"


class TestRelations:
    def test_is_subset_of(self, sample_result):
        subset = MiningResult([entry("AB", 6), entry("ABC", 6)])
        assert subset.is_subset_of(sample_result)
        assert not sample_result.is_subset_of(subset)
        different_support = MiningResult([entry("AB", 5)])
        assert not different_support.is_subset_of(sample_result)

    def test_maximal_patterns(self, sample_result):
        maximal = sample_result.maximal_patterns()
        assert "A" not in maximal and "AB" not in maximal
        assert "ABC" in maximal and "ABD" in maximal and "XY" in maximal


class TestLeanMinedPattern:
    """A pattern mined without instances carries no per-pattern dictionary."""

    def test_mined_pattern_has_no_instance_dict(self):
        assert not hasattr(entry("AB", 3), "__dict__")

    def test_compressed_patterns_share_one_empty_per_sequence(self, table3):
        first, second, *_ = CloGSgrow(2).mine(table3)
        assert first.per_sequence == {}
        assert first.per_sequence is second.per_sequence
        with pytest.raises(TypeError):
            first.per_sequence[0] = 1

    def test_kept_instances_keep_their_counts(self, table3):
        for mined in CloGSgrow(2, store_instances=True).mine(table3):
            assert mined.per_sequence == mined.support_set.per_sequence_counts()
            assert sum(mined.per_sequence.values()) == mined.support

    @pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
    def test_result_pickles_and_round_trips(self, table3, store_instances):
        result = CloGSgrow(2, store_instances=store_instances).mine(table3)
        copy = pickle.loads(pickle.dumps(result))
        assert list(copy) == list(result)
        assert [p.per_sequence for p in copy] == [p.per_sequence for p in result]
        if not store_instances:
            assert all(p.per_sequence is NO_COUNTS for p in copy)

    @pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
    def test_pooled_mine_many_equals_serial(self, table2, table3, store_instances):
        serial = mine_many([table2, table3], 2, store_instances=store_instances)
        pooled = mine_many([table2, table3], 2, store_instances=store_instances, n_jobs=2)
        assert [list(r) for r in pooled] == [list(r) for r in serial]
        assert [[p.per_sequence for p in r] for r in pooled] == [
            [p.per_sequence for p in r] for r in serial
        ]
        if not store_instances:  # unpickled in this process, still the shared mapping
            assert all(p.per_sequence is NO_COUNTS for r in pooled for p in r)
