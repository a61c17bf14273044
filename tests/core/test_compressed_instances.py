"""Tests for the compressed instance storage of Section III-D."""

from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.compressed import (
    CompressedSupportSet,
    compress,
    equivalent,
    ins_grow_compressed,
    initial_compressed_support_set,
    sup_comp_compressed,
)
from repro.core.constraints import GapConstraint
from repro.core.instance_growth import ins_grow
from repro.core.pattern import Pattern
from repro.core.support import initial_support_set, sup_comp
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex


@pytest.fixture(autouse=True)
def validate_right_shift_order(monkeypatch):
    """Run every compressed-storage test with the order assertion armed."""
    import repro.core.compressed as compressed_module

    monkeypatch.setattr(compressed_module, "VALIDATE_ORDER", True)


class TestContainer:
    def test_sorted_into_right_shift_order(self):
        cset = CompressedSupportSet("AB", [(2, 1, 4), (1, 4, 6), (1, 1, 2)])
        assert cset.triples == [(1, 1, 2), (1, 4, 6), (2, 1, 4)]
        assert cset.support == 3

    def test_views(self):
        cset = CompressedSupportSet("AB", [(1, 1, 2), (1, 4, 6), (2, 1, 4)])
        assert cset.last_positions() == [(1, 2), (1, 6), (2, 4)]
        assert cset.per_sequence_counts() == {1: 2, 2: 1}

    def test_equality(self):
        a = CompressedSupportSet("A", [(1, 1, 1)])
        b = CompressedSupportSet("A", [(1, 1, 1)])
        assert a == b


class TestAgainstFullLandmarks:
    def test_table4_walkthrough(self, table3, table3_index):
        cset = sup_comp_compressed(table3_index, "ACB")
        assert cset.support == 3
        assert cset.triples == [(1, 1, 6), (1, 4, 9), (2, 1, 4)]
        assert equivalent(sup_comp(table3, "ACB"), cset)

    def test_initial_sets_match(self, table3_index):
        full = initial_support_set(table3_index, "A")
        compressed = initial_compressed_support_set(table3_index, "A")
        assert equivalent(full, compressed)

    def test_single_growth_step_matches(self, table3_index):
        full = ins_grow(table3_index, initial_support_set(table3_index, "A"), "C")
        compressed = ins_grow_compressed(
            table3_index, initial_compressed_support_set(table3_index, "A"), "C"
        )
        assert equivalent(full, compressed)

    def test_compress_helper(self, table3):
        full = sup_comp(table3, "AD")
        assert compress(full).triples == full.compressed()

    def test_constraint_forwarded(self, table3, table3_index):
        constraint = GapConstraint(0, 1)
        full = sup_comp(table3, "AC", constraint=constraint)
        compressed = sup_comp_compressed(table3_index, "AC", constraint=constraint)
        assert equivalent(full, compressed)

    def test_empty_pattern_rejected(self, table3_index):
        with pytest.raises(ValueError):
            sup_comp_compressed(table3_index, "")


class TestFromArrays:
    def test_trusted_columns_round_trip(self):
        seqs = array("q", [1, 1, 2])
        firsts = array("q", [1, 4, 1])
        lasts = array("q", [2, 6, 4])
        cset = CompressedSupportSet.from_arrays("AB", seqs, firsts, lasts)
        assert cset.triples == [(1, 1, 2), (1, 4, 6), (2, 1, 4)]
        assert cset == CompressedSupportSet("AB", [(2, 1, 4), (1, 1, 2), (1, 4, 6)])

    def test_out_of_order_columns_rejected_by_debug_assertion(self):
        seqs = array("q", [1, 1])
        firsts = array("q", [4, 1])
        lasts = array("q", [6, 2])  # descending last within the sequence
        with pytest.raises(AssertionError):
            CompressedSupportSet.from_arrays("AB", seqs, firsts, lasts)

    def test_growth_emits_right_shift_order_without_sorting(self, table3_index):
        # The growth path goes through from_arrays, whose debug assertion
        # would fire if the sweep ever emitted out-of-order triples.
        cset = sup_comp_compressed(table3_index, "ACB")
        assert cset.triples == sorted(cset.triples, key=lambda t: (t[0], t[2]))


class TestSweepBackends:
    """The scalar sweep is the one backend; large sets still match full."""

    def test_python_fallback_matches_full(self):
        db = SequenceDatabase.from_strings(["ABCABCABCABC" * 8, "ACBACB" * 10])
        index = InvertedEventIndex(db)
        assert equivalent(sup_comp(index, "ABCA"), sup_comp_compressed(index, "ABCA"))


class TestPropertyEquivalence:
    EVENTS = "ABC"
    sequences = st.text(alphabet=EVENTS, min_size=1, max_size=10)
    databases = st.lists(sequences, min_size=1, max_size=4).map(SequenceDatabase.from_strings)
    patterns = st.text(alphabet=EVENTS, min_size=1, max_size=4).map(Pattern)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(databases, patterns)
    def test_compressed_and_full_always_agree(self, db, pattern):
        index = InvertedEventIndex(db)
        assert equivalent(sup_comp(index, pattern), sup_comp_compressed(index, pattern))
