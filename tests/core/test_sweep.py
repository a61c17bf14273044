"""Tests for the one instance-growth sweep, :func:`repro.core.sweep.grow_triples`."""

import importlib.util
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.core import sweep
from repro.core.compressed import (
    equivalent,
    ins_grow_compressed,
    initial_compressed_support_set,
)
from repro.core.constraints import GapConstraint
from repro.core.instance_growth import ins_grow
from repro.core.support import initial_support_set
from repro.db.database import SequenceDatabase
from repro.db.index import POSITION_TYPECODE, InvertedEventIndex

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _grow(rows, positions, constraint=None):
    """Run the sweep over ``(i, first, last)`` rows; ``positions`` maps ``i`` to a column."""
    columns = {i: array(POSITION_TYPECODE, plist) for i, plist in positions.items()}
    seqs, firsts, lasts = (array(POSITION_TYPECODE, c) for c in zip(*rows, strict=True))
    grown = sweep.grow_triples(seqs, firsts, lasts, columns.get, constraint)
    return list(zip(*grown, strict=True))


class TestGreedySweep:
    def test_empty_support_set_grows_to_nothing(self):
        def column(i):
            raise AssertionError("an empty sweep reads no column")

        empty = array(POSITION_TYPECODE)
        grown = sweep.grow_triples(empty, empty[:], empty[:], column)
        assert [list(c) for c in grown] == [[], [], []]

    def test_instance_takes_the_nearest_occurrence_after_its_last_position(self):
        assert _grow([(0, 1, 2)], {0: [1, 2, 5, 7]}) == [(0, 1, 5)]

    def test_consumed_position_bounds_the_next_instance(self):
        # Both instances' nearest occurrence is 4; the second must not reuse it.
        assert _grow([(0, 1, 2), (0, 3, 3)], {0: [4, 6]}) == [(0, 1, 4), (0, 3, 6)]

    def test_rows_past_the_last_occurrence_end_only_their_sequence(self):
        rows = [(0, 1, 2), (0, 3, 3), (0, 5, 6), (1, 1, 1)]
        assert _grow(rows, {0: [4], 1: [3]}) == [(0, 1, 4), (1, 1, 3)]

    def test_sequence_without_the_event_is_skipped_and_columns_read_once(self):
        calls = []
        plists = {1: array(POSITION_TYPECODE, [5, 9])}

        def column(i):
            calls.append(i)
            return plists.get(i)

        seqs = array(POSITION_TYPECODE, [0, 0, 1, 1])
        firsts = array(POSITION_TYPECODE, [1, 4, 1, 3])
        lasts = array(POSITION_TYPECODE, [2, 6, 2, 4])
        grown = sweep.grow_triples(seqs, firsts, lasts, column)
        assert list(zip(*grown, strict=True)) == [(1, 1, 5), (1, 3, 9)]
        assert calls == [0, 1]

    def test_outputs_are_fresh_position_arrays(self):
        seqs = array(POSITION_TYPECODE, [0, 0])
        firsts = array(POSITION_TYPECODE, [1, 3])
        lasts = array(POSITION_TYPECODE, [2, 3])
        plist = array(POSITION_TYPECODE, [4, 6])
        grown = sweep.grow_triples(seqs, firsts, lasts, {0: plist}.get)
        assert all(c.typecode == POSITION_TYPECODE for c in grown)
        sources = (seqs, firsts, lasts)
        assert all(c is not source for c, source in zip(grown, sources, strict=True))
        assert (list(seqs), list(firsts), list(lasts)) == ([0, 0], [1, 3], [2, 3])


class TestGapConstraints:
    def test_min_gap_raises_the_lower_bound(self):
        # Positions 2 and 3 leave fewer than two events between them and 1.
        assert _grow([(0, 1, 1)], {0: [2, 3, 5]}, GapConstraint(min_gap=2)) == [(0, 1, 5)]

    def test_max_gap_rejection_keeps_the_occurrence_for_a_later_instance(self):
        # 6 is too far from 1 but close enough to 4, which then takes it.
        rows = [(0, 1, 1), (0, 4, 4)]
        assert _grow(rows, {0: [6]}, GapConstraint(max_gap=2)) == [(0, 4, 6)]

    @pytest.mark.parametrize(
        "constraint",
        [None, GapConstraint(1), GapConstraint(0, 2)],
        ids=["unconstrained", "min-gap-1", "max-gap-2"],
    )
    def test_random_growth_chains_match_the_full_engine(self, constraint):
        # Long sequences give many instances per sequence, the shape on
        # which a vectorised sweep used to take over.
        for seed in range(6):
            rng = random.Random(seed)
            db = SequenceDatabase.from_strings(
                [
                    "".join(rng.choice("ABC") for _ in range(rng.randint(1, 120)))
                    for _ in range(rng.randint(1, 5))
                ]
            )
            pattern = "".join(rng.choice("ABC") for _ in range(rng.randint(2, 5)))
            index = InvertedEventIndex(db)
            full = initial_support_set(index, pattern[0])
            compressed = initial_compressed_support_set(index, pattern[0])
            for event in pattern[1:]:
                full = ins_grow(index, full, event, constraint)
                compressed = ins_grow_compressed(index, compressed, event, constraint)
                assert equivalent(full, compressed), (seed, pattern, event)


class TestNoNumpy:
    def test_have_numpy_reports_whether_numpy_is_installed(self):
        assert sweep.HAVE_NUMPY == (importlib.util.find_spec("numpy") is not None)

    def test_importing_repro_does_not_import_numpy(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import repro, repro.core.sweep\n"
            "assert 'numpy' not in sys.modules, 'repro imported numpy'\n"
        )
        subprocess.run([sys.executable, "-c", script, REPO_SRC], check=True)
