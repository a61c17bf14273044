"""SpillPolicy: support sets over budget move to disk, invisibly.

A spilled set must be observationally identical to the resident one — same
pattern, same rows, same downstream behaviour through the engines — with
its columns rewritten as ``memoryview`` s over an (unlinked) mmap'd temp
file.  Under budget the very same object passes through; without
:mod:`mmap` the policy degrades to a counted no-op.
"""

from __future__ import annotations

from array import array

import pytest

from repro.core.compressed import CompressedSupportSet
from repro.core.gsgrow import GSgrow, mine_all
from repro.core.spill import SpillPolicy, spilled_bytes
from repro.core.support import SupportSet
from repro.db.database import SequenceDatabase
from repro.obs import MetricsRegistry

Q = "q"


def full_set(rows=4):
    """A SupportSet of `rows` instances of the length-2 pattern "ab"."""
    seqs = array(Q, range(1, rows + 1))
    landmarks = array(Q)
    for k in range(rows):
        landmarks.extend((k + 1, k + 3))
    return SupportSet.from_arrays("ab", seqs, landmarks, 2)


def compressed_set(rows=4):
    seqs = array(Q, range(1, rows + 1))
    firsts = array(Q, (k + 1 for k in range(rows)))
    lasts = array(Q, (k + 3 for k in range(rows)))
    return CompressedSupportSet.from_arrays("ab", seqs, firsts, lasts)


class TestBudgetArithmetic:
    def test_full_set_bytes(self):
        # rows * (1 seq column + row_width landmarks) * 8 bytes
        assert spilled_bytes(full_set(rows=4)) == 4 * 3 * 8

    def test_compressed_set_bytes(self):
        # three int64 columns per row
        assert spilled_bytes(compressed_set(rows=5)) == 5 * 3 * 8

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="spill budget"):
            SpillPolicy(0)


class TestMaybeSpill:
    def test_under_budget_returns_the_same_object(self):
        policy = SpillPolicy(1 << 20)
        support = full_set()
        assert policy.maybe_spill(support) is support

    def test_over_budget_full_set_spills_equal(self, tmp_path):
        policy = SpillPolicy(1, directory=str(tmp_path))
        if not policy.enabled:
            pytest.skip("no zero-copy mapping on this platform")
        support = full_set()
        spilled = policy.maybe_spill(support)
        assert spilled is not support
        assert spilled == support  # SupportSet equality: pattern + columns
        assert isinstance(spilled.seq_indices_array, memoryview)
        assert isinstance(spilled.landmarks_array, memoryview)
        assert spilled.row_width == support.row_width
        assert list(spilled) == list(support)  # materialised instances agree

    def test_over_budget_compressed_set_spills_equal(self, tmp_path):
        policy = SpillPolicy(1, directory=str(tmp_path))
        if not policy.enabled:
            pytest.skip("no zero-copy mapping on this platform")
        support = compressed_set()
        spilled = policy.maybe_spill(support)
        assert spilled is not support
        assert list(spilled.seq_indices_array) == list(support.seq_indices_array)
        assert list(spilled.firsts_array) == list(support.firsts_array)
        assert list(spilled.lasts_array) == list(support.lasts_array)
        assert isinstance(spilled.seq_indices_array, memoryview)

    def test_spill_files_do_not_linger(self, tmp_path):
        policy = SpillPolicy(1, directory=str(tmp_path))
        if not policy.enabled:
            pytest.skip("no zero-copy mapping on this platform")
        policy.maybe_spill(full_set(rows=64))
        # Spill files are unlinked the moment they are mapped.
        assert list(tmp_path.iterdir()) == []

    def test_counters_record_spills_and_bytes(self, tmp_path):
        obs = MetricsRegistry()
        policy = SpillPolicy(1, directory=str(tmp_path), obs=obs)
        if not policy.enabled:
            pytest.skip("no zero-copy mapping on this platform")
        support = full_set()
        policy.maybe_spill(support)
        policy.maybe_spill(full_set())
        assert obs.counter("core.spill.spills").value == 2
        assert obs.counter("core.spill.bytes").value == 2 * spilled_bytes(support)
        assert obs.counter("core.spill.skipped").value == 0

    def test_without_mmap_the_policy_is_a_counted_noop(self, no_mmap):
        obs = MetricsRegistry()
        policy = SpillPolicy(1, obs=obs)
        assert not policy.enabled
        support = full_set()
        assert policy.maybe_spill(support) is support
        assert obs.counter("core.spill.skipped").value == 1
        assert obs.counter("core.spill.spills").value == 0


class TestMiningWithSpill:
    SEQUENCES = ["abcabcab", "bcabca", "aabbcc", "cabcab", "abcbacb"] * 3

    def canon(self, result):
        return sorted((tuple(map(repr, mp.pattern.events)), mp.support) for mp in result)

    def test_spilled_mining_matches_resident_mining(self, tmp_path):
        database = SequenceDatabase(self.SEQUENCES)
        baseline = mine_all(database, 4, max_length=4)
        obs = MetricsRegistry()
        miner = GSgrow(4, max_length=4, spill_budget=1, spill_dir=str(tmp_path), obs=obs)
        spilled = miner.mine(SequenceDatabase(self.SEQUENCES))
        assert self.canon(spilled) == self.canon(baseline)
        if SpillPolicy(1).enabled:
            assert obs.counter("core.spill.spills").value > 0

    def test_spilled_mining_matches_on_disk_backend_too(self, tmp_path):
        """Both seams engaged at once: disk index columns + spilled frontiers."""
        baseline = mine_all(SequenceDatabase(self.SEQUENCES), 4, max_length=4)
        miner = GSgrow(
            4,
            max_length=4,
            db_backend="disk",
            db_dir=str(tmp_path / "db"),
            spill_budget=1,
            spill_dir=str(tmp_path / "spill"),
        )
        result = miner.mine(SequenceDatabase(self.SEQUENCES))
        assert self.canon(result) == self.canon(baseline)
