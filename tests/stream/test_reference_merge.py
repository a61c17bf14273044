"""The incremental stream merge and closed filter against a from-scratch reference.

``ReferenceMiner`` keeps an independent oracle as test-local code:

* its merge takes the union of the shard tables, sorts all of it by
  ``(len, repr)`` and bounds every candidate in every shard before the
  prefix/suffix tightening and the gap-fill;
* with a ``max_length`` cap and ``closed=True`` it mines every shard one
  event deeper than the cap, so a cap-length key's one-event extensions are
  in its merged table, and its closed filter scans them with a subsequence
  check before truncating the result at the cap.

:class:`StreamMiner` keeps a running total per key across refreshes, bounds
only the keys whose total can still reach ``min_sup``, mines shards only to
the cap and finds cap-length witnesses through the merged table.  Over random
schedules the two must agree on every result, on every delta and its order,
on every summary and on every :class:`StreamStats` field but
``sup_comp_calls`` and ``witness_calls`` (the two make different support
queries by design).  The
running totals must always equal a recount over the live shards' caches, and
every cached witness support must equal a fresh support query on its shard.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pattern import Pattern
from repro.core.support import repetitive_support
from repro.datagen.markov import MarkovSequenceGenerator
from repro.stream import StreamMiner


class ReferenceMiner(StreamMiner):
    """A :class:`StreamMiner` that merges from scratch and filters one level deeper."""

    def _remine_stale(self):
        # Mine the shards one event deeper than a closed miner's cap.
        cap = self.max_length
        if cap is not None and self.closed:
            self.max_length = cap + 1
        try:
            super()._remine_stale()
        finally:
            self.max_length = cap

    def _closed_filter(self, frequent, per_shard):
        by_len_sup = {}
        for key, support in frequent.items():
            by_len_sup.setdefault((len(key), support), []).append(key)
        closed = {}
        for key, support in frequent.items():
            witnesses = by_len_sup.get((len(key) + 1, support), ())
            if not any(_is_subsequence(key, bigger) for bigger in witnesses):
                closed[key] = support
        if self.max_length is None:
            return closed
        return {key: support for key, support in closed.items() if len(key) <= self.max_length}

    def _merged_supports(self):
        shards = self._shards
        candidates = set()
        for shard in shards:
            candidates.update(
                key for key, support in shard.supports.items() if support >= shard.mined_threshold
            )
        merged = {}
        per_shard = {}
        for key in sorted(candidates, key=lambda k: (len(k), [repr(e) for e in k])):
            bounds = [shard.supports.get(key, shard.mined_threshold - 1) for shard in shards]
            if len(key) > 1:
                prefix, suffix = per_shard.get(key[:-1]), per_shard.get(key[1:])
                if prefix is None or suffix is None:
                    continue
                bounds = [
                    min(own, before, after)
                    for own, before, after in zip(bounds, prefix, suffix, strict=True)
                ]
            if sum(bounds) < self.min_sup:
                continue
            supports = [
                self._gap_fill(shard, key) if bound else 0
                for shard, bound in zip(shards, bounds, strict=True)
            ]
            total = sum(supports)
            if total >= self.min_sup:
                merged[key] = total
                per_shard[key] = supports
        return merged, per_shard


def _is_subsequence(small, big) -> bool:
    """True if ``small`` is a (gapped) subsequence of ``big``."""
    pos = 0
    for event in small:
        while pos < len(big) and big[pos] != event:
            pos += 1
        if pos == len(big):
            return False
        pos += 1
    return True


def _pool(seed: int, n: int = 160) -> list:
    return MarkovSequenceGenerator(
        num_sequences=n, num_events=6, average_length=10.0, concentration=4.0, seed=seed
    ).generate().sequences


def _rows(patterns) -> list:
    return [(mp.pattern.events, mp.support) for mp in patterns]


def recount(miner: StreamMiner) -> dict:
    """Every key's running total, recomputed from the live shards' caches."""
    totals: dict = {}
    for shard in miner._shards:
        for key, support in shard.supports.items():
            totals[key] = totals.get(key, 0) + support - shard.floor
    return totals


def assert_totals_recount(miner: StreamMiner) -> None:
    counted = recount(miner)
    assert miner._totals == {key: total for key, total in counted.items() if total}
    assert set(miner._totals) <= set(counted)


def assert_witnesses_exact(miner: StreamMiner) -> int:
    """Every cached witness support is the shard's current support of that key.

    Returns how many cached supports it checked.
    """
    checked = 0
    for shard in miner._shards:
        for key, support in shard.witnesses.items():
            assert support == repetitive_support(shard.stream.index, Pattern(key)), key
            checked += 1
    return checked


def stats_but_queries(miner: StreamMiner) -> dict:
    """The miner's :class:`StreamStats` without ``sup_comp_calls`` and ``witness_calls``."""
    stats = miner.stats.as_dict()
    del stats["sup_comp_calls"], stats["witness_calls"]
    return stats


def assert_same_update(update, expected) -> None:
    assert _rows(update.result) == _rows(expected.result)
    assert _rows(update.new_patterns) == _rows(expected.new_patterns)
    assert _rows(update.changed_patterns) == _rows(expected.changed_patterns)
    assert [p.events for p in update.expired_patterns] == [
        p.events for p in expected.expired_patterns
    ]
    assert update.summary() == expected.summary()


def run_schedule(seed: int, batches: int, *, extend: float = 0.0, step: float = 1.0, **config):
    """Drive both miners through one random schedule.

    Returns the incremental miner's stats and its running totals after the
    last refresh, and how many cached witness supports were checked over the
    run (both miners are closed on the way out).

    Each batch appends 1-6 sequences (timestamps ``step`` apart when the
    miner has a time window), extends a live sequence with probability
    ``extend`` after each append, and ends in a refresh of both miners.
    """
    rng = random.Random(seed)
    pool = _pool(seed)
    miner, reference = StreamMiner(**config), ReferenceMiner(**config)
    clock = 0.0
    checked = 0
    try:
        for _ in range(batches):
            for _ in range(rng.randint(1, 6)):
                sequence = rng.choice(pool)
                clock += step * rng.random() * 2
                stamp = clock if config.get("window_seconds") else None
                assert miner.append(sequence, stamp) == reference.append(sequence, stamp)
                if rng.random() < extend:
                    handle = rng.choice(sorted(miner._shard_of))
                    events = [f"e{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
                    miner.extend(handle, events)
                    reference.extend(handle, events)
            assert_same_update(miner.refresh(), reference.refresh())
            assert stats_but_queries(miner) == stats_but_queries(reference)
            assert_totals_recount(miner)
            checked += assert_witnesses_exact(miner)
        return miner.stats, dict(miner._totals), checked
    finally:
        miner.close()
        reference.close()


SEEDS = [11, 12, 13]


class TestIncrementalMergeMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_count_window_with_partial_evictions(self, seed, closed, cap):
        run_schedule(seed, 20, min_sup=6, closed=closed, shard_size=4, window=14, max_length=cap)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_time_window_with_partial_evictions(self, seed, closed, cap):
        run_schedule(
            seed, 20, min_sup=5, closed=closed, shard_size=3, window_seconds=12.0, max_length=cap
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extends_inside_a_sliding_window(self, seed):
        run_schedule(seed, 20, extend=0.4, min_sup=6, shard_size=4, window=11, max_length=4)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    def test_no_window_with_falling_thresholds(self, seed, closed):
        # Shard count grows every few batches, so the SON bound falls and
        # every shard is re-mined at the lower threshold now and then.
        stats, _, _ = run_schedule(seed, 12, extend=0.2, min_sup=24, closed=closed, shard_size=3)
        assert stats.shards_remined > stats.refreshes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_witness_caches_track_extends_evictions_and_falling_thresholds(self, seed):
        # A time window keeps the SON bound tracking the shard count, which
        # grows until the window fills, and evicts part of the oldest shard;
        # extends dirty older shards.  Every cached witness support must
        # stay the support of its shard's current contents.
        stats, _, checked = run_schedule(
            seed, 24, extend=0.3, step=0.6, min_sup=8, shard_size=3,
            window_seconds=18.0, max_length=2,
        )
        assert stats.extends and stats.evictions
        assert stats.shards_remined > stats.refreshes
        assert checked

    def test_uncapped_closed_mining(self):
        run_schedule(3, 10, min_sup=6, shard_size=5, window=16)

    def test_pooled_remine(self):
        run_schedule(4, 6, min_sup=8, shard_size=4, window=14, max_length=3, n_jobs=2)

    def test_disk_backend(self, tmp_path):
        run_schedule(
            5, 12, extend=0.2, min_sup=6, shard_size=4, window=13, max_length=4,
            db_backend="disk", db_dir=tmp_path,
        )

    def test_totals_track_fifty_batches_of_a_sliding_window(self):
        stats, totals, _ = run_schedule(
            21, 50, extend=0.1, min_sup=6, shard_size=5, window=17, max_length=4
        )
        assert stats.evictions > 100
        assert totals  # the window still holds frequent keys
