"""The incremental stream merge against a from-scratch reference merge.

``ReferenceMiner`` keeps the from-scratch merge as a test-local oracle.  On
every refresh it takes the union of the shard tables, sorts all of it by
``(len, repr)`` and bounds every candidate in every shard before the
prefix/suffix tightening and the gap-fill.  :class:`StreamMiner` keeps a
running total per key across refreshes and bounds only the keys whose total
can still reach ``min_sup``.  Over random schedules the two must agree on
every result, on every delta and its order, and on every gap-fill
(``sup_comp_calls``), and the running totals must always equal a recount
over the live shards' caches.
"""

from __future__ import annotations

import random

import pytest

from repro.datagen.markov import MarkovSequenceGenerator
from repro.stream import StreamMiner


class ReferenceMiner(StreamMiner):
    """A :class:`StreamMiner` whose merge re-bounds the whole candidate union."""

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
        return merged


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
    last refresh (both miners are closed on the way out).

    Each batch appends 1-6 sequences (timestamps ``step`` apart when the
    miner has a time window), extends a live sequence with probability
    ``extend`` after each append, and ends in a refresh of both miners.
    """
    rng = random.Random(seed)
    pool = _pool(seed)
    miner, reference = StreamMiner(**config), ReferenceMiner(**config)
    clock = 0.0
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
            assert miner.stats.as_dict() == reference.stats.as_dict()
            assert_totals_recount(miner)
        return miner.stats, dict(miner._totals)
    finally:
        miner.close()
        reference.close()


SEEDS = [11, 12, 13]


class TestIncrementalMergeMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    def test_count_window_with_partial_evictions(self, seed, closed):
        run_schedule(seed, 20, min_sup=6, closed=closed, shard_size=4, window=14, max_length=4)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    def test_time_window_with_partial_evictions(self, seed, closed):
        run_schedule(
            seed, 20, min_sup=5, closed=closed, shard_size=3, window_seconds=12.0, max_length=3
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extends_inside_a_sliding_window(self, seed):
        run_schedule(seed, 20, extend=0.4, min_sup=6, shard_size=4, window=11, max_length=4)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    def test_no_window_with_falling_thresholds(self, seed, closed):
        # Shard count grows every few batches, so the SON bound falls and
        # every shard is re-mined at the lower threshold now and then.
        stats, _ = run_schedule(seed, 12, extend=0.2, min_sup=24, closed=closed, shard_size=3)
        assert stats.shards_remined > stats.refreshes

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
        stats, totals = run_schedule(
            21, 50, extend=0.1, min_sup=6, shard_size=5, window=17, max_length=4
        )
        assert stats.evictions > 100
        assert totals  # the window still holds frequent keys
