"""Streaming-equivalence regression tests for the windowed StreamMiner.

The contract under test is the acceptance criterion of the streaming
subsystem: after *any* append schedule (with or without sliding-window
eviction, pattern-length caps, and event extensions of existing sequences),
the StreamMiner's pattern set is **byte-identical** to a full batch
``mine_closed`` (or ``mine_all``) over the equivalent static database.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.clogsgrow import mine_closed
from repro.core.gsgrow import mine_all
from repro.datagen.markov import MarkovSequenceGenerator
from repro.stream import StreamMiner
from repro.stream.miner import _deletions, _extensions

SEEDS = [0, 1, 2]
#: Length caps of the batch-oracle tests; at cap 1 a cap-length key's only
#: one-event deletion is the empty pattern.
CAPS = [1, 2, 4]


def _markov_sequences(seed, n=24):
    db = MarkovSequenceGenerator(
        num_sequences=n, num_events=6, average_length=12.0, concentration=4.0, seed=seed
    ).generate()
    return db.sequences


def canon(result):
    """Canonical (pattern, support) serialization for byte-identity checks."""
    return b"\n".join(
        f"{'|'.join(map(repr, mp.pattern.events))}\t{mp.support}".encode()
        for mp in sorted(result, key=lambda mp: (len(mp.pattern), repr(mp.pattern.events)))
    )


def batch_oracle(miner: StreamMiner):
    """Full batch mine over the equivalent static database."""
    snapshot = miner.snapshot_database()
    if miner.closed:
        return mine_closed(snapshot, miner.min_sup, max_length=miner.max_length)
    return mine_all(snapshot, miner.min_sup, max_length=miner.max_length)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("cap", CAPS)
    def test_interleaved_refreshes_match_batch_oracle(self, seed, closed, cap):
        rng = random.Random(seed)
        miner = StreamMiner(6, closed=closed, shard_size=5, max_length=cap)
        for seq in _markov_sequences(seed):
            miner.append(seq)
            if rng.random() < 0.3:
                update = miner.refresh()
                assert canon(update.result) == canon(batch_oracle(miner))
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cap", CAPS)
    def test_sliding_window_eviction_matches_batch_oracle(self, seed, cap):
        miner = StreamMiner(5, shard_size=4, window=10, max_length=cap)
        for step, seq in enumerate(_markov_sequences(seed)):
            miner.append(seq)
            assert len(miner) <= 10
            if step % 5 == 0:
                assert canon(miner.refresh().result) == canon(batch_oracle(miner))
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cap", CAPS)
    def test_extending_existing_sequences_matches_batch_oracle(self, seed, cap):
        rng = random.Random(seed + 7)
        miner = StreamMiner(5, shard_size=4, max_length=cap)
        handles = []
        for seq in _markov_sequences(seed, n=12):
            handles.append(miner.append(seq))
            if handles and rng.random() < 0.6:
                target = rng.choice(handles)
                miner.extend(target, [f"e{rng.randrange(6)}" for _ in range(2)])
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))

    def test_uncapped_mining_matches_batch_oracle(self):
        miner = StreamMiner(6, shard_size=6)
        for seq in _markov_sequences(4, n=18):
            miner.append(seq)
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))


class TestIncrementalScheduling:
    def test_only_dirty_shards_are_remined(self):
        sequences = _markov_sequences(1, n=20)
        miner = StreamMiner(6, shard_size=5, max_length=4)
        for seq in sequences[:15]:
            miner.append(seq)
        first = miner.refresh()
        assert first.shards_remined == miner.shard_count
        # One more append dirties only the open shard.
        miner.append(sequences[15])
        update = miner.refresh()
        assert miner.shard_count > 1
        assert update.shards_remined == 1
        # A refresh with no ingestion re-mines nothing at all.
        assert miner.refresh().shards_remined == 0

    def test_refresh_deltas_are_consistent(self):
        sequences = _markov_sequences(2, n=20)
        miner = StreamMiner(6, shard_size=5, max_length=4)
        miner.append_many(sequences[:10])
        previous = {mp.pattern.events: mp.support for mp in miner.refresh().result}
        miner.append_many(sequences[10:])
        update = miner.refresh()
        current = {mp.pattern.events: mp.support for mp in update.result}
        assert {mp.pattern.events for mp in update.new_patterns} == set(current) - set(previous)
        assert {p.events for p in update.expired_patterns} == set(previous) - set(current)
        assert {mp.pattern.events for mp in update.changed_patterns} == {
            key for key in set(previous) & set(current) if previous[key] != current[key]
        }

    def test_extend_after_partial_eviction_targets_right_sequence(self):
        # Evicting part of the oldest shard shifts every surviving local
        # offset; the handle->offset map must shift with it.
        miner = StreamMiner(2, shard_size=4, window=5)
        handles = miner.append_many(["AB", "CD", "EF", "GH", "IJ", "KL"])
        miner.extend(handles[1], "X")  # handles[0] was evicted
        extended = miner.snapshot_database().sequences[0]
        assert extended.events == ("C", "D", "X")

    def test_eviction_rebuilds_no_shard_per_evicted_sequence(self, monkeypatch):
        # A full 60-sequence window of 12-sequence shards: the next 12
        # appends evict the oldest shard one sequence at a time.  Evicted
        # sequences are dropped when the shard is next re-mined, so the
        # only index appends are the 12 new sequences (rebuilding the oldest
        # shard after each eviction made 11 + 10 + ... + 1 more).
        from repro.db.index import InvertedEventIndex

        sequences = _markov_sequences(3, n=72)
        miner = StreamMiner(30, shard_size=12, window=60, max_length=4)
        miner.append_many(sequences[:60])
        miner.refresh()
        calls = []
        original = InvertedEventIndex.append_sequence

        def counted(index, sequence):
            calls.append(sequence)
            return original(index, sequence)

        monkeypatch.setattr(InvertedEventIndex, "append_sequence", counted)
        miner.append_many(sequences[60:])
        assert len(calls) == 12
        assert len(miner) == 60
        assert miner.snapshot_database().sequences == sequences[12:]
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))

    def test_partial_eviction_is_compacted_at_the_next_remine(self):
        miner = StreamMiner(3, shard_size=4, window=10, max_length=3)
        sequences = _markov_sequences(5, n=13)
        miner.append_many(sequences)
        oldest = miner._shards[0]
        assert (len(oldest), oldest.evicted) == (1, 3)
        assert canon(miner.refresh().result) == canon(batch_oracle(miner))
        assert (len(oldest.stream), oldest.evicted) == (1, 0)
        assert miner.snapshot_database().sequences == sequences[3:]

    def test_remine_span_is_a_sibling_of_the_merge_span(self):
        from repro.obs import MetricsRegistry, TraceRecorder

        obs = MetricsRegistry(recorder=TraceRecorder())
        miner = StreamMiner(4, shard_size=4, max_length=4, obs=obs)
        miner.append_many(_markov_sequences(0, n=12))
        miner.refresh()
        spans = {s.name: s for s in obs.recorder.spans()}
        refresh = spans["stream.refresh.seconds"]
        assert spans["stream.remine.seconds"].parent_id == refresh.span_id
        assert spans["stream.merge.seconds"].parent_id == refresh.span_id

    def test_eviction_invalidates_handles(self):
        miner = StreamMiner(2, shard_size=2, window=4)
        handles = miner.append_many(["AB", "BC", "CA", "AB", "BC", "CA"])
        with pytest.raises(KeyError):
            miner.extend(handles[0], "A")
        miner.extend(handles[-1], "A")  # retained sequences stay extendable
        assert len(miner) == 4

    def test_update_summary_mentions_window_and_patterns(self):
        miner = StreamMiner(2, shard_size=2)
        miner.append_many(["ABAB", "ABAB"])
        update = miner.refresh()
        text = update.summary()
        assert "window=2" in text and "patterns" in text


class TestQueryCounters:
    def test_witness_calls_count_the_witness_confirmations(self, monkeypatch):
        # Every `repetitive_support` call of the miner is a gap-fill or a
        # witness confirmation: `sup_comp_calls` counts both, and
        # `witness_calls` the confirmations alone.
        from repro.obs import MetricsRegistry
        from repro.stream import miner as miner_module

        calls = {"gap_fill": 0, "witness": 0}
        caller: list[str] = []
        support = miner_module.repetitive_support

        def counted(*args, **kwargs):
            calls[caller[-1]] += 1
            return support(*args, **kwargs)

        def marked(name, method):
            def wrapper(*args, **kwargs):
                caller.append(name)
                try:
                    return method(*args, **kwargs)
                finally:
                    caller.pop()

            return wrapper

        monkeypatch.setattr(miner_module, "repetitive_support", counted)
        monkeypatch.setattr(StreamMiner, "_gap_fill", marked("gap_fill", StreamMiner._gap_fill))
        monkeypatch.setattr(
            StreamMiner, "_is_witness", marked("witness", StreamMiner._is_witness)
        )
        obs = MetricsRegistry()
        miner = StreamMiner(10, shard_size=5, window=20, max_length=2, obs=obs)
        sequences = _markov_sequences(7, n=40)
        for start in range(0, 40, 5):
            miner.append_many(sequences[start : start + 5])
            miner.refresh()
        assert calls == {"gap_fill": 28, "witness": 196}
        assert miner.stats.witness_calls == 196
        assert miner.stats.sup_comp_calls == 28 + 196
        counters = obs.snapshot()["counters"]
        assert counters["stream.witness_calls"] == 196
        assert counters["stream.sup_comp_calls"] == 28 + 196


class TestPooledRemine:
    """``n_jobs`` shard re-mining equals the serial path, patterns and stats.

    Shards are independent databases and GSgrow is deterministic, so the
    pooled fan-out through :func:`repro.api.mine_many` must be invisible:
    byte-identical results against the batch oracle at every refresh, the
    same shards-remined accounting, and spans recorded under the miner's
    registry rather than lost in the workers.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pooled_refreshes_match_serial_and_oracle(self, seed):
        serial = StreamMiner(5, shard_size=4, max_length=4)
        pooled = StreamMiner(5, shard_size=4, max_length=4, n_jobs=2)
        for seq in _markov_sequences(seed, n=16):
            serial.append(seq)
            pooled.append(seq)
        serial_update = serial.refresh()
        pooled_update = pooled.refresh()
        assert canon(pooled_update.result) == canon(serial_update.result)
        assert canon(pooled_update.result) == canon(batch_oracle(pooled))
        assert pooled.stats.shards_remined == serial.stats.shards_remined

    def test_pooled_remine_records_span_on_parent_registry(self):
        from repro.obs import MetricsRegistry, TraceRecorder

        obs = MetricsRegistry(recorder=TraceRecorder())
        miner = StreamMiner(4, shard_size=4, max_length=4, n_jobs=2, obs=obs)
        for seq in _markov_sequences(0, n=12):
            miner.append(seq)
        miner.refresh()
        names = {s.name for s in obs.recorder.spans()}
        assert "stream.remine.seconds" in names
        assert "mine.worker.seconds" in names  # worker spans made it home

    def test_pooled_refresh_leaves_serial_instruments(self, instrument_counts):
        from repro.obs import MetricsRegistry

        registries = {}
        for n_jobs in (None, 2):
            registries[n_jobs] = obs = MetricsRegistry()
            miner = StreamMiner(4, shard_size=4, max_length=4, n_jobs=n_jobs, obs=obs)
            for seq in _markov_sequences(0, n=12):
                miner.append(seq)
            miner.refresh()
        serial, pooled = (instrument_counts(registries[n]) for n in (None, 2))
        assert pooled == serial
        assert serial["histograms"]["stream.remine.seconds"] == 1  # one per refresh
        assert serial["histograms"]["mine.worker.seconds"] == 3  # one per shard

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pooled_disk_shards_match_serial_ram(self, seed, tmp_path):
        serial = StreamMiner(5, shard_size=4, max_length=4)
        pooled = StreamMiner(
            5, shard_size=4, max_length=4, db_backend="disk", db_dir=tmp_path, n_jobs=2
        )
        try:
            for seq in _markov_sequences(seed, n=16):
                serial.append(seq)
                pooled.append(seq)
            assert canon(pooled.refresh().result) == canon(serial.refresh().result)
            assert pooled.stats.shards_remined == serial.stats.shards_remined
        finally:
            pooled.close()

    def test_single_stale_shard_stays_serial(self):
        miner = StreamMiner(3, shard_size=64, n_jobs=4)
        for seq in _markov_sequences(1, n=8):
            miner.append(seq)
        update = miner.refresh()  # one shard -> serial remine, no pool spin-up
        assert canon(update.result) == canon(batch_oracle(miner))
        assert miner.stats.shards_remined == 1


class TestValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            StreamMiner(0)
        with pytest.raises(ValueError):
            StreamMiner(2, shard_size=0)
        with pytest.raises(ValueError):
            StreamMiner(2, window=0)
        with pytest.raises(ValueError):
            StreamMiner(2, max_length=0)

    def test_empty_stream_has_empty_result(self):
        miner = StreamMiner(2)
        update = miner.refresh()
        assert len(update.result) == 0
        assert update.total_sequences == 0


class TestClosedFilter:
    """The closed filter's deletion rule and witness candidates, on hand-built keys."""

    def test_equal_support_absorbs_a_deletion_two_events_give(self):
        # Deleting either "A" of ("A", "A", "B") gives ("A", "B").
        miner = StreamMiner(2)
        table = {("A",): 6, ("B",): 4, ("A", "B"): 3, ("A", "A", "B"): 3}
        assert miner._closed_filter(table, {}) == {("A",): 6, ("B",): 4, ("A", "A", "B"): 3}

    def test_lower_support_absorbs_nothing(self):
        miner = StreamMiner(2)
        table = {("A",): 6, ("B",): 4, ("A", "B"): 3, ("A", "A", "B"): 2}
        assert miner._closed_filter(table, {}) == table

    @pytest.mark.parametrize("alphabet", ["AB", "ABC"])
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_any_deletion_bucket_yields_every_extension_once(self, alphabet, length):
        # With every key of one length in the index, the keys sharing any one
        # deletion of a key yield all of its one-event extensions, none twice.
        keys = list(itertools.product(alphabet, repeat=length))
        by_base = {}
        for key in keys:
            for base, start, stop in _deletions(key):
                by_base.setdefault(base, []).append((key, key[start], start, stop))
        for key in keys:
            every = [key[:gap] + (e,) + key[gap:] for gap in range(length + 1) for e in alphabet]
            for base, deleted, _ in _deletions(key):
                produced = list(_extensions(key, deleted, by_base[base]))
                assert sorted(produced) == sorted(set(every)), (key, base)
