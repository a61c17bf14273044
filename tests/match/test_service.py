"""Tests for the scoring service (coverage/anomaly, batching, retrieval)."""

import pytest

from repro.core.clogsgrow import mine_closed
from repro.core.support import repetitive_support
from repro.db.database import SequenceDatabase
from repro.match.automaton import PatternAutomaton
from repro.match.service import PatternMatcher, score_database, score_from_match
from repro.match.store import PatternStore
from repro.stream.miner import StreamMiner

PATTERNS = ["AB", "ABB", "CD"]


@pytest.fixture
def matcher() -> PatternMatcher:
    return PatternMatcher(PATTERNS)


class TestScoring:
    def test_score_single_sequence(self, matcher):
        score = matcher.score("AABCDABB")
        assert score.total == 3
        assert score.matched == 3
        assert score.coverage == 1.0
        assert score.anomaly == 0.0
        assert {str(p): n for p, n in score.supports.items()} == {
            "AB": 3,
            "ABB": 2,
            "CD": 1,
        }
        assert score.missing == []

    def test_anomalous_sequence(self, matcher):
        score = matcher.score("XYZXYZ")
        assert score.matched == 0
        assert score.coverage == 0.0
        assert score.anomaly == 1.0
        assert [str(p) for p in score.missing] == PATTERNS

    def test_describe(self, matcher):
        text = matcher.score("AB").describe()
        assert "coverage=" in text and "anomaly=" in text

    def test_empty_pattern_set_scores_full_coverage(self):
        score = PatternMatcher([]).score("ABC")
        assert score.total == 0 and score.coverage == 1.0 and score.anomaly == 0.0

    def test_score_many_matches_individual_scores(self, matcher):
        sequences = ["AABCDABB", "ABCD", "XYZ", "ABBABB"]
        batch = matcher.score_many(sequences)
        assert len(batch) == len(sequences)
        for seq, score in zip(sequences, batch, strict=False):
            assert score == matcher.score(seq)

    def test_score_many_process_pool_matches_serial(self, matcher):
        sequences = ["AABCDABB", "ABCD", "XYZ", "ABBABB", "CDCDCD"]
        serial = matcher.score_many(sequences)
        sharded = matcher.score_many(sequences, n_jobs=2)
        assert sharded == serial
        assert matcher.match_many(sequences, n_jobs=2) == serial

    def test_score_from_match_reuses_batch_result(self, matcher):
        db = SequenceDatabase.from_strings(["AABCDABB", "XYZ"])
        result = matcher.match(db)
        assert score_from_match(result, 1) == matcher.score("AABCDABB")
        assert score_from_match(result, 2) == matcher.score("XYZ")

    def test_score_database_helper(self):
        db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
        scores = score_database(PATTERNS, db)
        assert len(scores) == 2
        assert scores[0].matched == 3

    def test_score_many_treats_plain_string_as_one_sequence(self, matcher):
        # Same coercion as match(): a str is one sequence, not a batch of
        # single-character sequences.
        batch = matcher.score_many("AABCDABB")
        assert len(batch) == 1
        assert batch[0] == matcher.score("AABCDABB")
        assert len(score_database(PATTERNS, "AABCDABB")) == 1


class TestScoreManyTelemetry:
    """Pooled scoring brings each worker's match span home, in the caller's trace."""

    def test_pooled_match_spans_stitch_into_the_callers_trace(self):
        from repro.obs import MetricsRegistry, TraceRecorder, activated, root_context

        obs = MetricsRegistry(recorder=TraceRecorder())
        matcher = PatternMatcher(PATTERNS, obs=obs)
        sequences = ["AABCDABB", "ABCD", "XYZ", "ABBABB", "CDCDCD"]
        ambient = root_context()
        with activated(ambient):
            scores = matcher.score_many(sequences, n_jobs=2)
        assert scores == PatternMatcher(PATTERNS).score_many(sequences)
        chunks = 2  # five sequences over two workers: chunks of three and two
        assert obs.dump()["histograms"]["match.match.seconds"]["count"] == chunks
        spans = [s for s in obs.recorder.spans() if s.name == "match.match.seconds"]
        assert len(spans) == chunks
        assert {s.trace_id for s in spans} == {ambient.trace_id}
        assert {s.parent_id for s in spans} == {ambient.span_id}


class TestConstruction:
    def test_from_store_result_automaton_and_raw(self, example11):
        result = mine_closed(example11, 2)
        store = PatternStore.from_result(result)
        auto = PatternAutomaton(result)
        scores = {
            name: PatternMatcher(source).score("AABCDABB")
            for name, source in [
                ("store", store),
                ("result", result),
                ("automaton", auto),
                ("raw", result.patterns()),
            ]
        }
        assert len({tuple(sorted(s.supports.items())) for s in scores.values()}) == 1
        assert PatternMatcher(store).mined_supports == result.as_dict()
        assert PatternMatcher(auto).mined_supports is None


class TestRetrieval:
    def test_top_patterns_by_support(self, matcher):
        ranked = matcher.top_patterns("ABABAB", k=2)
        assert [(str(p), n) for p, n in ranked] == [("AB", 3), ("ABB", 2)]

    def test_top_patterns_by_ratio_needs_supports(self, matcher, example11):
        with pytest.raises(ValueError, match="mined supports"):
            matcher.top_patterns("AB", by="ratio")
        result = mine_closed(example11, 2)
        with_supports = PatternMatcher(result)
        ranked = with_supports.top_patterns("AABCDABB", k=3, by="ratio")
        assert ranked
        for pattern, support in ranked:
            assert support == repetitive_support(
                SequenceDatabase.from_strings(["AABCDABB"]), pattern
            )

    def test_top_patterns_unknown_ranking(self, matcher):
        with pytest.raises(ValueError, match="ranking"):
            matcher.top_patterns("AB", by="magic")

    def test_rank_sequences_by_anomaly(self, matcher):
        sequences = ["AABCDABB", "XYZ", "ABCD"]
        ranked = matcher.rank_sequences(sequences)
        assert ranked[0][0] == 1  # XYZ is the most anomalous
        assert ranked[0][1].anomaly == 1.0
        top1 = matcher.rank_sequences(sequences, k=1, by="coverage")
        assert top1[0][0] == 0  # the full-coverage trace

    def test_rank_sequences_unknown_ranking(self, matcher):
        with pytest.raises(ValueError, match="ranking"):
            matcher.rank_sequences(["AB"], by="magic")


class TestStreamBridge:
    def test_stream_update_to_store_and_store_path(self, tmp_path):
        path = tmp_path / "live.rps"
        miner = StreamMiner(2, shard_size=2, store_path=path)
        miner.append_many(["AABB", "ABAB", "BABA"])
        update = miner.refresh()
        store = update.to_store(metadata={"job": "test"})
        assert store.supports() == update.result.as_dict()
        assert store.metadata["source"] == "stream"
        assert store.metadata["job"] == "test"
        assert store.metadata["window_sequences"] == 3
        # refresh() persisted the same patterns to store_path.
        from repro.match.store import load_patterns

        persisted = load_patterns(path)
        assert persisted.supports() == update.result.as_dict()
        # The freshly persisted store scores new traffic directly.
        score = PatternMatcher(persisted).score("AABB")
        assert score.coverage > 0
