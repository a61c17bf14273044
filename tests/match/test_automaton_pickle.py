"""Compiled automata pickle as they are: what pool workers receive and match with."""

import pickle

import pytest

from repro.core.clogsgrow import mine_closed
from repro.core.constraints import GapConstraint
from repro.datagen.markov import MarkovSequenceGenerator
from repro.match import PatternAutomaton, PatternMatcher


@pytest.fixture(scope="module")
def mined_automaton():
    train = MarkovSequenceGenerator(
        num_sequences=20, num_events=6, average_length=25.0, concentration=3.0, seed=5
    ).generate()
    result = mine_closed(train, 30)
    assert len(result) >= 10
    query = MarkovSequenceGenerator(
        num_sequences=8, num_events=6, average_length=25.0, concentration=3.0, seed=77
    ).generate()
    return PatternAutomaton(result), query


def _outcomes(result):
    """Every per-pattern field of a match result, in compilation order."""
    return [
        (entry.pattern, entry.support, entry.per_sequence, entry.support_set)
        for entry in result
    ]


class TestPickleRoundTrip:
    def test_unpickled_automaton_matches_byte_identically(self, mined_automaton):
        automaton, query = mined_automaton
        rebuilt = pickle.loads(pickle.dumps(automaton))
        assert rebuilt.patterns == automaton.patterns
        assert rebuilt.state_count == automaton.state_count
        assert rebuilt.alphabet_size == automaton.alphabet_size
        for engine in ("sweep", "dfs"):
            expected = automaton.match(query, engine=engine)
            assert _outcomes(rebuilt.match(query, engine=engine)) == _outcomes(expected)

    def test_gap_constrained_match_after_unpickling(self, mined_automaton):
        automaton, query = mined_automaton
        rebuilt = pickle.loads(pickle.dumps(automaton))
        constraint = GapConstraint(max_gap=3)
        for with_instances in (False, True):
            expected = automaton.match(
                query, constraint=constraint, with_instances=with_instances
            )
            actual = rebuilt.match(query, constraint=constraint, with_instances=with_instances)
            assert _outcomes(actual) == _outcomes(expected)


class TestWorkerReuse:
    def test_score_many_pool_matches_serial(self, mined_automaton):
        automaton, query = mined_automaton
        matcher = PatternMatcher(automaton)
        sequences = list(query)
        serial = matcher.score_many(sequences)
        pooled = matcher.score_many(sequences, n_jobs=2)
        assert [s.coverage for s in pooled] == [s.coverage for s in serial]
        assert [s.supports for s in pooled] == [s.supports for s in serial]
