"""Closure probes shared along the DFS path never change a decision.

The closure checker memoizes size-1 sets and the intermediates of its
insert/prepend probes on the live DFS path.  The oracle is a fresh
:class:`~repro.core.closure.ClosureChecker` with empty memos: every
decision the miner takes must equal, field for field, the one the fresh
checker returns for the same node, prefix sets and grown children.
"""

from __future__ import annotations

import random

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.closure import ClosureChecker
from repro.core.constraints import GapConstraint
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE
from repro.core.gsgrow import GSgrow
from repro.datagen.markov import MarkovSequenceGenerator
from repro.db.index import InvertedEventIndex

MIN_SUP = 4


def _markov_index(seed):
    return InvertedEventIndex(
        MarkovSequenceGenerator(
            num_sequences=6,
            num_events=5,
            average_length=14.0,
            concentration=4.0,
            seed=seed,
        ).generate()
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "constraint", [None, GapConstraint(1, None)], ids=["unconstrained", "min_gap_1"]
)
@pytest.mark.parametrize("max_length", [None, 2, 3], ids=["uncapped", "cap2", "cap3"])
@pytest.mark.parametrize("enable_lbcheck", [True, False], ids=["lbcheck", "no_lbcheck"])
@pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
def test_every_decision_matches_a_fresh_checker(
    monkeypatch, seed, constraint, max_length, enable_lbcheck, store_instances
):
    taken = []
    check = ClosureChecker.check

    def recording(self, support_set, prefix_sets, **kwargs):
        decision = check(self, support_set, prefix_sets, **kwargs)
        taken.append((self.engine, support_set, prefix_sets, kwargs, decision))
        return decision

    monkeypatch.setattr(ClosureChecker, "check", recording)
    index = _markov_index(seed)
    CloGSgrow(
        MIN_SUP,
        constraint=constraint,
        max_length=max_length,
        enable_lbcheck=enable_lbcheck,
        store_instances=store_instances,
    ).mine(index)
    assert taken
    for engine, support_set, prefix_sets, kwargs, decision in taken:
        fresh = ClosureChecker(
            index, enable_lbcheck=enable_lbcheck, constraint=constraint, engine=engine
        )
        # `kwargs` hold the `children` the mine's checker was handed.
        expected = check(fresh, support_set, prefix_sets, **kwargs)
        assert decision == expected, support_set.pattern


def test_standalone_checks_in_any_order_match_fresh_checkers():
    """One checker reused across 600 checks in a seeded random order.

    Patterns recur, and shallow ones follow deep ones, so the reused
    checker's path store holds earlier probes' sets.  Some checks are
    handed grown append children, some skip the border scan, and the
    engine changes now and then; a fresh checker gets the same arguments,
    and the whole decision, evaluated extensions included, must match.
    """
    index = _markov_index(7)
    patterns = [mined.pattern for mined in GSgrow(2, max_length=4).mine(index)]
    alphabet = sorted(index.alphabet(), key=repr)
    rng = random.Random(11)
    shared = ClosureChecker(index)
    for _ in range(600):
        pattern = rng.choice(patterns)
        engine = COMPRESSED_ENGINE if rng.random() < 0.9 else FULL_LANDMARK_ENGINE
        sets = [engine.initial(index, pattern.at(1))]
        for j in range(2, len(pattern) + 1):
            sets.append(engine.grow(index, sets[-1], pattern.at(j)))
        kwargs = {"need_pruning": rng.random() < 0.75}
        if rng.random() < 0.5:
            grown = rng.sample(alphabet, rng.randint(0, len(alphabet)))
            kwargs["children"] = {e: engine.grow(index, sets[-1], e) for e in grown}
        fresh = ClosureChecker(index)
        assert shared.check(sets[-1], sets, **kwargs) == fresh.check(
            sets[-1], sets, **kwargs
        ), pattern
        assert [node.events for node in shared.path] == [
            pattern.events[: j + 1] for j in range(len(pattern))
        ]
