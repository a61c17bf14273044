"""The one-scan 2-gram support table and the miners that filter with it.

* **Oracle.**  :func:`~repro.core.support.pair_supports` must equal
  ``repetitive_support(index, (a, b))`` (``supComp``) for every ordered
  pair, ``a == b`` included, on RAM and disk indexes, and each of its
  per-sequence counts ``repetitive_support`` over that one sequence.
* **Mining identity.**  Without a gap constraint the DFS grows only
  children whose last 2-gram reaches ``min_sup``, and the closure checker
  probes only extensions whose new 2-grams reach the checked pattern's
  support in total and in each of its sequences.  The filter must not
  change what is mined: a test-local miner whose table lets every pair
  through in every sequence (so nothing is filtered) reports the same
  patterns, visits the same nodes, takes the same decisions and prunes the
  same subtrees.
* **Gap constraints.**  A constrained mine builds no table and does the
  same work as before the table existed.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import closure as closure_module
from repro.core import gsgrow as gsgrow_module
from repro.core.clogsgrow import CloGSgrow
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow
from repro.core.support import PairCounts, pair_supports, repetitive_support
from repro.datagen.gazelle import GazelleLikeGenerator
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex

#: str, int and non-ASCII events; "never" is asked for but never occurs.
EVENTS = ["A", "B", "é", "事件", 0, 7, -3]
ABSENT = "never"

databases = st.lists(st.lists(st.sampled_from(EVENTS), max_size=12), min_size=1, max_size=5)

relaxed = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _support(table, first, second) -> int:
    counts = table[first].get(second)
    return 0 if counts is None else counts.support


def _assert_table_matches_sup_comp(index: InvertedEventIndex, events: list) -> dict:
    table = pair_supports(index, events)
    assert list(table) == events
    for first in events:
        for second in events:
            assert _support(table, first, second) == repetitive_support(index, (first, second)), (
                first,
                second,
            )
        # Absent pairs and sequences are the zero supports; none is stored.
        for counts in table[first].values():
            assert min(counts.values()) > 0
            assert counts.support == sum(counts.values())
    return table


@relaxed
@given(databases, st.sampled_from(["ram", "disk"]))
def test_pair_supports_equal_sup_comp(sequences, backend):
    index = InvertedEventIndex(
        SequenceDatabase(sequences),
        backend=backend,
        segment_bytes=64 if backend == "disk" else None,
    )
    try:
        events = sorted(index.alphabet(), key=repr) + [ABSENT]
        table = _assert_table_matches_sup_comp(index, events)
    finally:
        index.backend.close()
    # Each per-sequence count is the pair's support in that one sequence.
    for i, sequence in enumerate(sequences, start=1):
        alone = InvertedEventIndex(SequenceDatabase([sequence]))
        for first in events:
            for second in events:
                counts = table[first].get(second, PairCounts())
                assert counts.get(i, 0) == repetitive_support(alone, (first, second)), (
                    i,
                    first,
                    second,
                )


def test_pair_supports_of_the_benchmark_database():
    """The 61 frequent events of the repository benchmark's closed mine."""
    params = QuestParameters(D=5, C=20, N=10, S=20)
    database = QuestSequenceGenerator(params, scale=0.02, seed=2).generate()
    index = InvertedEventIndex(database)
    frequent = index.frequent_events(12)
    assert len(frequent) == 61
    _assert_table_matches_sup_comp(index, frequent)


# ----------------------------------------------------------------------
# Mining identity
# ----------------------------------------------------------------------
class _PassesEveryPair:
    """Replaces the mine's table with one where every pair reaches any target in every sequence."""

    def _prepare(self, index):
        if self._pairs is not None:
            sequences = range(1, index.backend.sequence_count() + 1)
            every = PairCounts.fromkeys(sequences, sys.maxsize)
            every.support = sys.maxsize
            self._pairs = {first: dict.fromkeys(self._pairs, every) for first in self._pairs}
        super()._prepare(index)


class _UnfilteredGSgrow(_PassesEveryPair, GSgrow):
    pass


class _UnfilteredCloGSgrow(_PassesEveryPair, CloGSgrow):
    pass


def _index(name: str) -> tuple[InvertedEventIndex, int]:
    """A sparse-alphabet database, where most 2-grams are infrequent, and its ``min_sup``."""
    if name == "quest":
        params = QuestParameters(D=5, C=12, N=10, S=10)
        return InvertedEventIndex(QuestSequenceGenerator(params, scale=0.01, seed=0).generate()), 6
    database = GazelleLikeGenerator(num_sequences=80, num_events=40, seed=0).generate()
    return InvertedEventIndex(database), 12


#: (database, max_length): uncapped closed mining of the Gazelle-like
#: sessions explodes, so it is capped at 4 there instead.
MINES = [
    ("quest", 2),
    ("quest", 3),
    ("quest", None),
    ("gazelle", 2),
    ("gazelle", 3),
    ("gazelle", 4),
]
#: At cap 1 every node is capped, so the closure checker probes every
#: append itself (and GSgrow grows nothing).
CLOSED_MINES = [("quest", 1), *MINES]


def _mine_ids(mines: list) -> list[str]:
    return [f"{name}-cap{cap}" if cap else f"{name}-uncapped" for name, cap in mines]


def _work(stats) -> tuple[int, int, int, int]:
    return (
        stats.nodes_visited,
        stats.closure_checks,
        stats.nodes_pruned_lbcheck,
        stats.nodes_pruned_infrequent,
    )


@pytest.mark.parametrize("name, max_length", CLOSED_MINES, ids=_mine_ids(CLOSED_MINES))
@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spill"])
@pytest.mark.parametrize("enable_lbcheck", [True, False], ids=["lbcheck", "no_lbcheck"])
@pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
def test_closed_mine_equals_an_unfiltered_one(
    tmp_path, name, spill, max_length, enable_lbcheck, store_instances
):
    index, min_sup = _index(name)
    options = {
        "max_length": max_length,
        "enable_lbcheck": enable_lbcheck,
        "store_instances": store_instances,
    }
    if spill:
        options.update(spill_budget=64, spill_dir=str(tmp_path))
    filtered = CloGSgrow(min_sup, **options)
    unfiltered = _UnfilteredCloGSgrow(min_sup, **options)
    assert filtered.mine(index).as_dict() == unfiltered.mine(index).as_dict()
    assert _work(filtered.stats) == _work(unfiltered.stats)
    assert filtered.stats.ins_grow_calls < unfiltered.stats.ins_grow_calls
    assert filtered.stats.grow_rows < unfiltered.stats.grow_rows


@pytest.mark.parametrize("name, max_length", MINES, ids=_mine_ids(MINES))
@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spill"])
@pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
def test_frequent_mine_equals_an_unfiltered_one(tmp_path, name, spill, max_length, store_instances):
    index, min_sup = _index(name)
    options = {"max_length": max_length, "store_instances": store_instances}
    if spill:
        options.update(spill_budget=64, spill_dir=str(tmp_path))
    filtered = GSgrow(min_sup, **options)
    unfiltered = _UnfilteredGSgrow(min_sup, **options)
    assert filtered.mine(index).as_dict() == unfiltered.mine(index).as_dict()
    assert _work(filtered.stats) == _work(unfiltered.stats)
    assert filtered.stats.dfs_grow_calls < unfiltered.stats.dfs_grow_calls


# ----------------------------------------------------------------------
# One table per mine, none under a gap constraint
# ----------------------------------------------------------------------
@pytest.fixture
def table_builds(monkeypatch):
    """Every ``pair_supports`` call the miners and the checker make."""
    builds = []

    def counted(index, events):
        builds.append(index)
        return pair_supports(index, events)

    for module in (gsgrow_module, closure_module):
        monkeypatch.setattr(module, "pair_supports", counted)
    return builds


def _quest_database():
    params = QuestParameters(D=5, C=20, N=10, S=20)
    return QuestSequenceGenerator(params, scale=0.005, seed=2).generate()


def test_each_mine_builds_one_table_and_shares_it(table_builds):
    database = _quest_database()
    CloGSgrow(6, max_length=4).mine(database)
    assert len(table_builds) == 1  # the closure checker reads the miner's table
    GSgrow(6, max_length=3).mine(database)
    assert len(table_builds) == 2


#: (constraint, closed mine's DFS grows, its closure-checker grows, frequent
#: mine's DFS grows) on the Quest database above, the same as before the
#: table existed.
CONSTRAINED_WORK = [
    (GapConstraint(1, None), 2_652, 1_212, 2_652),
    (GapConstraint(0, 3), 1_560, 841, 1_560),
]


@pytest.mark.parametrize(
    "constraint, dfs, closure, frequent_dfs", CONSTRAINED_WORK, ids=["min_gap_1", "max_gap_3"]
)
def test_constrained_mines_build_no_table(table_builds, constraint, dfs, closure, frequent_dfs):
    database = _quest_database()
    closed = CloGSgrow(6, max_length=4, constraint=constraint)
    closed.mine(database)
    frequent = GSgrow(6, max_length=3, constraint=constraint)
    frequent.mine(database)
    assert table_builds == []
    assert closed.stats.dfs_grow_calls == dfs
    assert closed.stats.closure_grow_calls == closure
    assert frequent.stats.dfs_grow_calls == frequent_dfs
