"""CloGSgrow's append bound, on sparse alphabets where it has events to drop.

Without a gap constraint CloGSgrow grows the children of ``P = Q ∘ x``, and
its closure checker probes the appends of ``P``, only for the events ``e``
that make ``Q ∘ e`` frequent (Theorems 1 and 4).  The Markov suites mine
five events, nearly all of them frequent siblings of each other; the Quest
and Gazelle-like databases here have 7 to 44 frequent events, few of which
follow any given pattern frequently.

* **Output.**  CloGSgrow's closed set equals the closed filter of the whole
  frequent universe, mined by a GSgrow that grows every event at every node
  (so it shares none of the bound), one event past the cap.
* **Work.**  Unconstrained, each node's child list is exactly its frequent
  siblings, and of those the node grows exactly the events ``e`` with
  ``sup(x e) >= min_sup``, where ``x`` is its last event: strictly fewer
  children than a DFS growing every event.  Under a gap constraint it grows
  every event.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow
from repro.core.support import repetitive_support
from repro.datagen.gazelle import GazelleLikeGenerator
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.db.index import InvertedEventIndex

CONSTRAINTS = {
    "unconstrained": None,
    "min_gap_1": GapConstraint(1, None),
    "max_gap_3": GapConstraint(0, 3),
}


@cache
def _database(name: str, seed: int) -> tuple[InvertedEventIndex, int]:
    """The index of one database and its ``min_sup``."""
    if name == "quest":
        params = QuestParameters(D=5, C=12, N=10, S=10)
        database = QuestSequenceGenerator(params, scale=0.01, seed=seed).generate()
        return InvertedEventIndex(database), 6
    database = GazelleLikeGenerator(num_sequences=80, num_events=40, seed=seed).generate()
    return InvertedEventIndex(database), 12


@cache
def _pair_support(name: str, seed: int, first, second) -> int:
    """``sup(first second)`` in one database, from ``supComp``."""
    return repetitive_support(_database(name, seed)[0], (first, second))


class _AllEventsGSgrow(GSgrow):
    """GSgrow growing every event at every node: the frequent universe, no bound."""

    def _child_events(self, events, frequent):
        return events

    def _growable(self, pattern, events):
        return events


class _RecordingCloGSgrow(CloGSgrow):
    """CloGSgrow that records the child events of every node that grows children."""

    def _prepare(self, index):
        super()._prepare(index)
        self.alphabet = index.frequent_events(self.config.min_sup)
        self.child_events = {}

    def _mine_fre(self, index, support_set, events, prefix_sets):
        pattern = support_set.pattern
        if support_set.support >= self.config.min_sup and len(pattern) < self.config.max_length:
            self.child_events[pattern] = list(events)
        yield from super()._mine_fre(index, support_set, events, prefix_sets)


@cache
def _expected_closed(name: str, seed: int, constraint: str, cap: int) -> dict:
    """The closed patterns of length ``<= cap``, by the closed filter.

    Under a max-gap, support is not monotone under insertion (an inserted
    event can bridge a gap too wide without it), so Theorem 4 does not
    hold: Gazelle-like seed 2 has ``page5 page0`` and ``page5 page2 page1
    page0`` at support 12 and no equal-support pattern in between.
    CloGSgrow decides closedness from one-event extensions, so under a
    max-gap the filter compares each pattern with its one-event extensions;
    otherwise with every superpattern, which is the definition.
    """
    index, min_sup = _database(name, seed)
    universe = _AllEventsGSgrow(
        min_sup, max_length=cap + 1, constraint=CONSTRAINTS[constraint]
    ).mine(index)
    one_event_steps = constraint == "max_gap_3"
    by_support = defaultdict(list)
    for entry in universe:
        by_support[entry.support].append(entry.pattern)
    closed = {}
    for entry in universe:
        pattern = entry.pattern
        m = len(pattern)
        if m > cap:
            continue
        if not any(
            (len(other) == m + 1 if one_event_steps else len(other) > m)
            and pattern.is_proper_subpattern_of(other)
            for other in by_support[entry.support]
        ):
            closed[pattern] = entry.support
    return closed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["quest", "gazelle"])
@pytest.mark.parametrize("constraint", list(CONSTRAINTS))
@pytest.mark.parametrize("cap", [2, 3], ids=["cap2", "cap3"])
@pytest.mark.parametrize("enable_lbcheck", [True, False], ids=["lbcheck", "no_lbcheck"])
@pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
def test_bounded_mine_is_exact_and_grows_only_frequent_siblings(
    seed, name, constraint, cap, enable_lbcheck, store_instances
):
    index, min_sup = _database(name, seed)
    options = {
        "max_length": cap,
        "constraint": CONSTRAINTS[constraint],
        "enable_lbcheck": enable_lbcheck,
        "store_instances": store_instances,
    }
    miner = _RecordingCloGSgrow(min_sup, **options)
    assert miner.mine(index).as_dict() == _expected_closed(name, seed, constraint, cap)

    children = miner.child_events
    if CONSTRAINTS[constraint] is not None:
        # Every node grows its whole child list, and that is every event.
        assert miner.stats.dfs_grow_calls == sum(len(events) for events in children.values())
        assert all(events == miner.alphabet for events in children.values())
        return
    for pattern, events in children.items():
        if len(pattern) == 1:
            assert events == miner.alphabet
        else:
            parent = pattern.prefix(len(pattern) - 1)
            siblings = [e for e in children[parent] if parent.grow(e) in children]
            assert events == siblings, pattern
    # Each node P = … x grows exactly its frequent siblings e with
    # sup(x e) >= min_sup; an all-events DFS grows the whole alphabet.
    grown = sum(
        sum(1 for e in events if _pair_support(name, seed, pattern[-1], e) >= min_sup)
        for pattern, events in children.items()
    )
    assert miner.stats.dfs_grow_calls == grown
    assert miner.stats.dfs_grow_calls < len(children) * len(miner.alphabet)
