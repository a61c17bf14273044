"""CloSpan-style closed sequential pattern mining (Yan, Han & Afshar, SDM 2003).

CloSpan mines closed sequential patterns in two phases: a PrefixSpan-style
search that prunes DFS branches whose projected databases are *equivalent*
to one already explored (detected by hashing the total remaining suffix
length), followed by a post-processing pass that eliminates the non-closed
patterns from the candidate set.

This implementation keeps that two-phase structure:

* the search phase uses the projected-database-size hash to stop growing a
  prefix whose projection coincides with that of an already seen pattern that
  is a super- or sub-pattern with the same support (backward/forward
  sub-pattern pruning);
* the elimination phase removes every candidate that has an equal-support
  super-pattern among the candidates.

The pattern set returned equals the closed sequential patterns (the
elimination phase is exhaustive), which is what both the runtime-comparison
benchmark and the correctness tests rely on.
"""

from __future__ import annotations

from repro.baselines.prefixspan import (
    PrefixSpanConfig,
    Projection,
    local_event_counts,
    project,
)
from repro.core.pattern import Pattern
from repro.core.results import MinedPattern, MiningResult
from repro.db.database import SequenceDatabase
from repro.db.sequence import Event


class CloSpan:
    """CloSpan-style closed sequential-pattern miner (sequence-count support)."""

    algorithm_name = "CloSpan"

    def __init__(self, min_sup: int = 2, max_length: int | None = None):
        self.config = PrefixSpanConfig(min_sup=min_sup, max_length=max_length)
        self.nodes_visited = 0
        self.nodes_pruned_equivalence = 0

    def mine(self, database: SequenceDatabase) -> MiningResult:
        """Mine all closed frequent sequential patterns of ``database``."""
        self.nodes_visited = 0
        self.nodes_pruned_equivalence = 0
        events = [list(seq.events) for seq in database]
        candidates: dict[Pattern, int] = {}
        # Map projection signature -> (pattern, support) for equivalence pruning.
        seen_projections: dict[tuple[int, int], tuple[Pattern, int]] = {}
        projection: Projection = [(i, 0) for i in range(len(events))]
        self._grow(Pattern(()), projection, events, candidates, seen_projections)
        closed = self._eliminate_non_closed(candidates)
        result = MiningResult(min_sup=self.config.min_sup, algorithm=self.algorithm_name)
        for pattern, support in sorted(closed.items(), key=lambda kv: kv[0]):
            result.add(MinedPattern(pattern=pattern, support=support))
        return result

    # ------------------------------------------------------------------
    # Phase 1: pruned PrefixSpan search
    # ------------------------------------------------------------------
    def _grow(
        self,
        prefix: Pattern,
        projection: Projection,
        events: list[list[Event]],
        candidates: dict[Pattern, int],
        seen_projections: dict[tuple[int, int], tuple[Pattern, int]],
    ) -> None:
        self.nodes_visited += 1
        if self.config.max_length is not None and len(prefix) >= self.config.max_length:
            return
        local_counts = local_event_counts(projection, events)
        for event, count in sorted(local_counts.items(), key=lambda kv: repr(kv[0])):
            if count < self.config.min_sup:
                continue
            grown = prefix.grow(event)
            candidates[grown] = count
            child_projection = project(projection, events, event)
            signature = self._projection_signature(child_projection, events)
            previous = seen_projections.get(signature)
            if previous is not None:
                previous_pattern, previous_support = previous
                if previous_support == count and grown.is_proper_subpattern_of(previous_pattern):
                    # Backward sub-pattern case: the projected database of
                    # `grown` coincides with that of an already explored
                    # super-pattern, so every descendant of `grown` has an
                    # equal-support super-pattern in that subtree and cannot
                    # be closed.  (The backward super-pattern case is not
                    # pruned here; correctness over pruning power.)
                    self.nodes_pruned_equivalence += 1
                    continue
            seen_projections[signature] = (grown, count)
            self._grow(grown, child_projection, events, candidates, seen_projections)

    @staticmethod
    def _projection_signature(projection: Projection, events: list[list[Event]]) -> tuple[int, int]:
        """CloSpan's equivalence hash: (#sequences, total remaining suffix length)."""
        total_remaining = sum(len(events[seq_idx]) - offset for seq_idx, offset in projection)
        return (len(projection), total_remaining)

    # ------------------------------------------------------------------
    # Phase 2: non-closed elimination
    # ------------------------------------------------------------------
    @staticmethod
    def _eliminate_non_closed(candidates: dict[Pattern, int]) -> dict[Pattern, int]:
        by_support: dict[int, list[Pattern]] = {}
        for pattern, support in candidates.items():
            by_support.setdefault(support, []).append(pattern)
        closed: dict[Pattern, int] = {}
        for pattern, support in candidates.items():
            peers = by_support[support]
            if any(pattern.is_proper_subpattern_of(other) for other in peers):
                continue
            closed[pattern] = support
        return closed
