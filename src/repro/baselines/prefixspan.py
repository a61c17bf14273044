"""PrefixSpan (Pei et al., ICDE 2001) over single-event sequences.

PrefixSpan mines frequent sequential patterns (sequence-count support) by
recursively projecting the database on the current prefix: for every sequence
containing the prefix, keep the suffix after the prefix's first (leftmost)
occurrence; events frequent in the projected database extend the prefix.

This is the projected-database style of pattern growth the paper contrasts
its instance-growth operation with, and one of the miners used in the
Experiment-1 runtime comparison.  The implementation uses pseudo-projection
(sequence id + suffix start offset) rather than copying suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import Pattern
from repro.core.results import MinedPattern, MiningResult
from repro.db.database import SequenceDatabase
from repro.db.sequence import Event


#: A pseudo-projected database: list of (sequence index, suffix start offset).
Projection = list[tuple[int, int]]


@dataclass
class PrefixSpanConfig:
    """Configuration of :class:`PrefixSpan` (and of CloSpan)."""

    min_sup: int = 2
    max_length: int | None = None

    def __post_init__(self):
        if self.min_sup < 1:
            raise ValueError(f"min_sup must be >= 1, got {self.min_sup}")


class PrefixSpan:
    """The PrefixSpan sequential-pattern miner.

    Supports are *sequence counts* (a pattern is counted once per sequence
    containing it), matching the original algorithm and the first row of
    Table I.
    """

    algorithm_name = "PrefixSpan"

    def __init__(self, min_sup: int = 2, max_length: int | None = None):
        self.config = PrefixSpanConfig(min_sup=min_sup, max_length=max_length)
        self.nodes_visited = 0

    def mine(self, database: SequenceDatabase) -> MiningResult:
        """Mine all frequent sequential patterns of ``database``."""
        self.nodes_visited = 0
        result = MiningResult(min_sup=self.config.min_sup, algorithm=self.algorithm_name)
        events = [list(seq.events) for seq in database]
        # The initial projection is every sequence starting at offset 0.
        projection: Projection = [(i, 0) for i in range(len(events))]
        self._grow(Pattern(()), projection, events, result)
        return result

    # ------------------------------------------------------------------
    # Recursion
    # ------------------------------------------------------------------
    def _grow(
        self,
        prefix: Pattern,
        projection: Projection,
        events: list[list[Event]],
        result: MiningResult,
    ) -> None:
        self.nodes_visited += 1
        if self.config.max_length is not None and len(prefix) >= self.config.max_length:
            return
        local_counts = local_event_counts(projection, events)
        for event, count in sorted(local_counts.items(), key=lambda kv: repr(kv[0])):
            if count < self.config.min_sup:
                continue
            grown = prefix.grow(event)
            result.add(MinedPattern(pattern=grown, support=count))
            self._grow(grown, project(projection, events, event), events, result)


def local_event_counts(projection: Projection, events: list[list[Event]]) -> dict[Event, int]:
    """Sequence counts of events occurring in the projected suffixes."""
    counts: dict[Event, int] = {}
    for seq_idx, offset in projection:
        for event in set(events[seq_idx][offset:]):
            counts[event] = counts.get(event, 0) + 1
    return counts


def project(projection: Projection, events: list[list[Event]], event: Event) -> Projection:
    """Project on ``event``: keep the suffix after its first occurrence."""
    projected: Projection = []
    for seq_idx, offset in projection:
        seq = events[seq_idx]
        for pos in range(offset, len(seq)):
            if seq[pos] == event:
                projected.append((seq_idx, pos + 1))
                break
    return projected


def mine_sequential(database: SequenceDatabase, min_sup: int, **kwargs) -> MiningResult:
    """Mine all frequent sequential patterns with PrefixSpan (functional façade)."""
    return PrefixSpan(min_sup, **kwargs).mine(database)
