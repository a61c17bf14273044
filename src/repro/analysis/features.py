"""Per-sequence pattern features (the paper's future-work direction).

Section V suggests using frequent repetitive patterns as classification
features, with "their supports in each sequence as feature values".  For a
pattern ``P`` and sequence ``S_i`` the natural feature is the number of
instances of ``P`` in the leftmost support set that live in ``S_i`` — i.e.
the per-sequence share of the repetitive support.

:class:`PatternFeatureExtractor` mines (or accepts) a set of patterns and
turns a database into a feature matrix of plain Python lists, so the
package needs no numpy.
"""

from __future__ import annotations

from collections.abc import Sequence as PySequence

from repro.core.clogsgrow import mine_closed
from repro.core.pattern import Pattern, as_pattern
from repro.core.results import MiningResult
from repro.core.support import sup_comp
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex


class PatternFeatureExtractor:
    """Turns sequences into per-pattern repetitive-support feature vectors.

    Parameters
    ----------
    patterns:
        The patterns to use as features.  If omitted, call :meth:`fit` to
        mine closed patterns from a training database.
    """

    def __init__(self, patterns: PySequence[Pattern | str] | None = None):
        self.patterns: list[Pattern] = [as_pattern(p) for p in patterns] if patterns else []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        database: SequenceDatabase,
        min_sup: int,
        *,
        max_patterns: int | None = None,
        min_length: int = 1,
    ) -> PatternFeatureExtractor:
        """Mine closed patterns from ``database`` and keep them as features.

        Patterns are ranked by support (then length) and optionally truncated
        to ``max_patterns`` features.
        """
        result: MiningResult = mine_closed(database, min_sup)
        ranked = [p for p in result.sorted_by_support() if len(p.pattern) >= min_length]
        if max_patterns is not None:
            ranked = ranked[:max_patterns]
        self.patterns = [p.pattern for p in ranked]
        return self

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def transform(self, database: SequenceDatabase) -> list[list[int]]:
        """Feature matrix: one row per sequence, one column per pattern.

        Entry ``[i][j]`` is the number of instances of pattern ``j`` in the
        leftmost support set restricted to sequence ``i + 1``.
        """
        if not self.patterns:
            raise ValueError("no patterns configured; call fit() or pass patterns explicitly")
        index = InvertedEventIndex(database)
        matrix = [[0] * len(self.patterns) for _ in range(len(database))]
        for j, pattern in enumerate(self.patterns):
            support_set = sup_comp(index, pattern)
            for seq_index, count in support_set.per_sequence_counts().items():
                matrix[seq_index - 1][j] = count
        return matrix

    def fit_transform(self, database: SequenceDatabase, min_sup: int, **kwargs) -> list[list[int]]:
        """Convenience: :meth:`fit` then :meth:`transform` on the same database."""
        return self.fit(database, min_sup, **kwargs).transform(database)

    def feature_names(self) -> list[str]:
        """String names of the features (the patterns, rendered compactly)."""
        return [str(p) for p in self.patterns]


def pattern_feature_matrix(
    database: SequenceDatabase,
    patterns: PySequence[Pattern | str],
) -> list[list[int]]:
    """One-call feature extraction for a fixed pattern list."""
    return PatternFeatureExtractor(patterns).transform(database)


def discriminative_patterns(
    positive: SequenceDatabase,
    negative: SequenceDatabase,
    min_sup: int,
    *,
    top_k: int = 10,
) -> list[dict]:
    """Patterns whose average per-sequence support differs most between classes.

    A small realisation of the paper's future-work idea: mine closed patterns
    from the union, compute average per-sequence support in each class, and
    rank by the absolute difference.
    """
    union = SequenceDatabase(list(positive) + list(negative), name="union")
    boundary = len(positive)
    result = mine_closed(union, min_sup)
    index = InvertedEventIndex(union)
    scored: list[dict] = []
    for entry in result:
        support_set = sup_comp(index, entry.pattern)
        counts = support_set.per_sequence_counts()
        pos_total = sum(c for i, c in counts.items() if i <= boundary)
        neg_total = sum(c for i, c in counts.items() if i > boundary)
        pos_avg = pos_total / max(len(positive), 1)
        neg_avg = neg_total / max(len(negative), 1)
        scored.append(
            {
                "pattern": entry.pattern,
                "support": entry.support,
                "positive_average": pos_avg,
                "negative_average": neg_avg,
                "score": abs(pos_avg - neg_avg),
            }
        )
    scored.sort(key=lambda d: (-d["score"], str(d["pattern"])))
    return scored[:top_k]
