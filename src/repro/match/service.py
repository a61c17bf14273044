"""Batch scoring on top of the shared automaton — the serving read path.

The paper's case study (Section IV) characterises program behaviour by
matching mined software-lifecycle patterns against fresh traces: a healthy
trace realises most of the expected patterns, an anomalous one misses many.
:class:`PatternMatcher` packages that workflow as a service-shaped object:

* built once from a :class:`~repro.match.store.PatternStore` (or a live
  :class:`~repro.core.results.MiningResult`, or raw patterns), compiling the
  shared :class:`~repro.match.automaton.PatternAutomaton` a single time;
* :meth:`~PatternMatcher.score` turns one sequence into a
  :class:`SequenceScore` — per-pattern supports, coverage (fraction of
  expected patterns present) and the complementary anomaly score;
* :meth:`~PatternMatcher.score_many` (alias ``match_many``) cuts a batch
  into contiguous chunks and scores them through the fan-out
  :func:`repro.api.mine_many` uses, :func:`~repro.obs.aggregate.pooled_map`
  — sequences never share instances, so chunking at sequence granularity
  is exact, and pool workers receive the compiled automaton pickled;
* :meth:`~PatternMatcher.top_patterns` / :meth:`~PatternMatcher.rank_sequences`
  answer the two retrieval directions (which patterns dominate this trace;
  which traces look least like the mined behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence as PySequence
from typing import Any

from repro.core.constraints import GapConstraint
from repro.core.pattern import Pattern
from repro.core.results import MiningResult
from repro.db.database import SequenceDatabase
from repro.db.sequence import Sequence as DbSequence, as_sequence
from repro.match.automaton import MatchQuery, MatchResult, PatternAutomaton
from repro.match.store import PatternStore
from repro.obs import MetricsRegistry
from repro.obs.aggregate import pool_width, pooled_map

#: The shared no-op registry matchers fall back to: one disabled registry
#: instead of one per matcher, so the default path costs a single attribute
#: read and allocates nothing.
_DISABLED_OBS = MetricsRegistry(enabled=False)


@dataclass(frozen=True)
class SequenceScore:
    """How one sequence relates to the expected pattern set.

    Attributes
    ----------
    matched:
        Number of expected patterns with at least one instance.
    total:
        Number of expected patterns.
    coverage:
        ``matched / total`` (``1.0`` for an empty pattern set).
    anomaly:
        ``1 - coverage`` — the case study's "fraction of expected behaviour
        missing" signal.
    supports:
        Query support of every pattern that occurred (mined-set order).
    missing:
        Expected patterns with no instance, in mined-set order.
    """

    matched: int
    total: int
    coverage: float
    anomaly: float
    supports: dict[Pattern, int] = field(default_factory=dict)
    missing: list[Pattern] = field(default_factory=list)

    def describe(self) -> str:
        """Compact single-line rendering used by the CLI."""
        return (
            f"coverage={self.coverage:.3f} anomaly={self.anomaly:.3f} "
            f"({self.matched}/{self.total} patterns)"
        )


def score_from_match(result: MatchResult, seq_index: int) -> SequenceScore:
    """One sequence's score out of a (possibly multi-sequence) match result.

    ``seq_index`` is the 1-based sequence index within the matched query —
    useful when a caller already holds a batch :class:`MatchResult` and wants
    per-sequence scores without matching again.
    """
    supports: dict[Pattern, int] = {}
    missing: list[Pattern] = []
    for entry in result:
        count = entry.per_sequence.get(seq_index, 0)
        if count:
            supports[entry.pattern] = count
        else:
            missing.append(entry.pattern)
    total = len(result)
    matched = len(supports)
    coverage = matched / total if total else 1.0
    return SequenceScore(
        matched=matched,
        total=total,
        coverage=coverage,
        anomaly=1.0 - coverage,
        supports=supports,
        missing=missing,
    )


class PatternMatcher:
    """A compiled pattern set ready to score sequences.

    Parameters
    ----------
    patterns:
        A :class:`PatternStore`, a :class:`MiningResult`, an already-built
        :class:`PatternAutomaton`, or any iterable of patterns.
    constraint:
        Optional gap constraint applied to every match (the mined patterns'
        constraint, if mining used one).
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`; every :meth:`match`
        runs inside a ``match.match.seconds`` span, so when the registry
        carries a trace recorder the matcher's work shows up as a child
        span of whatever requested it (the serve daemon's operation span,
        a caller's ambient trace).  Defaults to a shared disabled registry
        — the no-op path.
    """

    def __init__(
        self,
        patterns: PatternStore | MiningResult | PatternAutomaton | Iterable[Any],
        *,
        constraint: GapConstraint | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        self.obs = obs if obs is not None else _DISABLED_OBS
        self.mined_supports: dict[Pattern, int] | None = None
        if isinstance(patterns, PatternStore):
            self.mined_supports = patterns.supports()
            automaton = patterns.automaton()
        elif isinstance(patterns, MiningResult):
            self.mined_supports = patterns.as_dict()
            automaton = PatternAutomaton(patterns)
        elif isinstance(patterns, PatternAutomaton):
            automaton = patterns
        else:
            automaton = PatternAutomaton(patterns)
        self.automaton = automaton
        self.constraint = constraint

    def __len__(self) -> int:
        return len(self.automaton)

    def __repr__(self) -> str:
        return f"<PatternMatcher: {len(self)} patterns>"

    # ------------------------------------------------------------------
    # Matching and scoring
    # ------------------------------------------------------------------
    def match(
        self, query: MatchQuery, *, with_instances: bool = False, engine: str = "auto"
    ) -> MatchResult:
        """Match the pattern set against ``query`` (see ``PatternAutomaton.match``)."""
        with self.obs.span("match.match.seconds"):
            return self.automaton.match(
                query,
                constraint=self.constraint,
                with_instances=with_instances,
                engine=engine,
            )

    def score(self, sequence: Any) -> SequenceScore:
        """Coverage/anomaly score of a single sequence."""
        result = self.match(as_sequence(sequence))
        return score_from_match(result, 1)

    def score_many(
        self, sequences: Iterable[Any], *, n_jobs: int | None = None
    ) -> list[SequenceScore]:
        """Score a batch of sequences, optionally sharded over a process pool.

        ``n_jobs=None`` (or ``1``) scores in-process with one shared match
        over the whole batch; any other value splits the batch into
        contiguous chunks across that many workers (``<= 0`` means one per
        CPU), each matching its chunk in one
        :func:`~repro.obs.aggregate.pooled_map` task.  Instances never span
        sequences, so per-sequence scores are identical either way; results
        come back in input order, and each chunk records one
        ``match.match.seconds`` span into :attr:`obs`.

        A plain string or a single :class:`~repro.db.sequence.Sequence` is
        treated as a one-sequence batch (matching :meth:`match`'s coercion),
        not iterated element by element.
        """
        if isinstance(sequences, (str, DbSequence)):
            sequences = [sequences]
        sequences = [as_sequence(seq) for seq in sequences]
        # One contiguous chunk per worker; in-process, the whole (possibly
        # empty) batch is one chunk.
        width = pool_width(n_jobs, len(sequences))
        size = max(1, -(-len(sequences) // width))
        chunks = [sequences[k : k + size] for k in range(0, len(sequences), size)]
        tasks = [(self.automaton, self.constraint, chunk) for chunk in chunks or [sequences]]
        scored = pooled_map(_score_chunk, tasks, n_jobs=width, obs=self.obs)
        return [score for chunk_scores in scored for score in chunk_scores]

    # Batch scoring under its workload name; same contract as score_many.
    match_many = score_many

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def top_patterns(
        self, query: MatchQuery, k: int = 10, *, by: str = "support"
    ) -> list[tuple[Pattern, int]]:
        """The ``k`` expected patterns most present in ``query``.

        ``by="support"`` ranks by query support; ``by="ratio"`` by query
        support relative to the mined support (requires the matcher to have
        been built from a store or result that carries supports) — the
        patterns a trace over-expresses rather than merely expresses.
        """
        if by not in ("support", "ratio"):
            raise ValueError(f"unknown ranking {by!r} (expected 'support' or 'ratio')")
        result = self.match(query)
        if by == "support":
            return [(e.pattern, e.support) for e in result.top_k(k)]
        mined = self.mined_supports
        if mined is None:
            raise ValueError("ratio ranking needs mined supports (build from a store/result)")
        ranked = sorted(
            (e for e in result if e.support > 0),
            key=lambda e: (
                -(e.support / max(1, mined[e.pattern])),
                e.pattern,
            ),
        )
        return [(e.pattern, e.support) for e in ranked[:k]]

    def rank_sequences(
        self,
        sequences: Iterable[Any],
        k: int | None = None,
        *,
        by: str = "anomaly",
        n_jobs: int | None = None,
    ) -> list[tuple[int, SequenceScore]]:
        """The ``k`` sequences scoring highest under ``by``.

        ``by`` is ``"anomaly"`` (least like the mined behaviour first — the
        case-study triage ordering) or ``"coverage"`` (most like it first).
        Returns ``(0-based input index, score)`` pairs; ``k=None`` ranks all.
        """
        if by not in ("anomaly", "coverage"):
            raise ValueError(f"unknown ranking {by!r} (expected 'anomaly' or 'coverage')")
        scores = self.score_many(sequences, n_jobs=n_jobs)
        ranked = sorted(
            enumerate(scores),
            key=lambda pair: (-getattr(pair[1], by), pair[0]),
        )
        return ranked if k is None else ranked[:k]


def _score_chunk(
    task: tuple[PatternAutomaton, GapConstraint | None, list[DbSequence]],
    obs: MetricsRegistry | None,
) -> list[SequenceScore]:
    """Score one contiguous chunk of a :meth:`PatternMatcher.score_many` batch.

    Module-level so :func:`~repro.obs.aggregate.pooled_map` can pickle it;
    a pool worker unpickles the parent's compiled automaton instead of
    recompiling the trie.
    """
    automaton, constraint, sequences = task
    matcher = PatternMatcher(automaton, constraint=constraint, obs=obs)
    result = matcher.match(SequenceDatabase(sequences))
    return [score_from_match(result, i) for i in range(1, len(sequences) + 1)]


def score_database(
    patterns: PatternStore | MiningResult | Iterable[Any],
    database: SequenceDatabase | PySequence[Any],
    *,
    constraint: GapConstraint | None = None,
    n_jobs: int | None = None,
) -> list[SequenceScore]:
    """One-shot convenience: score every sequence of ``database``."""
    matcher = PatternMatcher(patterns, constraint=constraint)
    return matcher.score_many(database, n_jobs=n_jobs)
