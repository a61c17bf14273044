"""High-level façade of the library.

Most users only need four calls::

    from repro import SequenceDatabase, mine_all, mine_closed, repetitive_support

    db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    repetitive_support(db, "AB")        # -> 4
    mine_all(db, min_sup=2)             # all frequent patterns (GSgrow)
    mine_closed(db, min_sup=2)          # closed frequent patterns (CloGSgrow)

For continuous workloads :func:`mine_stream` consumes an iterable of
incoming sequences and yields pattern updates as they are mined, and
:func:`mine_many` shards multi-database batches across a process pool.

The read side mirrors the write side: :func:`save_patterns` persists a
mining result as a :class:`~repro.match.store.PatternStore`,
:func:`load_patterns` brings one back in any worker, and :func:`match`
answers "which of these patterns occur in this fresh data, with what
support" through the shared automaton of :mod:`repro.match`::

    result = mine_closed(db, min_sup=2)
    save_patterns(result, "patterns.rps")
    ...
    store = load_patterns("patterns.rps")       # in a serving worker
    match(store, fresh_db).supports()           # one pass, all patterns

The functions re-exported here are thin wrappers over the classes in
:mod:`repro.core`; the classes remain available for callers that need
configuration options, mining statistics or support sets.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence as PySequence
from contextlib import nullcontext
from typing import Any

from repro.core import sup_comp_compressed
from repro.core.clogsgrow import CloGSgrow, mine_closed
from repro.core.constraints import GapConstraint
from repro.core.gsgrow import GSgrow, mine_all
from repro.core.pattern import Pattern
from repro.core.results import MiningResult
from repro.core.support import repetitive_support, sup_comp
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.match.automaton import MatchResult, PatternAutomaton
from repro.match.service import PatternMatcher, SequenceScore, score_database
from repro.match.store import PatternStore, load_patterns, save_patterns
from repro.obs import MetricsRegistry
from repro.obs.aggregate import pool_width, pooled_map
from repro.serve.aio import serve
from repro.stream.miner import StreamMiner, StreamUpdate

__all__ = [
    "mine_all",
    "mine_closed",
    "repetitive_support",
    "sup_comp",
    "sup_comp_compressed",
    "mine",
    "mine_many",
    "mine_stream",
    "match",
    "score_sequences",
    "serve",
    "load_patterns",
    "save_patterns",
    "GSgrow",
    "CloGSgrow",
    "MetricsRegistry",
]


def mine(
    database: SequenceDatabase | InvertedEventIndex,
    min_sup: int,
    *,
    closed: bool = True,
    **kwargs,
) -> MiningResult:
    """Mine frequent repetitive gapped subsequences.

    Parameters
    ----------
    database:
        The sequence database (or a pre-built index).
    min_sup:
        Repetitive-support threshold.
    closed:
        ``True`` (default) runs CloGSgrow and returns only closed patterns;
        ``False`` runs GSgrow and returns every frequent pattern.
    kwargs:
        Forwarded to the miner configuration (``max_length``,
        ``store_instances``, ``constraint``, ...).  With the default
        ``store_instances=False`` the DFS runs on the compressed
        ``(i, l1, lm)`` engine of Section III-D and each mined pattern
        carries pattern + support only (``support_set`` is ``None``); pass
        ``store_instances=True`` to mine on full landmark rows and keep every
        pattern's leftmost support set.  Patterns and supports are identical
        either way.

    Example
    -------
    >>> from repro import SequenceDatabase, mine
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> sorted(str(mp.pattern) for mp in mine(db, 2))
    ['AABB', 'AB', 'ABCD']
    >>> len(mine(db, 2, closed=False))
    20
    """
    if closed:
        return mine_closed(database, min_sup, **kwargs)
    return mine_all(database, min_sup, **kwargs)


def _mine_one(
    task: tuple[SequenceDatabase | InvertedEventIndex, int, bool, dict[str, Any]],
    obs: MetricsRegistry | None,
) -> tuple[MiningResult, float]:
    """Mine one database of a :func:`mine_many` batch, in-process or in a pool worker.

    Module-level so :func:`~repro.obs.aggregate.pooled_map` can pickle it.
    Returns the result with the mining wall-clock, so batched callers (the
    experiment harness) can report per-database runtimes without a second
    timed pass.  Given a registry, the run records into it under one
    ``mine.worker.seconds`` span per database.
    """
    database, min_sup, closed, kwargs = task
    span = nullcontext() if obs is None else obs.span("mine.worker.seconds")
    options = kwargs if obs is None else {**kwargs, "obs": obs}
    with span:
        start = time.perf_counter()
        result = mine(database, min_sup, closed=closed, **options)
        seconds = time.perf_counter() - start
    return result, seconds


def mine_many(
    databases: PySequence[SequenceDatabase | InvertedEventIndex],
    min_sup: int | PySequence[int],
    *,
    closed: bool = True,
    n_jobs: int | None = None,
    with_timings: bool = False,
    obs: MetricsRegistry | None = None,
    **kwargs,
) -> list[MiningResult] | list[tuple[MiningResult, float]]:
    """Mine a batch of databases with one shared configuration.

    The batched entry point used by the experiment harness and the CLI for
    multi-database workloads: results come back in input order, one
    :class:`~repro.core.results.MiningResult` per database.

    Parameters
    ----------
    databases:
        The sequence databases (or pre-built indexes) to mine.
    min_sup:
        Repetitive-support threshold — either one value applied to every
        database, or a sequence with one threshold per database (how the
        experiment harness shards a whole support sweep as one batch).
    closed:
        ``True`` (default) runs CloGSgrow per database, ``False`` GSgrow.
    n_jobs:
        ``None`` or ``1`` mines serially in-process.  Any other value shards
        the batch across a process pool with that many workers (``<= 0``
        means one per CPU).  Each worker mines whole databases — instances
        never span sequences of different databases, so sharding at database
        granularity is exact.  Indexes are rebuilt in the workers, so a
        pre-built :class:`InvertedEventIndex` (disk-backed ones included)
        ships only a plain copy of its sequences.
    with_timings:
        ``True`` returns ``(result, seconds)`` pairs, where ``seconds`` is
        the mining wall-clock measured around each database's run (inside
        the worker when a pool is used).
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`.  Each database mines
        into it under one ``mine.worker.seconds`` span; pooled runs give
        each worker its own registry (plus a trace recorder, under the
        caller's ambient trace context) and merge the telemetry back on
        return (:func:`~repro.obs.aggregate.pooled_map`), so the parent
        registry holds the same instruments and counts whether the batch
        ran in one process or eight.
    kwargs:
        Forwarded to the miner configuration (``max_length``,
        ``store_instances``, ``constraint``, ...).

    Example
    -------
    >>> from repro import SequenceDatabase, mine_many
    >>> dbs = [SequenceDatabase.from_strings(["AABCDABB", "ABCD"]),
    ...        SequenceDatabase.from_strings(["XYXY"])]
    >>> [len(result) for result in mine_many(dbs, 2)]
    [3, 1]
    """
    databases = list(databases)
    if isinstance(min_sup, int):
        thresholds = [min_sup] * len(databases)
    else:
        thresholds = list(min_sup)
        if len(thresholds) != len(databases):
            raise ValueError(
                f"got {len(thresholds)} thresholds for {len(databases)} databases"
            )
    width = pool_width(n_jobs, len(databases))
    if width > 1:
        # Workers rebuild their indexes: ship plain sequences, never an
        # index or a disk-backed database bound to an open store.
        databases = [_plain_database(db) for db in databases]
    tasks = [
        (db, threshold, closed, kwargs)
        for db, threshold in zip(databases, thresholds, strict=True)
    ]
    timed = pooled_map(_mine_one, tasks, n_jobs=width, obs=obs)
    if with_timings:
        return timed
    return [result for result, _ in timed]


def _plain_database(database: SequenceDatabase | InvertedEventIndex) -> SequenceDatabase:
    """A picklable copy of ``database``'s sequences (the index's, for an index)."""
    if isinstance(database, InvertedEventIndex):
        database = database.database
    return SequenceDatabase(database.sequences, name=database.name)


def match(
    patterns: PatternStore | MiningResult | PatternAutomaton | Iterable,
    query,
    *,
    constraint: GapConstraint | None = None,
    with_instances: bool = False,
    engine: str = "auto",
) -> MatchResult:
    """Match a mined pattern set against fresh data in one shared pass.

    Parameters
    ----------
    patterns:
        What to look for: a loaded :class:`~repro.match.store.PatternStore`,
        a live :class:`MiningResult`, a pre-compiled
        :class:`~repro.match.automaton.PatternAutomaton`, or any iterable of
        patterns.
    query:
        Where to look: a :class:`SequenceDatabase`, a pre-built
        :class:`InvertedEventIndex`, a single sequence, or a list of
        sequences.
    constraint:
        Optional gap constraint (the same semantics as
        :func:`repetitive_support`).
    with_instances:
        ``True`` also reports each pattern's leftmost support set in the
        query (identical to :func:`sup_comp`).
    engine:
        ``"auto"`` (default), ``"sweep"`` or ``"dfs"`` — see
        :meth:`~repro.match.automaton.PatternAutomaton.match`.

    Returns
    -------
    MatchResult
        Per-pattern occurrence, repetitive support and per-sequence counts,
        byte-identical to looping :func:`repetitive_support` per pattern.

    Example
    -------
    >>> from repro import SequenceDatabase, mine_closed, match
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> result = match(mine_closed(db, 2), ["ABCDAB", "AACB"])
    >>> result.support_of("AB")
    3
    >>> round(result.coverage(), 2)
    0.67
    """
    return PatternMatcher(patterns, constraint=constraint).match(
        query, with_instances=with_instances, engine=engine
    )


def score_sequences(
    patterns: PatternStore | MiningResult | Iterable,
    sequences,
    *,
    constraint: GapConstraint | None = None,
    n_jobs: int | None = None,
) -> list[SequenceScore]:
    """Coverage/anomaly score of each sequence against an expected pattern set.

    The case-study read path: a healthy trace realises most of the mined
    patterns (coverage near 1), an anomalous one misses many (anomaly near
    1).  ``n_jobs`` shards the batch over a process pool with the same
    semantics as :func:`mine_many`.

    Example
    -------
    >>> from repro import SequenceDatabase, mine_closed, score_sequences
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> scores = score_sequences(mine_closed(db, 2), ["ABCDAB", "AACB"])
    >>> [(s.matched, s.total, round(s.anomaly, 2)) for s in scores]
    [(2, 3, 0.33), (1, 3, 0.67)]
    """
    return score_database(patterns, sequences, constraint=constraint, n_jobs=n_jobs)


def mine_stream(
    sequences: Iterable,
    min_sup: int,
    *,
    closed: bool = True,
    shard_size: int = 16,
    window: int | None = None,
    max_length: int | None = None,
    refresh_every: int = 1,
    db_backend: str | None = None,
    db_dir: str | None = None,
    spill_budget: int | None = None,
    n_jobs: int | None = None,
) -> Iterator[StreamUpdate]:
    """Mine a stream of sequences, yielding pattern updates as data arrives.

    Consumes ``sequences`` (any iterable — a list, a generator tailing a
    file, a message-queue reader) through a
    :class:`~repro.stream.miner.StreamMiner` and yields a
    :class:`~repro.stream.miner.StreamUpdate` after every ``refresh_every``
    appended sequences (plus a final one for any remainder).  Each update
    carries the full pattern set over the current window — byte-identical to
    batch-mining the equivalent static database — plus the delta against the
    previous update.

    Parameters
    ----------
    sequences:
        The incoming sequences, in arrival order.
    min_sup:
        Repetitive-support threshold over the current window.
    closed:
        ``True`` (default) tracks closed patterns, ``False`` all frequent.
    shard_size:
        Sequences per re-mining shard (see :class:`StreamMiner`).
    window:
        Optional sliding-window budget: only the most recent ``window``
        sequences are retained.
    max_length:
        Optional pattern-length cap (batch semantics).
    refresh_every:
        Number of appends batched between pattern refreshes.
    db_backend:
        ``None``/``"ram"`` (default) or ``"disk"``: store the per-shard
        inverted indexes in mmap'd segment files so the retained window can
        exceed RAM (see :class:`StreamMiner`).  Patterns are identical.
    db_dir:
        Parent directory for ``"disk"`` shard stores (system temp if ``None``).
    spill_budget:
        Optional per-support-set byte budget; over-budget DFS frontier sets
        spill to disk during shard re-mining (:mod:`repro.core.spill`).
    n_jobs:
        Optional pool width for re-mining dirty shards on refresh
        (``StreamMiner(n_jobs=...)`` semantics); patterns are identical.

    Example
    -------
    >>> from repro import mine_stream
    >>> arrivals = ["AABCDABB", "ABCD", "ABCABCD"]
    >>> for update in mine_stream(arrivals, 2, refresh_every=2):
    ...     print(update.appended, len(update.result))
    2 3
    1 8
    >>> updates = mine_stream(arrivals, 2, db_backend="disk", spill_budget=1 << 20)
    >>> [len(update.result) for update in updates]
    [2, 3, 8]
    """
    # Validate eagerly (including StreamMiner's own parameter checks): this
    # is a plain function returning a generator, so bad arguments raise at
    # the call site instead of at the first ``next()`` in distant code.
    if refresh_every < 1:
        raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
    miner = StreamMiner(
        min_sup,
        closed=closed,
        shard_size=shard_size,
        window=window,
        max_length=max_length,
        db_backend=db_backend,
        db_dir=db_dir,
        spill_budget=spill_budget,
        n_jobs=n_jobs,
    )

    def _updates() -> Iterator[StreamUpdate]:
        """Drive the miner over the incoming sequences, yielding refreshes."""
        try:
            pending = 0
            for sequence in sequences:
                miner.append(sequence)
                pending += 1
                if pending >= refresh_every:
                    pending = 0
                    yield miner.refresh()
            if pending:
                yield miner.refresh()
        finally:
            # Disk-backed shards hold mappings and temp directories; release
            # them when the stream ends (or the consumer abandons it).
            miner.close()

    return _updates()
