"""GSgrow (Algorithm 3): mining all frequent repetitive gapped subsequences.

GSgrow couples the depth-first pattern-growth traversal familiar from
PrefixSpan with the instance-growth operation of Algorithm 2: every DFS node
carries the leftmost support set of its pattern, so the support of every
child ``P ∘ e`` is obtained with a single ``INSgrow`` call, and the Apriori
property (Theorem 1) prunes the traversal as soon as the support drops below
``min_sup``.  A frequent node grows its children once (below the length
cap) and then asks one hook, :meth:`GSgrow._judge`, whether to report the
node and whether to prune its subtree.  GSgrow reports every frequent node;
CloGSgrow makes its one closure check there (Algorithm 4, lines 6–7),
handing the grown children to the checker.

Without a gap constraint the DFS also prunes before growing:

* a grandchild ``P ∘ e ∘ f`` contains ``P ∘ f``, so it is only grown when
  ``P ∘ f`` is frequent (the sibling bound);
* a child ``P ∘ f`` of ``P = … x`` contains the 2-gram ``x f``, so it is only
  grown when ``sup(x f) >= min_sup``.  Each mine reads the supports of all
  2-grams of its frequent events off one scan of the index
  (:func:`~repro.core.support.pair_supports`), and CloGSgrow's closure
  checker filters its probes with the same table.

The table also keeps each 2-gram's support ``sup_s(x f)`` in every sequence
``s``, a by-product of the scan.  Theorem 1 holds per sequence, and supports
add across sequences (Definition 2.5), so an extension can have ``P``'s
support only if each of its 2-grams reaches ``sup_s(P)`` in every sequence
of ``P``; the checker's probes must pass that test too.  The DFS reads the
totals alone: the same bound on its children skipped grows but did not
make the mine faster.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator

from repro.core.constraints import GapConstraint
from repro.core.engine import SupportEngine, SupportSetLike, engine_for
from repro.core.pattern import Pattern
from repro.core.results import MinedPattern, MiningResult
from repro.core.support import PairCounts, pair_supports
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event
from repro.obs import MetricsRegistry


@dataclass
class MinerConfig:
    """Shared configuration of :class:`GSgrow` and :class:`CloGSgrow`.

    Parameters
    ----------
    min_sup:
        Support threshold; a pattern is frequent iff ``sup(P) >= min_sup``.
    max_length:
        Optional cap on pattern length (DFS depth).  ``None`` reproduces the
        paper exactly; a cap is useful to bound worst-case benchmarks.
    max_patterns:
        Optional cap on the number of reported patterns; mining stops once it
        is reached.  ``None`` means unlimited.
    store_instances:
        Keep the leftmost support set (and per-sequence counts) of every
        reported pattern.  This selects the mining engine: ``False`` (the
        default) runs the whole DFS on compressed ``(i, l1, lm)`` triples
        (Section III-D — constant space per instance, no landmark copies)
        and reported patterns carry pattern + support only; ``True`` runs on
        full ``m``-wide landmark rows so every
        :class:`~repro.core.results.MinedPattern` also carries its
        ``support_set`` and ``per_sequence`` counts, at a memory cost
        proportional to total support times pattern length.  Both engines
        report identical patterns and supports.
    constraint:
        Optional gap constraint (see :mod:`repro.core.constraints`).
    events:
        Restrict growth to these events.  ``None`` uses every event whose
        total occurrence count reaches ``min_sup`` (an exact Apriori filter).
    db_backend:
        Storage backend used when the miner builds an index itself from a
        plain database: ``None``/``"ram"`` (default) or ``"disk"`` (mmap'd
        segments, see :mod:`repro.db.backend`).  Ignored when a pre-built
        :class:`~repro.db.index.InvertedEventIndex` is passed — the index
        already owns its backend.
    db_dir:
        Parent directory for a ``"disk"`` backend.  Each index the miner
        builds gets a fresh private directory under it (a temp dir when
        ``None``), removed when the mine ends.
    spill_budget:
        Per-support-set byte budget: any DFS frontier set whose columns
        exceed it is spilled onto disk (:mod:`repro.core.spill`) and read
        back through an unlinked read-only mapping.  ``None`` disables
        spilling.  Results are identical either way.
    spill_dir:
        Filesystem used for spill files (the system temp dir when ``None``).
    """

    min_sup: int = 2
    max_length: int | None = None
    max_patterns: int | None = None
    store_instances: bool = False
    constraint: GapConstraint | None = None
    events: Iterable[Event] | None = None
    db_backend: str | None = None
    db_dir: str | None = None
    spill_budget: int | None = None
    spill_dir: str | None = None

    def __post_init__(self):
        if self.min_sup < 1:
            raise ValueError(f"min_sup must be >= 1, got {self.min_sup}")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if self.max_patterns is not None and self.max_patterns < 0:
            raise ValueError(f"max_patterns must be >= 0, got {self.max_patterns}")
        if self.spill_budget is not None and self.spill_budget < 1:
            raise ValueError(f"spill_budget must be >= 1, got {self.spill_budget}")
        if self.db_backend not in (None, "ram", "disk"):
            raise ValueError(
                f"db_backend must be None, 'ram' or 'disk', got {self.db_backend!r}"
            )


@dataclass
class MiningStats:
    """Counters and per-phase durations describing one mining run.

    The counters are maintained as plain attributes by the DFS (no registry
    probe per node); :meth:`as_dict` renders them — keys sorted, phases in a
    nested sorted mapping — as the ``MiningResult.stats`` payload, and the
    miner mirrors them into its :class:`~repro.obs.MetricsRegistry` once per
    run so external observers (the stream miner, benchmarks) aggregate them.
    """

    patterns_reported: int = 0
    nodes_visited: int = 0
    #: ``SupportEngine.grow`` calls made by the DFS (growing child nodes).
    dfs_grow_calls: int = 0
    #: ``SupportEngine.grow`` calls made by the closure checker's probes.
    closure_grow_calls: int = 0
    #: ``SupportEngine.initial`` calls (size-1 sets) made by the whole run.
    initial_calls: int = 0
    #: Rows swept by every ``SupportEngine.grow`` call (DFS plus closure
    #: checker): the size of the parent set each grow walks.
    grow_rows: int = 0
    nodes_pruned_infrequent: int = 0
    nodes_pruned_lbcheck: int = 0
    closure_checks: int = 0
    extension_evaluations: int = 0
    #: Wall-clock (monotonic) seconds per mining phase: ``prepare`` (index +
    #: 2-gram table + candidate events + closure-checker build), ``dfs`` (the
    #: traversal) and ``total``.
    phase_seconds: dict = field(default_factory=dict)

    @property
    def ins_grow_calls(self) -> int:
        """Every ``SupportEngine.grow`` call of the run (DFS plus closure checker)."""
        return self.dfs_grow_calls + self.closure_grow_calls

    def as_dict(self) -> dict:
        """Counters plus phase durations, keys sorted for stable serialization."""
        return {
            "closure_checks": self.closure_checks,
            "closure_grow_calls": self.closure_grow_calls,
            "dfs_grow_calls": self.dfs_grow_calls,
            "extension_evaluations": self.extension_evaluations,
            "grow_rows": self.grow_rows,
            "initial_calls": self.initial_calls,
            "ins_grow_calls": self.ins_grow_calls,
            "nodes_pruned_infrequent": self.nodes_pruned_infrequent,
            "nodes_pruned_lbcheck": self.nodes_pruned_lbcheck,
            "nodes_visited": self.nodes_visited,
            "patterns_reported": self.patterns_reported,
            "phase_seconds": {
                phase: self.phase_seconds[phase] for phase in sorted(self.phase_seconds)
            },
        }


class GSgrow:
    """The GSgrow miner (Algorithm 3).

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"])
    >>> result = GSgrow(min_sup=4).mine(db)
    >>> result.support_of("AB")
    4
    """

    algorithm_name = "GSgrow"

    def __init__(self, min_sup: int = 2, *, obs: MetricsRegistry | None = None, **kwargs):
        self.config = MinerConfig(min_sup=min_sup, **kwargs)
        self.stats = MiningStats()
        self.obs = obs if obs is not None else MetricsRegistry()
        self._engine: SupportEngine = engine_for(self.config.store_instances)
        self._event_count = 0
        # One mine's 2-gram supports (`pair_supports`); None under a gap
        # constraint, which breaks the Apriori property they bound with.
        self._pairs: dict[Event, dict[Event, PairCounts]] | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def mine(
        self,
        database: SequenceDatabase | InvertedEventIndex,
        *,
        on_pattern: Callable[[MinedPattern], None] | None = None,
    ) -> MiningResult:
        """Mine all frequent patterns of ``database``.

        Returns a :class:`~repro.core.results.MiningResult` with one entry
        per frequent pattern (in DFS discovery order).  When ``on_pattern``
        is given it is invoked with each :class:`MinedPattern` the moment the
        DFS reports it — the streaming delivery seam used by
        :mod:`repro.stream`; the final result is unchanged by the callback.
        """
        result = MiningResult(min_sup=self.config.min_sup, algorithm=self.algorithm_name)
        for mined in self.mine_iter(database):
            result.add(mined)
            if on_pattern is not None:
                on_pattern(mined)
        result.stats = self.stats.as_dict()
        return result

    def mine_iter(
        self, database: SequenceDatabase | InvertedEventIndex
    ) -> Iterator[MinedPattern]:
        """Generator form of :meth:`mine`.

        Yields each :class:`MinedPattern` as the DFS discovers it, in the
        exact order :meth:`mine` would collect them, so patterns stream out
        of a long-running mining pass instead of materialising only at the
        end.  Abandoning the generator aborts the traversal.
        """
        self.stats = MiningStats()
        self._engine = engine_for(self.config.store_instances)
        if self.config.spill_budget is not None:
            from repro.core.spill import SpillPolicy

            policy = SpillPolicy(
                self.config.spill_budget, directory=self.config.spill_dir, obs=self.obs
            )
            self._engine = self._engine.with_spill(policy)
        index, release = self._as_index(database)
        clock = self.obs.clock
        started = clock()
        dfs_started = None
        try:
            if self.config.constraint is None:
                self._pairs = pair_supports(index, index.frequent_events(self.config.min_sup))
            self._prepare(index)
            events = self._candidate_events(index)
            self._event_count = len(events)
            self.stats.phase_seconds["prepare"] = clock() - started
            dfs_started = clock()
            budget = self.config.max_patterns
            for event in events:
                support_set = self._initial(index, event)
                for mined in self._mine_fre(index, support_set, events, [support_set]):
                    if budget is not None and self.stats.patterns_reported >= budget:
                        return
                    self.stats.patterns_reported += 1
                    yield mined
        finally:
            # A `max_patterns` stop or an abandoned generator ends the DFS too.
            if dfs_started is not None:
                self.stats.phase_seconds["dfs"] = clock() - dfs_started
            self._finish()
            self._pairs = None
            self.stats.phase_seconds["total"] = clock() - started
            self._record_obs()
            release()

    def _record_obs(self) -> None:
        """Mirror this run's counters and phase timings into the registry.

        Runs once per mining pass (never inside the DFS), so the per-node cost
        of observability is zero; all instruments update under one registry
        lock acquisition so a concurrent snapshot never sees half a run.
        """
        obs = self.obs
        if not obs.enabled:
            return
        stats = self.stats
        with obs.locked():
            obs.counter("mine.runs").inc()
            obs.counter("mine.patterns_reported").inc(stats.patterns_reported)
            obs.counter("mine.nodes_visited").inc(stats.nodes_visited)
            obs.counter("mine.grow.dfs").inc(stats.dfs_grow_calls)
            obs.counter("mine.grow.closure").inc(stats.closure_grow_calls)
            obs.counter("mine.grow.rows").inc(stats.grow_rows)
            obs.counter("mine.initial").inc(stats.initial_calls)
            obs.counter("mine.nodes_pruned_infrequent").inc(stats.nodes_pruned_infrequent)
            obs.counter("mine.nodes_pruned_lbcheck").inc(stats.nodes_pruned_lbcheck)
            obs.counter("mine.closure_checks").inc(stats.closure_checks)
            obs.counter("mine.extension_evaluations").inc(stats.extension_evaluations)
            for phase, seconds in stats.phase_seconds.items():
                obs.histogram(f"mine.phase.{phase}.seconds").observe(seconds)  # reprolint: disable=RL008 -- phases are the fixed prepare/dfs/total set MiningStats records, each expanding to a conformant name

    # ------------------------------------------------------------------
    # DFS (subroutine mineFre)
    # ------------------------------------------------------------------
    def _mine_fre(
        self,
        index: InvertedEventIndex,
        support_set: SupportSetLike,
        events: list[Event],
        prefix_sets: list[SupportSetLike],
    ) -> Iterator[MinedPattern]:
        """Recursive DFS over the pattern space (lines 6–10 of Algorithm 3).

        A frequent node's children are grown once, below the length cap,
        before :meth:`_judge` decides whether to report the node and whether
        to prune its subtree.
        """
        stats = self.stats
        stats.nodes_visited += 1
        min_sup = self.config.min_sup
        if support_set.support < min_sup:
            stats.nodes_pruned_infrequent += 1
            return
        max_length = self.config.max_length
        children: dict[Event, SupportSetLike] | None = None
        if max_length is None or len(support_set.pattern) < max_length:
            children = {
                event: self._grow_child(index, support_set, event)
                for event in self._growable(support_set.pattern, events)
            }
        report, prune = self._judge(support_set, prefix_sets, events, children)
        if report:
            yield self._as_mined(support_set)
        if prune or children is None:
            return
        # Rebound so the infrequent children are released before the descent.
        children = {event: grown for event, grown in children.items() if grown.support >= min_sup}
        # Children over events `_child_events` or `_growable` left out are
        # infrequent too.
        stats.nodes_pruned_infrequent += self._event_count - len(children)
        child_events = self._child_events(events, list(children))
        for grown in children.values():
            yield from self._mine_fre(index, grown, child_events, prefix_sets + [grown])

    # ------------------------------------------------------------------
    # Hooks overridden by CloGSgrow
    # ------------------------------------------------------------------
    def _prepare(self, index: InvertedEventIndex) -> None:
        """Per-run setup before the DFS starts (CloGSgrow builds its checker here)."""

    def _finish(self) -> None:
        """Per-run teardown once the DFS ends or is abandoned."""

    def _initial(self, index: InvertedEventIndex, event: Event) -> SupportSetLike:
        """The size-1 support set of a DFS root (CloGSgrow shares its checker's)."""
        self.stats.initial_calls += 1
        return self._engine.initial(index, event)

    def _child_events(self, events: list[Event], frequent: list[Event]) -> list[Event]:
        """Events to grow the children of ``P ∘ e`` with, given ``P``'s frequent children.

        ``P ∘ e ∘ f`` contains ``P ∘ f``, and repetitive support never grows
        under extension (Apriori), so only the events of ``P``'s frequent
        children can make a frequent grandchild.  A gap constraint breaks
        that monotonicity, so constrained runs keep every event.  CloGSgrow
        also hands the list to its closure checker as the append bound.
        """
        return frequent if self.config.constraint is None else events

    def _growable(self, pattern: Pattern, events: list[Event]) -> list[Event]:
        """The events ``f`` of ``events`` whose child ``P ∘ f`` is grown.

        ``P ∘ f`` contains the 2-gram ``x f`` of ``P = … x``, so it can only
        be frequent when ``sup(x f) >= min_sup`` (Theorem 1); the sibling
        list ``events`` already bounds every other 2-gram ending in ``f``.
        Without a table (a gap constraint) every event is grown.
        """
        pairs = self._pairs
        if pairs is None:
            return events
        following = pairs[pattern.at(len(pattern))]
        min_sup = self.config.min_sup
        return [
            event
            for event in events
            if event in following and following[event].support >= min_sup
        ]

    def _grow_child(
        self, index: InvertedEventIndex, support_set: SupportSetLike, event: Event
    ) -> SupportSetLike:
        """The support set of the child ``P ∘ e``: every DFS grow is counted here."""
        self.stats.dfs_grow_calls += 1
        self.stats.grow_rows += support_set.support
        return self._engine.grow(index, support_set, event, constraint=self.config.constraint)

    def _judge(
        self,
        support_set: SupportSetLike,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
        children: dict[Event, SupportSetLike] | None,
    ) -> tuple[bool, bool]:
        """Whether to report a frequent node, and whether to prune its subtree.

        ``events`` are the node's frequent siblings and ``children`` maps each
        event the DFS grew a child with to that child's set (``None`` at the
        length cap, where it grows none).  GSgrow reports every frequent
        pattern and prunes nothing.
        """
        return True, False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _as_mined(self, support_set: SupportSetLike) -> MinedPattern:
        if self.config.store_instances:
            return MinedPattern(
                pattern=support_set.pattern,
                support=support_set.support,
                support_set=support_set,
                per_sequence=support_set.per_sequence_counts(),
            )
        return MinedPattern(pattern=support_set.pattern, support=support_set.support)

    def _candidate_events(self, index: InvertedEventIndex) -> list[Event]:
        if self.config.events is not None:
            return sorted(set(self.config.events), key=repr)
        return index.frequent_events(self.config.min_sup)

    def _as_index(self, database) -> tuple[InvertedEventIndex, Callable[[], None]]:
        """The index to mine, plus the callable that releases it after the mine.

        A caller's index is the caller's to release.  An index built here
        from a database gets its own store directory: a disk store reopening
        one that another index wrote would replay that index's segments.
        """
        if isinstance(database, InvertedEventIndex):
            return database, lambda: None
        if isinstance(database, SequenceDatabase):
            store_dir = None
            if self.config.db_backend == "disk" and self.config.db_dir is not None:
                os.makedirs(self.config.db_dir, exist_ok=True)
                store_dir = tempfile.mkdtemp(prefix="mine-", dir=self.config.db_dir)
            try:
                index = InvertedEventIndex(
                    database, backend=self.config.db_backend, backend_dir=store_dir
                )
            except BaseException:
                _remove(store_dir)
                raise

            def release() -> None:
                index.backend.close()
                _remove(store_dir)

            return index, release
        raise TypeError(
            f"expected a SequenceDatabase or InvertedEventIndex, got {type(database).__name__}"
        )


def _remove(store_dir: str | None) -> None:
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)


def mine_all(
    database: SequenceDatabase | InvertedEventIndex,
    min_sup: int,
    *,
    on_pattern: Callable[[MinedPattern], None] | None = None,
    **kwargs,
) -> MiningResult:
    """Mine all frequent repetitive gapped subsequences (functional façade).

    Equivalent to ``GSgrow(min_sup, **kwargs).mine(database, on_pattern=...)``.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> result = mine_all(db, 2)
    >>> len(result), result.support_of("AB")
    (20, 4)
    """
    return GSgrow(min_sup, **kwargs).mine(database, on_pattern=on_pattern)
