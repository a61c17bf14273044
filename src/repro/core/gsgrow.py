"""GSgrow (Algorithm 3): mining all frequent repetitive gapped subsequences.

GSgrow couples the depth-first pattern-growth traversal familiar from
PrefixSpan with the instance-growth operation of Algorithm 2: every DFS node
carries the leftmost support set of its pattern, so the support of every
child ``P ∘ e`` is obtained with a single ``INSgrow`` call, and the Apriori
property (Theorem 1) prunes the traversal as soon as the support drops below
``min_sup``.  Without a gap constraint it also prunes before growing: a
grandchild ``P ∘ e ∘ f`` contains ``P ∘ f``, so it is only grown when
``P ∘ f`` is frequent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence as PySequence

from repro.core.constraints import GapConstraint
from repro.core.engine import SupportEngine, SupportSetLike, engine_for
from repro.core.results import MinedPattern, MiningResult
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
        Directory for a ``"disk"`` backend (a temp dir when ``None``).
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
    nodes_pruned_infrequent: int = 0
    nodes_pruned_lbcheck: int = 0
    closure_checks: int = 0
    extension_evaluations: int = 0
    #: Wall-clock (monotonic) seconds per mining phase: ``prepare`` (index +
    #: candidate events + closure-checker build), ``dfs`` (the traversal)
    #: and ``total``.
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
        index = self._as_index(database)
        self.stats = MiningStats()
        self._engine = engine_for(self.config.store_instances)
        if self.config.spill_budget is not None:
            from repro.core.spill import SpillPolicy

            policy = SpillPolicy(
                self.config.spill_budget, directory=self.config.spill_dir, obs=self.obs
            )
            self._engine = self._engine.with_spill(policy)
        clock = self.obs.clock
        started = clock()
        dfs_started = None
        try:
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
            self.stats.phase_seconds["total"] = clock() - started
            self._record_obs()

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
        """Recursive DFS over the pattern space (lines 6–10 of Algorithm 3)."""
        self.stats.nodes_visited += 1
        if support_set.support < self.config.min_sup:
            self.stats.nodes_pruned_infrequent += 1
            return
        if self._accept(support_set, index, prefix_sets, events):
            yield self._as_mined(support_set)
        if self._should_stop_growing(support_set, index, prefix_sets, events):
            return
        if self.config.max_length is not None and len(support_set.pattern) >= self.config.max_length:
            return
        # Children over events `_child_events` left out are infrequent too.
        self.stats.nodes_pruned_infrequent += self._event_count - len(events)
        frequent: list[Event] = []
        children: list[SupportSetLike] = []
        for event in events:
            grown = self._grow_child(index, support_set, event)
            if grown.support < self.config.min_sup:
                self.stats.nodes_pruned_infrequent += 1
                continue
            frequent.append(event)
            children.append(grown)
        child_events = self._child_events(events, frequent)
        for grown in children:
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

    def _grow_child(
        self, index: InvertedEventIndex, support_set: SupportSetLike, event: Event
    ) -> SupportSetLike:
        """Compute the support set of ``P ∘ e`` (CloGSgrow reuses cached ones)."""
        self.stats.dfs_grow_calls += 1
        return self._engine.grow(index, support_set, event, constraint=self.config.constraint)

    def _accept(
        self,
        support_set: SupportSetLike,
        index: InvertedEventIndex,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
    ) -> bool:
        """Whether to report the (frequent) pattern of ``support_set``."""
        return True

    def _should_stop_growing(
        self,
        support_set: SupportSetLike,
        index: InvertedEventIndex,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
    ) -> bool:
        """Whether the DFS subtree below this pattern can be pruned."""
        return False

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

    def _as_index(self, database) -> InvertedEventIndex:
        if isinstance(database, InvertedEventIndex):
            return database
        if isinstance(database, SequenceDatabase):
            return InvertedEventIndex(
                database,
                backend=self.config.db_backend,
                backend_dir=self.config.db_dir,
            )
        raise TypeError(
            f"expected a SequenceDatabase or InvertedEventIndex, got {type(database).__name__}"
        )


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
