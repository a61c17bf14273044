"""Closure checking (Theorem 4) and landmark border checking (Theorem 5).

``CloGSgrow`` needs two decisions at every frequent DFS node ``P``:

* **CCheck** — is ``P`` closed?  By Theorem 4 it suffices to look at the
  single-event extensions of ``P`` (append, insert, prepend): ``P`` is
  non-closed iff one of them has the same repetitive support.
* **LBCheck** — can the whole DFS subtree rooted at ``P`` be pruned?  By
  Theorem 5 this is the case when some extension ``P'`` not only has equal
  support but its leftmost support set also keeps the *landmark border* (the
  last landmark position of each instance, compared in right-shift order) at
  or to the left of ``P``'s border.  Appending can never satisfy the border
  condition (the appended event always moves the border right), so only
  insertions and prepends are border candidates.

Evaluating an insertion extension ``e1..ej e' e(j+1)..em`` needs a leftmost
support set for it.  The DFS already carries the leftmost support sets of all
prefixes of ``P`` (they are the ancestors on the DFS path), so the checker
reuses the prefix ``e1..ej``, grows it with ``e'`` and then with the
remaining suffix — exactly the ``supComp`` recurrence, restarted mid-way.

Candidate events are restricted to those whose total occurrence count is at
least ``sup(P)``: any extension containing a rarer event has strictly smaller
support (Apriori), so the restriction never misses an equal-support
extension.  This keeps the check exact.

The miner can narrow the candidates further with an *append bound*.  Let
``P = Q ∘ em``.  Without a gap constraint the DFS knows which events ``e``
make ``Q ∘ e`` frequent (``P``'s frequent siblings); for every other ``e``,
both the append ``P ∘ e`` and the last-gap insertion ``e1..e(m-1) e em``
contain ``Q ∘ e``, so their support is below ``min_sup <= sup(P)`` (Theorem
1) and neither can witness non-closedness (Theorem 4).  :meth:`check` takes
that event set as ``append_bound`` and probes neither extension for events
outside it.  A gap constraint breaks the monotonicity, so constrained miners
pass no bound.

The checker is engine-agnostic: every probe it runs (append growth, the
insert/prepend ``supComp`` restarts, the Theorem-5 border comparison) reads
only supports and ``border_arrays()``, so it operates on whichever
representation the miner's :class:`~repro.core.engine.SupportEngine`
produces — full landmarks under ``store_instances=True``, compressed
``(i, l1, lm)`` triples otherwise.

Within one checker's lifetime (one mine) no support set is built twice
while it can still be read:

* the size-1 sets (``engine.initial``) are built once per event;
* an insertion probe into ``P = e1..em`` passes through the intermediates
  ``e1..eg e' e(g+1)..ej`` (``j < m``), which are the same for every node
  below ``e1..ej``.  The checker keeps them on a *path store*, one
  :class:`PathNode` per prefix of the pattern last checked, and a probe
  resumes from the deepest intermediate already there.  The DFS parks a
  node's grown append children on the same node, and an append child
  ``e1..eg e'`` is exactly a probe's first intermediate;
* the supports of 2-event patterns, which the insertion probes use as an
  Apriori filter, sit in one table per checker, read a row per gap.

A leftmost support set depends only on its pattern (and the checker's index
and constraint), so these pattern-keyed memos cannot change a decision; the
path scope only bounds their memory.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from repro.core.constraints import GapConstraint
from repro.core.engine import (
    COMPRESSED_ENGINE,
    FULL_LANDMARK_ENGINE,
    SupportEngine,
    SupportSetLike,
)
from repro.core.pattern import Pattern
from repro.core.support import SupportSet
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event


@dataclass
class ClosureDecision:
    """Outcome of checking one pattern.

    Attributes
    ----------
    closed:
        ``True`` iff no single-event extension has equal support (Theorem 4).
    prunable:
        ``True`` iff some extension satisfies both conditions of Theorem 5,
        so the DFS subtree below the pattern can be skipped entirely.
    witness:
        An equal-support extension proving non-closedness (if any).
    pruning_witness:
        An extension satisfying the landmark-border condition (if any).
    extensions_evaluated:
        Number of extension patterns whose support was computed — reported by
        the ablation benchmark.
    """

    closed: bool
    prunable: bool
    witness: Pattern | None = None
    pruning_witness: Pattern | None = None
    extensions_evaluated: int = 0


class PathNode:
    """The state of one pattern ``e1..ej`` on the live DFS path.

    Attributes
    ----------
    events:
        The node's pattern ``e1..ej`` (as ``Pattern.events``).
    sets:
        :meth:`key` ``(gap, e')`` → leftmost support set of
        ``e1..e_gap e' e(gap+1)..ej``.  With ``gap == j`` that is the append
        child ``e1..ej e'`` (grown by the DFS or by an append probe, only
        for events inside the append bound when there is one); with
        ``gap < j`` it is an intermediate of an insertion (``gap >= 1``) or
        prepend (``gap == 0``) probe into a longer pattern below this node.
    decision:
        The node's :class:`ClosureDecision` once the miner has taken it.
    """

    __slots__ = ("events", "sets", "decision")

    def __init__(self, events: tuple[Event, ...]) -> None:
        self.events = events
        self.sets: dict[tuple[int, Event], SupportSetLike] = {}
        self.decision: ClosureDecision | None = None

    def key(self, gap: int, event: Event) -> tuple[int, Event]:
        """The :attr:`sets` key of ``event`` inserted at ``gap``.

        Inserting ``e'`` just before or just after another ``e'`` spells
        the same pattern, so the gap is moved left past every equal event:
        one key per distinct pattern.  The key of a gap depends only on the
        events before it, so it is the same at every deeper node.
        """
        events = self.events
        while gap and events[gap - 1] == event:
            gap -= 1
        return gap, event


class ClosureChecker:
    """Evaluates CCheck and LBCheck for the closed-pattern miner.

    Parameters
    ----------
    index:
        Inverted event index of the database being mined.
    enable_lbcheck:
        When ``False`` the checker still decides closedness but never reports
        a pattern as prunable — this is the ablation configuration measured
        in the benchmarks (output identical, runtime much larger).
    constraint:
        Optional gap constraint, forwarded to instance growth.
    engine:
        The :class:`~repro.core.engine.SupportEngine` whose support sets the
        caller passes in; extension probes are grown with the same engine.
        When omitted, :meth:`check` detects the engine from the type of the
        support set it is handed, so mixed callers can never grow a
        compressed set through the full-landmark sweep (or vice versa).

    Attributes
    ----------
    path:
        The path store: ``path[j - 1]`` is the :class:`PathNode` of the
        ``j``-event prefix of the pattern last passed to :meth:`enter` (which
        :meth:`check` calls too).
    grow_calls, initial_calls:
        ``engine.grow`` / ``engine.initial`` calls this checker has made.
    """

    def __init__(
        self,
        index: InvertedEventIndex,
        *,
        enable_lbcheck: bool = True,
        constraint: GapConstraint | None = None,
        engine: SupportEngine | None = None,
    ):
        self.index = index
        self.enable_lbcheck = enable_lbcheck
        self.constraint = constraint
        self.engine = engine
        # (event, total occurrence count), sorted by the event's repr once.
        self._event_totals: list[tuple[Event, int]] = sorted(
            ((event, index.total_count(event)) for event in index.alphabet()),
            key=lambda item: repr(item[0]),
        )
        # Lazily filled supports of 2-event patterns, used as an Apriori
        # filter: any extension containing the 2-gram (a, b) has support at
        # most sup(ab), so candidates whose neighbouring 2-grams are already
        # below the target support can be skipped without growing them.
        # Each support is stored twice, `_pairs_ending[b][a]` and
        # `_pairs_starting[a][b]`, so a probe loop over the inserted event
        # reads one row per gap.  Supports are representation-independent,
        # so the table is shared even if callers alternate engines.
        self._pairs_ending: dict[Event, dict[Event, int]] = {}
        self._pairs_starting: dict[Event, dict[Event, int]] = {}
        # Size-1 sets, keyed (engine, event): the representations differ.
        self._initial_sets: dict[tuple[SupportEngine, Event], SupportSetLike] = {}
        self.path: list[PathNode] = []
        self._path_engine: SupportEngine | None = None
        self.grow_calls = 0
        self.initial_calls = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(
        self,
        support_set: SupportSetLike,
        prefix_sets: list[SupportSetLike],
        append_supports: dict[Event, int] | None = None,
        *,
        append_bound: Collection[Event] | None = None,
        need_pruning: bool = True,
    ) -> ClosureDecision:
        """Run closure checking and landmark border checking for one pattern.

        Parameters
        ----------
        support_set:
            Leftmost support set of the pattern ``P`` being checked.
        prefix_sets:
            Leftmost support sets of the prefixes ``e1``, ``e1 e2``, …, ``P``
            (the DFS ancestors including ``P`` itself), used to evaluate
            insertion extensions without recomputing from scratch.
        append_supports:
            Supports of the append extensions ``P ∘ e`` if the caller already
            computed them (CloGSgrow computes them anyway while growing the
            DFS); missing entries are computed on demand.
        append_bound:
            Events ``e`` for which ``Q ∘ e`` may be frequent, where ``P = Q ∘
            em`` (for a size-1 ``P``, ``Q`` is empty).  The caller promises
            that for every event outside it ``Q ∘ e`` has support below
            ``min_sup``, so the append ``P ∘ e`` and the last-gap insertion
            ``e1..e(m-1) e em``, which both contain ``Q ∘ e``, cannot have
            ``P``'s support; neither is probed.  ``None`` (the default, and
            the only sound value under a gap constraint) probes every
            candidate.
        need_pruning:
            ``False`` lets the caller skip the landmark border scan even when
            LBCheck is enabled — used at nodes whose subtree the DFS will not
            enter anyway (a ``max_length`` cap), where only closedness
            matters and the scan can stop at the first witness.
        """
        pattern = support_set.pattern
        support = support_set.support
        engine = self._engine_for(support_set)
        node = self.enter(support_set)
        candidates = self._candidate_events(support)
        in_bound = candidates
        if append_bound is not None:
            bound = set(append_bound)
            in_bound = [event for event in candidates if event in bound]
        decision = ClosureDecision(closed=True, prunable=False)
        lbcheck = self.enable_lbcheck and need_pruning

        # --- Append extensions (case 1 of Definition 3.4) ------------------
        # They can reveal non-closedness but never allow border pruning.
        append_supports = append_supports or {}
        m = len(pattern)
        if m == 1:
            # The appends of a size-1 pattern are 2-event patterns: their
            # supports seed the 2-gram table.
            for event, appended_support in append_supports.items():
                self._record_pair(pattern.at(1), event, appended_support)
        for event in in_bound:
            if event in append_supports:
                appended_support = append_supports[event]
            else:
                decision.extensions_evaluated += 1
                key = node.key(m, event)
                appended = node.sets.get(key)
                if appended is None:
                    appended = node.sets[key] = self._grow(engine, support_set, event)
                appended_support = appended.support
            if appended_support == support:
                decision.closed = False
                if decision.witness is None:
                    decision.witness = pattern.grow(event)
                break  # closedness settled; border pruning needs insertions anyway

        # --- Insertion / prepend extensions (cases 2 and 3) ----------------
        need_prune_scan = lbcheck
        need_closed_scan = decision.closed
        if not (need_prune_scan or need_closed_scan):
            return decision

        border = support_set.border_arrays()
        pair_filter = self.constraint is None
        for gap in range(m):  # gap g inserts between e_g and e_{g+1} (0 = prepend)
            before = pattern.at(gap) if gap >= 1 else None
            after = pattern.at(gap + 1)
            if pair_filter:
                ending_at_after = self._pairs_ending.setdefault(after, {})
                if before is not None:
                    starting_at_before = self._pairs_starting.setdefault(before, {})
            # The last gap's insertions contain `Q ∘ e'`: only the bound's events.
            for event in in_bound if gap == m - 1 else candidates:
                # Apriori 2-gram filter: the extension contains the 2-grams
                # (e_gap, e') and (e', e_{gap+1}); if either has support below
                # the target, the extension cannot reach it.  (Skipped under a
                # gap constraint, where support is not monotone in sub-patterns.)
                if pair_filter:
                    pair = ending_at_after.get(event)
                    if pair is None:
                        pair = self._pair_support(engine, event, after)
                    if pair < support:
                        continue
                    if before is not None:
                        pair = starting_at_before.get(event)
                        if pair is None:
                            pair = self._pair_support(engine, before, event)
                        if pair < support:
                            continue
                decision.extensions_evaluated += 1
                extension_set = self._insertion_support_set(
                    engine, prefix_sets, gap, event, stop_below=support
                )
                if extension_set is None or extension_set.support != support:
                    continue
                decision.closed = False
                if decision.witness is None:
                    decision.witness = pattern.insert(gap, event)
                if lbcheck and self._border_dominates(extension_set, border):
                    decision.prunable = True
                    decision.pruning_witness = pattern.insert(gap, event)
                    return decision
                if not lbcheck:
                    # Closedness is settled and pruning is not wanted: stop early.
                    return decision
        return decision

    def enter(self, support_set: SupportSetLike) -> PathNode:
        """Align the path store with ``support_set``'s pattern; return its node.

        Nodes of the pattern's prefixes are kept, every other node (a
        finished DFS branch, or an unrelated earlier call) is dropped, and
        missing prefix nodes start empty.
        """
        engine = self._engine_for(support_set)
        path = self.path
        if engine is not self._path_engine:
            path.clear()
            self._path_engine = engine
        events = support_set.pattern.events
        keep = 0
        limit = min(len(path), len(events))
        while keep < limit and path[keep].events == events[: keep + 1]:
            keep += 1
        del path[keep:]
        for j in range(keep + 1, len(events) + 1):
            path.append(PathNode(events[:j]))
        return path[-1]

    def leave(self, depth: int) -> None:
        """Drop the nodes of depth ``depth`` and deeper (the DFS left them)."""
        del self.path[depth - 1 :]

    def initial(self, engine: SupportEngine, event: Event) -> SupportSetLike:
        """Leftmost support set of the size-1 pattern ``event``, built once.

        The miner's DFS roots share these sets with the prepend probes.
        """
        key = (engine, event)
        found = self._initial_sets.get(key)
        if found is None:
            self.initial_calls += 1
            found = self._initial_sets[key] = engine.initial(self.index, event)
        return found

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidate_events(self, support: int) -> list[Event]:
        """Events that could possibly appear in an equal-support extension."""
        return [event for event, total in self._event_totals if total >= support]

    def _engine_for(self, support_set: SupportSetLike) -> SupportEngine:
        """The engine to grow extension probes with.

        An explicitly configured engine wins; otherwise the engine is read
        off the representation of the set being checked, so the probes always
        match the sets the caller is carrying.
        """
        if self.engine is not None:
            return self.engine
        if isinstance(support_set, SupportSet):
            return FULL_LANDMARK_ENGINE
        return COMPRESSED_ENGINE

    def _grow(
        self, engine: SupportEngine, support_set: SupportSetLike, event: Event
    ) -> SupportSetLike:
        """One counted ``engine.grow`` under the checker's constraint."""
        self.grow_calls += 1
        return engine.grow(self.index, support_set, event, constraint=self.constraint)

    def _pair_support(self, engine: SupportEngine, first: Event, second: Event) -> int:
        """Grow the 2-event pattern ``first second`` and record its support."""
        support = self._grow(engine, self.initial(engine, first), second).support
        self._record_pair(first, second, support)
        return support

    def _record_pair(self, first: Event, second: Event, support: int) -> None:
        """Enter ``sup(first second)`` in both directions of the 2-gram table."""
        self._pairs_starting.setdefault(first, {})[second] = support
        self._pairs_ending.setdefault(second, {})[first] = support

    def _insertion_support_set(
        self,
        engine: SupportEngine,
        prefix_sets: list[SupportSetLike],
        gap: int,
        event: Event,
        *,
        stop_below: int = 0,
    ) -> SupportSetLike | None:
        """Leftmost support set of ``P`` with ``event`` inserted at ``gap``.

        ``P`` is the pattern of the deepest path node (see :meth:`enter`);
        ``gap == 0`` prepends.  The probe resumes from the deepest
        intermediate ``e1..e_gap event e(gap+1)..ej`` already on the path and
        parks every set it grows on the node it is anchored at.  It is
        abandoned (returning ``None``) as soon as the support drops below
        ``stop_below`` — growth never adds instances, so such an extension
        can never reach the target support.
        """
        path = self.path
        events = path[-1].events
        m = len(events)
        key = path[-1].key(gap, event)
        gap = key[0]
        first = max(gap, 1)  # shallowest node anchoring an intermediate
        level = m
        while level >= first and key not in path[level - 1].sets:
            level -= 1
        if level >= first:
            grown = path[level - 1].sets[key]
        elif gap == 0:
            grown = self.initial(engine, event)  # level 0: the size-1 set
        else:
            level = gap
            grown = path[gap - 1].sets[key] = self._grow(engine, prefix_sets[gap - 1], event)
        while grown.support >= stop_below and level < m:
            grown = path[level].sets[key] = self._grow(engine, grown, events[level])
            level += 1
        return grown if grown.support >= stop_below else None

    @staticmethod
    def _border_dominates(extension_set: SupportSetLike, border: tuple) -> bool:
        """Condition (ii) of Theorem 5.

        Both support sets are in right-shift order and (given equal support)
        pair up instance by instance; the extension dominates when every one
        of its instances ends at or before the corresponding instance of the
        original pattern, within the same sequence.  ``border`` is the
        ``(sequence indices, last positions)`` array pair of the original
        pattern (see :meth:`SupportSet.border_arrays`).
        """
        seqs_orig, lasts_orig = border
        seqs_ext, lasts_ext = extension_set.border_arrays()
        if len(seqs_ext) != len(seqs_orig) or seqs_ext != seqs_orig:
            return False
        return all(le <= lo for le, lo in zip(lasts_ext, lasts_orig, strict=False))
