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

The same argument holds for 2-grams, and in each sequence on its own.  An
extension that places ``e'`` right after ``a`` or right before ``b``
contains the 2-gram ``a e'`` or ``e' b``, so its support is at most that
2-gram's, in total and in every sequence ``s``: Theorem 1 holds per
sequence, and supports add across sequences (Definition 2.5).  An
extension ``Q`` of ``P`` also has ``sup_s(Q) <= sup_s(P)`` in each
sequence, so ``sup(Q) = sup(P)`` only if ``sup_s(Q) = sup_s(P)`` in every
one.  A probe one of whose new 2-grams ``g`` has ``sup_s(g) < sup_s(P)`` in
some sequence of ``P`` can therefore witness neither non-closedness
(Theorem 4) nor border pruning (Theorem 5).  Without a gap constraint every
probe, append, insert or prepend, is grown only if its new 2-grams reach
``sup(P)`` in total and ``sup_s(P)`` in each of ``P``'s sequences.  The
counts come from one table per mine, built in one scan of the index
(:func:`~repro.core.support.pair_supports`); the miner's DFS picks its
children with the same table's totals.  ``P``'s own counts are taken once
per check, at the first probe that passes the totals test, and the
sequences where ``P`` has one instance need no count comparison: any
occurrence of ``g`` there covers it.

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
  resumes from the deepest intermediate already there.  :meth:`check`
  parks the append children the DFS grew (its ``children``) on the same
  node, and an append child ``e1..eg e'`` is exactly a probe's first
  intermediate.

A leftmost support set depends only on its pattern (and the checker's index
and constraint), so these pattern-keyed memos cannot change a decision; the
path scope only bounds their memory.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, KeysView
from dataclasses import dataclass
from operator import ge

from repro.core.constraints import GapConstraint
from repro.core.engine import (
    COMPRESSED_ENGINE,
    FULL_LANDMARK_ENGINE,
    SupportEngine,
    SupportSetLike,
)
from repro.core.pattern import Pattern
from repro.core.support import PairCounts, SupportSet, pair_supports
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
        child ``e1..ej e'`` (a child the DFS grew, parked by
        :meth:`ClosureChecker.check`, or an append probe's, only for events
        inside the append bound when there is one); with ``gap < j`` it is
        an intermediate of an insertion (``gap >= 1``) or prepend
        (``gap == 0``) probe into a longer pattern below this node.
    """

    __slots__ = ("events", "sets")

    def __init__(self, events: tuple[Event, ...]) -> None:
        self.events = events
        self.sets: dict[tuple[int, Event], SupportSetLike] = {}

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


class _PerSequence:
    """``sup_s(P)`` of the pattern ``P`` being checked, for every sequence ``s``.

    :meth:`covered_by` is the per-sequence 2-gram test.  ``P``'s counts are
    taken at its first call.  Most of ``P``'s sequences hold one instance,
    which any occurrence of the 2-gram covers, so after a C-level subset
    test of the sequence sets only the sequences with two or more instances
    compare counts.
    """

    __slots__ = ("support_set", "sequences", "dense", "needed")

    def __init__(self, support_set: SupportSetLike) -> None:
        self.support_set = support_set
        self.sequences: KeysView[int] | None = None
        self.dense: list[int] = []
        self.needed: list[int] = []

    def covered_by(self, pair: PairCounts) -> bool:
        """True if ``sup_s(a b) >= sup_s(P)`` in every sequence ``s`` of ``P``."""
        if self.sequences is None:
            counts = Counter(self.support_set.seq_indices_array)
            self.sequences = counts.keys()
            self.dense = [seq for seq, count in counts.items() if count > 1]
            self.needed = [counts[seq] for seq in self.dense]
        return self.sequences <= pair.keys() and all(
            map(ge, map(pair.__getitem__, self.dense), self.needed)
        )


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
    pairs:
        ``pairs[a][b]`` holds ``sup(a b)`` and ``sup_s(a b)`` per sequence,
        as :func:`~repro.core.support.pair_supports` returns them, over at
        least every event whose total count reaches the supports checked
        (the miner passes its own table).  When omitted the checker builds
        one over its alphabet.  Ignored under a gap constraint, which
        breaks the Apriori property the table bounds with.

    Attributes
    ----------
    path:
        The path store: ``path[j - 1]`` is the :class:`PathNode` of the
        ``j``-event prefix of the pattern last passed to :meth:`enter` (which
        :meth:`check` calls too).
    grow_calls, initial_calls:
        ``engine.grow`` / ``engine.initial`` calls this checker has made.
    grow_rows:
        Rows of the parent sets those ``engine.grow`` calls swept.
    """

    def __init__(
        self,
        index: InvertedEventIndex,
        *,
        enable_lbcheck: bool = True,
        constraint: GapConstraint | None = None,
        engine: SupportEngine | None = None,
        pairs: dict[Event, dict[Event, PairCounts]] | None = None,
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
        # `_candidate_events` by support value.
        self._candidates: dict[int, list[Event]] = {}
        # The 2-gram filter's table, both ways round: `_following[a][b]`
        # and `_preceding[b][a]` are the same `PairCounts` of `a b`, so a
        # probe loop over the inserted event reads one row per gap.
        # Supports are representation-independent, so callers may
        # alternate engines.
        self._following: dict[Event, dict[Event, PairCounts]] | None = None
        self._preceding: dict[Event, dict[Event, PairCounts]] = {}
        if constraint is None:
            if pairs is None:
                pairs = pair_supports(index, [event for event, _ in self._event_totals])
            self._following = pairs
            for first, row in pairs.items():
                for second, counts in row.items():
                    self._preceding.setdefault(second, {})[first] = counts
        # Size-1 sets, keyed (engine, event): the representations differ.
        self._initial_sets: dict[tuple[SupportEngine, Event], SupportSetLike] = {}
        self.path: list[PathNode] = []
        self._path_engine: SupportEngine | None = None
        self.grow_calls = 0
        self.grow_rows = 0
        self.initial_calls = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(
        self,
        support_set: SupportSetLike,
        prefix_sets: list[SupportSetLike],
        *,
        children: dict[Event, SupportSetLike] | None = None,
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
        children:
            Event ``e`` → leftmost support set of the append ``P ∘ e``, for
            the appends the caller already grew (CloGSgrow's DFS grows them
            as ``P``'s children).  They are parked on ``P``'s path node, for
            the probes of the nodes below it, and read without filtering or
            counting them; every other append is probed on demand.
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
        m = len(pattern)
        children = children or {}
        for event, grown in children.items():
            node.sets[node.key(m, event)] = grown
        following = self._following
        pair_filter = following is not None
        if pair_filter:
            # P ∘ e contains the 2-gram (e_m, e): its counts, keyed by e.
            from_last = following.get(pattern.at(m), {})
            per_sequence = _PerSequence(support_set)
        for event in in_bound:
            appended = children.get(event)
            if appended is None:
                if pair_filter:
                    counts = from_last.get(event)
                    if counts is None or counts.support < support:
                        continue
                    if not per_sequence.covered_by(counts):
                        continue
                decision.extensions_evaluated += 1
                key = node.key(m, event)
                appended = node.sets.get(key)
                if appended is None:
                    appended = node.sets[key] = self._grow(engine, support_set, event)
            if appended.support == support:
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
        for gap in range(m):  # gap g inserts between e_g and e_{g+1} (0 = prepend)
            if pair_filter:
                # The counts of (e', e_{gap+1}) and (e_gap, e'), keyed by e'.
                to_next = self._preceding.get(pattern.at(gap + 1), {})
                from_previous = following.get(pattern.at(gap), {}) if gap >= 1 else None
            # The last gap's insertions contain `Q ∘ e'`: only the bound's events.
            for event in in_bound if gap == m - 1 else candidates:
                # The 2-gram filter: the extension contains (e', e_{gap+1})
                # and, unless it prepends, (e_gap, e').
                if pair_filter:
                    after = to_next.get(event)
                    if after is None or after.support < support:
                        continue
                    before = None
                    if from_previous is not None:
                        before = from_previous.get(event)
                        if before is None or before.support < support:
                            continue
                    if not per_sequence.covered_by(after) or (
                        before is not None and not per_sequence.covered_by(before)
                    ):
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
        found = self._candidates.get(support)
        if found is None:
            found = self._candidates[support] = [
                event for event, total in self._event_totals if total >= support
            ]
        return found

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
        self.grow_rows += support_set.support
        return engine.grow(self.index, support_set, event, constraint=self.constraint)

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
