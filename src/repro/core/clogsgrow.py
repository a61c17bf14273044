"""CloGSgrow (Algorithm 4): mining closed frequent patterns.

CloGSgrow is GSgrow with two modifications at every frequent DFS node
(lines 6–7 of Algorithm 4):

* a pattern is reported only if closure checking (``CCheck``, Theorem 4)
  says it is closed, and
* the DFS subtree is pruned entirely when landmark border checking
  (``LBCheck``, Theorem 5) finds an equal-support extension whose leftmost
  support set does not shift the landmark border to the right.

Both checks are implemented in :mod:`repro.core.closure`; this module wires
them into the DFS inherited from :class:`~repro.core.gsgrow.GSgrow`.  The
checker's path store holds the per-node state — grown children, decision,
probe sets — only while the node is on the live DFS path.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.closure import ClosureChecker, ClosureDecision
from repro.core.engine import SupportSetLike
from repro.core.gsgrow import GSgrow
from repro.core.results import MinedPattern, MiningResult
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event


class CloGSgrow(GSgrow):
    """The CloGSgrow closed-pattern miner (Algorithm 4).

    Accepts every :class:`~repro.core.gsgrow.MinerConfig` option of GSgrow
    plus ``enable_lbcheck`` (default ``True``); disabling it keeps the output
    identical but removes the search-space pruning — the configuration used
    by the ablation benchmark to quantify Theorem 5's benefit.

    With ``max_length=None`` (the default) the output is exactly the paper's
    closed pattern set.  When a ``max_length`` cap is given, the output is
    the closed pattern set *truncated at the cap*: every reported pattern is
    closed in the full pattern universe (closure checking at cap-length nodes
    evaluates one-event extensions even though they are longer than the cap)
    and the DFS simply stops growing at the cap.  Because closedness never
    depends on the cap, Theorem-5 landmark border pruning stays sound under a
    cap and ``enable_lbcheck`` changes runtime only, never the output.  (The
    alternative semantics — "closed within the capped universe", which must
    report *every* frequent cap-length pattern — is exactly the frequent
    -pattern explosion the paper's closed mining exists to avoid, and is
    available anyway as ``GSgrow(max_length=...)`` plus a closed filter.)

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"])
    >>> closed = CloGSgrow(min_sup=4).mine(db)
    >>> "ABC" in closed and "AB" not in closed
    True
    """

    algorithm_name = "CloGSgrow"

    def __init__(self, min_sup: int = 2, *, enable_lbcheck: bool = True, **kwargs):
        super().__init__(min_sup, **kwargs)
        self.enable_lbcheck = enable_lbcheck
        # One mine's checker.  Its path store also holds each live DFS
        # node's grown children and decision (see `_decide`).
        self._checker: ClosureChecker | None = None

    # ------------------------------------------------------------------
    # GSgrow hooks
    # ------------------------------------------------------------------
    def _prepare(self, index: InvertedEventIndex) -> None:
        """Build this run's closure checker (and with it, empty memos)."""
        self._checker = ClosureChecker(
            index,
            enable_lbcheck=self.enable_lbcheck,
            constraint=self.config.constraint,
            engine=self._engine,
        )

    def _finish(self) -> None:
        """Mirror the checker's grow counts into the stats and release its memos."""
        checker = self._checker
        if checker is not None:
            self.stats.closure_grow_calls = checker.grow_calls
            self.stats.initial_calls = checker.initial_calls
            self._checker = None

    def _initial(self, index: InvertedEventIndex, event: Event) -> SupportSetLike:
        assert self._checker is not None, "mine() must be called before the DFS hooks"
        return self._checker.initial(self._engine, event)

    def _mine_fre(
        self,
        index: InvertedEventIndex,
        support_set: SupportSetLike,
        events: list[Event],
        prefix_sets: list[SupportSetLike],
    ) -> Iterator[MinedPattern]:
        checker = self._checker
        assert checker is not None, "mine() must be called before the DFS hooks"
        try:
            yield from super()._mine_fre(index, support_set, events, prefix_sets)
        finally:
            # The DFS has left this node: its grown children, its decision
            # and the probe sets anchored at it are never read again.
            checker.leave(len(prefix_sets))

    def _grow_child(self, index, support_set: SupportSetLike, event: Event) -> SupportSetLike:
        # `_decide` grew every child of this node, the deepest on the path.
        assert self._checker is not None, "mine() must be called before the DFS hooks"
        node = self._checker.path[-1]
        return node.sets[node.key(len(support_set.pattern), event)]

    def _accept(
        self,
        support_set: SupportSetLike,
        index: InvertedEventIndex,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
    ) -> bool:
        decision = self._decide(support_set, index, prefix_sets, events)
        return decision.closed

    def _should_stop_growing(
        self,
        support_set: SupportSetLike,
        index: InvertedEventIndex,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
    ) -> bool:
        decision = self._decide(support_set, index, prefix_sets, events)
        if decision.prunable:
            self.stats.nodes_pruned_lbcheck += 1
        return decision.prunable

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decide(
        self,
        support_set: SupportSetLike,
        index: InvertedEventIndex,
        prefix_sets: list[SupportSetLike],
        events: list[Event],
    ) -> ClosureDecision:
        """Run the closure decision for the current DFS node, once.

        ``_accept`` and ``_should_stop_growing`` are called back-to-back for
        the same node, so the decision is kept on the node's path entry.
        """
        checker = self._checker
        assert checker is not None, "mine() must be called before the DFS hooks"
        node = checker.enter(support_set)
        if node.decision is not None:
            return node.decision
        depth = len(support_set.pattern)
        self.stats.closure_checks += 1
        # Let P = Q ∘ x.  An append P ∘ e can witness non-closedness only if
        # sup(P ∘ e) = sup(P) >= min_sup (Theorem 4).  P ∘ e contains Q ∘ e,
        # whose support is no smaller (Theorem 1), so Q ∘ e is frequent and
        # e is one of `events`, P's frequent siblings.  A gap constraint
        # breaks Theorem 1, and an `events` option leaves frequent events out
        # of the roots' list, so neither run passes the bound.
        bounded = self.config.constraint is None and self.config.events is None
        append_bound = events if bounded else None
        if self.config.max_length is not None and depth >= self.config.max_length:
            # The DFS will not enter this subtree, so only closedness is
            # needed (closedness is always evaluated against the *full*
            # pattern universe — extensions longer than the cap included —
            # which is what keeps LBCheck's Theorem-5 pruning sound under a
            # cap).  Appends are left to the checker's lazy early-exit loop.
            decision = checker.check(
                support_set, prefix_sets, append_bound=append_bound, need_pruning=False
            )
        else:
            # Grow each child once: the DFS growth step (`_grow_child`) takes
            # the sets and CCheck their supports.
            append_supports: dict[Event, int] = {}
            for event in events:
                self.stats.dfs_grow_calls += 1
                grown = self._engine.grow(
                    index, support_set, event, constraint=self.config.constraint
                )
                node.sets[node.key(depth, event)] = grown
                append_supports[event] = grown.support
            decision = checker.check(
                support_set,
                prefix_sets,
                append_supports=append_supports,
                append_bound=append_bound,
            )
        self.stats.extension_evaluations += decision.extensions_evaluated
        node.decision = decision
        return decision


def mine_closed(
    database: SequenceDatabase | InvertedEventIndex,
    min_sup: int,
    *,
    enable_lbcheck: bool = True,
    on_pattern=None,
    **kwargs,
) -> MiningResult:
    """Mine all closed frequent patterns (functional façade).

    Equivalent to ``CloGSgrow(min_sup, enable_lbcheck=..., **kwargs).mine(database)``;
    ``on_pattern`` streams each closed pattern out as the DFS reports it.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> sorted(str(mp.pattern) for mp in mine_closed(db, 2))
    ['AABB', 'AB', 'ABCD']
    """
    return CloGSgrow(min_sup, enable_lbcheck=enable_lbcheck, **kwargs).mine(
        database, on_pattern=on_pattern
    )
