"""Shared-automaton online matching of mined patterns.

The write side of this repo mines a pattern set once; the read side has to
answer "which of these patterns occur in *this* fresh sequence, with what
repetitive support" over and over.  Looping ``repetitive_support`` over the
pattern set re-does the per-pattern work from scratch: every call resolves
its events against the query, sweeps its own instance columns, and patterns
sharing a prefix (ubiquitous in mined closed sets) repeat each other's work
wholesale.

:class:`PatternAutomaton` compiles the whole pattern set into one shared
structure over interned event ids — a prefix trie whose states are the
distinct pattern prefixes — and matches all patterns in one pass over the
query database.  Two execution engines sit behind the same interface, both
reproducing the paper's greedy non-overlapping instance semantics *exactly*
(byte-identical supports to :func:`repro.core.support.repetitive_support`):

* **Token sweep** (``engine="sweep"``) — a single left-to-right scan of each
  query sequence driving a counting NFA.  Every pattern keeps one token
  counter per prefix length; a position carrying event ``e`` promotes, for
  each pattern level expecting ``e`` (deepest level first), one token to the
  next level.  Completed tokens at the final level are exactly the greedy
  instance count: tokens of one level are interchangeable (any future
  position extends any of them), so only their number matters, and the
  deepest-first promotion dominates every other schedule — see
  :func:`_sweep_database` for the exchange argument.  Cost per sequence is
  one dict probe per position plus one counter update per matching
  ``(pattern, level)`` pair; no per-pattern index scans, no allocation.
* **Trie DFS** (``engine="dfs"``) — a depth-first walk of the prefix trie
  carrying one support set per trie state, grown edge by edge with the
  existing instance-growth engines (compressed triples by default, full
  landmark rows when instances are requested).  Each shared prefix is grown
  once for *all* patterns below it, and a prefix whose support set is empty
  prunes its whole subtree.  Because the per-edge operation *is*
  ``ins_grow``, the DFS inherits the exact semantics of ``supComp`` —
  including the documented greedy lower-bound behaviour under ``max_gap``
  constraints — which the token sweep's interchangeability argument does not
  cover.  Gap-constrained and instance-reporting matches therefore always
  run here.

``engine="auto"`` (the default) picks the token sweep whenever it is exact
(no gap constraint, no instance reporting) and the trie DFS otherwise.

A compiled automaton is plain Python data, so it pickles as is: match
workers receive the parent's automaton and unpickle it instead of
recompiling the same trie per process.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence as PySequence
from typing import Any

from repro.core.constraints import GapConstraint
from repro.core.engine import (
    FULL_LANDMARK_ENGINE,
    SupportEngine,
    SupportSetLike,
    engine_for,
)
from repro.core.pattern import Pattern, as_pattern
from repro.core.results import MiningResult
from repro.core.support import SupportSet
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Sequence, as_sequence

#: Sentinel level encoding "token source" in the sweep dispatch table: level-1
#: slots are fed from an inexhaustible supply (every occurrence of a pattern's
#: first event starts a new partial instance).
_SOURCE = -1

#: Anything :func:`repro.core.pattern.as_pattern` accepts.
PatternLike = Pattern | str | PySequence[Any]

#: Anything :meth:`PatternAutomaton.match` coerces into a query database.
MatchQuery = (
    SequenceDatabase | InvertedEventIndex | Sequence | str | list[Any] | tuple[Any, ...]
)


class MatchedPattern:
    """One pattern's outcome against a query database.

    Attributes
    ----------
    pattern:
        The matched pattern.
    support:
        Its repetitive support in the query database — identical to
        ``repetitive_support(query, pattern)``.
    per_sequence:
        Support per 1-based query-sequence index (only sequences with at
        least one instance appear; values sum to ``support``).
    support_set:
        The leftmost support set in the query, when the match was run with
        ``with_instances=True`` (identical to ``sup_comp``); ``None``
        otherwise.
    """

    __slots__ = ("pattern", "support", "per_sequence", "support_set")

    def __init__(
        self,
        pattern: Pattern,
        support: int,
        per_sequence: dict[int, int],
        support_set: SupportSet | None = None,
    ) -> None:
        self.pattern = pattern
        self.support = support
        self.per_sequence = per_sequence
        self.support_set = support_set

    @property
    def occurred(self) -> bool:
        """True if the pattern has at least one instance in the query."""
        return self.support > 0

    def __repr__(self) -> str:
        return f"MatchedPattern({self.pattern!s}, sup={self.support})"


class MatchResult:
    """Per-pattern outcomes of one automaton match, in compilation order."""

    def __init__(self, entries: Iterable[MatchedPattern], num_sequences: int) -> None:
        self._entries: list[MatchedPattern] = list(entries)
        self._by_pattern: dict[Pattern, MatchedPattern] = {
            e.pattern: e for e in self._entries
        }
        self.num_sequences = num_sequences

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MatchedPattern]:
        return iter(self._entries)

    def __getitem__(self, pattern: PatternLike) -> MatchedPattern:
        return self._by_pattern[as_pattern(pattern)]

    def __contains__(self, pattern: PatternLike) -> bool:
        return as_pattern(pattern) in self._by_pattern

    def support_of(self, pattern: PatternLike) -> int:
        """Support of ``pattern`` in the query (``KeyError`` if not compiled)."""
        return self[pattern].support

    def supports(self) -> dict[Pattern, int]:
        """Mapping pattern -> query support, in compilation order."""
        return {e.pattern: e.support for e in self._entries}

    def matched(self) -> list[MatchedPattern]:
        """Entries that occurred at least once, in compilation order."""
        return [e for e in self._entries if e.support > 0]

    def missing(self) -> list[Pattern]:
        """Compiled patterns with no instance in the query."""
        return [e.pattern for e in self._entries if e.support == 0]

    def coverage(self) -> float:
        """Fraction of compiled patterns that occurred (1.0 for an empty set)."""
        if not self._entries:
            return 1.0
        return len(self.matched()) / len(self._entries)

    def top_k(self, k: int) -> list[MatchedPattern]:
        """The ``k`` highest-support matched entries (ties by pattern order)."""
        ranked = sorted(
            (e for e in self._entries if e.support > 0),
            key=lambda e: (-e.support, e.pattern),
        )
        return ranked[:k]

    def __repr__(self) -> str:
        return (
            f"<MatchResult: {len(self.matched())}/{len(self._entries)} patterns "
            f"over {self.num_sequences} sequences>"
        )


class PatternAutomaton:
    """A pattern set compiled into one shared prefix-trie automaton.

    Parameters
    ----------
    patterns:
        The patterns to compile — any iterable of things
        :func:`repro.core.pattern.as_pattern` accepts, or a
        :class:`~repro.core.results.MiningResult`.  Order is preserved in
        every report; duplicates are rejected (each pattern must have one
        well-defined slot).

    The compiled form is shared by every subsequent :meth:`match` call and is
    read-only, so one automaton can be built once per process and queried
    from many places.
    """

    def __init__(self, patterns: MiningResult | Iterable[PatternLike]) -> None:
        if isinstance(patterns, MiningResult):
            patterns = patterns.patterns()
        self._patterns: list[Pattern] = [as_pattern(p) for p in patterns]
        seen = set()
        for pattern in self._patterns:
            if pattern.is_empty():
                raise ValueError("cannot compile the empty pattern")
            if pattern in seen:
                raise ValueError(f"duplicate pattern {pattern!s}")
            seen.add(pattern)
        # Automaton-local event interning: every pattern event gets a dense
        # id; query events are resolved through this dict once per position.
        self._aid_of: dict[object, int] = {}
        self._build_trie()
        self._build_sweep_tables()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def patterns(self) -> list[Pattern]:
        """The compiled patterns in compilation order."""
        return list(self._patterns)

    @property
    def state_count(self) -> int:
        """Number of trie states (distinct non-empty pattern prefixes + root)."""
        return len(self._children)

    @property
    def alphabet_size(self) -> int:
        """Number of distinct events across the compiled patterns."""
        return len(self._aid_of)

    def __repr__(self) -> str:
        return (
            f"<PatternAutomaton: {len(self._patterns)} patterns, "
            f"{self.state_count - 1} prefix states, alphabet {self.alphabet_size}>"
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _build_trie(self) -> None:
        """Insert every pattern into the prefix trie (state 0 is the root)."""
        aid_of = self._aid_of
        children: list[dict[int, int]] = [{}]
        terminal: list[int] = [-1]  # state -> pattern index (or -1)
        for pid, pattern in enumerate(self._patterns):
            state = 0
            for event in pattern:
                aid = aid_of.setdefault(event, len(aid_of))
                nxt = children[state].get(aid)
                if nxt is None:
                    nxt = len(children)
                    children[state][aid] = nxt
                    children.append({})
                    terminal.append(-1)
                state = nxt
            terminal[state] = pid
        self._children = children
        self._terminal = terminal

    def _build_sweep_tables(self) -> None:
        """Precompute the token-sweep dispatch table and counter layout.

        Pattern ``p`` of length ``m`` owns the contiguous counter slots
        ``base_p .. base_p + m - 1`` (slot ``base_p + j - 1`` counts tokens
        whose landmark matches the length-``j`` prefix).  The dispatch table
        maps each event (keyed on the user object itself, so the sweep pays
        exactly one dict probe per query position) to the
        ``(from_slot, to_slot)`` promotions it can perform, with each
        pattern's deeper levels first — the order that prevents one token
        from advancing twice at one position.
        """
        dispatch: dict[object, list[tuple[int, int]]] = {}
        bases: list[int] = []
        finals: list[int] = []
        total = 0
        for pattern in self._patterns:
            base = total
            bases.append(base)
            m = len(pattern)
            total += m
            finals.append(base + m - 1)
            for j in range(m, 0, -1):
                frm = _SOURCE if j == 1 else base + j - 2
                dispatch.setdefault(pattern.at(j), []).append((frm, base + j - 1))
        self._dispatch = dispatch
        self._slot_count = total
        self._final_slots = finals

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(
        self,
        query: MatchQuery,
        *,
        constraint: GapConstraint | None = None,
        with_instances: bool = False,
        engine: str = "auto",
    ) -> MatchResult:
        """Match every compiled pattern against ``query`` in one shared pass.

        Parameters
        ----------
        query:
            A :class:`SequenceDatabase`, a pre-built
            :class:`InvertedEventIndex`, a single :class:`Sequence` (or
            anything :func:`~repro.db.sequence.as_sequence` accepts), or a
            list of sequences.
        constraint:
            Optional gap constraint, with the same semantics (and the same
            ``max_gap`` greedy-lower-bound caveat) as ``repetitive_support``.
        with_instances:
            ``True`` additionally reports each pattern's leftmost support set
            in the query (identical to ``sup_comp``); forces the trie-DFS
            engine on full landmark rows.
        engine:
            ``"auto"`` (default), ``"sweep"`` or ``"dfs"``.  ``"sweep"`` is
            rejected for gap-constrained or instance-reporting matches, where
            only the DFS reproduces the miners' semantics.

        Returns
        -------
        MatchResult
            Per-pattern supports (total and per sequence), byte-identical to
            looping ``repetitive_support`` over the pattern set.
        """
        if engine not in ("auto", "sweep", "dfs"):
            raise ValueError(f"unknown engine {engine!r}")
        needs_dfs = constraint is not None or with_instances
        if engine == "sweep" and needs_dfs:
            raise ValueError(
                "the token sweep matches unconstrained patterns without "
                "instances; use engine='dfs' (or 'auto') for gap constraints "
                "or with_instances=True"
            )
        if engine == "auto":
            engine = "dfs" if needs_dfs else "sweep"
        if engine == "sweep":
            database = _as_database(query)
            supports, per_sequence = self._sweep_database(database)
            instance_sets: list[SupportSet | None] = [None] * len(self._patterns)
            num_sequences = len(database)
        else:
            index = _as_index(query)
            supports, per_sequence, instance_sets = self._dfs_database(
                index, constraint, with_instances
            )
            num_sequences = len(index.database)
        entries = [
            MatchedPattern(pattern, supports[pid], per_sequence[pid], instance_sets[pid])
            for pid, pattern in enumerate(self._patterns)
        ]
        return MatchResult(entries, num_sequences)

    # ------------------------------------------------------------------
    # Engine: token sweep
    # ------------------------------------------------------------------
    def _sweep_database(
        self, database: SequenceDatabase
    ) -> tuple[list[int], list[dict[int, int]]]:
        """One left-to-right counting pass per sequence, all patterns at once.

        Correctness (unconstrained case): a non-redundant instance set never
        reuses one position at one landmark index, but tokens that have
        matched the same prefix length are *interchangeable* — any later
        position extends any of them — so only their count matters.
        Promoting deepest-first at every position dominates every feasible
        promotion schedule: if the greedy cannot promote into level ``j``
        then its levels ``>= j`` already hold at least as many tokens as any
        rival's (induction over positions on the suffix sums
        ``S_j = c_j + c_{j+1} + ...``), hence its completed count ``c_m`` is
        the maximum — which is what the greedy instance growth of Lemma 4
        computes per sequence.  Supports are additive across sequences
        (Definition 2.5), so summing per-sequence counts reproduces
        ``repetitive_support`` exactly.
        """
        npat = len(self._patterns)
        totals = [0] * npat
        per_sequence: list[dict[int, int]] = [{} for _ in range(npat)]
        dispatch_get = self._dispatch.get
        finals = self._final_slots
        slot_count = self._slot_count
        for i, sequence in enumerate(database, start=1):
            counts = [0] * slot_count
            # reprolint: hot-loop
            for pairs in map(dispatch_get, sequence.events):
                if pairs is None:
                    continue
                for frm, to in pairs:
                    if frm < 0:
                        counts[to] += 1
                    elif counts[frm]:
                        counts[frm] -= 1
                        counts[to] += 1
            for pid in range(npat):
                won = counts[finals[pid]]
                if won:
                    totals[pid] += won
                    per_sequence[pid][i] = won
        return totals, per_sequence

    # ------------------------------------------------------------------
    # Engine: trie DFS over shared prefix support sets
    # ------------------------------------------------------------------
    def _dfs_database(
        self,
        index: InvertedEventIndex,
        constraint: GapConstraint | None,
        with_instances: bool,
    ) -> tuple[list[int], list[dict[int, int]], list[SupportSet | None]]:
        """Depth-first trie walk growing one support set per shared prefix.

        Each trie edge is one :func:`ins_grow` call serving every pattern
        below it, so the per-prefix work of the naive per-pattern loop is
        paid once; a prefix with an empty support set prunes its subtree
        (every extension of an instance-free pattern is instance-free).
        """
        npat = len(self._patterns)
        totals = [0] * npat
        per_sequence: list[dict[int, int]] = [{} for _ in range(npat)]
        instance_sets: list[SupportSet | None] = [None] * npat
        support_engine: SupportEngine = (
            FULL_LANDMARK_ENGINE if with_instances else engine_for(False)
        )
        children = self._children
        terminal = self._terminal
        event_of = {aid: event for event, aid in self._aid_of.items()}

        def record(state: int, support_set: SupportSetLike) -> None:
            """Report a grown prefix's support set if a pattern ends at ``state``."""
            pid = terminal[state]
            if pid < 0:
                return
            totals[pid] = support_set.support
            per_sequence[pid] = support_set.per_sequence_counts()
            if with_instances:
                instance_sets[pid] = support_set

        # Explicit stack: mined pattern sets can be deep (the JBoss lifecycle
        # patterns span dozens of events) and recursion depth would track the
        # longest pattern.
        stack: list[tuple[int, SupportSetLike]] = []
        for aid, child in children[0].items():
            initial = support_engine.initial(index, event_of[aid])
            record(child, initial)
            if initial.support:
                stack.append((child, initial))
        while stack:
            state, support_set = stack.pop()
            for aid, child in children[state].items():
                grown = support_engine.grow(
                    index, support_set, event_of[aid], constraint=constraint
                )
                record(child, grown)
                if grown.support:
                    stack.append((child, grown))
        if with_instances:
            # Patterns below a pruned (instance-free) prefix report the empty
            # support set, exactly as ``sup_comp`` would.
            for pid, support_set in enumerate(instance_sets):
                if support_set is None:
                    instance_sets[pid] = SupportSet(self._patterns[pid])
        return totals, per_sequence, instance_sets


# ----------------------------------------------------------------------
# Query coercion
# ----------------------------------------------------------------------
def _as_database(query: MatchQuery) -> SequenceDatabase:
    """Coerce a match query into a :class:`SequenceDatabase`."""
    if isinstance(query, InvertedEventIndex):
        return query.database
    if isinstance(query, SequenceDatabase):
        return query
    if isinstance(query, (Sequence, str)):
        return SequenceDatabase([as_sequence(query)])
    if isinstance(query, (list, tuple)):
        # A list of sequences (each itself a str/list/Sequence); a flat list
        # of events is treated as one sequence.
        if query and all(not isinstance(item, (Sequence, str, list, tuple)) for item in query):
            return SequenceDatabase([as_sequence(query)])
        return SequenceDatabase([as_sequence(item) for item in query])
    raise TypeError(f"cannot interpret {type(query).__name__} as a match query")


def _as_index(query: MatchQuery) -> InvertedEventIndex:
    """Coerce a match query into an :class:`InvertedEventIndex`."""
    if isinstance(query, InvertedEventIndex):
        return query
    return InvertedEventIndex(_as_database(query))


def compile_patterns(
    patterns: MiningResult | Iterable[PatternLike],
) -> PatternAutomaton:
    """Compile a pattern set (or a whole mining result) into an automaton."""
    return PatternAutomaton(patterns)
