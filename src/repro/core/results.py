"""Result containers shared by the miners.

A mining run produces a :class:`MiningResult`, an ordered collection of
:class:`MinedPattern` entries (pattern, support, optional support set and
per-sequence instance counts).  The container offers the filtering and
look-up operations the experiments, the post-processing steps of the case
study and the analysis helpers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator

from repro.core.pattern import Pattern, as_pattern
from repro.core.support import SupportSet


class _NoCounts(dict[int, int]):
    """An empty, read-only ``per_sequence`` mapping, one for the whole process.

    A ``dict`` so it equals ``{}`` and reads like one; pickling names the
    module-level instance, so a result shipped between processes keeps
    sharing it.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("per_sequence of a result mined without instances is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return "NO_COUNTS"


#: The ``per_sequence`` of every :class:`MinedPattern` mined without
#: instances (``store_instances=False``).
NO_COUNTS: dict[int, int] = _NoCounts()


@dataclass(frozen=True, slots=True)
class MinedPattern:
    """One mined pattern together with its repetitive support.

    Attributes
    ----------
    pattern:
        The mined pattern.
    support:
        Its repetitive support ``sup(P)``.
    support_set:
        The leftmost support set, if the miner was asked to keep instances
        (``store_instances=True``); ``None`` under the default configuration,
        where the DFS runs on the compressed ``(i, l1, lm)`` engine and
        never materialises landmark rows.  To recover the instances of a
        specific pattern afterwards, run
        :func:`repro.core.support.sup_comp` on the database.
    per_sequence:
        Number of support-set instances per sequence index — the feature
        values suggested in the paper's future-work section.  Only populated
        when instances were kept; every other pattern shares the empty,
        read-only :data:`NO_COUNTS` (equal to ``{}``), so a large result
        holds no per-pattern dictionary.
    """

    pattern: Pattern
    support: int
    support_set: SupportSet | None = field(default=None, compare=False, repr=False)
    per_sequence: dict[int, int] = field(
        default_factory=lambda: NO_COUNTS, compare=False, repr=False
    )

    def __post_init__(self):
        if self.support < 0:
            raise ValueError("support must be non-negative")

    def __len__(self) -> int:
        return len(self.pattern)

    def density(self) -> float:
        """Fraction of distinct events in the pattern (case-study density filter)."""
        if len(self.pattern) == 0:
            return 0.0
        return len(self.pattern.distinct_events()) / len(self.pattern)

    def describe(self) -> str:
        """Compact single-line rendering, e.g. ``ACB (sup=3)``."""
        return f"{self.pattern!s} (sup={self.support})"


class MiningResult:
    """An ordered collection of :class:`MinedPattern` entries.

    Iteration order is the miners' discovery order (DFS order); use
    :meth:`sorted_by_support` or :meth:`sorted_by_length` for report-friendly
    orderings.
    """

    def __init__(self, patterns: Iterable[MinedPattern] = (), *, min_sup: int | None = None,
                 algorithm: str | None = None, stats: dict | None = None):
        self._patterns: list[MinedPattern] = list(patterns)
        self._by_pattern: dict[Pattern, MinedPattern] = {p.pattern: p for p in self._patterns}
        self.min_sup = min_sup
        self.algorithm = algorithm
        #: Run statistics (counters + per-phase durations) attached by the
        #: miner — ``MiningStats.as_dict()`` shape; ``None`` for results built
        #: by hand or filtered views.
        self.stats = stats

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def add(self, mined: MinedPattern) -> None:
        """Append an entry (replacing any previous entry for the same pattern)."""
        if mined.pattern in self._by_pattern:
            self._patterns = [p for p in self._patterns if p.pattern != mined.pattern]
        self._patterns.append(mined)
        self._by_pattern[mined.pattern] = mined

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[MinedPattern]:
        return iter(self._patterns)

    def __contains__(self, pattern) -> bool:
        return as_pattern(pattern) in self._by_pattern

    def __getitem__(self, pattern) -> MinedPattern:
        return self._by_pattern[as_pattern(pattern)]

    def __repr__(self) -> str:
        label = f" by {self.algorithm}" if self.algorithm else ""
        return f"<MiningResult{label}: {len(self)} patterns>"

    # ------------------------------------------------------------------
    # Look-ups
    # ------------------------------------------------------------------
    def support_of(self, pattern) -> int:
        """Support of ``pattern``; raises ``KeyError`` if it was not mined."""
        return self[pattern].support

    def get(self, pattern, default=None) -> MinedPattern | None:
        """Entry for ``pattern`` or ``default``."""
        return self._by_pattern.get(as_pattern(pattern), default)

    def patterns(self) -> list[Pattern]:
        """All mined patterns in discovery order."""
        return [p.pattern for p in self._patterns]

    def as_dict(self) -> dict[Pattern, int]:
        """Mapping pattern -> support."""
        return {p.pattern: p.support for p in self._patterns}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def sorted_by_support(self, descending: bool = True) -> list[MinedPattern]:
        """Entries sorted by support (ties broken by pattern order)."""
        return sorted(self._patterns, key=lambda p: (-p.support if descending else p.support, p.pattern))

    def sorted_by_length(self, descending: bool = True) -> list[MinedPattern]:
        """Entries sorted by pattern length (the case study's ranking step)."""
        return sorted(
            self._patterns,
            key=lambda p: (-len(p.pattern) if descending else len(p.pattern), -p.support, p.pattern),
        )

    def filter(self, predicate: Callable[[MinedPattern], bool]) -> MiningResult:
        """A new result containing only entries satisfying ``predicate``."""
        return MiningResult(
            [p for p in self._patterns if predicate(p)],
            min_sup=self.min_sup,
            algorithm=self.algorithm,
            stats=self.stats,
        )

    def with_min_length(self, length: int) -> MiningResult:
        """Entries whose pattern has at least ``length`` events."""
        return self.filter(lambda p: len(p.pattern) >= length)

    def with_support_at_least(self, support: int) -> MiningResult:
        """Entries with support at least ``support``."""
        return self.filter(lambda p: p.support >= support)

    def longest(self) -> MinedPattern | None:
        """The longest mined pattern (highest support among ties), or None."""
        ranked = self.sorted_by_length()
        return ranked[0] if ranked else None

    def most_frequent(self, min_length: int = 1) -> MinedPattern | None:
        """The highest-support pattern of at least ``min_length`` events, or None."""
        candidates = [p for p in self._patterns if len(p.pattern) >= min_length]
        if not candidates:
            return None
        return max(candidates, key=lambda p: (p.support, len(p.pattern)))

    # ------------------------------------------------------------------
    # Relations between result sets
    # ------------------------------------------------------------------
    def is_subset_of(self, other: MiningResult) -> bool:
        """True if every pattern here appears in ``other`` with the same support."""
        return all(
            other.get(p.pattern) is not None and other[p.pattern].support == p.support
            for p in self._patterns
        )

    def maximal_patterns(self) -> MiningResult:
        """Entries whose pattern is not a subpattern of any other mined pattern.

        This is the *maximality* post-processing step of the case study
        (Section IV-B), applied within this result set.
        """
        kept: list[MinedPattern] = []
        for p in self._patterns:
            if not any(
                p.pattern.is_proper_subpattern_of(q.pattern) for q in self._patterns if q is not p
            ):
                kept.append(p)
        return MiningResult(kept, min_sup=self.min_sup, algorithm=self.algorithm)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-serialisable dictionary of patterns, supports and metadata.

        The inverse of :meth:`from_json`.  Pattern events must be
        JSON-representable (strings / numbers); support sets and per-sequence
        counts are *not* serialised — they are recomputable from a database,
        while the pattern/support table is the part worth persisting (it is
        also what :class:`repro.match.store.PatternStore` wraps).  ``closed``
        records whether the producing algorithm mined closed patterns
        (``None`` when the result carries no algorithm name); ``stats`` is
        the miner's run statistics when present.
        """
        algorithm = self.algorithm
        payload = {
            "min_sup": self.min_sup,
            "algorithm": algorithm,
            "closed": None if algorithm is None else "clo" in algorithm.lower(),
            "patterns": [
                {"events": list(p.pattern.events), "support": p.support}
                for p in self._patterns
            ],
        }
        if self.stats is not None:
            payload["stats"] = self.stats
        return payload

    @classmethod
    def from_json(cls, data: dict) -> MiningResult:
        """Rebuild a result from :meth:`to_json` output (extra keys ignored)."""
        patterns = [
            MinedPattern(pattern=Pattern(entry["events"]), support=entry["support"])
            for entry in data.get("patterns", ())
        ]
        return cls(
            patterns,
            min_sup=data.get("min_sup"),
            algorithm=data.get("algorithm"),
            stats=data.get("stats"),
        )

    def summary(self) -> str:
        """Human-readable one-line summary used by the experiment reports."""
        if not self._patterns:
            return "0 patterns"
        longest = self.longest()
        return (
            f"{len(self._patterns)} patterns, longest length {len(longest.pattern)}, "
            f"max support {max(p.support for p in self._patterns)}"
        )
