"""Repetitive support and (leftmost) support sets.

Definition 2.5 defines the repetitive support ``sup(P)`` as the maximum size
of a non-redundant instance set of ``P`` and calls any witness of that
maximum a *support set*.  Definition 3.2 singles out the *leftmost* support
set — the one whose landmarks are position-wise smallest when instances are
compared in the right-shift order; the instance-growth machinery always
produces (and consumes) leftmost support sets.

:class:`SupportSet` is the container used throughout the miners.  On the DFS
hot path it is backed by two flat integer arrays — the sequence indices and
the row-major landmark matrix — so instance growth is a pointer sweep rather
than a walk over per-instance objects; :class:`~repro.core.instance.Instance`
objects are materialised lazily (and cached) only when a caller asks for
them.  The functions :func:`sup_comp` (Algorithm 1) and
:func:`repetitive_support` are the public entry points for computing the
support of a single pattern.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence as PySequence

from repro.core.instance import Instance, is_non_redundant, sort_right_shift
from repro.core.pattern import Pattern, as_pattern
from repro.db.database import SequenceDatabase
from repro.db.index import POSITION_TYPECODE, InvertedEventIndex
from repro.db.sequence import Event

_EMPTY_ARRAY = array(POSITION_TYPECODE)


class SupportSet:
    """A set of instances of one pattern, kept in right-shift order.

    The miners maintain the invariant that a :class:`SupportSet` produced by
    :func:`repro.core.instance_growth.ins_grow` is the *leftmost* support set
    of its pattern; user-constructed instances are merely sorted.

    Storage is columnar: ``seq_indices_array`` holds the sequence index of
    each instance and ``landmarks_array`` the landmarks, row-major with
    ``row_width`` positions per instance.  Both arrays are in right-shift
    order and must not be mutated by callers.
    """

    __slots__ = ("pattern", "_seqs", "_landmarks", "_m", "_materialized")

    def __init__(self, pattern: Pattern | str | PySequence, instances: Iterable[Instance] = ()):
        self.pattern = as_pattern(pattern)
        ordered = sort_right_shift(instances)
        widths = {len(ins.landmark) for ins in ordered}
        if len(widths) > 1:
            raise ValueError(
                f"instances of one pattern must have equal landmark lengths, got {sorted(widths)}"
            )
        self._m = widths.pop() if widths else len(self.pattern)
        seqs = array(POSITION_TYPECODE)
        landmarks = array(POSITION_TYPECODE)
        for ins in ordered:
            seqs.append(ins.seq_index)
            landmarks.extend(ins.landmark)
        self._seqs = seqs
        self._landmarks = landmarks
        self._materialized: list[Instance] | None = ordered

    @classmethod
    def from_arrays(
        cls,
        pattern: Pattern | str | PySequence,
        seqs: array,
        landmarks: array,
        row_width: int,
    ) -> SupportSet:
        """Trusted constructor used by the engine.

        ``seqs``/``landmarks`` must already be in right-shift order with
        ``row_width`` positions per instance; no sorting or validation is
        performed.
        """
        self = cls.__new__(cls)
        self.pattern = as_pattern(pattern)
        self._seqs = seqs
        self._landmarks = landmarks
        self._m = row_width
        self._materialized = None
        return self

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, SupportSet):
            return (
                self.pattern == other.pattern
                and self._seqs == other._seqs
                and self._landmarks == other._landmarks
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SupportSet({self.pattern!s}, {self._materialize()!r})"

    # ------------------------------------------------------------------
    # Array accessors used by the engine (read-only!)
    # ------------------------------------------------------------------
    @property
    def seq_indices_array(self) -> array:
        """Flat array of sequence indices, one per instance."""
        return self._seqs

    @property
    def landmarks_array(self) -> array:
        """Row-major landmark matrix (``row_width`` positions per instance)."""
        return self._landmarks

    @property
    def row_width(self) -> int:
        """Number of landmark positions per instance."""
        return self._m

    def border_arrays(self) -> tuple[array, array]:
        """The landmark border as ``(sequence indices, last positions)`` arrays."""
        m = self._m
        if m == 1:
            return self._seqs, self._landmarks
        lasts = self._landmarks[m - 1 :: m] if self._seqs else _EMPTY_ARRAY
        return self._seqs, lasts

    # ------------------------------------------------------------------
    # Accessors used by the miners
    # ------------------------------------------------------------------
    @property
    def instances(self) -> list[Instance]:
        """The instances in right-shift order."""
        return list(self._materialize())

    @property
    def support(self) -> int:
        """The size of the set — equal to ``sup(P)`` for genuine support sets."""
        return len(self._seqs)

    def instances_in_sequence(self, i: int) -> list[Instance]:
        """Instances living in sequence ``S_i`` (the paper's ``I_i``)."""
        return [ins for ins in self._materialize() if ins.seq_index == i]

    def sequence_indices(self) -> list[int]:
        """Sorted distinct sequence indices containing at least one instance."""
        return sorted(set(self._seqs))

    def last_positions(self) -> list[tuple]:
        """``(i, last)`` pairs in right-shift order (the landmark border)."""
        seqs, lasts = self.border_arrays()
        return list(zip(seqs, lasts, strict=False))

    def first_positions(self) -> list[tuple]:
        """``(i, first)`` pairs in right-shift order."""
        m = self._m
        return list(zip(self._seqs, self._landmarks[::m] if m > 1 else self._landmarks, strict=False))

    def compressed(self) -> list[tuple]:
        """The ``(i, l1, lm)`` triples of Section III-D, in right-shift order."""
        m = self._m
        lands = self._landmarks
        return [
            (seq, lands[k * m], lands[k * m + m - 1]) for k, seq in enumerate(self._seqs)
        ]

    def per_sequence_counts(self) -> dict:
        """Number of instances per sequence index (used as feature values)."""
        counts: dict = {}
        for seq in self._seqs:
            counts[seq] = counts.get(seq, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Validation helpers (used heavily by tests)
    # ------------------------------------------------------------------
    def is_non_redundant(self) -> bool:
        """True if no two instances overlap (Definition 2.4)."""
        return is_non_redundant(self._materialize())

    def is_valid_for(self, database: SequenceDatabase) -> bool:
        """True if every instance really matches the pattern in ``database``."""
        return all(ins.matches(self.pattern, database) for ins in self._materialize())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _materialize(self) -> list[Instance]:
        cached = self._materialized
        if cached is None:
            m = self._m
            lands = self._landmarks
            cached = [
                Instance(seq, tuple(lands[k * m : (k + 1) * m]))
                for k, seq in enumerate(self._seqs)
            ]
            self._materialized = cached
        return cached


def initial_support_set(index: InvertedEventIndex, event) -> SupportSet:
    """Leftmost support set of the size-1 pattern ``event``.

    For a single event every occurrence is an instance and no two instances
    overlap, so the support set is simply the list of all positions
    (line 1 of Algorithm 1 / line 3 of Algorithm 3).
    """
    seqs, positions = index.size_one_arrays(event)
    return SupportSet.from_arrays(Pattern((event,)), seqs, positions, 1)


def sup_comp(
    database_or_index: SequenceDatabase | InvertedEventIndex,
    pattern: Pattern | str | PySequence,
    constraint: GapConstraint | None = None,
) -> SupportSet:
    """Algorithm 1 (``supComp``): compute the leftmost support set of ``pattern``.

    Parameters
    ----------
    database_or_index:
        Either a :class:`SequenceDatabase` (an index is built on the fly) or
        a pre-built :class:`InvertedEventIndex`.
    pattern:
        The pattern whose support set is wanted; must be non-empty.
    constraint:
        Optional :class:`~repro.core.constraints.GapConstraint` restricting
        the gaps between consecutive landmark positions (Section V future
        work; see the caveat in :mod:`repro.core.constraints`).

    Returns
    -------
    SupportSet
        The leftmost support set; its :attr:`~SupportSet.support` equals
        ``sup(P)``.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> sup_comp(db, "AB")
    SupportSet(AB, [(1, <1, 3>), (1, <2, 7>), (1, <6, 8>), (2, <1, 2>)])
    """
    from repro.core.instance_growth import ins_grow  # local import to avoid a cycle

    pattern = as_pattern(pattern)
    if pattern.is_empty():
        raise ValueError("the empty pattern has no well-defined support set")
    index = _as_index(database_or_index)
    support_set = initial_support_set(index, pattern.at(1))
    for j in range(2, len(pattern) + 1):
        support_set = ins_grow(index, support_set, pattern.at(j), constraint=constraint)
    return support_set


def repetitive_support(
    database_or_index: SequenceDatabase | InvertedEventIndex,
    pattern: Pattern | str | PySequence,
    constraint: GapConstraint | None = None,
) -> int:
    """Repetitive support ``sup(P)`` (Definition 2.5) of ``pattern``.

    Only the support is wanted, so this runs on the compressed ``(i, l1, lm)``
    engine of Section III-D (:mod:`repro.core.compressed`) — constant space
    per instance instead of full landmark rows; use :func:`sup_comp` when the
    instances themselves are needed.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> repetitive_support(db, "AB")
    4
    """
    from repro.core.compressed import sup_comp_compressed  # local import to avoid a cycle

    return sup_comp_compressed(
        _as_index(database_or_index), pattern, constraint=constraint
    ).support


class PairCounts(dict[int, int]):
    """``sup_s(a b)`` of one ordered pair, keyed by sequence index ``s``.

    Only the sequences where ``a b`` occurs are keys.  :attr:`support` is
    the pair's repetitive support ``sup(a b)``, the sum of the values
    (Definition 2.5).
    """

    __slots__ = ("support",)

    support: int


def pair_supports(
    index: InvertedEventIndex, events: Iterable[Event]
) -> dict[Event, dict[Event, PairCounts]]:
    """``sup(a b)`` and ``sup_s(a b)`` for every ordered pair of ``events``, from one scan.

    ``table[a][b].support`` equals ``repetitive_support(index, (a, b))``
    and ``table[a][b][s]`` its support in the one sequence ``S_s``, for all
    ``a`` and ``b`` of ``events``, ``a == b`` included; a pair that never
    occurs in that order is absent from ``a``'s row (support 0), and a
    sequence where it never occurs from the pair's :class:`PairCounts`.

    Each sequence's occurrences of ``events`` are read through the
    :class:`~repro.db.backend.ColumnStore` seam and walked in position
    order.  Every occurrence of ``b`` is matched to one earlier occurrence
    of ``a`` that no ``b`` has taken yet.  Like INSgrow's greedy (Lemma 4),
    this finds a largest set of non-overlapping instances of ``a b`` in the
    sequence, and supports add up across sequences (Definition 2.5).  Per
    occurrence the walk visits the distinct events seen before it in its
    sequence, so it sweeps no more rows than growing every size-1 set by
    every event would.
    """
    events = list(dict.fromkeys(events))
    width = len(events)
    # Each occurrence as one int, position * width + event number, grouped
    # by sequence: sorting a sequence's ints puts its occurrences in order.
    by_sequence: dict[int, list[int]] = {}
    for k, event in enumerate(events):
        eid = index.event_id(event)
        if eid < 0:
            continue
        for i, column in index.backend.occurrences(eid):
            codes = by_sequence.get(i)
            if codes is None:
                codes = by_sequence[i] = []
            codes.extend([position * width + k for position in column])
    counted: defaultdict[int, PairCounts] = defaultdict(PairCounts)  # a * width + b
    for i, codes in by_sequence.items():
        codes.sort()
        seen: dict[int, int] = {}  # a * width -> occurrences of a so far
        matched: dict[int, int] = {}  # a * width + b -> instances in this sequence
        # Bound methods hoisted out of the per-occurrence loop.
        seen_rows, seen_count, matched_count = seen.items, seen.get, matched.get
        # reprolint: hot-loop
        for code in codes:
            b = code % width
            for row, count in seen_rows():
                pair = row + b
                made = matched_count(pair, 0)
                if made < count:
                    matched[pair] = made + 1
            row = b * width
            seen[row] = seen_count(row, 0) + 1
        for pair, made in matched.items():
            counted[pair][i] = made
    table: dict[Event, dict[Event, PairCounts]] = {event: {} for event in events}
    for pair, counts in counted.items():
        counts.support = sum(counts.values())
        a, b = divmod(pair, width)
        table[events[a]][events[b]] = counts
    return table


def _as_index(database_or_index) -> InvertedEventIndex:
    if isinstance(database_or_index, InvertedEventIndex):
        return database_or_index
    if isinstance(database_or_index, SequenceDatabase):
        return InvertedEventIndex(database_or_index)
    raise TypeError(
        "expected a SequenceDatabase or InvertedEventIndex, got "
        f"{type(database_or_index).__name__}"
    )
