"""Compressed instance storage (Section III-D) — the default mining engine.

For mining purposes an instance ``(i, <l1, ..., ln>)`` never needs its full
landmark: instance growth only looks at the *last* position, landmark border
checking (Theorem 5) only compares last positions, and reporting only needs
the span of the instance.  The paper therefore stores each instance as the
triple ``(i, l1, ln)`` — constant space per instance, independent of the
pattern length.

This module implements that representation with the same array-backed design
as the full-landmark engine (:mod:`repro.core.support` /
:mod:`repro.core.instance_growth`):

* :class:`CompressedSupportSet` — three parallel ``array('q')`` columns
  (sequence index, first position, last position) in right-shift order, with
  a trusted :meth:`~CompressedSupportSet.from_arrays` constructor on the
  growth path;
* :func:`ins_grow_compressed` — Algorithm 2 as a single flat sweep over the
  columns: the event is resolved to its column getter once per call and
  position lists are fetched once per sequence run (:mod:`repro.core.sweep`);
* :func:`sup_comp_compressed` — Algorithm 1 over triples;
* :func:`compress` / :func:`equivalent` — conversion and equality helpers
  used by the engine-equivalence tests.

Whenever ``MinerConfig.store_instances`` is ``False`` (the default), the
miners, the closure checker and the streaming support queries all run on
this representation (see :mod:`repro.core.engine`); the full-landmark engine
is selected only when callers ask to keep instances.  Both engines produce
identical patterns and supports — growth reads exactly the same state from
either representation.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence as PySequence

from repro.core import sweep
from repro.core.constraints import GapConstraint
from repro.core.pattern import Pattern, as_pattern
from repro.core.support import SupportSet
from repro.db.database import SequenceDatabase
from repro.db.index import POSITION_TYPECODE, InvertedEventIndex
from repro.db.sequence import Event

#: A compressed instance: (sequence index, first landmark position, last landmark position).
CompressedInstance = tuple[int, int, int]

#: When true, :meth:`CompressedSupportSet.from_arrays` additionally verifies
#: right-shift order — an O(n)-per-growth-step check that instance growth
#: makes redundant by construction (Lemma 4), so it stays off on production
#: paths (mirroring :meth:`SupportSet.from_arrays`, which never validates).
#: The engine-equivalence test suites flip it on, so any sweep change that
#: emits out-of-order triples fails loudly there.
VALIDATE_ORDER = False


def _is_right_shift_ordered(seqs: array[int], lasts: array[int]) -> bool:
    """True if ``(seq, last)`` pairs are strictly increasing (right-shift order)."""
    return all(
        (seqs[k], lasts[k]) < (seqs[k + 1], lasts[k + 1]) for k in range(len(seqs) - 1)
    )


class CompressedSupportSet:
    """A support set stored as ``(i, first, last)`` triples.

    Storage is columnar: three parallel ``array('q')`` columns hold the
    sequence indices, first positions and last positions, kept in right-shift
    order (ascending sequence index, then ascending last position) —
    mirroring :class:`~repro.core.support.SupportSet`.  The arrays must not
    be mutated by callers.

    The triple-accepting constructor sorts its input (user convenience);
    the engine builds sets through :meth:`from_arrays`, which trusts the
    order instead of paying an O(n log n) sort per growth step.
    """

    __slots__ = ("pattern", "_seqs", "_firsts", "_lasts")

    def __init__(
        self,
        pattern: Pattern | str | PySequence[Event],
        triples: PySequence[CompressedInstance] = (),
    ) -> None:
        self.pattern = as_pattern(pattern)
        ordered = sorted(triples, key=lambda t: (t[0], t[2]))
        seqs = array(POSITION_TYPECODE)
        firsts = array(POSITION_TYPECODE)
        lasts = array(POSITION_TYPECODE)
        for i, first, last in ordered:
            seqs.append(i)
            firsts.append(first)
            lasts.append(last)
        self._seqs = seqs
        self._firsts = firsts
        self._lasts = lasts

    @classmethod
    def from_arrays(
        cls,
        pattern: Pattern | str | PySequence[Event],
        seqs: array[int],
        firsts: array[int],
        lasts: array[int],
    ) -> CompressedSupportSet:
        """Trusted constructor used by the engine.

        The columns must already be in right-shift order; no sorting is
        performed (instance growth emits right-shift order by construction —
        Lemma 4).  The order is re-checked only when the module's
        :data:`VALIDATE_ORDER` debug flag is on, as in the equivalence test
        suites.
        """
        assert len(seqs) == len(firsts) == len(lasts), "column arrays must align"
        assert not VALIDATE_ORDER or _is_right_shift_ordered(
            seqs, lasts
        ), "columns must be in right-shift order"
        self = cls.__new__(cls)
        self.pattern = as_pattern(pattern)
        self._seqs = seqs
        self._firsts = firsts
        self._lasts = lasts
        return self

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[CompressedInstance]:
        return iter(zip(self._seqs, self._firsts, self._lasts, strict=False))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompressedSupportSet):
            return (
                self.pattern == other.pattern
                and self._seqs == other._seqs
                and self._firsts == other._firsts
                and self._lasts == other._lasts
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"CompressedSupportSet({self.pattern!s}, {self.triples!r})"

    # ------------------------------------------------------------------
    # Array accessors used by the engine (read-only!)
    # ------------------------------------------------------------------
    @property
    def seq_indices_array(self) -> array[int]:
        """Flat array of sequence indices, one per instance."""
        return self._seqs

    @property
    def firsts_array(self) -> array[int]:
        """Flat array of first landmark positions, one per instance."""
        return self._firsts

    @property
    def lasts_array(self) -> array[int]:
        """Flat array of last landmark positions, one per instance."""
        return self._lasts

    def border_arrays(self) -> tuple[array[int], array[int]]:
        """The landmark border as ``(sequence indices, last positions)`` arrays."""
        return self._seqs, self._lasts

    # ------------------------------------------------------------------
    # Accessors used by the miners and tests
    # ------------------------------------------------------------------
    @property
    def support(self) -> int:
        """The number of instances (= ``sup(P)`` for genuine support sets)."""
        return len(self._seqs)

    @property
    def triples(self) -> list[CompressedInstance]:
        """The ``(i, first, last)`` triples in right-shift order."""
        return list(zip(self._seqs, self._firsts, self._lasts, strict=False))

    def last_positions(self) -> list[tuple[int, int]]:
        """``(i, last)`` pairs — the landmark border of Theorem 5."""
        return list(zip(self._seqs, self._lasts, strict=False))

    def per_sequence_counts(self) -> dict[int, int]:
        """Number of instances per sequence index."""
        counts: dict[int, int] = {}
        get = counts.get  # hoisted: one bound-method lookup for the sweep
        # reprolint: hot-loop
        for seq in self._seqs:
            counts[seq] = get(seq, 0) + 1
        return counts


def initial_compressed_support_set(index: InvertedEventIndex, event: Event) -> CompressedSupportSet:
    """Compressed leftmost support set of the size-1 pattern ``event``.

    For a single event first and last position coincide, so the columns are
    the index's occurrence arrays (already in right-shift order).
    """
    seqs, positions = index.size_one_arrays(event)
    return CompressedSupportSet.from_arrays(Pattern((event,)), seqs, positions[:], positions)


def ins_grow_compressed(
    index: InvertedEventIndex,
    support_set: CompressedSupportSet,
    event: Event,
    constraint: GapConstraint | None = None,
) -> CompressedSupportSet:
    """Algorithm 2 (``INSgrow``) over compressed instances.

    Identical greedy control flow to
    :func:`repro.core.instance_growth.ins_grow`; only the per-instance state
    differs — the last position is all that is needed to extend, the first
    position is carried along unchanged, and no landmark rows are copied.
    The event is resolved to its interned id exactly once per call (one hash
    of the user object); the sweep itself is
    :func:`repro.core.sweep.grow_triples`.
    """
    grown_pattern = support_set.pattern.grow(event)
    seqs = support_set._seqs
    eid = index.event_id(event)
    if eid < 0 or not seqs:
        empty = array(POSITION_TYPECODE)
        return CompressedSupportSet.from_arrays(grown_pattern, empty, empty[:], empty[:])
    columns = sweep.grow_triples(
        seqs, support_set._firsts, support_set._lasts, index.backend.column_getter(eid), constraint
    )
    return CompressedSupportSet.from_arrays(grown_pattern, *columns)


def sup_comp_compressed(
    database_or_index: SequenceDatabase | InvertedEventIndex,
    pattern: Pattern | str | PySequence[Event],
    constraint: GapConstraint | None = None,
) -> CompressedSupportSet:
    """Algorithm 1 over compressed instances (returns triples, not landmarks).

    This is the support query behind :func:`repro.core.support.repetitive_support`
    and the streaming gap-filling calls — callers that only need ``sup(P)``
    never pay for full landmarks.

    Example
    -------
    >>> from repro.db import SequenceDatabase
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> compressed = sup_comp_compressed(db, "AB")
    >>> compressed.support, compressed.triples
    (4, [(1, 1, 3), (1, 2, 7), (1, 6, 8), (2, 1, 2)])
    """
    pattern = as_pattern(pattern)
    if pattern.is_empty():
        raise ValueError("the empty pattern has no well-defined support set")
    index = (
        database_or_index
        if isinstance(database_or_index, InvertedEventIndex)
        else InvertedEventIndex(database_or_index)
    )
    current = initial_compressed_support_set(index, pattern.at(1))
    for j in range(2, len(pattern) + 1):
        current = ins_grow_compressed(index, current, pattern.at(j), constraint=constraint)
    return current


def compress(support_set: SupportSet) -> CompressedSupportSet:
    """Convert a full-landmark support set into its compressed form."""
    return CompressedSupportSet(support_set.pattern, support_set.compressed())


def equivalent(full: SupportSet, compressed: CompressedSupportSet) -> bool:
    """True if a full support set and a compressed one describe the same instances."""
    return (
        full.pattern == compressed.pattern
        and full.compressed() == compressed.triples
    )
