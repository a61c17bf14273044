"""Inverted event index.

Section III-D of the paper describes the *inverted event index*: for every
event ``e`` and sequence ``S_i`` keep the ordered list ``L_{e,S_i}`` of
positions at which ``e`` occurs.  The instance-growth subroutine
``next(S, e, lowest)`` — "the smallest position greater than ``lowest`` at
which ``e`` occurs" — is then a binary search over that list, giving the
``O(log L)`` bound used in the complexity analysis.

:class:`InvertedEventIndex` implements exactly that structure with
:mod:`bisect` over flat integer arrays (:class:`array.array`), which keep the
position lists contiguous in memory.  ``next_position`` signals "no further
occurrence" with the integer sentinel :data:`NO_POSITION` so that callers on
the mining hot path compare plain ints.  A linear-scan fallback
(:func:`next_position_scan`) is kept for the index ablation benchmark and as
an oracle in tests.

Two properties matter beyond the paper:

* **Event interning** — events are arbitrary hashable objects, but the
  position lists are keyed on small interned integer ids
  (:class:`EventInterner`).  The instance-growth sweeps (full-landmark *and*
  compressed) resolve an event to its id once per call (one hash of the user
  object) and then perform all per-sequence lookups with plain small-int
  keys, so hot-path cost never depends on how expensive the event's
  ``__hash__``/``__eq__`` are.  A sweep fetches the event's
  ``backend.column_getter(eid)`` once per growth step and calls it once per
  sequence run.  The columns it (and :meth:`raw_positions_by_id`) returns
  are contiguous int64 buffers — ``array('q')`` for the RAM backend,
  ``memoryview`` columns over mmap'd segments for the disk backend
  (:mod:`repro.db.backend`) — and the sweep (:mod:`repro.core.sweep`)
  bisects either kind directly.
* **Incremental maintenance** — :meth:`append_sequence` and
  :meth:`extend_sequence` grow the index in place as new data streams in:
  appended events extend the flat ``array('q')`` position lists directly
  (positions only ever increase, so sortedness is preserved) instead of
  rebuilding the index from scratch.  The streaming subsystem
  (:mod:`repro.stream`) is built on these two calls; rebuilding
  ``InvertedEventIndex(database)`` from the same data is the equivalence
  oracle used by its tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from collections.abc import Iterable, Iterator

from repro.db.backend import (
    POSITION_TYPECODE,
    Column,
    ColumnStore,
    RamColumnStore,
    make_backend,
)
from repro.db.database import SequenceDatabase
from repro.db.sequence import Event, Sequence, as_sequence

__all__ = [
    "NO_POSITION",
    "POSITION_TYPECODE",
    "NO_EVENT",
    "EventInterner",
    "PositionsView",
    "InvertedEventIndex",
    "next_position_scan",
    "build_index",
]

#: Integer sentinel returned when no further occurrence exists (the paper's
#: ``∞``).  Valid positions are 1-based, so ``-1`` never collides and callers
#: can test either ``position == NO_POSITION`` or simply ``position < 0``.
NO_POSITION = -1

#: Integer sentinel returned by :meth:`InvertedEventIndex.event_id` for
#: events that never occur in the database.  Ids are non-negative, so ``-1``
#: never collides and hot-path callers compare plain ints.
NO_EVENT = -1

_EMPTY_POSITIONS = array(POSITION_TYPECODE)


class EventInterner:
    """Bidirectional mapping between events and dense small-int ids.

    Ids are assigned in first-seen order starting at 0 and are never
    reused; the mapping only ever grows, which is exactly what the
    streaming appends need.
    """

    __slots__ = ("_id_of", "_event_of")

    def __init__(self) -> None:
        self._id_of: dict[Event, int] = {}
        self._event_of: list[Event] = []

    def __len__(self) -> int:
        return len(self._event_of)

    def intern(self, event: Event) -> int:
        """Id of ``event``, assigning a fresh one on first sight."""
        eid = self._id_of.get(event)
        if eid is None:
            eid = len(self._event_of)
            self._id_of[event] = eid
            self._event_of.append(event)
        return eid

    def id_of(self, event: Event) -> int:
        """Id of ``event``, or :data:`NO_EVENT` if it was never interned."""
        return self._id_of.get(event, NO_EVENT)

    def event_of(self, eid: int) -> Event:
        """The event carrying id ``eid``."""
        return self._event_of[eid]

    def events(self) -> list[Event]:
        """All interned events in id order."""
        return list(self._event_of)


class PositionsView(SequenceABC):
    """A read-only, list-compatible view over a flat position array.

    Returned by :meth:`InvertedEventIndex.positions` instead of a fresh list
    so that hot-path callers never pay a per-call copy.  Compares equal to
    any sequence of the same integers (lists, tuples, arrays, other views).
    """

    __slots__ = ("_data",)

    def __init__(self, data: Column) -> None:
        self._data = data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index: int | slice) -> int | list[int]:
        if isinstance(index, slice):
            return list(self._data[index])
        return self._data[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PositionsView):
            other = other._data
        if isinstance(other, (list, tuple, array)):
            return len(self._data) == len(other) and all(
                a == b for a, b in zip(self._data, other, strict=False)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._data))

    def __repr__(self) -> str:
        return f"PositionsView({list(self._data)!r})"


class InvertedEventIndex:
    """Per-sequence, per-event sorted position arrays with ``next()`` queries.

    Parameters
    ----------
    database:
        The :class:`~repro.db.database.SequenceDatabase` to index.  The index
        holds 1-based positions, matching landmarks and instances.
    backend:
        Where the position columns live: ``"ram"``/``None`` (the default
        in-process ``array('q')`` store), ``"disk"`` (mmap'd segments, see
        :mod:`repro.db.backend`), or an already-built
        :class:`~repro.db.backend.ColumnStore`.
    backend_dir:
        Directory for a ``"disk"`` backend (temp dir when ``None``).
    segment_bytes:
        Seal threshold for a ``"disk"`` backend's in-RAM tail.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        *,
        backend: str | ColumnStore | None = None,
        backend_dir: "str | None" = None,
        segment_bytes: int | None = None,
    ) -> None:
        self._database = database
        self._interner = EventInterner()
        # The column store holding the sorted per-(sequence, event id)
        # position lists; `self._get` is the hoisted point-lookup accessor.
        self._backend = make_backend(
            backend, directory=backend_dir, segment_bytes=segment_bytes
        )
        self._get = self._backend.get
        # _totals[eid] -> total occurrence count across the database (= sup
        # of the size-1 pattern), maintained incrementally.  The alphabet is
        # small, so this stays in RAM for every backend.
        self._totals: list[int] = []
        # Memoised PositionsView wrappers, filled on first `positions()` call
        # — the mining hot path reads the backend's column getters and never
        # pays for a wrapper.  Only the RAM backend's arrays grow in place (the
        # disk backend swaps storage on overlay/seal), so only there is the
        # wrapper safe to memoise.
        self._views: dict[tuple[int, Event], PositionsView] = {}
        self._memoise_views = isinstance(self._backend, RamColumnStore)
        for seq in database:
            self._index_sequence(seq)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def database(self) -> SequenceDatabase:
        """The indexed database."""
        return self._database

    @property
    def backend(self) -> ColumnStore:
        """The column store holding the position lists."""
        return self._backend

    def event_id(self, event: Event) -> int:
        """Interned id of ``event``, or :data:`NO_EVENT` if it never occurs.

        This is the one hash of the user-supplied event object an
        instance-growth call pays; all subsequent per-sequence lookups key on
        the returned small int.
        """
        return self._interner.id_of(event)

    def event_of(self, eid: int) -> Event:
        """The event carrying interned id ``eid``."""
        return self._interner.event_of(eid)

    def positions(self, i: int, event: Event) -> PositionsView:
        """All 1-based positions of ``event`` in sequence ``S_i`` (sorted).

        Returns an immutable :class:`PositionsView` over the index's own
        storage — no copy is made, so this is safe to call per closure check.
        """
        self._check_sequence_index(i)
        key = (i, event)
        view = self._views.get(key)
        if view is None:
            eid = self._interner.id_of(event)
            positions = self._get(i, eid) if eid >= 0 else None
            if positions is None:
                return PositionsView(_EMPTY_POSITIONS)
            view = PositionsView(positions)
            if self._memoise_views:
                self._views[key] = view
        return view

    def raw_positions(self, i: int, event: Event) -> Column | None:
        """The internal position array for ``(S_i, event)`` or ``None``.

        Event-keyed convenience wrapper over :meth:`raw_positions_by_id`;
        callers must not mutate the returned array.
        """
        eid = self._interner.id_of(event)
        if eid < 0:
            return None
        return self._get(i, eid)

    def raw_positions_by_id(self, i: int, eid: int) -> Column | None:
        """The internal position column for ``(S_i, eid)`` or ``None``.

        No bounds check, no wrapper, small-int key.  The column is an
        ``array('q')`` (RAM backend) or a ``memoryview`` cast to ``'q'``
        (mmap'd segment) — either way it is sorted, bisectable,
        buffer-protocol-compatible, and must not be mutated by callers.
        """
        return self._get(i, eid)

    def next_position(self, i: int, event: Event, lowest: int) -> int:
        """The paper's ``next(S_i, e, lowest)``.

        Returns the smallest position ``l > lowest`` with ``S_i[l] = e``, or
        :data:`NO_POSITION` (``-1``) if no such position exists.
        """
        self._check_sequence_index(i)
        positions = self.raw_positions_by_id(i, self._interner.id_of(event))
        if not positions:
            return NO_POSITION
        idx = bisect_right(positions, lowest)
        if idx >= len(positions):
            return NO_POSITION
        return positions[idx]

    def count(self, i: int, event: Event) -> int:
        """Number of occurrences of ``event`` in sequence ``S_i``."""
        self._check_sequence_index(i)
        positions = self.raw_positions_by_id(i, self._interner.id_of(event))
        return len(positions) if positions is not None else 0

    def total_count(self, event: Event) -> int:
        """Total occurrences of ``event`` in the database (= sup of size-1 pattern)."""
        eid = self._interner.id_of(event)
        return self._totals[eid] if eid >= 0 else 0

    def events_in_sequence(self, i: int) -> set[Event]:
        """Distinct events occurring in ``S_i``."""
        self._check_sequence_index(i)
        event_of = self._interner.event_of
        return {event_of(eid) for eid in self._backend.event_ids(i)}

    def sequences_containing(self, event: Event) -> list[int]:
        """1-based indices of sequences containing ``event``."""
        eid = self._interner.id_of(event)
        if eid < 0:
            return []
        return [i for i, _positions in self._backend.occurrences(eid)]

    def alphabet(self) -> set[Event]:
        """Distinct events in the database."""
        return {
            event
            for eid, event in enumerate(self._interner.events())
            if self._totals[eid] > 0
        }

    def size_one_instances(self, event: Event) -> list[tuple[int, int]]:
        """All ``(i, position)`` pairs where ``event`` occurs.

        This is the leftmost support set of the size-1 pattern ``event`` —
        line 1 of ``supComp`` and line 3 of ``GSgrow``.
        """
        eid = self._interner.id_of(event)
        result: list[tuple[int, int]] = []
        if eid < 0:
            return result
        for i, positions in self._backend.occurrences(eid):
            for pos in positions:
                result.append((i, pos))
        return result

    def size_one_arrays(self, event: Event) -> tuple["array[int]", "array[int]"]:
        """Flat ``(sequence indices, positions)`` arrays of all occurrences.

        Array form of :meth:`size_one_instances`, consumed directly by the
        array-backed support sets — the pairs are already in right-shift
        order (ascending sequence index, then ascending position).
        """
        eid = self._interner.id_of(event)
        seqs = array(POSITION_TYPECODE)
        positions = array(POSITION_TYPECODE)
        if eid < 0:
            return seqs, positions
        for i, plist in self._backend.occurrences(eid):
            seqs.extend(array(POSITION_TYPECODE, [i]) * len(plist))
            positions.extend(plist)
        return seqs, positions

    def frequent_events(self, min_sup: int) -> list[Event]:
        """Events whose total occurrence count is at least ``min_sup``, sorted.

        Events are sorted by their repr to give the miners a deterministic
        traversal order regardless of hash seeds.
        """
        event_of = self._interner.event_of
        frequent = [
            event_of(eid) for eid, total in enumerate(self._totals) if total >= min_sup
        ]
        return sorted(frequent, key=repr)

    # ------------------------------------------------------------------
    # Incremental maintenance (the streaming ingestion seam)
    # ------------------------------------------------------------------
    def append_sequence(self, sequence: Sequence | Iterable[Event] | str) -> int:
        """Append a new sequence to the database *and* the index.

        The sequence is coerced with :func:`repro.db.sequence.as_sequence`,
        added to the underlying database, and indexed; returns the new
        sequence's 1-based index.
        """
        seq = as_sequence(sequence)
        self._database.add(seq)
        self._index_sequence(seq)
        return self._backend.sequence_count()

    def extend_sequence(self, i: int, events: Iterable[Event]) -> None:
        """Append ``events`` to the end of sequence ``S_i``, in place.

        New positions are strictly larger than every existing position of
        ``S_i``, so each per-event ``array('q')`` position list is extended
        in place and stays sorted — no rebuild, and existing
        :class:`PositionsView` wrappers observe the new positions
        automatically.
        """
        self._check_sequence_index(i)
        events = tuple(events)
        if not events:
            return
        offset = self._database.sequence_length(i)
        self._database.extend_sequence(i, events)
        append_position = self._backend.append_position
        intern = self._interner.intern
        totals = self._totals
        for k, event in enumerate(events, start=offset + 1):
            eid = intern(event)
            if eid == len(totals):
                totals.append(0)
            append_position(i, eid, k)
            totals[eid] += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _index_sequence(self, seq: Sequence) -> None:
        """Index one (new) sequence: re-key its position lists on interned ids."""
        intern = self._interner.intern
        totals = self._totals
        per_event: dict[int, "array[int]"] = {}
        for event, plist in seq.inverted_positions().items():
            eid = intern(event)
            if eid == len(totals):
                totals.append(0)
            per_event[eid] = plist
            totals[eid] += len(plist)
        self._backend.add_sequence(per_event)

    def _check_sequence_index(self, i: int) -> None:
        count = self._backend.sequence_count()
        if i < 1 or i > count:
            raise IndexError(f"sequence index {i} out of range 1..{count}")


def next_position_scan(sequence: Sequence, event: Event, lowest: int) -> int:
    """Linear-scan reference for ``next(S, e, lowest)`` (used in tests/ablation)."""
    for pos in range(max(lowest, 0) + 1, len(sequence) + 1):
        if sequence.at(pos) == event:
            return pos
    return NO_POSITION


def build_index(
    database: SequenceDatabase,
    *,
    backend: str | ColumnStore | None = None,
    backend_dir: "str | None" = None,
) -> InvertedEventIndex:
    """Convenience constructor mirroring the functional style of the miners."""
    return InvertedEventIndex(database, backend=backend, backend_dir=backend_dir)
