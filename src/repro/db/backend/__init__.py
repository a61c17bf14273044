"""Storage backends for the inverted event index (the ``ColumnStore`` seam).

The inverted index (:class:`repro.db.index.InvertedEventIndex`) used to own
its position lists directly as ``list[dict[int, array('q')]]``.  This
package lifts that storage behind a small protocol, :class:`ColumnStore`,
with two implementations:

* :class:`RamColumnStore` — every position list is an ``array('q')`` in
  RAM, held event-major.  Fastest, and the byte-identity reference the
  disk backend is tested against.
* :class:`~repro.db.backend.disk.DiskColumnStore` — sealed mmap'd segment
  files plus a small journalled in-RAM tail, for databases bigger than
  RAM.  Built with :func:`make_backend("disk", ...) <make_backend>`.

The seam's contract (what the index relies on):

* Sequences are dense 1-based indices assigned by :meth:`ColumnStore.add_sequence`.
* Events are interned small-int ids — the interner stays in the index
  layer; the store never sees user event objects.
* :meth:`ColumnStore.get` returns a sorted int64 *column* — either an
  ``array('q')`` or a ``memoryview`` cast to ``'q'``.  Both support
  ``len``/indexing/iteration/``bisect`` and the buffer protocol.  Callers
  must never mutate a returned column.
* :meth:`ColumnStore.column_getter` is the mining hot path's accessor:
  one call per growth step resolves an event, and the returned
  ``i -> column | None`` callable then answers ``get(i, eid)`` for every
  sequence the step visits.  It reflects the store as of the call; a
  getter must not be held across writes.
* Positions only ever grow: :meth:`ColumnStore.append_position` appends a
  position strictly larger than every existing one for that pair, which
  is what keeps columns sorted without re-sorting (the streaming
  invariant).

Byte-format internals (:mod:`~repro.db.backend.layout`,
:mod:`~repro.db.backend.disk`) may only be imported from inside
:mod:`repro.db` — reprolint rule RL007 enforces the seam.  Everything else
uses this facade: :func:`make_backend` plus the re-exported names below.
The int64 column codec under both formats is :mod:`repro.db.columns`.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator, Mapping
from typing import Protocol, runtime_checkable

from repro.db.backend.layout import FORMAT_VERSION, BackendFormatError
from repro.db.columns import ITEMSIZE, POSITION_TYPECODE, Column, PathLike

__all__ = [
    "BackendFormatError",
    "Column",
    "ColumnStore",
    "FORMAT_VERSION",
    "POSITION_TYPECODE",
    "RamColumnStore",
    "make_backend",
]


@runtime_checkable
class ColumnStore(Protocol):
    """Storage seam behind :class:`~repro.db.index.InvertedEventIndex`.

    Implementations store one sorted int64 position column per
    ``(sequence, event id)`` pair; see the module docstring for the full
    contract (dense 1-based sequence indices, interned event ids,
    append-only growth, immutable returned columns).
    """

    name: str

    def sequence_count(self) -> int:
        """Number of sequences added so far."""
        ...

    def add_sequence(self, per_event: Mapping[int, "array[int]"]) -> int:
        """Add a new sequence's per-event position lists; return its 1-based index.

        The store may take ownership of the passed arrays.
        """
        ...

    def append_position(self, i: int, eid: int, position: int) -> None:
        """Append ``position`` (strictly larger than all existing) to ``(S_i, eid)``."""
        ...

    def get(self, i: int, eid: int) -> Column | None:
        """The sorted position column of ``(S_i, eid)``, or ``None``."""
        ...

    def column_getter(self, eid: int) -> Callable[[int], Column | None]:
        """``i -> get(i, eid)`` for one event, resolved once (hot path)."""
        ...

    def event_ids(self, i: int) -> set[int]:
        """Distinct event ids occurring in sequence ``S_i``."""
        ...

    def occurrences(self, eid: int) -> Iterator[tuple[int, Column]]:
        """``(i, positions)`` for every sequence containing ``eid``, ascending ``i``."""
        ...

    def flush(self) -> None:
        """Make journalled state durable (no-op for RAM)."""
        ...

    def close(self) -> None:
        """Release held resources (mappings, file handles, temp dirs)."""
        ...

    def memory_stats(self) -> dict[str, int]:
        """At least ``resident_bytes`` and ``mapped_bytes`` (see obs gauges)."""
        ...


class RamColumnStore:
    """In-RAM ``array('q')`` columns, held event-major: ``{eid: {i: column}}``.

    A growth step reads one event's columns across many sequences, so the
    event-major map lets :meth:`column_getter` hand out the bound ``get`` of
    that event's ``{i: column}`` dict: each per-sequence lookup is then a
    C-level dict probe with no Python frame.  Columns grow in place on
    append.
    """

    __slots__ = ("name", "_count", "_columns")

    def __init__(self) -> None:
        self.name = "ram"
        self._count = 0
        self._columns: dict[int, dict[int, array[int]]] = {}

    def sequence_count(self) -> int:
        return self._count

    def add_sequence(self, per_event: Mapping[int, "array[int]"]) -> int:
        self._count += 1
        i = self._count
        for eid, plist in per_event.items():
            self._event_columns(eid)[i] = plist
        return i

    def append_position(self, i: int, eid: int, position: int) -> None:
        columns = self._event_columns(eid)
        plist = columns.get(i)
        if plist is None:
            columns[i] = array(POSITION_TYPECODE, (position,))
        else:
            plist.append(position)

    def get(self, i: int, eid: int) -> Column | None:
        columns = self._columns.get(eid)
        return None if columns is None else columns.get(i)

    def column_getter(self, eid: int) -> Callable[[int], Column | None]:
        return self._event_columns(eid).get

    def event_ids(self, i: int) -> set[int]:
        return {eid for eid, columns in self._columns.items() if i in columns}

    def occurrences(self, eid: int) -> Iterator[tuple[int, Column]]:
        columns = self._columns.get(eid, {})
        # Sequences are inserted in ascending order, except when an append
        # opens a new pair in an older sequence; sorting restores the order.
        for i in sorted(columns):
            plist = columns[i]
            if plist:
                yield i, plist

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def memory_stats(self) -> dict[str, int]:
        resident = sum(
            len(plist) * ITEMSIZE
            for columns in self._columns.values()
            for plist in columns.values()
        )
        return {
            "resident_bytes": resident,
            "mapped_bytes": 0,
            "segments": 0,
            "seals": 0,
            "sequences": self._count,
        }

    def _event_columns(self, eid: int) -> dict[int, array[int]]:
        """The ``{i: column}`` map of ``eid``, created empty on first use."""
        columns = self._columns.get(eid)
        if columns is None:
            columns = self._columns[eid] = {}
        return columns


def make_backend(
    spec: "str | ColumnStore | None",
    *,
    directory: PathLike | None = None,
    segment_bytes: int | None = None,
) -> ColumnStore:
    """Resolve a backend spec into a :class:`ColumnStore`.

    ``spec`` is ``"ram"``/``None`` (the default in-RAM store), ``"disk"``
    (a :class:`~repro.db.backend.disk.DiskColumnStore` in ``directory`` —
    a temp dir removed on close when ``directory`` is ``None``), or an
    already-constructed store, returned as-is.  ``segment_bytes`` only
    applies to ``"disk"``.
    """
    if spec is None or spec == "ram":
        return RamColumnStore()
    if spec == "disk":
        from repro.db.backend.disk import DEFAULT_SEGMENT_BYTES, DiskColumnStore

        return DiskColumnStore(
            directory,
            segment_bytes=DEFAULT_SEGMENT_BYTES if segment_bytes is None else segment_bytes,
        )
    if isinstance(spec, str):
        raise ValueError(f"unknown db backend {spec!r} (expected 'ram' or 'disk')")
    return spec
