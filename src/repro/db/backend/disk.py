"""Disk-backed column store: sealed mmap'd segments plus an in-RAM tail.

:class:`DiskColumnStore` keeps the inverted index's position lists mostly
on disk so that databases far larger than RAM can be indexed and mined:

* **Tail** — recent appends accumulate in ordinary ``array('q')`` lists in
  RAM, journalled to a write-ahead log (:class:`~.layout.TailJournal`)
  so a crash loses at most the final torn record.  Appends therefore cost
  the same as the RAM backend's.
* **Segments** — when the tail outgrows ``segment_bytes`` it is *sealed*:
  written atomically as one immutable segment file and dropped from RAM.
  Sealed segments are mmap'd read-only, so their position lists are
  ``memoryview`` columns backed by the page cache — the OS decides how
  much of them is resident.
* **Overlay** — a position list may straddle the seal boundary.  The first
  append to a sealed ``(sequence, event)`` pair copies its sealed list
  back into the tail; from then on the tail *shadows* the segments, and
  the next seal writes the complete list into a newer segment.  Readers
  check the tail first, then segments newest-to-oldest, so the freshest
  (complete) copy always wins.  Older segments keep their stale rows —
  disk is append-only; RAM is what the budget bounds.

The store persists position lists keyed on interned event *ids*, not the
events themselves: the :class:`~repro.db.index.EventInterner` lives in the
index layer, so reopening a directory only makes sense for crash recovery
of the same logical index (the tests do exactly that).  Only
:mod:`repro.db` may import this module (reprolint RL007); everyone else
goes through :func:`repro.db.backend.make_backend`.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import weakref
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from pathlib import Path

from repro.db.backend.layout import (
    JOURNAL_HEADER_SIZE,
    NEW_SEQUENCE,
    Segment,
    TailJournal,
    open_segment,
    write_segment,
)
from repro.db.columns import ITEMSIZE, POSITION_TYPECODE, Column, PathLike

#: Default seal threshold for the in-RAM tail (bytes of position payload).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Rough per-list RAM overhead charged against the tail budget (dict slot,
#: array object header) on top of the 8 bytes per position.
_LIST_OVERHEAD = 64

_SEGMENT_GLOB = "seg-*.rdbs"
_JOURNAL_NAME = "tail.rdbj"


def _cleanup_directory(directory: Path) -> None:
    """Best-effort removal of an ephemeral store directory."""
    with contextlib.suppress(OSError):
        shutil.rmtree(directory)


class DiskColumnStore:
    """Append-friendly on-disk column store for inverted-index position lists.

    Parameters
    ----------
    directory:
        Where segment files and the tail journal live.  ``None`` creates a
        private temporary directory that is removed when the store is
        closed (or garbage-collected); an explicit path is created if
        missing, reused (with journal replay) if it already holds a store,
        and left behind on close.
    segment_bytes:
        Tail size that triggers sealing a segment.  Smaller values bound
        RAM tighter at the cost of more (and more fragmented) segment
        files.
    """

    def __init__(
        self,
        directory: PathLike | None = None,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be positive, got {segment_bytes}")
        self.name = "disk"
        self._segment_bytes = segment_bytes
        self._ephemeral = directory is None
        if directory is None:
            self._directory = Path(tempfile.mkdtemp(prefix="repro-db-"))
        else:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
        self._finalizer = weakref.finalize(
            self, _cleanup_directory if self._ephemeral else _noop, self._directory
        )

        # Oldest-to-newest; readers walk it newest-first so shadowing rows
        # from later seals win over their stale sealed predecessors.
        self._segments: list[Segment] = []
        # tail[i][eid] -> positions still in RAM (absolute 1-based i).
        self._tail: dict[int, dict[int, "array[int]"]] = {}
        self._tail_bytes = 0
        self._count = 0
        self._seals = 0
        self._next_segment_number = 0
        self._closed = False
        self._one = array(POSITION_TYPECODE, (0,))

        self._recover_segments()
        journal_path = self._directory / _JOURNAL_NAME
        if journal_path.exists():
            self._replay_journal(journal_path)
        self._journal = TailJournal(journal_path)
        if self._count and not journal_path.stat().st_size > JOURNAL_HEADER_SIZE:
            # Fresh journal over existing segments: persist the sequence
            # count so empty trailing sequences survive the next reopen.
            self._journal.record_new_sequence(self._count)

    # ------------------------------------------------------------------
    # ColumnStore protocol — reads
    # ------------------------------------------------------------------
    def sequence_count(self) -> int:
        """Number of sequences ever added (1-based indices run up to this)."""
        return self._count

    def get(self, i: int, eid: int) -> Column | None:
        """The sorted position list of ``(S_i, eid)``, or ``None``.

        Hot-path accessor: the tail shadows the segments, and among
        segments the newest row wins (it is always the complete list).
        """
        per_event = self._tail.get(i)
        if per_event is not None:
            plist = per_event.get(eid)
            if plist is not None:
                return plist
        for segment in reversed(self._segments):
            found = segment.get(i, eid)
            if found is not None:
                return found
        return None

    def column_getter(self, eid: int) -> Callable[[int], Column | None]:
        """``i -> get(i, eid)`` with ``eid``'s row range in each segment found once.

        Same shadowing as :meth:`get` (the tail first, then the newest
        segment holding the pair); only the per-segment search for the
        event's rows leaves the per-call path, and segments without the
        event, or whose rows for it cannot hold ``S_i``, are skipped.
        """
        tail = self._tail
        runs: list[tuple[int, int, int, int, Callable[[int, int, int], Column | None]]] = []
        for segment in reversed(self._segments):
            lo, hi = segment.rows_for_event(eid)
            if lo < hi:
                seqs = segment.seqs
                runs.append((seqs[lo], seqs[hi - 1], lo, hi, segment.column_in))

        def column(i: int) -> Column | None:
            per_event = tail.get(i)
            if per_event is not None:
                plist = per_event.get(eid)
                if plist is not None:
                    return plist
            for first, last, lo, hi, column_in in runs:
                if first <= i <= last:
                    found = column_in(i, lo, hi)
                    if found is not None:
                        return found
            return None

        return column

    def event_ids(self, i: int) -> set[int]:
        """Distinct interned event ids occurring in sequence ``S_i``."""
        ids: set[int] = set()
        per_event = self._tail.get(i)
        if per_event is not None:
            ids.update(per_event)
        for segment in self._segments:
            ids.update(segment.event_ids_of(i))
        return ids

    def occurrences(self, eid: int) -> Iterator[tuple[int, Column]]:
        """``(i, positions)`` for every sequence containing ``eid``, ascending ``i``."""
        newest: dict[int, Column] = {}
        for i, per_event in self._tail.items():
            plist = per_event.get(eid)
            if plist:
                newest[i] = plist
        for segment in reversed(self._segments):
            lo, hi = segment.rows_for_event(eid)
            seqs = segment.seqs
            offsets = segment.offsets
            lengths = segment.lengths
            positions = segment.positions
            for k in range(lo, hi):
                i = seqs[k]
                if i not in newest:
                    offset = offsets[k]
                    newest[i] = positions[offset : offset + lengths[k]]
        for i in sorted(newest):
            yield i, newest[i]

    # ------------------------------------------------------------------
    # ColumnStore protocol — writes
    # ------------------------------------------------------------------
    def add_sequence(self, per_event: Mapping[int, "array[int]"]) -> int:
        """Add a new sequence's position lists; returns its 1-based index.

        The store takes ownership of the passed arrays (no copy).
        """
        self._count += 1
        i = self._count
        self._journal.record_new_sequence(i)
        if per_event:
            tail_lists = dict(per_event)
            self._tail[i] = tail_lists
            for eid, plist in tail_lists.items():
                self._journal.record_positions(i, eid, plist)
                self._tail_bytes += len(plist) * ITEMSIZE + _LIST_OVERHEAD
            self._maybe_seal()
        return i

    def append_position(self, i: int, eid: int, position: int) -> None:
        """Append one position to ``(S_i, eid)`` (positions only ever grow)."""
        self._one[0] = position
        self._journal.record_positions(i, eid, self._one)
        self._overlay_list(i, eid).append(position)
        self._tail_bytes += ITEMSIZE
        self._maybe_seal()

    def flush(self) -> None:
        """Push journalled appends to the OS (the crash-durability point)."""
        self._journal.flush()

    def close(self) -> None:
        """Release mappings and the journal; delete ephemeral directories."""
        if self._closed:
            return
        self._closed = True
        self._journal.close()
        for segment in self._segments:
            segment.close()
        self._segments.clear()
        self._tail.clear()
        self._finalizer()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The directory holding segment files and the tail journal."""
        return self._directory

    def memory_stats(self) -> dict[str, int]:
        """RAM-vs-disk accounting, mirrored into obs gauges by callers.

        ``resident_bytes`` is what this process must hold in RAM (the tail
        plus any segments decoded through the copying fallback);
        ``mapped_bytes`` is the total size of mmap'd segment files, whose
        residency the OS page cache manages.
        """
        resident = self._tail_bytes
        mapped = 0
        for segment in self._segments:
            if segment.is_zero_copy:
                mapped += segment.file_bytes
            else:
                resident += segment.file_bytes
        return {
            "resident_bytes": resident,
            "mapped_bytes": mapped,
            "segments": len(self._segments),
            "seals": self._seals,
            "sequences": self._count,
        }

    def __repr__(self) -> str:
        return (
            f"DiskColumnStore({str(self._directory)!r}, sequences={self._count}, "
            f"segments={len(self._segments)}, tail_bytes={self._tail_bytes})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _overlay_list(self, i: int, eid: int) -> "array[int]":
        """The tail's mutable list for ``(i, eid)``, pulling sealed data in.

        First touch of a sealed pair copies the sealed list back into the
        tail so subsequent reads see one complete, sorted list.  Shared by
        the append path and journal replay, which keeps recovery a pure
        re-application of the journal.
        """
        per_event = self._tail.get(i)
        if per_event is None:
            per_event = self._tail[i] = {}
        plist = per_event.get(eid)
        if plist is None:
            sealed: Column | None = None
            for segment in reversed(self._segments):
                sealed = segment.get(i, eid)
                if sealed is not None:
                    break
            if sealed is not None:
                plist = array(POSITION_TYPECODE, sealed)
            else:
                plist = array(POSITION_TYPECODE)
            per_event[eid] = plist
            self._tail_bytes += len(plist) * ITEMSIZE + _LIST_OVERHEAD
        return plist

    def _maybe_seal(self) -> None:
        if self._tail_bytes > self._segment_bytes:
            self.seal()

    def seal(self) -> None:
        """Seal the tail into a new immutable segment and reset the journal."""
        if not any(per_event for per_event in self._tail.values()):
            return
        path = self._directory / f"seg-{self._next_segment_number:08d}.rdbs"
        self._next_segment_number += 1
        write_segment(path, self._tail)
        self._segments.append(open_segment(path))
        self._tail.clear()
        self._tail_bytes = 0
        self._seals += 1
        # Keeps the sequence count: segments only record sequences that
        # have positions.
        self._journal.reset(self._count)

    def _recover_segments(self) -> None:
        """Open existing segment files (oldest first) when reusing a directory."""
        paths = sorted(self._directory.glob(_SEGMENT_GLOB))
        for path in paths:
            segment = open_segment(path)
            self._segments.append(segment)
            self._count = max(self._count, segment.max_seq)
        if paths:
            self._next_segment_number = int(paths[-1].stem.split("-")[1]) + 1

    def _replay_journal(self, path: Path) -> None:
        """Re-apply journalled tail records left behind by the last process.

        A crash inside :meth:`seal`, after the new segment landed but before
        the journal reset, leaves records whose positions that segment
        already holds.  Positions per pair only grow, so a journalled
        position at or below the pair's current last one is such a copy
        and is skipped.
        """
        for i, eid, positions in TailJournal.replay(path):
            self._count = max(self._count, i)
            if eid == NEW_SEQUENCE:
                continue
            plist = self._overlay_list(i, eid)
            if plist:
                positions = positions[bisect_right(positions, plist[-1]) :]
            plist.extend(positions)
            self._tail_bytes += len(positions) * ITEMSIZE


def _noop(directory: Path) -> None:
    """Finalizer for persistent directories: leave everything in place."""


__all__ = ["DEFAULT_SEGMENT_BYTES", "DiskColumnStore"]
