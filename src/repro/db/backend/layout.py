"""On-disk byte formats of the disk column store (segments + tail journal).

This module owns the layout of every byte the disk backend writes:
magic-prefixed, versioned headers around ``int64`` columns.  The column
codec, the zero-copy mmap read with its copying fallback (no :mod:`mmap`
module, a big-endian host, an unmappable file) and the atomic write come
from :mod:`repro.db.columns`, which pattern stores and spill files share.

Two formats live here:

* **Segment files** (:func:`write_segment` / :func:`open_segment`) — one
  sealed, immutable chunk of the inverted index.  A segment stores the
  position lists of many ``(sequence, event id)`` pairs as four parallel
  row columns — event id, sequence index, offset, length — sorted by
  ``(event id, sequence index)``, followed by one flat positions blob.
  Sorting event-major makes both lookups cheap: ``get(i, eid)`` is two
  binary searches (event id range, then sequence within it) and
  ``occurrences(eid)`` is one contiguous row range.  All sections are
  8-byte aligned so the mmap'd file casts directly to ``int64`` columns.
* **The tail journal** (:class:`TailJournal`) — an append-only
  write-ahead log of everything that has not been sealed into a segment
  yet.  Appends are written as length-prefixed records; on reopen the
  journal is replayed up to the last *complete* record, so a crash in the
  middle of an append loses at most the torn record (never the sealed
  segments, never earlier appends).

These are byte-format internals: only :mod:`repro.db` may import this
module (reprolint RL007) — everything else goes through the
:class:`repro.db.backend.ColumnStore` seam.
"""

from __future__ import annotations

import contextlib
import os
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import pairwise
from pathlib import Path

from repro.db.columns import (
    ITEMSIZE,
    POSITION_TYPECODE,
    Column,
    ColumnFile,
    PathLike,
    atomic_write,
    column_bytes,
    column_from,
)

#: Magic bytes opening every segment file ("Repro DB Segment").
SEGMENT_MAGIC = b"RDBS"

#: Magic bytes opening the tail journal ("Repro DB Journal").
JOURNAL_MAGIC = b"RDBJ"

#: Current format version of both files (bump on any layout change).
FORMAT_VERSION = 1

#: Segment header: magic, version, n_rows, n_positions, min_seq, max_seq.
#: 40 bytes — a multiple of 8, so every column that follows stays aligned
#: for the zero-copy ``memoryview.cast("q")``.
_SEGMENT_HEADER = struct.Struct("<4sIQQqq")

#: Journal header: magic, version (8 bytes, aligned).
_JOURNAL_HEADER = struct.Struct("<4sI")

#: Size of a journal holding no records.
JOURNAL_HEADER_SIZE = _JOURNAL_HEADER.size

#: Journal record header: sequence index, event id, position count.  A
#: record is this header followed by ``count`` little-endian ``int64``
#: positions.  ``eid == NEW_SEQUENCE`` (with ``count == 0``) declares a new
#: sequence instead of carrying positions.
_RECORD = struct.Struct("<qqq")

#: Journal record marker for "sequence ``i`` now exists".
NEW_SEQUENCE = -1


class BackendFormatError(ValueError):
    """A segment or journal file does not decode (truncated, wrong magic...)."""


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class Segment:
    """One sealed, immutable, (ideally) memory-mapped index chunk.

    Four parallel row columns — ``eids``, ``seqs``, ``offsets``,
    ``lengths`` — sorted by ``(event id, sequence index)``, plus the flat
    ``positions`` blob the offsets point into.  The columns come from one
    :class:`~repro.db.columns.ColumnFile`: ``memoryview`` s over its shared
    read-only mapping, or decoded ``array('q')`` columns with the same
    values when the file is a private copy.
    """

    __slots__ = (
        "path",
        "eids",
        "seqs",
        "offsets",
        "lengths",
        "positions",
        "min_seq",
        "max_seq",
        "file_bytes",
        "_source",
    )

    def __init__(self, path: Path, source: ColumnFile) -> None:
        data = source.data
        size = len(data)
        if size < _SEGMENT_HEADER.size:
            raise BackendFormatError(f"{path}: truncated segment header ({size} bytes)")
        magic, version, n_rows, n_positions, min_seq, max_seq = _SEGMENT_HEADER.unpack_from(
            data, 0
        )
        if magic != SEGMENT_MAGIC:
            raise BackendFormatError(f"{path}: bad magic {magic!r} (not a segment file)")
        if version != FORMAT_VERSION:
            raise BackendFormatError(
                f"{path}: unsupported segment format version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        expected = _SEGMENT_HEADER.size + (4 * n_rows + n_positions) * ITEMSIZE
        if size != expected:
            raise BackendFormatError(
                f"{path}: segment truncated or padded: {size} bytes on disk, "
                f"{expected} expected for {n_rows} rows / {n_positions} positions"
            )
        bounds = [_SEGMENT_HEADER.size + k * n_rows * ITEMSIZE for k in range(5)] + [size]
        self.eids, self.seqs, self.offsets, self.lengths, self.positions = (
            source.column(a, b) for a, b in pairwise(bounds)
        )
        self.path = path
        self.min_seq = min_seq
        self.max_seq = max_seq
        self.file_bytes = size
        self._source = source

    def __len__(self) -> int:
        return len(self.eids)

    def get(self, i: int, eid: int) -> Column | None:
        """The position list of ``(S_i, eid)`` in this segment, or ``None``.

        Two binary searches: the ``(eid)`` row range over the event-major
        sort, then the sequence index within it.
        """
        if i < self.min_seq or i > self.max_seq:
            return None
        lo, hi = self.rows_for_event(eid)
        if lo == hi:
            return None
        return self.column_in(i, lo, hi)

    def column_in(self, i: int, lo: int, hi: int) -> Column | None:
        """The position list of sequence ``S_i`` within one event's ``[lo, hi)`` rows."""
        seqs = self.seqs
        k = bisect_left(seqs, i, lo, hi)
        if k == hi or seqs[k] != i:
            return None
        offset = self.offsets[k]
        return self.positions[offset : offset + self.lengths[k]]

    def rows_for_event(self, eid: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of ``eid`` (empty when absent)."""
        eids = self.eids
        lo = bisect_left(eids, eid)
        return lo, bisect_right(eids, eid, lo)

    def event_ids_of(self, i: int) -> Iterator[int]:
        """Distinct event ids with at least one position in sequence ``S_i``.

        Walks the event-major rows one event-run at a time (binary search
        per distinct event), so the cost scales with the number of distinct
        events in the segment, not with its row count.
        """
        if i < self.min_seq or i > self.max_seq:
            return
        eids = self.eids
        seqs = self.seqs
        n = len(eids)
        k = 0
        while k < n:
            eid = eids[k]
            hi = bisect_right(eids, eid, k, n)
            j = bisect_left(seqs, i, k, hi)
            if j < hi and seqs[j] == i:
                yield eid
            k = hi

    @property
    def is_zero_copy(self) -> bool:
        """True when the columns are views over the file's mapping."""
        return self._source.is_zero_copy

    def close(self) -> None:
        """Release the mapping (the columns become invalid after this)."""
        # Drop the exported column views so the mapping can actually close
        # (an mmap with live buffer exports refuses to).
        with contextlib.suppress(AttributeError):
            del self.eids, self.seqs, self.offsets, self.lengths, self.positions
        self._source.close()


def write_segment(path: PathLike, tail: dict[int, dict[int, "array[int]"]]) -> int:
    """Seal ``tail`` (sequence -> event id -> positions) into a segment file.

    Rows are emitted sorted by ``(event id, sequence index)``; the write is
    atomic (temp file + rename) so a crash mid-seal never leaves a torn
    segment behind.  Returns the file size in bytes.
    """
    rows: list[tuple[int, int, "array[int]"]] = []
    for i, per_event in tail.items():
        for eid, positions in per_event.items():
            if len(positions):
                rows.append((eid, i, positions))
    rows.sort(key=lambda row: (row[0], row[1]))

    eids = array(POSITION_TYPECODE)
    seqs = array(POSITION_TYPECODE)
    offsets = array(POSITION_TYPECODE)
    lengths = array(POSITION_TYPECODE)
    blob = array(POSITION_TYPECODE)
    for eid, i, positions in rows:
        eids.append(eid)
        seqs.append(i)
        offsets.append(len(blob))
        lengths.append(len(positions))
        blob.extend(positions)

    min_seq = min((row[1] for row in rows), default=0)
    max_seq = max((row[1] for row in rows), default=-1)
    header = _SEGMENT_HEADER.pack(
        SEGMENT_MAGIC, FORMAT_VERSION, len(eids), len(blob), min_seq, max_seq
    )
    payload = b"".join(
        (
            header,
            column_bytes(eids),
            column_bytes(seqs),
            column_bytes(offsets),
            column_bytes(lengths),
            column_bytes(blob),
        )
    )
    atomic_write(path, payload)
    return len(payload)


def open_segment(path: PathLike) -> Segment:
    """Open a sealed segment: zero-copy when the host can map it, a decoded copy otherwise.

    Raises
    ------
    BackendFormatError
        On wrong magic, unsupported version, or a truncated file.
    """
    path = Path(path)
    source = ColumnFile.open(path)
    try:
        return Segment(path, source)
    except BackendFormatError:
        source.close()
        raise


# ----------------------------------------------------------------------
# The tail journal (write-ahead log of the unsealed tail)
# ----------------------------------------------------------------------
class TailJournal:
    """Append-only journal making the in-RAM tail crash-recoverable.

    Every mutation of the tail is appended as one length-prefixed record
    before it is applied in memory; :meth:`replay` reads records back up to
    the last complete one (a torn final record — a crash mid-append — is
    truncated away, never an error).  Sealing a segment resets the journal
    to its header and the sequence count, because the sealed data now lives
    in the segment.
    """

    __slots__ = ("path", "_handle")

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        if not self.path.exists():
            # Atomic, so a crash mid-creation leaves no headerless journal
            # that would fail every later reopen.
            atomic_write(self.path, _JOURNAL_HEADER.pack(JOURNAL_MAGIC, FORMAT_VERSION))
        self._handle = open(self.path, "r+b")
        self._handle.seek(0, os.SEEK_END)

    def record_new_sequence(self, i: int) -> None:
        """Journal "sequence ``i`` now exists" (it may stay empty)."""
        self._handle.write(_RECORD.pack(i, NEW_SEQUENCE, 0))

    def record_positions(self, i: int, eid: int, positions: "array[int]") -> None:
        """Journal "these positions were appended to ``(S_i, eid)``"."""
        self._handle.write(_RECORD.pack(i, eid, len(positions)))
        self._handle.write(column_bytes(positions))

    def flush(self) -> None:
        """Push buffered records to the OS (durability point)."""
        self._handle.flush()

    def reset(self, sequence_count: int) -> None:
        """Drop every record but "``sequence_count`` sequences exist".

        Called after the tail is sealed into a segment.  Segments only
        record sequences that have positions, so the count is journalled
        again; the header and that record replace the old journal in one
        atomic write, so a crash leaves either the old journal or the new
        one, never a bare header that forgets trailing empty sequences.
        """
        self._handle.close()
        atomic_write(
            self.path,
            _JOURNAL_HEADER.pack(JOURNAL_MAGIC, FORMAT_VERSION)
            + _RECORD.pack(sequence_count, NEW_SEQUENCE, 0),
        )
        self._handle = open(self.path, "r+b")
        self._handle.seek(0, os.SEEK_END)

    def close(self) -> None:
        """Close the underlying file handle."""
        with contextlib.suppress(ValueError, OSError):
            self._handle.close()

    @staticmethod
    def replay(path: PathLike) -> Iterator[tuple[int, int, "array[int]"]]:
        """Yield ``(i, eid, positions)`` records up to the last complete one.

        ``eid == NEW_SEQUENCE`` records carry an empty positions array.  A
        torn trailing record (crash mid-append) ends the replay silently;
        a corrupt header raises :class:`BackendFormatError`.
        """
        data = Path(path).read_bytes()
        if len(data) < _JOURNAL_HEADER.size:
            raise BackendFormatError(f"{path}: truncated journal header")
        magic, version = _JOURNAL_HEADER.unpack_from(data, 0)
        if magic != JOURNAL_MAGIC:
            raise BackendFormatError(f"{path}: bad magic {magic!r} (not a tail journal)")
        if version != FORMAT_VERSION:
            raise BackendFormatError(
                f"{path}: unsupported journal format version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        offset = _JOURNAL_HEADER.size
        size = len(data)
        while offset + _RECORD.size <= size:
            i, eid, count = _RECORD.unpack_from(data, offset)
            offset += _RECORD.size
            if count < 0 or (eid < 0 and eid != NEW_SEQUENCE):
                return  # torn / garbage tail: stop at the last sane record
            end = offset + count * ITEMSIZE
            if end > size:
                return  # torn positions payload: the record never completed
            yield i, eid, column_from(data[offset:end])
            offset = end
