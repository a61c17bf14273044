"""Incrementally ingested sequence databases.

A :class:`StreamingSequenceDatabase` is the append-only ingestion surface of
the streaming subsystem: sequences (and events appended to existing
sequences) arrive over time, and the inverted event index is maintained
*incrementally* — the flat ``array('q')`` position lists of
:class:`~repro.db.index.InvertedEventIndex` are extended in place instead of
being rebuilt, so an append costs time proportional to the appended data, not
to the database.

The class deliberately supports **appends only**; windowed eviction of
expired sequences is the :class:`~repro.stream.miner.StreamMiner`'s job
(eviction changes sequence indices, which an in-place index cannot absorb
cheaply, so the miner rebuilds the affected — small — shard instead, once
per re-mine however many of its sequences were evicted).

``rebuilt_index()`` returns a from-scratch index over a snapshot of the same
data; it is the equivalence oracle the tests check every append schedule
against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.db.backend import ColumnStore
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.lazy import LazySequenceDatabase
from repro.db.sequence import Event, Sequence


class StreamingSequenceDatabase:
    """A sequence database that grows in place as data streams in.

    Parameters
    ----------
    sequences:
        Optional initial sequences (appended one by one).
    name:
        Optional human-readable name, forwarded to the underlying database.
    db_backend:
        Storage backend of the position lists: ``None``/``"ram"`` (default)
        or ``"disk"`` (mmap'd segments, see :mod:`repro.db.backend`).  With
        ``"disk"`` the underlying database is a
        :class:`~repro.db.lazy.LazySequenceDatabase` — ingested events live
        only in the index's columns, and sequences materialise on demand.
    db_dir:
        Directory for a ``"disk"`` backend (a temp dir when ``None``).
    segment_bytes:
        Seal threshold of a ``"disk"`` backend's in-RAM tail.
    """

    def __init__(
        self,
        sequences: Iterable = (),
        name: str | None = None,
        *,
        db_backend: str | ColumnStore | None = None,
        db_dir: str | None = None,
        segment_bytes: int | None = None,
    ):
        lazy = db_backend is not None and db_backend != "ram"
        self._database: SequenceDatabase
        if lazy:
            self._database = LazySequenceDatabase(name=name)
        else:
            self._database = SequenceDatabase(name=name)
        self._index = InvertedEventIndex(
            self._database,
            backend=db_backend,
            backend_dir=db_dir,
            segment_bytes=segment_bytes,
        )
        if isinstance(self._database, LazySequenceDatabase):
            self._database.bind_index(self._index)
        self._appended_sequences = 0
        self._appended_events = 0
        for seq in sequences:
            self.append(seq)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, sequence) -> int:
        """Append a new sequence; returns its 1-based index.

        Accepts anything :func:`repro.db.sequence.as_sequence` does (strings,
        lists, tuples, :class:`Sequence` objects).
        """
        i = self._index.append_sequence(sequence)
        self._appended_sequences += 1
        self._appended_events += self._database.sequence_length(i)
        return i

    def extend(self, i: int, events: Iterable[Event]) -> None:
        """Append ``events`` to the end of the existing sequence ``S_i``.

        The index's position lists for ``S_i`` are extended in place — new
        positions are strictly larger than all existing ones, so sortedness
        is preserved without any rebuild.
        """
        events = tuple(events)
        self._index.extend_sequence(i, events)
        self._appended_events += len(events)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def database(self) -> SequenceDatabase:
        """The live underlying database (mutated by appends)."""
        return self._database

    @property
    def index(self) -> InvertedEventIndex:
        """The incrementally maintained index (always in sync with ``database``)."""
        return self._index

    @property
    def appended_sequences(self) -> int:
        """Number of sequences appended so far."""
        return self._appended_sequences

    @property
    def appended_events(self) -> int:
        """Total number of events ingested so far (appends + extensions)."""
        return self._appended_events

    def sequence(self, i: int) -> Sequence:
        """Sequence ``S_i`` (1-based)."""
        return self._database.sequence(i)

    def __len__(self) -> int:
        return len(self._database)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self._database)

    def __repr__(self) -> str:
        return (
            f"<StreamingSequenceDatabase: {len(self)} sequences, "
            f"{self._appended_events} events ingested>"
        )

    # ------------------------------------------------------------------
    # Snapshots / oracles
    # ------------------------------------------------------------------
    def snapshot(self) -> SequenceDatabase:
        """An independent static copy of the current contents."""
        return SequenceDatabase(self._database.sequences, name=self._database.name)

    def rebuilt_index(self) -> InvertedEventIndex:
        """A from-scratch index over a snapshot — the incremental-maintenance oracle."""
        return InvertedEventIndex(self.snapshot())
