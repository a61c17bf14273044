"""ColumnStore backend tests: seam contract, disk formats, crash recovery.

Three layers of coverage:

* **Contract** — ``make_backend`` resolution and the RAM store's behaviour
  (the byte-identity reference everything else is compared against).
* **Randomized equivalence** — the same random append schedule applied to
  :class:`RamColumnStore` and :class:`DiskColumnStore` (with a tiny seal
  threshold, so segments, overlays and shadowing all engage) must answer
  every read API identically.
* **Failure paths** — truncated/bad-magic/bad-version segment files,
  torn tail-journal records (crash mid-append), reopening a directory
  after a simulated crash (also inside a seal, and while the journal is
  being created), and the copying fallback when :mod:`mmap` is
  unavailable (the ``no_mmap`` fixture).

The byte-format internals (``repro.db.backend.layout`` / ``.disk``) are
imported directly here: tests sit outside ``repro`` and therefore outside
reprolint RL007's seam rule, and failure injection needs the raw formats.
"""

from __future__ import annotations

import contextlib
import random
from array import array
from pathlib import Path

import pytest

from repro.db.backend import (
    FORMAT_VERSION,
    POSITION_TYPECODE,
    BackendFormatError,
    ColumnStore,
    RamColumnStore,
    make_backend,
)
from repro.db.backend.disk import DiskColumnStore
from repro.db.backend.layout import (
    JOURNAL_MAGIC,
    SEGMENT_MAGIC,
    TailJournal,
    open_segment,
    write_segment,
)
from repro.db.columns import zero_copy_unavailable_reason
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex

N_EVENTS = 6


def positions_array(values):
    return array(POSITION_TYPECODE, values)


# ----------------------------------------------------------------------
# Random op schedules (shared by the equivalence and recovery tests)
# ----------------------------------------------------------------------
def random_ops(rng, n_ops=140):
    """A random append-only schedule honouring the seam's growth contract.

    Positions appended to a ``(sequence, event)`` pair are strictly larger
    than every existing one — the invariant that keeps columns sorted.
    """
    ops = []
    high: dict[tuple[int, int], int] = {}
    count = 0
    for _ in range(n_ops):
        if count == 0 or rng.random() < 0.35:
            count += 1
            per_event = {}
            cursor = 0
            for eid in sorted(rng.sample(range(N_EVENTS), rng.randrange(0, 4))):
                plist = []
                for _k in range(rng.randrange(1, 4)):
                    cursor += rng.randrange(1, 5)
                    plist.append(cursor)
                per_event[eid] = plist
                high[(count, eid)] = plist[-1]
            ops.append(("add", per_event))
        else:
            i = rng.randrange(1, count + 1)
            eid = rng.randrange(N_EVENTS)
            position = high.get((i, eid), 0) + rng.randrange(1, 5)
            high[(i, eid)] = position
            ops.append(("append", i, eid, position))
    return ops


def apply_ops(store: ColumnStore, ops) -> None:
    for op in ops:
        if op[0] == "add":
            # Fresh arrays per store: add_sequence takes ownership.
            store.add_sequence({eid: positions_array(p) for eid, p in op[1].items()})
        else:
            _tag, i, eid, position = op
            store.append_position(i, eid, position)


def read_everything(store: ColumnStore):
    """Every observable fact a ColumnStore exposes, as plain python data."""
    n = store.sequence_count()
    facts: dict[object, object] = {"count": n}
    for i in range(1, n + 1):
        facts[("ids", i)] = set(store.event_ids(i))
        for eid in range(N_EVENTS):
            column = store.get(i, eid)
            facts[("col", i, eid)] = None if column is None else list(column)
    for eid in range(N_EVENTS):
        facts[("occ", eid)] = [(i, list(c)) for i, c in store.occurrences(eid)]
    return facts


# ----------------------------------------------------------------------
# make_backend resolution
# ----------------------------------------------------------------------
class TestMakeBackend:
    def test_none_and_ram_build_the_ram_store(self):
        assert isinstance(make_backend(None), RamColumnStore)
        assert isinstance(make_backend("ram"), RamColumnStore)

    def test_disk_builds_a_disk_store(self, tmp_path):
        store = make_backend("disk", directory=tmp_path / "db", segment_bytes=512)
        try:
            assert isinstance(store, DiskColumnStore)
            assert store.name == "disk"
        finally:
            store.close()

    def test_prebuilt_store_passes_through(self):
        store = RamColumnStore()
        assert make_backend(store) is store

    def test_unknown_spec_is_rejected(self):
        with pytest.raises(ValueError, match="unknown db backend"):
            make_backend("papyrus")

    def test_both_stores_satisfy_the_protocol(self, tmp_path):
        disk = make_backend("disk", directory=tmp_path / "db")
        try:
            assert isinstance(RamColumnStore(), ColumnStore)
            assert isinstance(disk, ColumnStore)
        finally:
            disk.close()


# ----------------------------------------------------------------------
# The RAM reference store
# ----------------------------------------------------------------------
class TestRamColumnStore:
    def test_basic_reads(self):
        store = RamColumnStore()
        i = store.add_sequence({0: positions_array([1, 3]), 2: positions_array([2])})
        assert i == 1
        assert store.sequence_count() == 1
        assert list(store.get(1, 0)) == [1, 3]
        assert store.get(1, 1) is None
        assert store.event_ids(1) == {0, 2}
        assert [(i, list(c)) for i, c in store.occurrences(0)] == [(1, [1, 3])]

    def test_append_position_creates_and_grows(self):
        store = RamColumnStore()
        store.add_sequence({})
        store.append_position(1, 4, 7)
        store.append_position(1, 4, 9)
        assert list(store.get(1, 4)) == [7, 9]

    def test_memory_stats_count_position_bytes(self):
        store = RamColumnStore()
        store.add_sequence({0: positions_array([1, 2, 3])})
        stats = store.memory_stats()
        assert stats["resident_bytes"] == 3 * 8
        assert stats["mapped_bytes"] == 0
        assert stats["sequences"] == 1


# ----------------------------------------------------------------------
# Disk store behaviour
# ----------------------------------------------------------------------
class TestDiskColumnStore:
    def test_overlay_merges_sealed_and_fresh_positions(self, tmp_path):
        store = DiskColumnStore(tmp_path / "db", segment_bytes=1)
        try:
            store.add_sequence({0: positions_array([1, 4])})  # seals immediately
            assert store.memory_stats()["seals"] >= 1
            store.append_position(1, 0, 9)  # first touch of a sealed pair
            assert list(store.get(1, 0)) == [1, 4, 9]
            # A later seal writes the complete list; reads still agree.
            store.seal()
            assert list(store.get(1, 0)) == [1, 4, 9]
        finally:
            store.close()

    def test_occurrences_ascend_and_newest_segment_wins(self, tmp_path):
        store = DiskColumnStore(tmp_path / "db", segment_bytes=1)
        try:
            store.add_sequence({0: positions_array([2])})
            store.add_sequence({0: positions_array([1, 5])})
            store.append_position(1, 0, 8)  # shadows sequence 1's sealed row
            store.seal()
            occ = [(i, list(c)) for i, c in store.occurrences(0)]
            assert occ == [(1, [2, 8]), (2, [1, 5])]
        finally:
            store.close()

    def test_sealing_creates_segment_files_and_maps_them(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=64)
        try:
            for _ in range(8):
                store.add_sequence({1: positions_array([1, 2, 3, 4])})
            stats = store.memory_stats()
            assert stats["segments"] >= 1
            assert len(list(directory.glob("seg-*.rdbs"))) == stats["segments"]
            if zero_copy_unavailable_reason() is None:
                assert stats["mapped_bytes"] > 0
        finally:
            store.close()

    def test_ephemeral_directory_is_removed_on_close(self):
        store = DiskColumnStore(None, segment_bytes=64)
        directory = store.directory
        store.add_sequence({0: positions_array([1])})
        assert directory.exists()
        store.close()
        assert not directory.exists()

    def test_explicit_directory_survives_close(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=1)
        store.add_sequence({0: positions_array([1])})
        store.close()
        assert directory.exists()
        assert list(directory.glob("seg-*.rdbs"))

    def test_close_is_idempotent(self, tmp_path):
        store = DiskColumnStore(tmp_path / "db")
        store.add_sequence({0: positions_array([1])})
        store.close()
        store.close()

    def test_segment_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="segment_bytes"):
            DiskColumnStore(tmp_path / "db", segment_bytes=0)


class TestRandomizedStoreEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("segment_bytes", [1, 256])
    def test_disk_answers_match_ram(self, tmp_path, seed, segment_bytes):
        ops = random_ops(random.Random(seed))
        ram = RamColumnStore()
        disk = DiskColumnStore(tmp_path / "db", segment_bytes=segment_bytes)
        try:
            apply_ops(ram, ops)
            apply_ops(disk, ops)
            assert read_everything(disk) == read_everything(ram)
            # Mid-schedule sealing must not change any answer either.
            disk.seal()
            assert read_everything(disk) == read_everything(ram)
        finally:
            disk.close()


class TestColumnGetter:
    """``column_getter(eid)`` answers exactly what ``get(i, eid)`` does."""

    @staticmethod
    def _getter_answers(store: ColumnStore):
        answers = {}
        for eid in range(N_EVENTS + 2):  # two ids no sequence ever holds
            column = store.column_getter(eid)
            for i in range(1, store.sequence_count() + 1):
                got = column(i)
                want = store.get(i, eid)
                assert (got is None) == (want is None), (i, eid)
                answers[(i, eid)] = None if got is None else list(got)
                assert answers[(i, eid)] == (None if want is None else list(want))
        return answers

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("segment_bytes", [1, 256, 1 << 20])
    def test_getter_matches_get_on_ram_and_disk(self, tmp_path, seed, segment_bytes):
        ops = random_ops(random.Random(seed))
        ram = RamColumnStore()
        disk = DiskColumnStore(tmp_path / "db", segment_bytes=segment_bytes)
        try:
            apply_ops(ram, ops)
            apply_ops(disk, ops)
            assert self._getter_answers(disk) == self._getter_answers(ram)
            disk.seal()
            assert self._getter_answers(disk) == self._getter_answers(ram)
        finally:
            disk.close()

    @pytest.mark.parametrize("backend", ["ram", "disk-sealed", "disk-tail"])
    def test_occurrences_ascend_after_a_pair_opens_in_an_older_sequence(
        self, tmp_path, backend
    ):
        if backend == "ram":
            store: ColumnStore = RamColumnStore()
        else:
            segment_bytes = 1 if backend == "disk-sealed" else 1 << 20
            store = DiskColumnStore(tmp_path / "db", segment_bytes=segment_bytes)
        try:
            store.add_sequence({0: positions_array([1])})
            store.add_sequence({1: positions_array([1, 3])})
            store.add_sequence({1: positions_array([2])})
            store.append_position(1, 1, 5)  # event 1 first appears in S_1
            assert [(i, list(c)) for i, c in store.occurrences(1)] == [
                (1, [5]),
                (2, [1, 3]),
                (3, [2]),
            ]
            assert list(store.column_getter(1)(1)) == [5]
        finally:
            store.close()


# ----------------------------------------------------------------------
# Crash recovery (journal replay, torn records, reopen over segments)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("segment_bytes", [1, 200, 1 << 20])
    def test_reopen_after_crash_recovers_everything(self, tmp_path, seed, segment_bytes):
        """Flush, "crash" (abandon without close), reopen: no data lost."""
        ops = random_ops(random.Random(seed))
        ram = RamColumnStore()
        apply_ops(ram, ops)
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=segment_bytes)
        apply_ops(store, ops)
        store.flush()
        del store  # crash: no close(), no seal of the tail

        recovered = DiskColumnStore(directory, segment_bytes=segment_bytes)
        try:
            assert read_everything(recovered) == read_everything(ram)
        finally:
            recovered.close()

    def test_torn_final_record_is_dropped_silently(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=1 << 20)
        store.add_sequence({0: positions_array([1, 2])})
        store.append_position(1, 3, 5)
        store.flush()
        journal = directory / "tail.rdbj"
        # Cut into the last record's payload: a crash mid-append.
        data = journal.read_bytes()
        journal.write_bytes(data[:-4])
        del store

        recovered = DiskColumnStore(directory)
        try:
            assert list(recovered.get(1, 0)) == [1, 2]
            assert recovered.get(1, 3) is None  # the torn append never landed
        finally:
            recovered.close()

    def test_empty_trailing_sequences_survive_reopen(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory)
        store.add_sequence({0: positions_array([1])})
        store.add_sequence({})  # a sequence with no positions yet
        store.flush()
        del store
        recovered = DiskColumnStore(directory)
        try:
            assert recovered.sequence_count() == 2
        finally:
            recovered.close()

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("crash_at_seal", [1, 3])
    def test_crash_inside_seal_replays_without_duplicates(
        self, tmp_path, monkeypatch, seed, crash_at_seal
    ):
        """Die after the new segment landed but before the journal reset."""

        class Crash(Exception):
            pass

        seals = 0

        def crashing_reset(journal, *args):
            nonlocal seals
            seals += 1
            if seals == crash_at_seal:
                raise Crash

        monkeypatch.setattr(TailJournal, "reset", crashing_reset)
        ops = random_ops(random.Random(seed))
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=200)
        applied = 0
        with contextlib.suppress(Crash):
            for op in ops:
                applied += 1
                apply_ops(store, [op])
        assert seals == crash_at_seal, "the schedule never reached the crashing seal"
        store.flush()  # every journalled record reached the OS before the crash
        del store
        monkeypatch.undo()

        ram = RamColumnStore()
        apply_ops(ram, ops[:applied])
        recovered = DiskColumnStore(directory, segment_bytes=200)
        try:
            assert read_everything(recovered) == read_everything(ram)
        finally:
            recovered.close()

    def test_interrupted_journal_creation_reopens(self, tmp_path, monkeypatch):
        """Die after creating the journal file but before its header landed."""

        class Crash(Exception):
            pass

        def torn_write_bytes(path, data):
            path.touch()  # the file exists, its bytes never arrive
            raise Crash

        directory = tmp_path / "db"
        monkeypatch.setattr(Path, "write_bytes", torn_write_bytes)
        with pytest.raises(Crash):
            DiskColumnStore(directory)
        monkeypatch.undo()

        recovered = DiskColumnStore(directory)
        try:
            assert recovered.sequence_count() == 0
            recovered.add_sequence({0: positions_array([1, 2])})
            recovered.flush()
        finally:
            recovered.close()
        reopened = DiskColumnStore(directory)
        try:
            assert list(reopened.get(1, 0)) == [1, 2]
        finally:
            reopened.close()

    def test_sequence_count_survives_a_seal_then_crash(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory)
        store.add_sequence({0: positions_array([1])})
        store.add_sequence({})  # empty: lives only in the journal
        store.seal()  # resets the journal, re-records the count
        store.flush()
        del store
        recovered = DiskColumnStore(directory)
        try:
            assert recovered.sequence_count() == 2
            assert list(recovered.get(1, 0)) == [1]
        finally:
            recovered.close()

    @pytest.mark.parametrize("crash_at", ["count-record", "journal-write"])
    def test_crash_inside_seal_keeps_trailing_empty_sequences(
        self, tmp_path, monkeypatch, crash_at
    ):
        """Die inside the journal reset of a seal: the count still reopens.

        ``count-record`` fails any separate "re-record the count" append;
        ``journal-write`` fails the second file write of the seal (the
        segment is the first), so the journal is never replaced.
        """

        class Crash(Exception):
            pass

        directory = tmp_path / "db"
        store = DiskColumnStore(directory)
        store.add_sequence({0: positions_array([1])})
        store.add_sequence({})  # empty: lives only in the journal
        store.flush()
        if crash_at == "count-record":

            def crashing_record(journal, i):
                raise Crash

            monkeypatch.setattr(TailJournal, "record_new_sequence", crashing_record)
        else:
            writes = 0
            write_bytes = Path.write_bytes

            def crashing_write(path, data):
                nonlocal writes
                writes += 1
                if writes == 2:
                    raise Crash
                return write_bytes(path, data)

            monkeypatch.setattr(Path, "write_bytes", crashing_write)
        with contextlib.suppress(Crash):
            store.seal()
        if crash_at == "journal-write":
            assert writes == 2, "the seal never reached the journal write"
        del store
        monkeypatch.undo()
        recovered = DiskColumnStore(directory)
        try:
            assert recovered.sequence_count() == 2
            assert list(recovered.get(1, 0)) == [1]
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# Format failure paths
# ----------------------------------------------------------------------
class TestSegmentFormatErrors:
    def _write_valid_segment(self, path):
        write_segment(path, {1: {0: positions_array([1, 2, 3])}})
        return path

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "seg-00000000.rdbs"
        path.write_bytes(b"RDBS\x01")
        with pytest.raises(BackendFormatError, match="truncated segment header"):
            open_segment(path)

    def test_bad_magic(self, tmp_path):
        path = self._write_valid_segment(tmp_path / "seg-00000000.rdbs")
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BackendFormatError, match="bad magic"):
            open_segment(path)

    def test_unsupported_version(self, tmp_path):
        path = self._write_valid_segment(tmp_path / "seg-00000000.rdbs")
        data = bytearray(path.read_bytes())
        data[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(BackendFormatError, match="unsupported segment format version"):
            open_segment(path)

    def test_truncated_body(self, tmp_path):
        path = self._write_valid_segment(tmp_path / "seg-00000000.rdbs")
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(BackendFormatError, match="truncated or padded"):
            open_segment(path)

    def test_store_surfaces_corrupt_segments_on_reopen(self, tmp_path):
        directory = tmp_path / "db"
        store = DiskColumnStore(directory, segment_bytes=1)
        store.add_sequence({0: positions_array([1])})
        store.close()
        (path,) = directory.glob("seg-*.rdbs")
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(BackendFormatError):
            DiskColumnStore(directory)

    def test_magic_constants_are_stable(self, tmp_path):
        """The on-disk magic is a compatibility promise, not an implementation detail."""
        path = self._write_valid_segment(tmp_path / "seg-00000000.rdbs")
        assert path.read_bytes()[:4] == SEGMENT_MAGIC == b"RDBS"


class TestJournalFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "tail.rdbj"
        path.write_bytes(b"NOPE\x01\x00\x00\x00")
        with pytest.raises(BackendFormatError, match="bad magic"):
            list(TailJournal.replay(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tail.rdbj"
        path.write_bytes(b"RD")
        with pytest.raises(BackendFormatError, match="truncated journal header"):
            list(TailJournal.replay(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "tail.rdbj"
        journal = TailJournal(path)
        journal.close()
        data = bytearray(path.read_bytes())
        data[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(BackendFormatError, match="unsupported journal format version"):
            list(TailJournal.replay(path))

    def test_new_journal_writes_the_magic(self, tmp_path):
        path = tmp_path / "tail.rdbj"
        TailJournal(path).close()
        assert path.read_bytes()[:4] == JOURNAL_MAGIC == b"RDBJ"


# ----------------------------------------------------------------------
# The copying fallback (no mmap, or mapping refused)
# ----------------------------------------------------------------------
class TestMmapFallback:
    def test_without_mmap_segments_are_copies_counted_resident(self, tmp_path, no_mmap):
        store = DiskColumnStore(tmp_path / "db", segment_bytes=1)
        try:
            store.add_sequence({0: positions_array([1, 2, 3])})
            assert list(store.get(1, 0)) == [1, 2, 3]
            stats = store.memory_stats()
            assert stats["segments"] >= 1
            assert stats["mapped_bytes"] == 0
            assert stats["resident_bytes"] > 0
        finally:
            store.close()

    def test_missing_mmap_module_falls_back_to_copies(self, tmp_path, no_mmap):
        ops = random_ops(random.Random(9))
        ram = RamColumnStore()
        apply_ops(ram, ops)

        assert zero_copy_unavailable_reason() is not None
        store = DiskColumnStore(tmp_path / "db", segment_bytes=256)
        try:
            apply_ops(store, ops)
            assert read_everything(store) == read_everything(ram)
            assert store.memory_stats()["mapped_bytes"] == 0
        finally:
            store.close()

    def test_segment_written_with_mmap_reads_back_without_it(self, tmp_path, no_mmap):
        path = tmp_path / "seg-00000000.rdbs"
        write_segment(path, {1: {0: positions_array([1, 2, 3])}})
        segment = open_segment(path)
        try:
            assert not segment.is_zero_copy
            assert list(segment.get(1, 0)) == [1, 2, 3]
        finally:
            segment.close()


# ----------------------------------------------------------------------
# Index-level equivalence: the seam seen from above
# ----------------------------------------------------------------------
class TestIndexOverBackends:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_queries_match_across_backends(self, tmp_path, seed):
        rng = random.Random(seed)
        sequences = [
            "".join(rng.choice("abcdef") for _ in range(rng.randrange(3, 15)))
            for _ in range(20)
        ]
        database = SequenceDatabase(sequences)
        ram_index = InvertedEventIndex(database)
        disk_index = InvertedEventIndex(
            SequenceDatabase(sequences),
            backend="disk",
            backend_dir=str(tmp_path / "db"),
            segment_bytes=256,
        )
        try:
            assert disk_index.alphabet() == ram_index.alphabet()
            assert disk_index.frequent_events(2) == ram_index.frequent_events(2)
            for i in range(1, len(database) + 1):
                assert disk_index.events_in_sequence(i) == ram_index.events_in_sequence(i)
                for event in "abcdef":
                    assert disk_index.positions(i, event) == ram_index.positions(i, event)
                    for lowest in (0, 2, 50):
                        assert disk_index.next_position(
                            i, event, lowest
                        ) == ram_index.next_position(i, event, lowest)
            for event in "abcdef":
                assert disk_index.total_count(event) == ram_index.total_count(event)
                assert disk_index.size_one_instances(event) == ram_index.size_one_instances(event)
                disk_arrays = disk_index.size_one_arrays(event)
                ram_arrays = ram_index.size_one_arrays(event)
                assert [list(c) for c in disk_arrays] == [list(c) for c in ram_arrays]
        finally:
            disk_index.backend.close()
