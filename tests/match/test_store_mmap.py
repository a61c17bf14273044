"""Zero-copy (mmap-backed) pattern-store loads, delta patching and fallbacks."""

import os

import pytest

from repro.core.clogsgrow import mine_closed
from repro.core.pattern import Pattern
from repro.db import columns
from repro.db.columns import ITEMSIZE
from repro.match import store as store_module
from repro.match.store import FORMAT_VERSION, MAGIC, PatternStore, load_patterns
from repro.stream.miner import StreamMiner


@pytest.fixture
def mined_store(example11) -> PatternStore:
    return PatternStore.from_result(mine_closed(example11, 2), metadata={"origin": "test"})


@pytest.fixture
def store_file(mined_store, tmp_path):
    return mined_store.save(tmp_path / "patterns.rps")


class TestZeroCopyOpen:
    def test_open_is_zero_copy_and_equal(self, mined_store, store_file):
        opened = PatternStore.open(store_file)
        assert opened.is_zero_copy
        assert not mined_store.is_zero_copy
        assert opened == mined_store
        assert opened.supports() == mined_store.supports()
        assert opened.metadata == {"origin": "test"}

    def test_open_save_is_identity_on_bytes(self, mined_store, store_file):
        opened = PatternStore.open(store_file)
        assert opened.to_bytes() == mined_store.to_bytes()

    def test_patterns_are_lazy(self, store_file):
        opened = PatternStore.open(store_file)
        assert opened._patterns is None
        assert len(opened) > 0  # length needs no patterns
        _ = opened.pattern_at(0)
        assert opened._patterns is not None

    def test_load_patterns_mmap_sniffing(self, mined_store, store_file, tmp_path):
        assert load_patterns(store_file, mmap="auto").is_zero_copy
        assert not load_patterns(store_file).is_zero_copy
        as_json = mined_store.save_json(tmp_path / "patterns.json")
        assert load_patterns(as_json, mmap="auto") == mined_store
        with pytest.raises(ValueError, match="cannot be memory-mapped"):
            load_patterns(as_json, mmap=True)

    def test_close_releases_the_mapping(self, store_file):
        opened = PatternStore.open(store_file)
        patterns = opened.patterns()
        opened.close()
        assert not opened.is_zero_copy
        assert patterns  # materialised patterns outlive the mapping

    def test_automaton_matches_from_mapped_store(self, mined_store, store_file, example11):
        opened = PatternStore.open(store_file)
        shared = opened.automaton().match(example11).supports()
        assert shared == mined_store.automaton().match(example11).supports()

    def test_invalid_mmap_argument(self, store_file):
        with pytest.raises(ValueError, match="mmap must be"):
            PatternStore.open(store_file, mmap="yes please")


class TestFallbacks:
    def test_auto_falls_back_when_mmap_module_missing(self, store_file, no_mmap):
        opened = PatternStore.open(store_file)
        assert not opened.is_zero_copy
        assert opened == PatternStore.load(store_file)

    def test_strict_mmap_raises_when_module_missing(self, store_file, no_mmap):
        with pytest.raises(ValueError, match="mmap module is unavailable"):
            PatternStore.open(store_file, mmap=True)

    def test_auto_falls_back_on_platform_reason(self, store_file, monkeypatch):
        monkeypatch.setattr(columns, "zero_copy_unavailable_reason", lambda: "test says no")
        assert not PatternStore.open(store_file).is_zero_copy
        with pytest.raises(ValueError, match="test says no"):
            PatternStore.open(store_file, mmap=True)

    def test_mmap_false_is_the_copy_path(self, store_file):
        assert not PatternStore.open(store_file, mmap=False).is_zero_copy

    def test_truthy_ints_normalise_to_the_right_path(self, store_file):
        assert not PatternStore.open(store_file, mmap=0).is_zero_copy
        assert PatternStore.open(store_file, mmap=1).is_zero_copy

    def test_strict_mmap_refuses_unmappable_file(self, tmp_path):
        # mmap cannot map an empty file; a *required* mapping must raise
        # rather than silently degrade to a private copy.
        path = tmp_path / "empty.rps"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="cannot memory-map"):
            PatternStore.open(path, mmap=True)


class TestFailurePaths:
    """Corrupt files raise the same clear errors through both read paths."""

    @pytest.fixture(params=["copy", "mmap"])
    def opener(self, request):
        if request.param == "copy":
            return PatternStore.load
        return lambda path: PatternStore.open(path, mmap=True)

    def test_truncated_file(self, mined_store, tmp_path, opener):
        blob = mined_store.to_bytes()
        path = tmp_path / "truncated.rps"
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(ValueError, match="truncated|trailing"):
            opener(path)

    def test_truncated_header(self, tmp_path, opener):
        path = tmp_path / "header.rps"
        path.write_bytes(MAGIC[:2])
        with pytest.raises(ValueError, match="truncated pattern store"):
            opener(path)

    def test_bad_magic(self, tmp_path, opener):
        path = tmp_path / "magic.rps"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a binary pattern store"):
            opener(path)

    def test_unsupported_version(self, mined_store, tmp_path, opener):
        blob = bytearray(mined_store.to_bytes())
        blob[4] = FORMAT_VERSION + 1
        path = tmp_path / "version.rps"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported pattern-store version"):
            opener(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rps"
        path.write_bytes(b"")
        # mmap cannot map an empty file; open() falls back to the copying
        # reader, which reports the real problem.
        with pytest.raises(ValueError, match="truncated pattern store"):
            PatternStore.open(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PatternStore.open(tmp_path / "nope.rps")

    def test_negative_support_rejected(self, tmp_path, opener):
        store = PatternStore([(Pattern(("A", "B")), 3)], min_sup=1)
        blob = bytearray(store.to_bytes())
        blob[-8:] = (-5).to_bytes(8, "little", signed=True)
        path = tmp_path / "neg.rps"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="negative support"):
            opener(path)

    def test_corrupt_event_id_through_both_readers(self, tmp_path):
        store = PatternStore([(Pattern(("A", "B")), 3), (Pattern(("B",)), 2)], min_sup=1)
        blob = bytearray(store.to_bytes())
        events_offset = (
            len(blob) - len(store._supports) * ITEMSIZE - len(store._events) * ITEMSIZE
        )
        blob[events_offset : events_offset + ITEMSIZE] = (99).to_bytes(
            ITEMSIZE, "little", signed=True
        )
        path = tmp_path / "eid.rps"
        path.write_bytes(bytes(blob))
        # The copying reader validates event ids eagerly at load...
        with pytest.raises(ValueError, match="event id outside alphabet"):
            PatternStore.load(path)
        # ...the zero-copy opener defers the O(events) scan to pattern
        # materialisation, where the same clear error surfaces.
        opened = PatternStore.open(path, mmap=True)
        with pytest.raises(ValueError, match="event id outside alphabet"):
            opened.patterns()

    def test_json_unsupported_version(self, mined_store, tmp_path):
        # The JSON sibling rejects future versions exactly like the binary.
        import json

        data = mined_store.to_json()
        data["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported pattern-store version"):
            PatternStore.from_json(data)
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unsupported pattern-store version"):
            load_patterns(path)

    def test_corrupt_header_rejected(self, mined_store, tmp_path, opener):
        # Splice a non-object header JSON blob into an otherwise valid store.
        import struct

        blob = mined_store.to_bytes()
        old_header_len = struct.unpack_from("<I", blob, 8)[0]
        bad_header = b"[1,2]"
        patched = (
            blob[:8]
            + struct.pack("<I", len(bad_header))
            + bad_header
            + blob[12 + old_header_len :]
        )
        path = tmp_path / "header.rps"
        path.write_bytes(patched)
        with pytest.raises(ValueError, match="header is not a JSON object"):
            opener(path)

    def test_corrupt_alphabet_rejected(self, tmp_path, opener):
        # Handcraft a store whose alphabet table holds a non-str/int entry.
        import json
        import struct

        header = store_module._dumps({"min_sup": 1, "algorithm": None, "metadata": {}})
        alphabet = json.dumps([["not", "a", "scalar"]]).encode()
        blob = (
            struct.pack("<4sI", MAGIC, FORMAT_VERSION)
            + struct.pack("<I", len(header))
            + header
            + struct.pack("<I", len(alphabet))
            + alphabet
            + struct.pack("<Q", 0)
            + struct.pack("<Q", 0)
            + (0).to_bytes(8, "little")  # the single offsets entry
        )
        path = tmp_path / "alphabet.rps"
        path.write_bytes(blob)
        with pytest.raises(TypeError, match="str or int events"):
            opener(path)


class TestSupportsPatching:
    def test_patch_rewrites_only_supports(self, mined_store, store_file):
        before = store_file.read_bytes()
        bumped = PatternStore(
            [(p, s + 7) for p, s in mined_store.entries()],
            min_sup=mined_store.min_sup,
            algorithm=mined_store.algorithm,
            metadata=mined_store.metadata,
        )
        assert bumped.patch_file_supports(store_file)
        after = store_file.read_bytes()
        assert after == bumped.to_bytes()
        prefix = len(before) - 8 * len(mined_store)
        assert after[:prefix] == before[:prefix]

    def test_patch_refuses_layout_changes(self, mined_store, store_file):
        other = PatternStore([(Pattern(("X", "Y")), 1)])
        assert not other.patch_file_supports(store_file)
        changed_meta = PatternStore(
            list(mined_store.entries()),
            min_sup=mined_store.min_sup,
            algorithm=mined_store.algorithm,
            metadata={"origin": "elsewhere"},
        )
        assert not changed_meta.patch_file_supports(store_file)

    def test_patch_refuses_missing_file(self, mined_store, tmp_path):
        assert not mined_store.patch_file_supports(tmp_path / "absent.rps")

    def test_patch_always_advances_mtime(self, mined_store, store_file):
        """Copy-path pollers key freshness on (inode, mtime, size); a patch
        landing within one filesystem timestamp tick of the previous publish
        must still be observable, so every writing patch bumps mtime."""
        before = store_file.stat().st_mtime_ns
        bumped = PatternStore(
            [(p, s + 1) for p, s in mined_store.entries()],
            min_sup=mined_store.min_sup,
            algorithm=mined_store.algorithm,
            metadata=mined_store.metadata,
        )
        assert bumped.patch_file_supports(store_file)
        after = store_file.stat().st_mtime_ns
        assert after > before
        # A no-op patch (identical bytes) writes nothing and may keep mtime.
        assert bumped.patch_file_supports(store_file)

    def test_mapped_reader_sees_patched_supports(self, mined_store, store_file):
        reader = PatternStore.open(store_file)
        if not reader.is_zero_copy:
            pytest.skip("platform cannot memory-map")
        old = list(reader._supports)
        bumped = PatternStore(
            [(p, s + 1) for p, s in mined_store.entries()],
            min_sup=mined_store.min_sup,
            algorithm=mined_store.algorithm,
            metadata=mined_store.metadata,
        )
        assert bumped.patch_file_supports(store_file)
        assert list(reader._supports) == [s + 1 for s in old]


class TestApplyUpdateAndAdoption:
    def test_adopt_automaton_requires_identical_patterns(self, mined_store, store_file):
        compiled = mined_store.automaton()
        reloaded = PatternStore.open(store_file)
        assert reloaded.adopt_automaton(mined_store)
        assert reloaded.automaton() is compiled
        other = PatternStore([(Pattern(("X",)), 1)])
        assert not other.adopt_automaton(mined_store)

    def test_adopt_automaton_needs_a_compiled_source(self, mined_store, store_file):
        fresh = PatternStore.open(store_file)
        assert not fresh.adopt_automaton(PatternStore.load(store_file))

    def test_apply_update_supports_only_keeps_the_store(self):
        # A sliding window over pure-A sequences: ["AA", "AA"] and then
        # ["AAA", "AA"] share the closed set {A, AA} with different supports.
        miner = StreamMiner(2, shard_size=2, window=2)
        miner.append_many(["AA", "AA"])
        store = miner.refresh().to_store()
        compiled = store.automaton()
        miner.append_many(["AAA", "AA"])
        second = miner.refresh()
        assert [mp.pattern for mp in second.result] == store.patterns()
        updated = store.apply_update(second)
        assert updated is store
        assert updated.automaton() is compiled
        assert list(updated._supports) == [mp.support for mp in second.result]

    def test_apply_update_pattern_change_builds_fresh_store(self):
        miner = StreamMiner(2, shard_size=2, window=2)
        miner.append_many(["AA", "AA"])
        store = miner.refresh().to_store()
        compiled = store.automaton()
        miner.append_many(["XYXY", "XYXY"])
        update = miner.refresh()
        fresh = store.apply_update(update)
        assert fresh is not store
        assert fresh.supports() == {mp.pattern: mp.support for mp in update.result}
        # The pattern set changed, so the old automaton cannot be reused.
        assert getattr(fresh, "_automaton", None) is not compiled


class TestStreamMinerPublishing:
    def test_supports_only_refresh_patches_in_place(self, tmp_path):
        path = tmp_path / "stream.rps"
        miner = StreamMiner(2, shard_size=2, window=2, store_path=path)
        miner.append_many(["AA", "AA"])
        miner.refresh()
        assert miner.stats.store_saves == 1
        assert miner.stats.store_patches == 0
        first = path.read_bytes()
        # The window slides to ["AAA", "AA"]: same closed set {A, AA},
        # different supports — the steady-state republish shape.
        miner.append_many(["AAA", "AA"])
        miner.refresh()
        assert miner.stats.store_patches == 1
        assert miner.stats.store_saves == 1
        second = path.read_bytes()
        assert first != second
        assert load_patterns(path).patterns() == PatternStore.from_bytes(first).patterns()
        assert [s for _, s in load_patterns(path).entries()] == [5, 3]

    def test_pattern_change_falls_back_to_full_save(self, tmp_path):
        path = tmp_path / "stream.rps"
        miner = StreamMiner(2, shard_size=2, window=2, store_path=path)
        miner.append_many(["AA", "AA"])
        miner.refresh()
        miner.append_many(["XYXY", "XYXY"])
        miner.refresh()
        assert miner.stats.store_saves == 2
        assert miner.stats.store_patches == 0
        assert {str(p) for p in load_patterns(path).patterns()} >= {"XY"}

    def test_json_store_path_always_saves(self, tmp_path):
        path = tmp_path / "stream.json"
        miner = StreamMiner(2, shard_size=2, window=2, store_path=path)
        miner.append_many(["AA", "AA"])
        miner.refresh()
        miner.append_many(["AAA", "AA"])
        miner.refresh()
        assert miner.stats.store_saves == 2
        assert miner.stats.store_patches == 0
