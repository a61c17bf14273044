"""Golden bytes: every column-file format is pinned to a fixed digest.

Each test builds one file kind from fixed inputs and compares the file's
sha256 with a pinned constant: an index segment, a tail journal, a whole
disk-store directory (seals, overlays and the post-seal journal together),
a binary pattern store and its JSON sibling.  The determinism tests
elsewhere only compare two writes of one build; these catch a refactor
that changes the bytes a new build writes.  A format change must bump the
file's version field and update the digest here in the same change.
"""

from __future__ import annotations

import hashlib
from array import array

from repro.core.pattern import Pattern
from repro.db.backend.disk import DiskColumnStore
from repro.db.backend.layout import TailJournal, write_segment
from repro.match.store import PatternStore

Q = "q"

SEGMENT_SHA256 = "77965b018993b9aee23c557d1204a705ae81598688ab577fee463110d9878f40"
JOURNAL_SHA256 = "613c7b25c5a88ce84d96f786ca6b4827d74d5091c81181a2a92a52caeaa80ed6"
DISK_STORE_SHA256 = {
    "seg-00000000.rdbs": "c5874ce02ed5c5c16ba649716dc03df3c1cb91416f0e02ca0f7eaff9c32390dc",
    "seg-00000001.rdbs": "1ca1deda80b0af2aab94514258a232ba27d12d24b0646ad7a9c07df2f5d199ea",
    "seg-00000002.rdbs": "9c5041fc7ca0a0ebdfde0cea7c2dae47f63192e691415880fb2bd37326081565",
    "seg-00000003.rdbs": "9d5d2f425c12f168011911703205d3c0d8bf8c0b13a2975b0b2a0257ac755081",
    "tail.rdbj": "33b917532f9aaf7991e6a19a8bec389823c363d1b8af405049bb9ceedfc64485",
}
BINARY_STORE_SHA256 = "e4a863d8f0898b7b627535c38ae8b1db306a57bc9508eb8c7776b654f818d756"
JSON_STORE_SHA256 = "deffc78e4d93257f83107fccb3e51554d5fa572a9cb5ac17ea603f7a5e354e62"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_store() -> PatternStore:
    """Mixed str/int events, a non-ASCII event, metadata and a large support."""
    return PatternStore(
        [
            (Pattern(("A", "B")), 3),
            (Pattern(("é", "B", "A")), 2),
            (Pattern((7, 11, 7)), 5),
            (Pattern(("B",)), 2**40),
        ],
        min_sup=2,
        algorithm="CloGSgrow",
        metadata={"origin": "golden", "window_sequences": 4},
    )


def test_segment_bytes(tmp_path):
    path = tmp_path / "seg-00000000.rdbs"
    tail = {
        3: {1: array(Q, [4]), 0: array(Q, [2, 2**33 + 1])},
        1: {2: array(Q, [5, 9]), 0: array(Q, [1, 2, 3])},
        2: {0: array(Q, [7, 8]), 5: array(Q)},
    }
    write_segment(path, tail)
    assert sha256(path) == SEGMENT_SHA256


def test_tail_journal_bytes(tmp_path):
    path = tmp_path / "tail.rdbj"
    journal = TailJournal(path)
    journal.record_new_sequence(1)
    journal.record_positions(1, 0, array(Q, [1, 2, 3]))
    journal.record_new_sequence(2)
    journal.record_positions(2, 4, array(Q, [10, 2**40]))
    journal.record_positions(1, 0, array(Q, [7]))
    journal.close()
    assert sha256(path) == JOURNAL_SHA256


def test_disk_store_directory_bytes(tmp_path):
    directory = tmp_path / "db"
    store = DiskColumnStore(directory, segment_bytes=480)
    for i in range(1, 13):
        store.add_sequence(
            {eid: array(Q, range(eid + 1, eid + 1 + 3 * (i % 3 + 1), 3)) for eid in range(i % 4)}
        )
        if i > 2:
            store.append_position(i - 2, 0, 100 + i)
    store.add_sequence({})
    store.close()
    digests = {path.name: sha256(path) for path in sorted(directory.iterdir())}
    assert digests == DISK_STORE_SHA256


def test_binary_store_bytes(tmp_path):
    path = golden_store().save(tmp_path / "golden.rps")
    assert sha256(path) == BINARY_STORE_SHA256


def test_json_store_bytes(tmp_path):
    path = golden_store().save_json(tmp_path / "golden.json")
    assert sha256(path) == JSON_STORE_SHA256
