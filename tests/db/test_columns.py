"""The shared column-file codec: mapped ≡ copied, close, and the atomic write."""

from __future__ import annotations

from array import array

import pytest

from repro.db.columns import ITEMSIZE, POSITION_TYPECODE, ColumnFile, atomic_write, column_bytes

#: Negative and extreme values: no file format writes these today, so only
#: this suite checks that both read paths agree on them.
VALUES = [[0, 1, -1], [2**62, -(2**63)], [], [7]]


@pytest.fixture
def column_file(tmp_path):
    path = tmp_path / "columns.bin"
    path.write_bytes(b"".join(column_bytes(array(POSITION_TYPECODE, v)) for v in VALUES))
    return path


def read_columns(source: ColumnFile) -> list[list[int]]:
    columns, start = [], 0
    for values in VALUES:
        stop = start + len(values) * ITEMSIZE
        columns.append(list(source.column(start, stop)))
        start = stop
    return columns


def test_mapped_and_copied_files_read_the_same_columns(column_file):
    mapped = ColumnFile.open(column_file)
    copied = ColumnFile.open(column_file, mmap=False)
    assert mapped.is_zero_copy and not copied.is_zero_copy
    assert isinstance(mapped.column(0, ITEMSIZE), memoryview)
    assert isinstance(copied.column(0, ITEMSIZE), array)
    assert read_columns(mapped) == read_columns(copied) == VALUES
    mapped.close()


def test_close_with_a_live_view_keeps_the_view_readable(column_file):
    mapped = ColumnFile.open(column_file)
    view = mapped.column(0, 3 * ITEMSIZE)
    mapped.close()  # the mapping stays open until the view is collected
    mapped.close()
    assert not mapped.is_zero_copy
    assert list(view) == VALUES[0]


def test_atomic_write_replaces_and_leaves_no_staging_file(tmp_path):
    path = tmp_path / "file.bin"
    path.write_bytes(b"old")
    assert atomic_write(path, b"new") == path
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]
