"""The one int64 column-file codec, shared by every file the package writes.

The miner runs on flat integer columns: the inverted index's position
lists and the Section III-D compressed ``(i, l1, lm)`` instance triples.
Three modules put such columns on disk — binary pattern stores
(:mod:`repro.match.store`), index segments and the tail journal
(:mod:`repro.db.backend.layout`), and spilled support sets
(:mod:`repro.core.spill`) — and this module owns what they share:

* the column type: :data:`POSITION_TYPECODE` (signed 64-bit),
  :data:`ITEMSIZE` and the :data:`Column` alias;
* the codec: :func:`column_bytes` / :func:`column_from`, little-endian on
  every host;
* :func:`zero_copy_unavailable_reason`: why file bytes cannot be viewed in
  place as native columns here (no :mod:`mmap`, or a big-endian host);
* :func:`coerce_mmap_flag`: the ``"auto"``/``True``/``False`` check;
* :class:`ColumnFile`: a file held either as a read-only shared mapping or
  as a private copy, handing out the columns at given byte ranges;
* :func:`atomic_write`: a sibling temp file and a rename.

**Invariant: mapped ≡ copied, bytes unchanged.**  A mapped file hands out
``memoryview`` columns over the page cache and a copied one decoded
``array('q')`` columns with the same values, and no file format depends on
which path wrote or read it (``tests/db/test_golden_bytes.py`` pins every
format's bytes).  This is the only module in :mod:`repro` that imports
:mod:`mmap` (reprolint RL007) or looks at the host's byte order.
"""

from __future__ import annotations

import contextlib
import os
import sys
from array import array
from pathlib import Path
from typing import Any, Final, TypeAlias

#: The :mod:`mmap` module when importable, else ``None``: every file is then
#: read through the copying path.  Tests set it to ``None`` to stand in for
#: a host without :mod:`mmap`.
_mmap: Any
try:  # pragma: no cover - exercised via the monkeypatched fallback tests
    import mmap as _mmap_module

    _mmap = _mmap_module
except ImportError:  # pragma: no cover - platforms without mmap
    _mmap = None

#: Typecode of every position/row column (signed 64-bit).  This module is
#: the bottom of the storage stack, so it is the canonical definition;
#: :mod:`repro.db.backend` and :mod:`repro.db.index` re-export it.
POSITION_TYPECODE: Final = "q"

#: Bytes per column element (8 everywhere the package runs).
ITEMSIZE: Final = array(POSITION_TYPECODE).itemsize

#: A column of ``int64`` values: a materialised array or a zero-copy view.
#: (String form: ``memoryview[int]`` is not subscriptable at runtime on every
#: supported interpreter, and this alias is evaluated at import.)
Column: TypeAlias = "array[int] | memoryview[int]"

PathLike = str | Path

_LITTLE_ENDIAN = sys.byteorder == "little"


def column_bytes(column: Column) -> bytes:
    """Little-endian bytes of an ``int64`` column (array or memoryview)."""
    if _LITTLE_ENDIAN:
        return column.tobytes()
    swapped = array(POSITION_TYPECODE, column)
    swapped.byteswap()
    return swapped.tobytes()


def column_from(buffer: bytes | memoryview) -> array[int]:
    """An ``array('q')`` column decoded from little-endian bytes."""
    column = array(POSITION_TYPECODE)
    column.frombytes(buffer)
    if not _LITTLE_ENDIAN:
        column.byteswap()
    return column


def zero_copy_unavailable_reason() -> str | None:
    """Why this host cannot view file bytes as columns in place (``None`` if it can).

    A zero-copy column casts the file's little-endian bytes straight to
    native ``int64``, so it needs a working :mod:`mmap` module and a
    little-endian host; everywhere else :meth:`ColumnFile.open` reads a
    private copy instead.
    """
    if _mmap is None:
        return "the mmap module is unavailable on this platform"
    if not _LITTLE_ENDIAN:
        return "zero-copy stores require a little-endian host"
    return None


def coerce_mmap_flag(mmap: bool | str) -> bool | str:
    """Validate and normalise an ``mmap`` argument to ``"auto"``/``True``/``False``.

    ``0``/``1`` pass the equality-based membership check but would miss the
    identity-based dispatch (``mmap is False``), so non-``"auto"`` values
    are re-normalised through ``bool``.
    """
    if mmap not in ("auto", True, False):
        raise ValueError(f"mmap must be 'auto', True or False, got {mmap!r}")
    return mmap if mmap == "auto" else bool(mmap)


class ColumnFile:
    """A column file held as a read-only shared mapping or as a private copy.

    :attr:`data` is a ``memoryview`` of the whole file either way, for the
    format's own header parsing; :meth:`column` hands out the ``int64``
    column stored at a byte range.  ``ACCESS_READ`` maps the file shared,
    so bytes rewritten in place on the same inode (a pattern store's
    supports patch) show through the views already handed out.
    """

    __slots__ = ("data", "_mapping")

    def __init__(self, data: memoryview, mapping: Any = None) -> None:
        self.data = data
        self._mapping = mapping

    @classmethod
    def open(cls, path: PathLike, *, mmap: bool | str = "auto") -> ColumnFile:
        """Map ``path`` read-only, or read a private copy of it.

        ``mmap`` is ``"auto"`` (map when the host and the file allow, copy
        otherwise), ``True`` (map, or raise :class:`ValueError` with the
        reason) or ``False`` (always copy).  A missing file raises
        :class:`FileNotFoundError` whatever the flag.
        """
        mmap = coerce_mmap_flag(mmap)
        if mmap is not False:
            reason = zero_copy_unavailable_reason()
            if reason is None:
                try:
                    with open(path, "rb") as handle:
                        mapping = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
                except FileNotFoundError:
                    raise
                except (OSError, ValueError) as exc:
                    # Unmappable: an empty or special file, or a filesystem
                    # whose mmap fails.
                    if mmap is True:
                        raise ValueError(f"cannot memory-map {path}: {exc}") from exc
                else:
                    return cls(memoryview(mapping), mapping)
            if mmap is True:
                raise ValueError(f"cannot memory-map {path}: {reason}")
        with open(path, "rb") as handle:
            return cls(memoryview(handle.read()))

    @property
    def is_zero_copy(self) -> bool:
        """True while the file is mapped (its columns are views into the mapping)."""
        return self._mapping is not None

    def column(self, start: int, stop: int) -> Column:
        """The ``int64`` column stored at bytes ``[start, stop)``."""
        if self._mapping is not None:
            return self.data[start:stop].cast(POSITION_TYPECODE)
        return column_from(self.data[start:stop])

    def close(self) -> None:
        """Release the mapping, best effort (a copy ignores the call).

        Closing a mapping while column views are still reachable — e.g.
        pinned by an in-flight exception traceback — raises ``BufferError``
        inside :mod:`mmap`; the mapping then closes when the last view is
        garbage-collected, so the error is swallowed here.
        """
        mapping, self._mapping = self._mapping, None
        if mapping is not None:
            self.data.release()
            with contextlib.suppress(BufferError):
                mapping.close()


def atomic_write(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` through a sibling temp file and a rename.

    A concurrent reader, or a process reopening after a crash, sees either
    the old file (or none) or the whole new one, never a torn write.
    """
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(data)
    os.replace(staging, path)
    return path
