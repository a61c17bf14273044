"""Persistent pattern stores — the artifact one mine hands to N matchers.

A :class:`MiningResult` dies with the process that mined it.  The serving
workload needs the opposite lifecycle: mine once, persist, then load the
pattern set cheaply in many worker processes and compile it into a
:class:`~repro.match.automaton.PatternAutomaton`.  :class:`PatternStore` is
that on-disk artifact, in two sibling encodings:

* **Binary** (:meth:`PatternStore.save` / :meth:`PatternStore.load`) — a
  versioned, columnar layout: a JSON metadata blob, a JSON alphabet table
  (event id -> event), and three flat little-endian ``int64`` columns
  (per-pattern offsets, concatenated pattern events as alphabet ids, and
  supports).  Every byte is deterministic for a given store content —
  saving the same store twice, or saving a loaded store from another
  process, produces identical files — so artifact diffing and
  content-addressed caching work on the raw bytes.
* **JSON** (:meth:`PatternStore.save_json` / :meth:`PatternStore.load_json`)
  — a human-readable sibling wrapping
  :meth:`repro.core.results.MiningResult.to_json`, for eyeballing and for
  toolchains that cannot read the binary format.

Binary stores additionally support a **zero-copy** read path
(:meth:`PatternStore.open`): the file is memory-mapped read-only and the
three ``int64`` columns become ``memoryview`` s over the shared mapping, so
N worker processes on one host share one physical copy of the column data
(the OS page cache) instead of each holding a private decoded copy.
Patterns are materialised lazily, on first access.  When the platform
cannot map (no :mod:`mmap` module, a big-endian host, an unmappable file)
the open falls back to the copying read path, so callers never branch.
The column codec, the mapping and the atomic write are
:mod:`repro.db.columns`, shared with the index segments and spill files;
both read paths go through one decoder.

:func:`load_patterns` sniffs the magic bytes and dispatches to whichever
decoder matches, so callers never care which encoding a file uses.

Events are restricted to strings and integers (the JSON alphabet table must
round-trip them losslessly and byte-stably); arbitrary hashable events from
in-memory mining are rejected at store-build time with a clear error.
"""

from __future__ import annotations

import json
import os
import struct
import time
from array import array
from collections.abc import Iterable, Iterator
from itertools import pairwise
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.pattern import Pattern, as_pattern
from repro.core.results import MinedPattern, MiningResult
from repro.db.columns import (
    ITEMSIZE,
    POSITION_TYPECODE,
    Column,
    ColumnFile,
    PathLike,
    atomic_write,
    coerce_mmap_flag,
    column_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids hard cross-package deps
    from repro.match.automaton import PatternAutomaton
    from repro.stream.miner import StreamUpdate

#: Magic bytes opening every binary store file.
MAGIC = b"RPST"

#: Current binary format version (bump on any layout change).
FORMAT_VERSION = 1

#: ``format`` field of the JSON sibling encoding.
JSON_FORMAT = "repro.match.pattern-store"

_HEADER = struct.Struct("<4sI")  # magic, version
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _dumps(data: Any) -> bytes:
    """Deterministic JSON bytes (sorted keys, fixed separators, raw UTF-8)."""
    return json.dumps(
        data, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode()


def _check_event(event: object) -> None:
    if isinstance(event, bool) or not isinstance(event, (str, int)):
        raise TypeError(
            "pattern stores persist str or int events, got "
            f"{type(event).__name__} ({event!r}); map events to stable "
            "identifiers before storing"
        )


def _parse_store(view: memoryview) -> tuple[dict[str, Any], list[Any], list[int]]:
    """Split a binary store's bytes into header, alphabet and column bounds.

    Returns ``(header, alphabet, bounds)`` where ``bounds`` holds the four
    byte offsets around the offsets, events and supports columns (not yet
    decoded).  Raises :class:`ValueError` with a clear message on truncated
    or corrupt input.
    """
    if len(view) < _HEADER.size:
        raise ValueError("truncated pattern store (missing header)")
    magic, version = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ValueError(
            f"not a binary pattern store (magic {magic!r}, expected {MAGIC!r})"
        )
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported pattern-store version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    cursor = _HEADER.size

    def take(count: int) -> memoryview:
        """Consume ``count`` bytes at the cursor, or fail as truncated."""
        nonlocal cursor
        if cursor + count > len(view):
            raise ValueError("truncated pattern store")
        chunk = view[cursor : cursor + count]
        cursor += count
        return chunk

    header = json.loads(bytes(take(_U32.unpack(take(_U32.size))[0])))
    if not isinstance(header, dict):
        raise ValueError("corrupt pattern store (header is not a JSON object)")
    alphabet = json.loads(bytes(take(_U32.unpack(take(_U32.size))[0])))
    if not isinstance(alphabet, list):
        raise ValueError("corrupt pattern store (alphabet table is not a list)")
    for event in alphabet:
        _check_event(event)
    n_patterns = _U64.unpack(take(_U64.size))[0]
    n_events = _U64.unpack(take(_U64.size))[0]
    bounds = [cursor]
    for count in (n_patterns + 1, n_events, n_patterns):
        take(count * ITEMSIZE)
        bounds.append(cursor)
    if cursor != len(view):
        raise ValueError("trailing bytes after pattern store payload")
    return header, alphabet, bounds


def _validate_columns(
    offsets: Column,
    events: Column,
    supports: Column,
    alphabet: list[Any],
    *,
    check_events: bool = True,
) -> None:
    """Check decoded columns for internal consistency (clear errors on corruption).

    Offset ordering and support signs are always checked (O(patterns),
    cheap).  The per-event alphabet-range scan is O(events) interpreted
    Python and pages in the whole events column, so the zero-copy opener
    passes ``check_events=False`` and the same check runs lazily when
    patterns are first materialised (:meth:`PatternStore._pattern_list`) —
    still before any corrupt id can leak into an automaton or a report.
    """
    n_events = len(events)
    previous = 0
    for offset in offsets:
        if not previous <= offset <= n_events:
            raise ValueError("corrupt pattern store (offset column out of order)")
        previous = offset
    if offsets[0] != 0 or offsets[-1] != n_events:
        raise ValueError("corrupt pattern store (offset column out of order)")
    if any(support < 0 for support in supports):
        raise ValueError("corrupt pattern store (negative support)")
    if check_events:
        limit = len(alphabet)
        if any(aid < 0 or aid >= limit for aid in events):
            raise ValueError("corrupt pattern store (event id outside alphabet)")


class PatternStore:
    """A persistable pattern set with supports and metadata.

    Stores are read-only in normal use; the one sanctioned mutation is
    :meth:`apply_update`, which swaps the supports column in place when a
    stream refresh changed nothing else.

    Parameters
    ----------
    entries:
        ``(pattern, support)`` pairs in the order the store should keep
        (a mining result's discovery order, usually).
    min_sup, algorithm:
        The mining metadata, surfaced on :meth:`to_result`.
    metadata:
        Optional extra key/value metadata (JSON-serialisable values); stored
        verbatim in both encodings.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Pattern | str | tuple[Any, ...], int]] = (),
        *,
        min_sup: int | None = None,
        algorithm: str | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        alphabet_ids: dict[object, int] = {}
        alphabet: list[object] = []
        offsets = array(POSITION_TYPECODE, [0])
        events = array(POSITION_TYPECODE)
        supports = array(POSITION_TYPECODE)
        patterns: list[Pattern] = []
        for pattern, support in entries:
            pattern = as_pattern(pattern)
            if support < 0:
                raise ValueError(f"support must be non-negative, got {support}")
            for event in pattern:
                _check_event(event)
                aid = alphabet_ids.get(event)
                if aid is None:
                    aid = alphabet_ids[event] = len(alphabet)
                    alphabet.append(event)
                events.append(aid)
            offsets.append(len(events))
            supports.append(support)
            patterns.append(pattern)
        self._alphabet = alphabet
        self._offsets: Column = offsets
        self._events: Column = events
        self._supports: Column = supports
        self._patterns: list[Pattern] | None = patterns
        self._source: ColumnFile | None = None
        self.min_sup = min_sup
        self.algorithm = algorithm
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls, result: MiningResult, *, metadata: dict | None = None
    ) -> PatternStore:
        """Build a store from a mining result (order and metadata preserved)."""
        return cls(
            ((mp.pattern, mp.support) for mp in result),
            min_sup=result.min_sup,
            algorithm=result.algorithm,
            metadata=metadata,
        )

    def to_result(self) -> MiningResult:
        """The store's contents as a :class:`MiningResult`."""
        return MiningResult(
            (MinedPattern(pattern=p, support=s) for p, s in self.entries()),
            min_sup=self.min_sup,
            algorithm=self.algorithm,
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _pattern_list(self) -> list[Pattern]:
        """The materialised pattern list (decoded from the columns on demand).

        Also the deferred half of column validation for zero-copy stores:
        event ids are bounds-checked here (the opener skips the eager
        O(events) scan), so a corrupt id still surfaces as the clear
        ``ValueError`` before any pattern reaches a caller.
        """
        if self._patterns is None:
            alphabet = self._alphabet
            limit = len(alphabet)
            events = self._events
            offsets = self._offsets
            patterns = []
            for k in range(len(self._supports)):
                decoded = []
                for aid in events[offsets[k] : offsets[k + 1]]:
                    if not 0 <= aid < limit:
                        raise ValueError(
                            "corrupt pattern store (event id outside alphabet)"
                        )
                    decoded.append(alphabet[aid])
                patterns.append(Pattern(decoded))
            self._patterns = patterns
        return self._patterns

    def __len__(self) -> int:
        return len(self._supports)

    def pattern_at(self, index: int) -> Pattern:
        """The pattern in slot ``index`` (0-based store order)."""
        return self._pattern_list()[index]

    def support_at(self, index: int) -> int:
        """The mined support recorded for slot ``index``."""
        return self._supports[index]

    def patterns(self) -> list[Pattern]:
        """All patterns in store order."""
        return list(self._pattern_list())

    def entries(self) -> Iterator[tuple[Pattern, int]]:
        """``(pattern, support)`` pairs in store order."""
        return zip(self._pattern_list(), self._supports, strict=False)

    def supports(self) -> dict[Pattern, int]:
        """Mapping pattern -> mined support."""
        return dict(self.entries())

    def alphabet(self) -> list[object]:
        """The event table in id order (first-seen over the pattern column)."""
        return list(self._alphabet)

    @property
    def is_zero_copy(self) -> bool:
        """True when the columns are views over a shared read-only mapping."""
        return self._source is not None

    def close(self) -> None:
        """Release a zero-copy store's shared mapping (no-op otherwise).

        After ``close()`` the store's columns are gone and the store must not
        be used again; patterns already materialised elsewhere stay valid.
        Copy-backed stores ignore the call.  Garbage collection releases the
        mapping anyway — ``close`` just makes the release deterministic.
        """
        source = self._source
        if source is None:
            return
        self._source = None
        self._offsets = self._events = self._supports = None  # type: ignore[assignment]
        source.close()

    def __iter__(self) -> Iterator[MinedPattern]:
        return (MinedPattern(pattern=p, support=s) for p, s in self.entries())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PatternStore):
            return (
                self._pattern_list() == other._pattern_list()
                and list(self._supports) == list(other._supports)
                and self.min_sup == other.min_sup
                and self.algorithm == other.algorithm
                and self.metadata == other.metadata
            )
        return NotImplemented

    def __repr__(self) -> str:
        label = f" by {self.algorithm}" if self.algorithm else ""
        return (
            f"<PatternStore{label}: {len(self)} patterns, "
            f"alphabet {len(self._alphabet)}>"
        )

    def automaton(self) -> PatternAutomaton:
        """The store compiled into a shared matching automaton (cached)."""
        cached = getattr(self, "_automaton", None)
        if cached is None:
            from repro.match.automaton import PatternAutomaton

            cached = self._automaton = PatternAutomaton(self._pattern_list())
        return cached

    def adopt_automaton(self, other: PatternStore) -> bool:
        """Reuse ``other``'s compiled automaton when the pattern sets match.

        The automaton depends only on the patterns, not on supports or
        metadata, so a store reloaded after a supports-only republish can
        keep serving through the previous store's compiled tables instead of
        recompiling.  Returns ``True`` when the automaton was adopted
        (``other`` has a compiled automaton and the pattern lists are
        identical), ``False`` otherwise.
        """
        cached = getattr(other, "_automaton", None)
        if cached is None or self._pattern_list() != other._pattern_list():
            return False
        self._automaton = cached
        return True

    # ------------------------------------------------------------------
    # Incremental updates (the StreamUpdate delta bridge)
    # ------------------------------------------------------------------
    def apply_update(self, update: StreamUpdate) -> PatternStore:
        """Absorb a stream refresh into this loaded store; returns the store to keep.

        When the refresh changed only supports (same patterns, same order —
        the steady-state shape of a sliding-window republish), the supports
        column is swapped in place and ``self`` is returned: the cached
        automaton stays valid because it depends only on the patterns.
        When patterns appeared or expired, a fresh store is built from the
        update (adopting this store's compiled automaton if the pattern
        list happens to be unchanged) and returned instead.

        Either way, objects that *snapshotted* supports earlier — a
        :class:`~repro.match.service.PatternMatcher` copies them into
        ``mined_supports`` at construction — keep their snapshot; rebuild
        the matcher from the returned store to rank against fresh supports
        (compilation is not repeated: the automaton rides along).
        """
        result = update.result
        mine = self._pattern_list()
        if len(result) == len(mine) and all(
            mp.pattern == pattern
            for mp, pattern in zip(result, mine, strict=False)
        ):
            self._supports = array(
                POSITION_TYPECODE, (mp.support for mp in result)
            )
            if "window_sequences" in self.metadata:
                self.metadata["window_sequences"] = update.total_sequences
            return self
        # Forward only caller-added metadata: the stream-owned keys
        # (source, window_sequences) must describe *this* update's window,
        # and to_store computes them fresh.
        extra = {
            key: value
            for key, value in self.metadata.items()
            if key not in ("source", "window_sequences")
        }
        fresh = update.to_store(metadata=extra or None)
        fresh.adopt_automaton(self)
        return fresh

    def patch_file_supports(self, path: PathLike, *, _blob: bytes | None = None) -> bool:
        """Rewrite only the supports column of an existing store file, in place.

        Succeeds (returns ``True``) only when ``path`` already holds a binary
        store byte-identical to this store's encoding everywhere *except*
        the supports column — the shape a :class:`~repro.stream.miner.StreamMiner`
        republish has when a refresh changed supports but no patterns.  Only
        the changed 8-byte slots are written.

        Unlike :meth:`save`'s atomic replace (which creates a new inode,
        invisible to mappings of the old one), the patch updates the same
        inode, so zero-copy readers that already mapped the file observe the
        new supports without reloading.  After writing, the file's mtime is
        bumped to be strictly newer than before, so copy-path pollers (the
        daemon's ``(inode, mtime, size)`` freshness check) can never miss a
        patch that lands within one filesystem timestamp tick of the
        previous publish.  Returns ``False`` when the file is missing or its
        layout differs — callers fall back to :meth:`save`.

        Unlike :meth:`save`, the patch is **not atomic**: the changed span
        of the supports column is written in one contiguous ``write``, but
        a reader that cold-loads the whole file mid-patch can observe a mix
        of old and new support values (each value old *or* new; patterns
        and layout are untouched either way).  Supports are independently
        refreshed scalars, so cooperating serve deployments tolerate this
        by design; use :meth:`save` when readers need a single consistent
        snapshot.

        ``_blob`` is an internal hand-off of a precomputed :meth:`to_bytes`
        (the stream publisher encodes once for the patch attempt and the
        save fallback).
        """
        blob = self.to_bytes() if _blob is None else _blob
        prefix = len(blob) - len(self._supports) * ITEMSIZE
        path = Path(path)
        try:
            if path.stat().st_size != len(blob):
                return False
            with open(path, "r+b") as handle:
                # Prefix first: a layout mismatch (the common case when the
                # pattern set changed) is decided without touching the
                # supports column.
                if handle.read(prefix) != blob[:prefix]:
                    return False
                tail = handle.read()
                changed = [
                    start
                    for start in range(0, len(tail), ITEMSIZE)
                    if tail[start : start + ITEMSIZE]
                    != blob[prefix + start : prefix + start + ITEMSIZE]
                ]
                if changed:
                    first, last = changed[0], changed[-1] + ITEMSIZE
                    handle.seek(prefix + first)
                    handle.write(blob[prefix + first : prefix + last])
        except FileNotFoundError:
            return False
        if changed:
            stat = path.stat()
            mtime_ns = max(time.time_ns(), stat.st_mtime_ns + 1)  # reprolint: disable=RL005 -- mtime nudge only orders auto-reload staleness checks; never enters store bytes
            os.utime(path, ns=(stat.st_atime_ns, mtime_ns))
        return True

    # ------------------------------------------------------------------
    # Binary encoding
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The deterministic binary encoding of this store."""
        header_blob = _dumps(
            {
                "min_sup": self.min_sup,
                "algorithm": self.algorithm,
                "metadata": self.metadata,
            }
        )
        alphabet_blob = _dumps(self._alphabet)
        parts = [
            _HEADER.pack(MAGIC, FORMAT_VERSION),
            _U32.pack(len(header_blob)),
            header_blob,
            _U32.pack(len(alphabet_blob)),
            alphabet_blob,
            _U64.pack(len(self._supports)),
            _U64.pack(len(self._events)),
            column_bytes(self._offsets),
            column_bytes(self._events),
            column_bytes(self._supports),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> PatternStore:
        """Decode a binary store; the exact inverse of :meth:`to_bytes`."""
        return cls._decode(ColumnFile(memoryview(blob)))

    @classmethod
    def _decode(cls, source: ColumnFile) -> PatternStore:
        """Decode a binary store from a mapped or copied file (every reader's path).

        The file's alphabet and column order are kept verbatim (so load →
        save is a byte identity) and no :class:`Pattern` objects are
        materialised until something asks for them.  A mapped store keeps
        ``source`` alive for its column views and defers the O(events)
        event-id range check to pattern materialisation, so the open
        neither scans nor pages in the events column; a copy is checked in
        full here.
        """
        zero_copy = source.is_zero_copy
        try:
            header, alphabet, bounds = _parse_store(source.data)
            offsets, events, supports = (source.column(a, b) for a, b in pairwise(bounds))
            _validate_columns(
                offsets, events, supports, alphabet, check_events=not zero_copy
            )
        except Exception:
            source.close()  # best effort; the traceback pins views until GC
            raise
        store = cls.__new__(cls)
        store._alphabet = alphabet
        store._offsets = offsets
        store._events = events
        store._supports = supports
        store._patterns = None
        store._source = source if zero_copy else None
        store.min_sup = header.get("min_sup")
        store.algorithm = header.get("algorithm")
        store.metadata = header.get("metadata") or {}
        return store

    def save(self, path: PathLike, *, _blob: bytes | None = None) -> Path:
        """Write the binary encoding to ``path`` (atomically) and return it.

        The bytes are staged in a sibling temp file and moved into place, so
        a matcher loading concurrently never observes a half-written store.
        ``_blob`` is an internal hand-off of a precomputed :meth:`to_bytes`.
        """
        return atomic_write(path, self.to_bytes() if _blob is None else _blob)

    @classmethod
    def load(cls, path: PathLike) -> PatternStore:
        """Read a binary store written by :meth:`save` (private decoded copy)."""
        return cls._decode(ColumnFile.open(path, mmap=False))

    @classmethod
    def open(
        cls, path: PathLike, *, mmap: bool | str = "auto"
    ) -> PatternStore:
        """Load a binary store zero-copy over a shared read-only mapping.

        The file is memory-mapped and the three ``int64`` columns become
        ``memoryview`` s into the mapping: N worker processes opening the
        same store share one physical copy of the column data through the OS
        page cache, and patterns are only materialised when first accessed.

        Parameters
        ----------
        path:
            A binary store file written by :meth:`save`.
        mmap:
            ``"auto"`` (default) maps when the platform supports it and
            falls back to the copying :meth:`load` otherwise; ``True``
            requires the zero-copy mapping (raises :class:`ValueError` with
            the platform's reason when unavailable); ``False`` is exactly
            :meth:`load`.  A required mapping never silently degrades: the
            caller may rely on shared-mapping visibility of in-place
            patches.

        Caveat (Windows): an open mapping pins the file — a publisher's
        atomic :meth:`save` onto the same path fails with
        ``PermissionError`` while any process holds it mapped.  When the
        publisher and the readers share a host on win32, load readers with
        ``mmap=False`` (in-place supports patches are unaffected; they keep
        the inode).  POSIX renames never conflict with mappings.
        """
        return cls._decode(ColumnFile.open(path, mmap=mmap))

    # ------------------------------------------------------------------
    # JSON sibling
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """The JSON-serialisable sibling encoding."""
        data: dict[str, Any] = {
            "format": JSON_FORMAT,
            "version": FORMAT_VERSION,
            "metadata": dict(self.metadata),
        }
        data.update(self.to_result().to_json())
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> PatternStore:
        """Decode the JSON sibling; the inverse of :meth:`to_json`."""
        if data.get("format") != JSON_FORMAT:
            raise ValueError(
                f"not a JSON pattern store (format {data.get('format')!r})"
            )
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported pattern-store version {data.get('version')!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        result = MiningResult.from_json(data)
        store = cls.from_result(result, metadata=data.get("metadata") or {})
        return store

    def save_json(self, path: PathLike) -> Path:
        """Write the human-readable JSON sibling to ``path`` (atomically)."""
        text = json.dumps(self.to_json(), ensure_ascii=False, indent=2) + "\n"
        return atomic_write(path, text.encode("utf-8"))

    @classmethod
    def load_json(cls, path: PathLike) -> PatternStore:
        """Read a JSON store written by :meth:`save_json`."""
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def load_patterns(path: PathLike, *, mmap: bool | str = False) -> PatternStore:
    """Load a pattern store, sniffing the encoding from the magic bytes.

    ``mmap`` selects the binary read path: ``False`` (default) decodes a
    private copy, ``"auto"``/``True`` go through the zero-copy
    :meth:`PatternStore.open` (with its fallback semantics).  JSON stores
    have no mappable representation; asking for ``mmap=True`` on one is an
    error.

    Example
    -------
    >>> import tempfile, os
    >>> from repro import SequenceDatabase, mine_closed, save_patterns, load_patterns
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> path = os.path.join(tempfile.mkdtemp(), "patterns.rps")
    >>> _ = save_patterns(mine_closed(db, 2), path)
    >>> store = load_patterns(path)
    >>> sorted(str(p) for p in store.patterns())
    ['AABB', 'AB', 'ABCD']
    """
    mmap = coerce_mmap_flag(mmap)
    path = Path(path)
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return PatternStore.open(path, mmap=mmap)
    if mmap is True:
        raise ValueError(f"{path}: JSON pattern stores cannot be memory-mapped")
    blob = path.read_bytes()
    try:
        data = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(
            f"{path}: neither a binary pattern store (bad magic) nor JSON"
        ) from exc
    return PatternStore.from_json(data)


def save_patterns(
    source: PatternStore | MiningResult,
    path: PathLike,
    *,
    encoding: str = "auto",
) -> Path:
    """Persist a store or mining result; ``encoding`` is ``auto``/``binary``/``json``.

    ``auto`` writes JSON when ``path`` ends in ``.json`` and binary otherwise.

    Example
    -------
    >>> import tempfile, os
    >>> from repro import SequenceDatabase, mine_closed, save_patterns
    >>> db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
    >>> result = mine_closed(db, 2)
    >>> out = save_patterns(result, os.path.join(tempfile.mkdtemp(), "patterns.rps"))
    >>> out.name
    'patterns.rps'
    """
    store = source if isinstance(source, PatternStore) else PatternStore.from_result(source)
    if encoding == "auto":
        encoding = "json" if str(path).endswith(".json") else "binary"
    if encoding == "binary":
        return store.save(path)
    if encoding == "json":
        return store.save_json(path)
    raise ValueError(f"unknown pattern-store encoding {encoding!r}")
