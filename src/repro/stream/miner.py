"""Windowed re-mining over sharded streams (the ``StreamMiner``).

The batch miners answer "what are the closed frequent patterns of this
database"; a production stream needs the same answer *continuously* as
sequences arrive and expire.  Re-running ``CloGSgrow`` over the full window
after every append repeats almost all of its work, so the :class:`StreamMiner`
splits the window into **shards** of consecutive sequences and exploits two
properties of repetitive support:

* **Additivity** — instances never span sequences, so the repetitive support
  of a pattern over the window is the *sum* of its supports over the shards
  (Definition 2.5 maximises per sequence independently).  Global supports are
  therefore obtained by merging per-shard supports, and only shards whose
  contents changed ("dirty" shards) need their contribution recomputed.
* **Partition candidacy** (the SON/Partition argument) — if
  ``sup(P) >= min_sup`` over ``k`` shards then some shard holds at least
  ``ceil(min_sup / k)`` of that support.  Mining every shard for *all*
  frequent patterns at that local threshold yields a candidate set that
  provably contains every globally frequent pattern.

A refresh therefore (1) re-mines dirty shards only, in one
:func:`repro.api.mine_many` call (in-process, or across ``n_jobs`` pool
workers through the same fan-out as batch mining), (2) merges cached
per-shard supports of the candidate union, and (3) applies
the paper's closedness criterion — a pattern is non-closed iff some
one-event extension has equal support (Theorem 4), and every such extension
is itself globally frequent.  Shards are mined only to a ``max_length``
cap, so below the cap each key marks its one-event deletions of equal
support.  The witnesses of a cap-length key are one event too long for the
table, yet ``CloGSgrow``'s semantics ("closed in the full universe,
truncated at the cap") asks for them: they are found through the exact
per-shard supports of the cap-length keys they contain, and confirmed with
per-shard ``supComp`` calls (:meth:`StreamMiner._has_witness`).  The result
is **byte-identical** (as a pattern → support set) to running
``mine_closed`` over the equivalent static database — the invariant the
randomized regression tests enforce.

The merge (2) is incremental.  A clean shard's table holds every pattern
with local support at least its mining threshold, so a key it has no number
for has at most ``mined_threshold - 1`` there (the shard's *floor*).  The
miner keeps, across refreshes, one running total per key: the sum, over the
shards whose caches hold the key, of that support minus the shard's floor.
A key's merge bound is then the sum of all floors plus its total, and the
total changes only where a shard's caches do (a re-mined shard's table comes
in, an evicted or re-mined shard's caches go out, each gap-fill adds its
number).  A refresh bounds only the keys whose bound reaches ``min_sup``; a
key in no shard table never does, since ``k`` floors of at most
``ceil(min_sup / k) - 1`` sum below ``min_sup``.  Those keys go level by
level, and each shard's bound is tightened by the key's prefix and suffix
there (repetitive support never grows under extension).  Gaps are filled with
exact ``supComp`` calls, cached while a shard stays clean, and only in shards
whose bound is not 0 for keys whose bounds still sum to ``min_sup``.  The
frequent keys are then sorted once, by a ``(len, repr)`` key computed once
per key.

Sliding-window eviction drops the oldest sequences once a ``window`` budget
(count-based), a ``window_seconds`` budget (time-based, driven by the
per-sequence timestamps handed to :meth:`StreamMiner.append`), or both are
exceeded.  A shard that loses all its sequences is dropped whole.  The shard
straddling the window edge only counts its evicted sequences and turns
dirty; the next re-mine drops them in one rebuild of that shard, however
many were evicted.  Everything else keeps its cached tables.

Each refresh can also push the window's pattern set into the read-side
subsystem: :meth:`StreamUpdate.to_store` wraps the result as a
:class:`~repro.match.store.PatternStore`, and a miner constructed with
``store_path=...`` persists that store after every refresh, so serving
workers always load the freshest window.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from operator import ge
from pathlib import Path
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.match.store import PatternStore

from repro.core.pattern import Pattern
from repro.core.results import MinedPattern, MiningResult
from repro.core.support import repetitive_support
from repro.db.database import SequenceDatabase
from repro.db.sequence import Event
from repro.obs import MetricsRegistry
from repro.stream.database import StreamingSequenceDatabase

#: Pattern key used in the merged tables: the tuple of events.
PatternKey = tuple[Event, ...]


def _cleanup_shard_dir(directory: str) -> None:
    """Best-effort removal of a shard's private backend directory."""
    shutil.rmtree(directory, ignore_errors=True)


class _Shard:
    """One group of consecutive window sequences with its mining caches.

    With a ``"disk"`` database backend every shard owns a private segment
    directory (an ephemeral temp dir, created under ``db_dir`` when one is
    given): shard lifetimes are independent — eviction drops a shard
    wholesale or `compact` rebuilds it — so sharing one store would mix live
    and dead columns.
    The directory is removed when the shard is closed, rebuilt or
    garbage-collected.
    """

    __slots__ = (
        "stream",
        "handles",
        "offsets",
        "evicted",
        "dirty",
        "supports",
        "witnesses",
        "mined_threshold",
        "db_backend",
        "db_dir",
        "_dir_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        sequences: Iterable = (),
        handles: Iterable[int] = (),
        *,
        db_backend: str | None = None,
        db_dir: str | None = None,
    ):
        self.db_backend = db_backend
        self.db_dir = db_dir
        self._dir_finalizer: weakref.finalize | None = None
        self.stream = self._new_stream(sequences)
        #: Handles of the live sequences, oldest first.
        self.handles: list[int] = list(handles)
        #: handle -> 0-based offset of its sequence in `stream`, kept in
        #: lock-step with `handles` so `extend` never pays an O(shard_size) scan.
        self.offsets: dict[int, int] = {h: k for k, h in enumerate(self.handles)}
        #: Leading sequences of `stream` already evicted from the window;
        #: `compact` drops them in one rebuild.
        self.evicted = 0
        self.dirty = True
        #: Exact local supports: every pattern (up to the length cap) with
        #: local support at least `mined_threshold`, plus the gap-fills
        #: asked for while the shard has been clean.
        self.supports: dict[PatternKey, int] = {}
        #: Exact local supports of the one-event-too-long witness candidates
        #: the closed filter confirmed here; cleared with `supports`.
        self.witnesses: dict[PatternKey, int] = {}
        self.mined_threshold: int | None = None

    def __len__(self) -> int:
        return len(self.stream) - self.evicted

    @property
    def floor(self) -> int:
        """Upper bound on the local support of a key missing from `supports`."""
        assert self.mined_threshold is not None, "bounds need a mined shard"
        return self.mined_threshold - 1

    def reset(self, supports: dict[PatternKey, int], threshold: int) -> None:
        """Install a fresh mining table; the old table's witness supports go with it."""
        self.supports = supports
        self.witnesses = {}
        self.mined_threshold = threshold
        self.dirty = False

    def add_handle(self, handle: int) -> None:
        """Register the handle of a freshly appended sequence."""
        self.offsets[handle] = self.evicted + len(self.handles)
        self.handles.append(handle)

    def live_sequences(self) -> list:
        """The shard's sequences that are still in the window, oldest first."""
        return self.stream.database.sequences[self.evicted :]

    def evict_oldest(self, count: int) -> None:
        """Evict the ``count`` oldest live sequences; `compact` drops them later."""
        for handle in self.handles[:count]:
            del self.offsets[handle]
        del self.handles[:count]
        self.evicted += count
        self.dirty = True

    def compact(self) -> None:
        """Drop the evicted sequences, rebuilding the shard's stream once."""
        if not self.evicted:
            return
        remaining = self.live_sequences()
        self.close()
        self.stream = self._new_stream(remaining)
        self.offsets = {h: k for k, h in enumerate(self.handles)}
        self.evicted = 0

    def close(self) -> None:
        """Release the shard's backend (mappings, journal, temp directories)."""
        self.stream.index.backend.close()
        if self._dir_finalizer is not None:
            self._dir_finalizer()
            self._dir_finalizer = None

    def _new_stream(self, sequences: Iterable) -> StreamingSequenceDatabase:
        """A fresh streaming database over ``sequences`` with this shard's backend.

        Never reuses a previous directory: a disk store reopening one would
        replay segments of the pre-eviction shard contents.
        """
        backend_dir = None
        if self.db_backend is not None and self.db_backend != "ram" and self.db_dir is not None:
            backend_dir = tempfile.mkdtemp(prefix="shard-", dir=self.db_dir)
            self._dir_finalizer = weakref.finalize(self, _cleanup_shard_dir, backend_dir)
        return StreamingSequenceDatabase(
            sequences, db_backend=self.db_backend, db_dir=backend_dir
        )


@dataclass
class StreamStats:
    """Cumulative counters over the lifetime of one :class:`StreamMiner`."""

    appends: int = 0
    extends: int = 0
    evictions: int = 0
    refreshes: int = 0
    shards_remined: int = 0
    #: ``repetitive_support`` calls of the merge's gap-fills plus the closed
    #: filter's witness confirmations (the latter alone: :attr:`witness_calls`).
    sup_comp_calls: int = 0
    #: ``repetitive_support`` calls that confirm a cap-length key's witness
    #: candidate in one shard.
    witness_calls: int = 0
    store_saves: int = 0
    store_patches: int = 0

    def as_dict(self) -> dict:
        return {
            "appends": self.appends,
            "extends": self.extends,
            "evictions": self.evictions,
            "refreshes": self.refreshes,
            "shards_remined": self.shards_remined,
            "sup_comp_calls": self.sup_comp_calls,
            "witness_calls": self.witness_calls,
            "store_saves": self.store_saves,
            "store_patches": self.store_patches,
        }


@dataclass
class StreamUpdate:
    """One delivered refresh: the current pattern set plus what changed.

    ``result`` is the full pattern set over the current window (equivalent to
    a batch mine); the delta fields describe it relative to the previous
    refresh, which is what incremental consumers (dashboards, alerting)
    actually want.
    """

    appended: int
    evicted: int
    total_sequences: int
    shards: int
    shards_remined: int
    result: MiningResult
    new_patterns: list[MinedPattern] = field(default_factory=list)
    changed_patterns: list[MinedPattern] = field(default_factory=list)
    expired_patterns: list[Pattern] = field(default_factory=list)

    def summary(self) -> str:
        """Compact single-line rendering used by the CLI."""
        return (
            f"+{self.appended} seq / -{self.evicted} evicted, "
            f"window={self.total_sequences}, {len(self.result)} patterns "
            f"(+{len(self.new_patterns)} new, ~{len(self.changed_patterns)} changed, "
            f"-{len(self.expired_patterns)} expired), "
            f"{self.shards_remined}/{self.shards} shards re-mined"
        )

    def to_store(self, *, metadata: dict | None = None) -> PatternStore:
        """This refresh's pattern set as a servable pattern store.

        The store records the window shape alongside the mining metadata, so
        a serving worker can tell which slice of the stream it is matching
        against.  Persist it with ``store.save(path)`` (or hand
        ``store_path=...`` to the miner to do this after every refresh).
        """
        from repro.match.store import PatternStore  # local import: stream stays importable alone

        merged = {"source": "stream", "window_sequences": self.total_sequences}
        if metadata:
            merged.update(metadata)
        return PatternStore.from_result(self.result, metadata=merged)


class StreamMiner:
    """Continuous (closed) pattern mining over an appended, windowed stream.

    Parameters
    ----------
    min_sup:
        Global repetitive-support threshold over the current window.
    closed:
        ``True`` (default) keeps the answer equal to ``mine_closed`` over the
        window; ``False`` tracks all frequent patterns (``mine_all``).
    shard_size:
        Number of consecutive sequences per shard.  Smaller shards make
        appends cheaper to absorb but raise the candidate-merging overhead.
    window:
        Optional sliding-window budget: once more than ``window`` sequences
        are retained, the oldest are evicted (count-based window).
    window_seconds:
        Optional time-based sliding-window budget.  When set, every
        :meth:`append` must carry a (non-decreasing) ``timestamp``, and
        sequences whose timestamp is more than ``window_seconds`` older than
        the newest timestamp are evicted.  May be combined with ``window``;
        whichever budget evicts more wins.
    max_length:
        Optional pattern-length cap, matching the batch miners' semantics
        (closed in the full universe, truncated at the cap).
    db_backend:
        Storage backend of the per-shard inverted indexes: ``None``/``"ram"``
        (default) or ``"disk"`` (mmap'd segment files plus a journalled
        in-RAM tail, see :mod:`repro.db.backend`).  With ``"disk"`` each
        shard's sequences live only in its index columns
        (:class:`~repro.db.lazy.LazySequenceDatabase`), so the window's
        resident footprint is bounded by the tails, not the data.
    db_dir:
        Parent directory for the ``"disk"`` shard stores (each shard gets a
        private ``shard-*`` temp dir under it, removed when the shard goes).
        ``None`` uses the system temp directory.
    spill_budget:
        Optional per-support-set byte budget forwarded to the per-shard
        :class:`GSgrow` runs: over-budget DFS frontier sets are spilled to
        disk (:mod:`repro.core.spill`).  Results are identical either way.
    n_jobs:
        Pool width of the one :func:`repro.api.mine_many` call that
        re-mines a refresh's dirty shards: ``None`` or ``1`` (default)
        in-process, any other value that many workers (``<= 0`` means one
        per CPU).  Shards are independent databases, so the resulting
        tables are byte-identical; worker registries merge back into
        ``obs``, so its instruments and counts are the same either way.
    store_path:
        Optional path of a :class:`~repro.match.store.PatternStore` file to
        (re)write after every :meth:`refresh` — the stream-to-serving bridge.
        Supports-only refreshes patch the existing binary file in place
        (zero-copy readers see the new supports without reloading); anything
        else is written atomically.  ``*.json`` paths get the JSON sibling
        encoding.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry` to record into.  The
        miner mirrors its cumulative :class:`StreamStats` counters into
        ``stream.*`` after every refresh, times refresh phases into
        ``stream.{refresh,remine,merge,publish}.seconds`` histograms (at most
        one observation each per refresh; the merge span holds its gap-fill
        but not the re-mine, which runs before it), and hands the registry down to
        the per-shard :class:`GSgrow` runs (one ``mine.worker.seconds`` span
        each) so ``mine.*`` counters aggregate across shards.  Defaults to a private
        enabled registry.

    Thread safety: the public mutators (:meth:`append`, :meth:`extend`,
    :meth:`append_many`, :meth:`refresh`/:meth:`results`,
    :meth:`snapshot_database`) serialize on an internal re-entrant lock, so
    an ingest thread and a refresh/publish thread can share one miner.
    """

    def __init__(
        self,
        min_sup: int,
        *,
        closed: bool = True,
        shard_size: int = 16,
        window: int | None = None,
        window_seconds: float | None = None,
        max_length: int | None = None,
        db_backend: str | None = None,
        db_dir: str | Path | None = None,
        spill_budget: int | None = None,
        n_jobs: int | None = None,
        store_path: str | Path | None = None,
        obs: MetricsRegistry | None = None,
    ):
        if min_sup < 1:
            raise ValueError(f"min_sup must be >= 1, got {min_sup}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if max_length is not None and max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        if db_backend not in (None, "ram", "disk"):
            raise ValueError(f"db_backend must be None, 'ram' or 'disk', got {db_backend!r}")
        if spill_budget is not None and spill_budget < 1:
            raise ValueError(f"spill_budget must be >= 1, got {spill_budget}")
        self.min_sup = min_sup
        self.closed = closed
        self.shard_size = shard_size
        self.window = window
        self.window_seconds = window_seconds
        self.max_length = max_length
        self.db_backend = db_backend
        self.db_dir = str(db_dir) if db_dir is not None else None
        if self.db_dir is not None:
            Path(self.db_dir).mkdir(parents=True, exist_ok=True)
        self.spill_budget = spill_budget
        self.n_jobs = n_jobs
        self.store_path = Path(store_path) if store_path is not None else None
        # Re-entrant: append_many -> append and results -> refresh nest.
        self._lock = threading.RLock()
        self.stats = StreamStats()
        self.obs = obs if obs is not None else MetricsRegistry()
        # Last StreamStats values mirrored into the registry, for delta
        # increments (counters only go up; stats are cumulative too).
        self._mirrored: dict[str, int] = {}
        self._shards: list[_Shard] = []
        self._shard_of: dict[int, _Shard] = {}
        self._timestamps: dict[int, float] = {}
        self._latest_timestamp: float | None = None
        self._next_handle = 0
        self._appended_since_refresh = 0
        self._evicted_since_refresh = 0
        self._last_supports: dict[PatternKey, int] = {}
        #: Per key, the sum over the live shards whose `supports` hold it of
        #: that support minus the shard's `floor`; zero totals are dropped.
        #: Adding every shard's floor gives the key's merge bound.
        self._totals: dict[PatternKey, int] = {}
        #: The ``(len, repr)`` sort key of every key the last merge kept.
        self._sort_keys: dict[PatternKey, tuple] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, sequence, timestamp: float | None = None) -> int:
        """Ingest one new sequence; returns a stable handle for later appends.

        The sequence lands in the open (newest) shard, whose index is
        extended in place; only that shard becomes dirty.

        ``timestamp`` is the sequence's arrival time in seconds (any epoch —
        only differences matter).  It is required when the miner has a
        ``window_seconds`` budget, optional otherwise, and must never
        decrease: the time-based window slides forward with the stream.
        """
        if timestamp is None and self.window_seconds is not None:
            raise ValueError(
                "this StreamMiner has a window_seconds budget; every "
                "append must carry a timestamp"
            )
        with self._lock:
            if timestamp is not None:
                if self._latest_timestamp is not None and timestamp < self._latest_timestamp:
                    raise ValueError(
                        f"timestamps must be non-decreasing: got {timestamp} after "
                        f"{self._latest_timestamp}"
                    )
                self._latest_timestamp = timestamp
            shard = self._open_shard()
            shard.stream.append(sequence)
            shard.dirty = True
            handle = self._next_handle
            self._next_handle += 1
            shard.add_handle(handle)
            self._shard_of[handle] = shard
            if timestamp is not None:
                self._timestamps[handle] = timestamp
            self.stats.appends += 1
            self._appended_since_refresh += 1
            self._evict_over_window()
            return handle

    def extend(self, handle: int, events: Iterable[Event]) -> None:
        """Append ``events`` to the end of a previously ingested sequence."""
        with self._lock:
            shard = self._shard_of.get(handle)
            if shard is None:
                raise KeyError(f"unknown or evicted sequence handle {handle}")
            local = shard.offsets[handle] + 1
            shard.stream.extend(local, events)
            shard.dirty = True
            self.stats.extends += 1

    def append_many(
        self, sequences: Iterable, timestamps: Iterable[float] | None = None
    ) -> list[int]:
        """Ingest several sequences; returns their handles.

        ``timestamps`` must align with ``sequences`` when given (one
        timestamp per sequence, the :meth:`append` contract applies).
        """
        with self._lock:
            if timestamps is None:
                return [self.append(seq) for seq in sequences]
            sequences = list(sequences)
            timestamps = list(timestamps)
            if len(sequences) != len(timestamps):
                raise ValueError(
                    f"got {len(timestamps)} timestamps for {len(sequences)} sequences"
                )
            return [
                self.append(seq, ts) for seq, ts in zip(sequences, timestamps, strict=False)
            ]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def refresh(self) -> StreamUpdate:
        """Bring the pattern set up to date and describe what changed.

        Only dirty shards are re-mined; clean shards answer from their cached
        tables.  The returned update carries the full current result plus the
        delta against the previous refresh.
        """
        with self._lock, self.obs.span("stream.refresh.seconds"):
            self.stats.refreshes += 1
            remined_before = self.stats.shards_remined
            self._remine_stale()
            with self.obs.span("stream.merge.seconds"):
                merged, per_shard = self._merged_supports()
            kept = self._closed_filter(merged, per_shard) if self.closed else merged
            result = MiningResult(
                (
                    MinedPattern(pattern=Pattern(key), support=support)
                    for key, support in kept.items()
                ),
                min_sup=self.min_sup,
                algorithm=f"StreamMiner({'CloGSgrow' if self.closed else 'GSgrow'})",
            )
            previous = self._last_supports
            new = [mp for mp in result if mp.pattern.events not in previous]
            changed = [
                mp
                for mp in result
                if mp.pattern.events in previous and previous[mp.pattern.events] != mp.support
            ]
            expired = [Pattern(key) for key in previous if key not in kept]
            update = StreamUpdate(
                appended=self._appended_since_refresh,
                evicted=self._evicted_since_refresh,
                total_sequences=len(self),
                shards=len(self._shards),
                shards_remined=self.stats.shards_remined - remined_before,
                result=result,
                new_patterns=new,
                changed_patterns=changed,
                expired_patterns=expired,
            )
            self._last_supports = dict(kept)
            self._appended_since_refresh = 0
            self._evicted_since_refresh = 0
            if self.store_path is not None:
                with self.obs.span("stream.publish.seconds"):
                    self._publish_store(update)
            result.stats = self.stats.as_dict()
            self._mirror_stats()
            return update

    # reprolint: holds-lock
    def _mirror_stats(self) -> None:
        """Mirror cumulative :class:`StreamStats` into the registry (caller holds self._lock).

        Counters only go up, so each mirrored counter receives the *delta*
        since the last mirror; window shape lands in gauges.  All updates
        happen under one registry lock acquisition, so a concurrent
        ``stats`` snapshot sees either none or all of a refresh's worth.
        """
        obs = self.obs
        if not obs.enabled:
            return
        current = self.stats.as_dict()
        resident = 0
        mapped = 0
        for shard in self._shards:
            backend_stats = shard.stream.index.backend.memory_stats()
            resident += backend_stats["resident_bytes"]
            mapped += backend_stats["mapped_bytes"]
        with obs.locked():
            for key, value in current.items():
                delta = value - self._mirrored.get(key, 0)
                if delta > 0:
                    obs.counter(f"stream.{key}").inc(delta)  # reprolint: disable=RL008 -- keys enumerate the fixed StreamStats dataclass fields, each a conformant name
            obs.gauge("stream.window_sequences").set(len(self))
            obs.gauge("stream.shards").set(len(self._shards))
            obs.gauge("db.backend.resident.bytes").set(resident)
            obs.gauge("db.backend.mapped.bytes").set(mapped)
        self._mirrored = current

    def _publish_store(self, update: StreamUpdate) -> None:
        """Republish the window's pattern store after a refresh.

        When the refresh changed only supports (same patterns, same header —
        the steady state of a full sliding window), only the changed 8-byte
        support slots of the existing binary store file are rewritten in
        place, so zero-copy serving workers that mapped the file observe the
        new supports without reloading.  Any other shape — new or expired
        patterns, a changed window size, a JSON store path, no previous file
        — falls back to the atomic full save.
        """
        from repro.match.store import save_patterns  # local import, see to_store

        store = update.to_store()
        if str(self.store_path).endswith(".json"):
            save_patterns(store, self.store_path)
            self.stats.store_saves += 1
            return
        # Encode once; the blob serves both the patch attempt and the
        # atomic-save fallback.
        blob = store.to_bytes()
        if store.patch_file_supports(self.store_path, _blob=blob):
            self.stats.store_patches += 1
            return
        store.save(self.store_path, _blob=blob)
        self.stats.store_saves += 1

    def results(self) -> MiningResult:
        """The current pattern set (refreshing first if anything is dirty)."""
        return self.refresh().result

    def close(self) -> None:
        """Drop the window and release shard backends (mappings, temp dirs).

        Only needed with ``db_backend="disk"`` (and even then shard stores
        clean up on garbage collection); the miner is empty afterwards.
        """
        with self._lock:
            for shard in self._shards:
                shard.close()
            self._shards.clear()
            self._shard_of.clear()
            self._timestamps.clear()
            self._totals.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    @property
    def shard_count(self) -> int:
        """Number of shards currently in the window."""
        return len(self._shards)

    def snapshot_database(self, name: str | None = None) -> SequenceDatabase:
        """The equivalent static database (retained sequences, arrival order).

        Batch-mining this snapshot with the same configuration must produce
        exactly the patterns of :meth:`refresh` — the streaming-equivalence
        oracle used by tests and the benchmark.
        """
        with self._lock:
            sequences = []
            for shard in self._shards:
                sequences.extend(shard.live_sequences())
            return SequenceDatabase(sequences, name=name)

    # ------------------------------------------------------------------
    # Sharding / eviction internals
    # ------------------------------------------------------------------
    def _open_shard(self) -> _Shard:
        if not self._shards or len(self._shards[-1]) >= self.shard_size:
            self._shards.append(
                _Shard(db_backend=self.db_backend, db_dir=self.db_dir)
            )
        return self._shards[-1]

    def _evict_over_window(self) -> None:
        drop = 0
        if self.window is not None:
            drop = len(self) - self.window
        if self.window_seconds is not None and self._latest_timestamp is not None:
            drop = max(drop, self._count_expired(self._latest_timestamp - self.window_seconds))
        self._evict_oldest(drop)

    def _count_expired(self, cutoff: float) -> int:
        """Number of leading (oldest) sequences with timestamp before ``cutoff``.

        Handles are stored in arrival order and timestamps never decrease,
        so the expired sequences form a prefix of the window.
        """
        timestamps = self._timestamps
        expired = 0
        for shard in self._shards:
            for handle in shard.handles:
                if timestamps[handle] >= cutoff:
                    return expired
                expired += 1
        return expired

    # reprolint: holds-lock
    def _evict_oldest(self, count: int) -> None:
        """Evict the ``count`` oldest window sequences (caller holds self._lock)."""
        while count > 0 and self._shards:
            oldest = self._shards[0]
            drop = min(count, len(oldest))
            for handle in oldest.handles[:drop]:
                del self._shard_of[handle]
                self._timestamps.pop(handle, None)
            if drop == len(oldest):
                self._shards.pop(0)
                self._count_shard(oldest, -1)
                oldest.close()
            else:
                oldest.evict_oldest(drop)
            count -= drop
            self.stats.evictions += drop
            self._evicted_since_refresh += drop

    # ------------------------------------------------------------------
    # Merging internals
    # ------------------------------------------------------------------
    def _required_threshold(self) -> int:
        """SON candidate-completeness bound for the current shard count.

        If ``sup(P) >= min_sup`` summed over ``k`` shards, then some shard
        holds at least ``ceil(min_sup / k)`` of it — so mining every shard at
        that local threshold cannot miss a globally frequent pattern.
        """
        k = max(1, len(self._shards))
        return max(1, -(-self.min_sup // k))

    def _mining_threshold(self) -> int:
        """Local threshold shards are actually mined at (``<=`` the bound).

        With a window budget the shard count is bounded, so shards are mined
        once at the window's worst-case threshold and never need re-mining
        just because a later append adds a shard.  Without a window the
        threshold tracks the current shard count and a shard is re-mined on
        the (increasingly rare) occasions the bound drops below the
        threshold it was mined at.
        """
        if self.window is not None:
            k_cap = max(len(self._shards), -(-self.window // self.shard_size) + 1)
            return max(1, -(-self.min_sup // k_cap))
        return self._required_threshold()

    # reprolint: holds-lock
    def _remine_stale(self) -> None:
        """Re-mine the shards whose tables are stale (caller holds self._lock).

        A shard is stale when it is dirty, never mined, or mined above the
        SON bound of the current shard count.  One
        :func:`repro.api.mine_many` call covers them all, in-process or
        across ``n_jobs`` workers: shards are independent databases and
        :class:`GSgrow` is deterministic, so the tables and the ``mine.*``
        telemetry landing in :attr:`obs` are the same either way.  Each
        re-mined shard's old caches leave the running totals and its new
        table enters them.
        """
        required = self._required_threshold()
        stale = [
            shard
            for shard in self._shards
            if shard.dirty or shard.mined_threshold is None or shard.mined_threshold > required
        ]
        if not stale:
            return
        mine_at = self._mining_threshold()
        for shard in stale:
            shard.compact()
        # Local import: repro.api imports this module (the one-way layering
        # is api -> stream; the re-mine reuses mine_many without a cycle).
        from repro.api import mine_many

        with self.obs.span("stream.remine.seconds"):
            results = mine_many(
                [shard.stream.index for shard in stale],
                mine_at,
                closed=False,
                n_jobs=self.n_jobs,
                obs=self.obs,
                max_length=self.max_length,
                spill_budget=self.spill_budget,
                spill_dir=self.db_dir,
            )
        for shard, result in zip(stale, results, strict=True):
            self._count_shard(shard, -1)
            shard.reset({mp.pattern.events: mp.support for mp in result}, mine_at)
            self._count_shard(shard, 1)
        self.stats.shards_remined += len(stale)

    def _count_shard(self, shard: _Shard, sign: int) -> None:
        """Add (``sign=1``) or take out (``-1``) a shard's caches in the running totals."""
        if shard.mined_threshold is None:  # never mined: nothing counted
            return
        floor = shard.floor
        self._shift_totals(
            (key, sign * (support - floor)) for key, support in shard.supports.items()
        )

    def _shift_totals(self, deltas: Iterable[tuple[PatternKey, int]]) -> None:
        """Add each ``(key, delta)`` to the running totals, dropping totals that reach 0."""
        totals = self._totals
        for key, delta in deltas:
            total = totals.get(key, 0) + delta
            if total:
                totals[key] = total
            else:
                totals.pop(key, None)

    def _gap_fill(self, shard: _Shard, key: PatternKey) -> int:
        """Exact support of ``key`` in a clean shard, computed once while it stays clean.

        Gap-filling only needs the number, so the query runs on the
        compressed engine (no landmark rows are materialised).
        """
        support = shard.supports.get(key)
        if support is None:
            self.stats.sup_comp_calls += 1
            support = shard.supports[key] = repetitive_support(shard.stream.index, Pattern(key))
            self._shift_totals(((key, support - shard.floor),))
        return support

    # reprolint: holds-lock
    def _merged_supports(
        self,
    ) -> tuple[dict[PatternKey, int], dict[PatternKey, list[int]]]:
        """Exact global supports of every globally frequent pattern, in ``(len, repr)`` order.

        Also returns each frequent key's exact per-shard supports, in shard
        order, which the closed filter's witness search reads.

        Bounds only the keys whose running total plus the shards' floors
        reaches ``min_sup`` (see the module docstring), level by level, so a
        key's prefix and suffix are settled by its turn: a key whose
        tightened bounds sum below ``min_sup`` is infrequent, and a shard
        bounding it at 0 needs no gap-filling.  Sorting the frequent keys
        keeps the table's order (and everything downstream: results, expiry
        diffs, republished stores) hash-seed independent.
        """
        shards = self._shards
        caches = [shard.supports for shard in shards]
        floors = [shard.floor for shard in shards]
        reach = self.min_sup - sum(floors)
        levels: dict[int, list[PatternKey]] = {}
        for key, total in self._totals.items():
            if total >= reach:
                levels.setdefault(len(key), []).append(key)
        merged: dict[PatternKey, int] = {}
        per_shard: dict[PatternKey, list[int]] = {}
        for length in sorted(levels):
            for key in levels[length]:
                if length == 1:
                    bounds = [
                        cache.get(key, floor) for cache, floor in zip(caches, floors, strict=True)
                    ]
                else:
                    prefix, suffix = per_shard.get(key[:-1]), per_shard.get(key[1:])
                    if prefix is None or suffix is None:
                        continue
                    bounds = [
                        min(cache.get(key, floor), before, after)
                        for cache, floor, before, after in zip(
                            caches, floors, prefix, suffix, strict=True
                        )
                    ]
                if sum(bounds) < self.min_sup:
                    continue
                supports = [
                    self._gap_fill(shard, key) if bound else 0
                    for shard, bound in zip(shards, bounds, strict=True)
                ]
                total = sum(supports)
                if total >= self.min_sup:
                    merged[key] = total
                    per_shard[key] = supports
        known = self._sort_keys
        self._sort_keys = {
            key: known.get(key) or (len(key), [repr(e) for e in key]) for key in merged
        }
        ordered = sorted(merged, key=self._sort_keys.__getitem__)
        return {key: merged[key] for key in ordered}, per_shard

    def _closed_filter(
        self, frequent: dict[PatternKey, int], per_shard: dict[PatternKey, list[int]]
    ) -> dict[PatternKey, int]:
        """Keep the closed patterns of the merged table.

        Theorem 4: ``P`` is non-closed iff some one-event extension ``Q`` has
        the same support.  Such a ``Q`` is frequent, so below the cap it is
        in ``frequent``: each key marks its one-event deletions of equal
        support.  The extensions of a cap-length key lie past the shard
        tables; `_has_witness` finds them through the cap-length keys,
        indexed here by their one-event deletions.
        """
        cap = self.max_length
        absorbed: set[PatternKey] = set()
        by_base: dict[PatternKey, list[tuple[PatternKey, Event, int, int]]] = {}
        capped: list[tuple[PatternKey, list[tuple[PatternKey, int, int]]]] = []
        for key, support in frequent.items():
            deletions = _deletions(key)
            for base, _, _ in deletions:
                if frequent.get(base) == support:
                    absorbed.add(base)
            if len(key) == cap:
                for base, start, stop in deletions:
                    by_base.setdefault(base, []).append((key, key[start], start, stop))
                capped.append((key, deletions))
        for key, deletions in capped:
            if self._has_witness(key, deletions, by_base, per_shard):
                absorbed.add(key)
        return {key: support for key, support in frequent.items() if key not in absorbed}

    def _has_witness(
        self,
        key: PatternKey,
        deletions: list[tuple[PatternKey, int, int]],
        by_base: dict[PatternKey, list[tuple[PatternKey, Event, int, int]]],
        per_shard: dict[PatternKey, list[int]],
    ) -> bool:
        """True if the cap-length ``key`` has a one-event extension of equal support.

        Supports never grow under extension, even per sequence (Theorem 1),
        and add across shards, so a witness ``Q`` has ``sup_s(Q) = sup_s(key)``
        in every shard ``s``.  Each one-event deletion ``R`` of ``Q`` is then a
        frequent cap-length key that *dominates* ``key``: ``sup_s(R) >=
        sup_s(key)`` in every shard.  Deleting from ``Q`` the event that a
        deletion ``B`` of ``key`` drops gives such an ``R`` with deletion ``B``,
        so the dominating keys of any one bucket ``by_base[B]`` (``key``
        itself included, for a doubled event) yield every witness: the
        smallest bucket is searched.  Each candidate ``Q`` they yield must
        have only dominating deletions, and is then confirmed shard by shard
        with exact supports.
        """
        own = per_shard[key]
        base, deleted, _ = min(deletions, key=lambda d: len(by_base[d[0]]))
        neighbours = [
            entry for entry in by_base[base] if all(map(ge, per_shard[entry[0]], own))
        ]
        return any(
            self._is_witness(candidate, own, per_shard)
            for candidate in _extensions(key, deleted, neighbours)
        )

    def _is_witness(
        self, candidate: PatternKey, own: list[int], per_shard: dict[PatternKey, list[int]]
    ) -> bool:
        """True if ``candidate`` has the per-shard supports ``own`` of its deletion.

        Every one-event deletion must be a frequent key dominating ``own``.
        The exact supports are then compared shard by shard, and the check
        stops at the first shard that falls short.  Each is cached on its
        shard while the shard's table lasts: cached shards go first, so a
        known shortfall costs no query, then the rest newest first, whose
        answers stay cached longest in a sliding window.
        """
        for gap in range(len(candidate)):
            theirs = per_shard.get(candidate[:gap] + candidate[gap + 1 :])
            if theirs is None or not all(map(ge, theirs, own)):
                return False
        unknown = []
        for shard, need in zip(reversed(self._shards), reversed(own), strict=True):
            if need:
                support = shard.witnesses.get(candidate)
                if support is None:
                    unknown.append((shard, need))
                elif support < need:
                    return False
        for shard, need in unknown:
            self.stats.sup_comp_calls += 1
            self.stats.witness_calls += 1
            support = repetitive_support(shard.stream.index, Pattern(candidate))
            shard.witnesses[candidate] = support
            if support < need:
                return False
        return True


def _extensions(
    key: PatternKey, deleted: int, neighbours: list[tuple[PatternKey, Event, int, int]]
) -> Iterator[PatternKey]:
    """The one-event extensions of ``key`` that have a neighbour as a deletion, once each.

    ``neighbours`` share the deletion of ``key``'s run that starts at
    ``deleted``; each is that base with ``event`` put into any gap in
    ``[low, high)``.  In ``key`` a base gap left of the deleted event keeps
    its index, one right of it moves up by one, and the deleted event's own
    gap may take ``event`` on either side.
    """
    for _, event, low, high in neighbours:
        first = low if low <= deleted else low + 1
        last = high - 1 if high - 1 < deleted else high
        for gap in range(first, last + 1):
            if gap == first or key[gap - 1] != event:  # else the same as one gap earlier
                yield key[:gap] + (event,) + key[gap:]


def _deletions(key: PatternKey) -> list[tuple[PatternKey, int, int]]:
    """The distinct one-event deletions of ``key``, each with its run ``[start, stop)``.

    Deleting any event of a run of equal events gives the same key, so each
    run gives one deletion.
    """
    deletions = []
    start, length = 0, len(key)
    while start < length:
        stop = start + 1
        while stop < length and key[stop] == key[start]:
            stop += 1
        deletions.append((key[:start] + key[start + 1 :], start, stop))
        start = stop
    return deletions

