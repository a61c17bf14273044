"""The serving daemon's request engine, independent of any transport.

:class:`ServeCore` is the part of the pattern-serving daemon that does not
care how bytes arrive: it owns the loaded stores, routes requests to
operations, records telemetry, and turns every request line into exactly
one response line.  The asyncio :class:`~repro.serve.aio.PatternServer` is
a thin event-loop shell over it, and :meth:`ServeCore.handle_raw` drives it
in-process, so the daemon's wire behaviour is the core's.

Three serving features live here:

* **Namespaces** — one daemon, many mmap'd stores.  Each namespace is an
  independently reloadable ``(store, matcher)`` pair keyed by name; a
  request selects one with ``{"ns": ...}`` and requests without the field
  go to the default namespace, whose wire behaviour is exactly the
  single-store daemon's.
* **Generations** — every namespace's serving state carries a monotonic
  generation number, bumped on every successful store swap (full reload
  or supports-only adoption alike).  The generation is the cache epoch:
  responses computed against generation ``g`` can never be served once a
  republish installs ``g+1``.
* **The response cache** — a bounded LRU over ``(namespace, generation,
  operation, canonical request)`` for the pure query operations
  (``score`` / ``match`` / ``rank`` / ``top_k``).  Hits return a copy of
  the cached payload, so a hit is byte-identical to the miss that filled
  it; the reload/patch path invalidates by generation bump, never by
  enumeration.

Request handling is split into three phases so transports can interleave
them with their own scheduling: :meth:`ServeCore.begin` decodes and stamps
a :class:`RequestTicket`, :meth:`ServeCore.dispatch` computes the response
dict (safe to run on any worker thread), and :meth:`ServeCore.finish`
encodes the response line and records the request's telemetry.
:meth:`ServeCore.handle_raw` runs the three in sequence for one request;
:meth:`ServeCore.process_batch` dispatches a flushed batch of ``score`` /
``match`` tickets.  Both answer through one route: the tickets of one
namespace read the response cache (:meth:`ServeCore._cache_read`), the
misses share one automaton sweep (:meth:`ServeCore._sweep`), and each
computed success fills the cache (:meth:`ServeCore._cache_fill`).
"""

from __future__ import annotations

import itertools
import os
import re
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence as PySequence
from pathlib import Path
from typing import Any

from repro.core.constraints import GapConstraint
from repro.db.database import SequenceDatabase
from repro.db.sequence import as_sequence
from repro.match.service import PatternMatcher, SequenceScore, score_from_match
from repro.match.store import PatternStore, load_patterns
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    SpanJournalWriter,
    SpanRecord,
    TraceContext,
    child_of,
    reset_context,
    set_context,
)
from repro.serve.protocol import (
    OPERATIONS,
    ProtocolError,
    canonical_request,
    decode_line,
    encode_line,
    error_response,
    match_slice_to_wire,
    ok_response,
    ranked_to_wire,
    score_to_wire,
    top_patterns_to_wire,
)

PathLike = str | Path

#: The name requests without an ``ns`` field resolve to.
DEFAULT_NAMESPACE = "default"

#: Operations whose responses are pure functions of (store generation,
#: request parameters) — the only ones the response cache may hold.
CACHEABLE_OPERATIONS = frozenset({"score", "match", "rank", "top_k"})

#: Operations answered by the shared automaton sweep (and so batchable).
BATCHABLE_OPERATIONS = frozenset({"score", "match"})

#: A response-cache key: ``(namespace, generation, operation, canonical request)``.
CacheKey = tuple[str, int, str, str]

#: Histogram bounds for the per-flush batch-size distribution (requests
#: per batch, not seconds).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_NS_SLUG_RE = re.compile(r"[^a-z0-9_]+")


def _ns_slug(name: str) -> str:
    """A namespace name reduced to a metric-safe ``[a-z0-9_]`` segment."""
    slug = _NS_SLUG_RE.sub("_", name.lower())
    return slug or "_"


class ResponseCache:
    """A small thread-safe LRU over response payload dicts.

    Keys embed the namespace's store generation, so invalidation is a
    generation bump on the publishing side — stale entries are never
    served, they simply stop being addressable and age out of the LRU.
    Values are stored as pristine copies and returned as copies, so a
    cached payload can never be mutated by the response plumbing (which
    stamps ``id`` and ``trace`` onto the dict it returns).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, dict[str, Any]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> dict[str, Any] | None:
        """The cached payload for ``key`` (refreshed as most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                return None
            self._entries.move_to_end(key)
            return dict(value)

    def put(self, key: CacheKey, value: dict[str, Any]) -> int:
        """Store a copy of ``value`` under ``key``; returns evictions made."""
        evicted = 0
        with self._lock:
            self._entries[key] = dict(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def clear(self) -> None:
        """Drop every entry (used by tests; production invalidates by generation)."""
        with self._lock:
            self._entries.clear()


class _ServingState:
    """One loaded store with its compiled matcher and the file identity it came from.

    ``identity`` is ``(st_ino, st_mtime_ns, st_size)``: atomic republishes
    (:meth:`PatternStore.save`) always create a new inode, so the inode
    catches same-size republishes even on filesystems with coarse
    timestamps, while mtime/size catch in-place supports patches.

    ``ticket`` is the server's monotonic load counter, drawn when the load
    *started*.  The file only ever moves forward, so a later-started load
    observed bytes at least as fresh as any earlier one — tickets order
    racing reloads without trusting wall-clock timestamps.

    ``generation`` is the namespace's publish epoch: assigned at swap time
    as the previous state's generation plus one, it keys the response
    cache, so every successful swap (full reload or supports-only
    adoption) retires every cached response computed before it.
    """

    __slots__ = ("store", "matcher", "identity", "ticket", "generation")

    def __init__(
        self,
        store: PatternStore,
        matcher: PatternMatcher,
        stat: os.stat_result,
        ticket: int,
    ) -> None:
        self.store = store
        self.matcher = matcher
        self.identity = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        self.ticket = ticket
        self.generation = 0


class _Namespace:
    """One served store slot: a name, its file path, and the live state."""

    __slots__ = ("name", "path", "state")

    def __init__(self, name: str, path: Path, state: _ServingState) -> None:
        self.name = name
        self.path = path
        self.state = state


class RequestTicket:
    """One request's journey through begin → dispatch → finish.

    Created by :meth:`ServeCore.begin` on whatever thread reads the bytes,
    carried through dispatch on whatever thread computes the response, and
    closed out by :meth:`ServeCore.finish`.  The trace context is *created*
    at begin time (so the response can echo it) but only made ambient
    around the dispatch, where the work it should parent actually runs.
    ``cache_key`` is the response-cache key of the latest cache read, which
    the fill after a miss reuses.
    """

    __slots__ = (
        "raw",
        "request",
        "op",
        "op_name",
        "request_id",
        "ns_label",
        "started",
        "parent",
        "context",
        "response",
        "stop",
        "cache_key",
    )

    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.request: dict[str, Any] | None = None
        self.op: Any = None
        self.op_name = "invalid"
        self.request_id: Any = None
        self.ns_label: str | None = None
        self.started = 0.0
        self.parent: TraceContext | None = None
        self.context: TraceContext | None = None
        self.response: dict[str, Any] | None = None
        self.stop = False
        self.cache_key: CacheKey | None = None

    @property
    def batchable(self) -> bool:
        """Whether the shared automaton sweep answers this request."""
        return self.response is None and self.op_name in BATCHABLE_OPERATIONS


class ServeCore:
    """The serving daemon's request engine, independent of any transport.

    Parameters
    ----------
    store_path:
        The default namespace's pattern-store file (binary or JSON,
        sniffed).  Loaded at construction — zero-copy over a shared
        read-only mapping for binary stores when ``mmap`` allows — and
        compiled into the shared automaton before the first request.
    stores:
        Optional extra namespaces: a mapping of namespace name to store
        file.  Each loads exactly like the default store and reloads
        independently; requests select one with ``{"ns": <name>}``.
    constraint:
        Optional gap constraint applied to every match (the mined
        constraint, if mining used one).
    mmap:
        Store read path: ``"auto"`` (default) / ``True`` / ``False``, with
        the semantics of :meth:`repro.match.store.PatternStore.open`.
    auto_reload:
        ``True`` re-stats a namespace's store file before every request
        routed to it and reloads when it changed; ``False`` (default)
        reloads only on the explicit ``reload`` operation.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry` to record into:
        per-operation request counts (``serve.op.<op>.requests``) and
        latency histograms (``serve.op.<op>.seconds``), per-namespace
        request counters (``serve.ns.<ns>.requests``), cache hit/miss/
        eviction counters, the batch-size histogram, bytes in/out, and
        reload/adoption counters and durations.  The ``stats`` operation
        returns this registry's snapshot.  Defaults to a private enabled
        registry.  When the registry carries an enabled
        :class:`~repro.obs.TraceRecorder`, every request additionally
        records an operation span — parented under the request's optional
        ``trace`` wire context and echoed back on the response — and the
        ``trace`` operation serves the recorder's ring.
    trace_out:
        Optional path of a JSON-lines span journal
        (:class:`~repro.obs.SpanJournalWriter`, append mode), drained
        after each request.  Requires a registry with a recorder.
    slow_ms:
        When set, any request slower than this many milliseconds emits one
        ``# slow op=<op> ms=<elapsed> trace=<trace_id>`` line through
        ``slow_sink``.
    slow_sink:
        Where slow-request lines go; defaults to stderr.
    cache_size:
        Maximum entries in the generation-keyed response cache; ``0``
        disables caching entirely.
    """

    def __init__(
        self,
        store_path: PathLike,
        *,
        stores: Mapping[str, PathLike] | None = None,
        constraint: GapConstraint | None = None,
        mmap: bool | str = "auto",
        auto_reload: bool = False,
        obs: MetricsRegistry | None = None,
        trace_out: PathLike | None = None,
        slow_ms: float | None = None,
        slow_sink: Callable[[str], None] | None = None,
        cache_size: int = 1024,
    ) -> None:
        self.store_path = Path(store_path)
        self._constraint = constraint
        self._mmap = mmap
        self._auto_reload = auto_reload
        self._lock = threading.Lock()
        self.reloads = 0
        self.automaton_reuses = 0
        self.requests_served = 0
        self.last_reload_error: str | None = None
        self.last_reload_seconds: float | None = None
        self.obs = obs if obs is not None else MetricsRegistry()
        self._started = self.obs.clock()
        # Instruments are pre-bound once (null instruments on a disabled
        # registry), so the request path never pays a per-request registry
        # dict lookup — the RL006 discipline, applied to the daemon.
        self._op_metrics: dict[str, tuple[Counter, Histogram]] = {
            name: (
                self.obs.counter(f"serve.op.{name}.requests"),  # reprolint: disable=RL008 -- the per-op family is enumerated from the closed OPERATIONS tuple, not free-form
                self.obs.histogram(f"serve.op.{name}.seconds"),  # reprolint: disable=RL008 -- same closed enumeration; each expansion is a conformant dotted name
            )
            for name in (*OPERATIONS, "invalid")
        }
        # Op span names are the op histogram names — one vocabulary for the
        # latency table and the trace tree.
        self._op_span_names: dict[str, str] = {
            name: histogram.name for name, (_, histogram) in self._op_metrics.items()
        }
        self._trace_lock = threading.Lock()
        self._trace_cursor = 0
        self._trace_writer = (
            SpanJournalWriter(trace_out) if trace_out is not None else None
        )
        self._slow_ms = slow_ms
        self._slow_sink: Callable[[str], None] = (
            slow_sink
            if slow_sink is not None
            else lambda line: print(line, file=sys.stderr)
        )
        self._requests_total = self.obs.counter("serve.requests")
        self._errors_total = self.obs.counter("serve.errors")
        self._bytes_in = self.obs.counter("serve.bytes_in")
        self._bytes_out = self.obs.counter("serve.bytes_out")
        self._cache_hits = self.obs.counter("serve.cache.hits")
        self._cache_misses = self.obs.counter("serve.cache.misses")
        self._cache_evictions = self.obs.counter("serve.cache.evictions")
        self._batch_sizes = self.obs.histogram(
            "serve.batch.size", bounds=BATCH_SIZE_BUCKETS
        )
        self._cache = ResponseCache(cache_size) if cache_size > 0 else None
        self._load_tickets = itertools.count()
        self._namespaces: dict[str, _Namespace] = {}
        for name, path in {DEFAULT_NAMESPACE: self.store_path, **dict(stores or {})}.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"namespace names must be non-empty strings, got {name!r}")
            if name in self._namespaces:
                raise ValueError(f"duplicate namespace {name!r}")
            namespace = _Namespace(name, Path(path), self._load_state(Path(path), None)[0])
            self._namespaces[name] = namespace
        # The per-namespace request counters are enumerated once from the
        # closed set of configured namespaces, exactly like the per-op
        # family above.
        self._ns_requests: dict[str, Counter] = {
            name: self.obs.counter(f"serve.ns.{_ns_slug(name)}.requests")  # reprolint: disable=RL008 -- enumerated from the closed, construction-time namespace set; slugs are conformant segments
            for name in self._namespaces
        }

    # ------------------------------------------------------------------
    # Store lifecycle
    # ------------------------------------------------------------------
    @property
    def namespaces(self) -> tuple[str, ...]:
        """The configured namespace names, default first, extras sorted."""
        extras = sorted(name for name in self._namespaces if name != DEFAULT_NAMESPACE)
        return (DEFAULT_NAMESPACE, *extras)

    def _namespace(self, name: str | None) -> _Namespace:
        """Resolve a request's ``ns`` field (``None`` → default) to its slot."""
        if name is None:
            name = DEFAULT_NAMESPACE
        if not isinstance(name, str):
            raise ProtocolError(f"'ns' must be a string, got {type(name).__name__}")
        namespace = self._namespaces.get(name)
        if namespace is None:
            known = ", ".join(self.namespaces)
            raise ProtocolError(f"unknown namespace {name!r} (serving: {known})")
        return namespace

    def _load_state(
        self, path: Path, adopt_from: PatternStore | None
    ) -> tuple[_ServingState, bool]:
        """Load the store file and compile (or adopt) its automaton.

        Returns ``(state, adopted)`` where ``adopted`` says whether the new
        store reused ``adopt_from``'s compiled automaton.  The load ticket
        is drawn *before* the file is read, so ticket order bounds bytes
        freshness (see :class:`_ServingState`).
        """
        ticket = next(self._load_tickets)
        stat = os.stat(path)
        store = load_patterns(path, mmap=self._mmap)
        adopted = adopt_from is not None and store.adopt_automaton(adopt_from)
        matcher = PatternMatcher(store, constraint=self._constraint, obs=self.obs)
        return _ServingState(store, matcher, stat, ticket), adopted

    @property
    def store(self) -> PatternStore:
        """The currently served default-namespace store."""
        return self._namespaces[DEFAULT_NAMESPACE].state.store

    def generation(self, ns: str | None = None) -> int:
        """The current publish epoch of a namespace (cache-key component)."""
        return self._namespace(ns).state.generation

    def reload(self, force: bool = False, ns: str | None = None) -> dict[str, Any]:
        """Swap in a namespace's store file if it was republished (or ``force``).

        Returns a summary dict: ``reloaded`` (whether a swap happened),
        ``automaton_reused`` (whether the new store adopted the old compiled
        automaton — the supports-only republish fast path) and ``patterns``.
        In-flight requests keep the state they started with; new requests
        see the fresh store.

        The unchanged-file fast path is lock-free (one ``stat`` + tuple
        compare) and the expensive part of an actual reload — file load and
        automaton compile — runs outside the lock too, so a republish never
        stalls concurrent requests; only the state swap itself is mutual.
        Racing reloads both do the work, but the swap keeps whichever load
        *started* later (:meth:`_swap_state` compares monotonic load
        tickets — the file only moves forward, so a later-started load read
        bytes at least as fresh), so a slow loader finishing late can never
        reinstall a superseded store, and no wall-clock comparison is
        involved.
        """
        return self._reload_namespace(self._namespace(ns), force=force)

    def _reload_namespace(self, namespace: _Namespace, force: bool = False) -> dict[str, Any]:
        """The per-namespace body of :meth:`reload`."""
        stat = os.stat(namespace.path)
        current = namespace.state
        if (
            not force
            and (stat.st_ino, stat.st_mtime_ns, stat.st_size) == current.identity
        ):
            return {
                "reloaded": False,
                "automaton_reused": False,
                "patterns": len(current.store),
            }
        started = self.obs.clock()
        state, adopted = self._load_state(namespace.path, current.store)
        swapped = self._swap_state(namespace, state, adopted)
        elapsed = self.obs.clock() - started
        if self.obs.enabled:
            with self.obs.locked():
                self.obs.histogram("serve.reload.seconds").observe(elapsed)
                if swapped:
                    self.obs.counter("serve.reloads").inc()
                    if adopted:
                        self.obs.counter("serve.automaton_adoptions").inc()
        with self._lock:
            self.last_reload_seconds = elapsed
        served = namespace.state
        return {
            "reloaded": swapped,
            "automaton_reused": swapped and adopted,
            "patterns": len(served.store),
        }

    def _swap_state(
        self, namespace: _Namespace, state: _ServingState, adopted: bool
    ) -> bool:
        """Install ``state`` unless the served state came from a later-started load.

        Load tickets are drawn before the file is read and the file only
        ever moves forward, so a later ticket means at-least-as-fresh
        bytes — an ordering immune to clock steps and coarse filesystem
        timestamps.  The swap assigns the incoming state the next
        generation, so every cached response keyed to the superseded state
        becomes unaddressable the moment the swap lands.  Returns whether
        the swap happened.
        """
        with self._lock:
            if state.ticket < namespace.state.ticket:
                return False
            state.generation = namespace.state.generation + 1
            namespace.state = state
            self.reloads += 1
            if adopted:
                self.automaton_reuses += 1
            return True

    def _maybe_auto_reload(self, namespace: _Namespace) -> None:
        """Pick up a republished store before handling a request (opt-in).

        A failed automatic reload — a mid-republish gap, a truncated or
        unreadable file, an unknown format version — must never poison the
        request being handled (or shutdown): the daemon keeps serving its
        loaded state and remembers the failure, which ``ping`` surfaces as
        ``last_reload_error``.  An explicit ``reload`` request still
        reports its failure to the caller.
        """
        if not self._auto_reload:
            return
        try:
            self._reload_namespace(namespace)
        except Exception as exc:  # noqa: BLE001 - keep serving the loaded state
            message: str | None = f"{type(exc).__name__}: {exc}"
            self.obs.counter("serve.auto_reload_failures").inc()
        else:
            message = None
        # The assignment happens under the (non-reentrant) lock, but only
        # after the reload — and the _swap_state it runs — has released it.
        with self._lock:
            self.last_reload_error = message

    # ------------------------------------------------------------------
    # Request lifecycle: begin → dispatch → finish
    # ------------------------------------------------------------------
    def begin(self, raw: bytes) -> RequestTicket:
        """Decode one request line into a ticket; never raises.

        A malformed line leaves ``ticket.response`` pre-filled with the
        error response (and the ticket filed under the ``invalid``
        pseudo-operation); dispatch then short-circuits to it.  With
        tracing on, the ticket carries a fresh child context of the
        request's optional ``trace`` wire context — created here so the
        response can echo it, made ambient only around dispatch.
        """
        obs = self.obs
        ticket = RequestTicket(raw)
        ticket.started = obs.clock() if obs.enabled else 0.0
        try:
            request = decode_line(raw)
        except ProtocolError as exc:
            ticket.response = error_response(str(exc))
            return ticket
        ticket.request = request
        ticket.request_id = request.get("id")
        op = request.get("op")
        if op == "top-k":
            op = "top_k"
        ticket.op = op
        if isinstance(op, str) and op in self._op_metrics:
            ticket.op_name = op
        recorder = obs.recorder
        if obs.enabled and recorder is not None and recorder.enabled:
            ticket.parent = TraceContext.from_wire(request.get("trace"))
            ticket.context = child_of(ticket.parent)
        return ticket

    def dispatch(self, ticket: RequestTicket) -> dict[str, Any]:
        """Compute one ticket's response dict; never raises.

        Runs on whatever thread the caller chose (the daemon's executor
        workers, or the caller's own thread via :meth:`handle_raw`).  The
        ticket's trace context is ambient for the duration, so matcher
        spans nest beneath the operation span that :meth:`finish` records.
        """
        if ticket.response is not None:
            return ticket.response
        request = ticket.request
        assert request is not None  # begin() always sets it when response is None
        token = set_context(ticket.context) if ticket.context is not None else None
        try:
            namespace = self._namespace(request.get("ns"))
            ticket.ns_label = namespace.name
            [response] = self._answer(namespace, [ticket])
            ticket.stop = ticket.op == "shutdown"
        except ProtocolError as exc:
            response = error_response(str(exc))
        except Exception as exc:  # noqa: BLE001 - the daemon must keep serving
            response = error_response(f"{type(exc).__name__}: {exc}")
        finally:
            if token is not None:
                reset_context(token)
        return response

    def try_cached(self, ticket: RequestTicket) -> dict[str, Any] | None:
        """A cache-only answer, cheap enough for an event loop; ``None`` on a miss.

        Skipped under auto-reload, whose freshness check belongs on a
        worker thread.  A miss is not counted here: the dispatch that
        follows reads the cache again and counts the hit or miss there.
        """
        if self._auto_reload or ticket.response is not None:
            return None
        assert ticket.request is not None
        try:
            namespace = self._namespace(ticket.request.get("ns"))
        except ProtocolError:
            return None
        cached = self._cache_read(ticket, namespace, namespace.state, count_miss=False)
        if cached is not None:
            ticket.ns_label = namespace.name
        return cached

    def finish(self, ticket: RequestTicket, response: dict[str, Any]) -> bytes:
        """Encode the response line and record the request's telemetry.

        Every request — including malformed ones, filed under the
        ``invalid`` pseudo-operation — is counted and timed into the
        registry *after* its response is encoded, under one registry lock
        acquisition, so in every snapshot the per-op histogram count equals
        the per-op request counter (a ``stats`` response therefore never
        counts the request that carried it).

        With tracing on, the whole handling becomes the request's
        *operation span*: parented under the request's optional ``trace``
        wire context, echoed on the response as ``trace``, and recorded
        here — which is also when the span journal drains and the
        slow-request line (if configured) is emitted.
        """
        obs = self.obs
        if ticket.request_id is not None:
            response.setdefault("id", ticket.request_id)
        context = ticket.context
        if context is not None:
            response["trace"] = context.to_wire()
        encoded = encode_line(response)
        if obs.enabled:
            elapsed = obs.clock() - ticket.started
            op_requests, op_seconds = self._op_metrics[ticket.op_name]
            ns_requests = (
                self._ns_requests.get(ticket.ns_label)
                if ticket.ns_label is not None
                else None
            )
            with obs.locked():
                self._requests_total.inc()
                op_requests.inc()
                op_seconds.observe(elapsed)
                if ns_requests is not None:
                    ns_requests.inc()
                self._bytes_in.inc(len(ticket.raw))
                self._bytes_out.inc(len(encoded))
                if not response.get("ok"):
                    self._errors_total.inc()
            recorder = obs.recorder
            if context is not None and recorder is not None:
                recorder.record(
                    SpanRecord(
                        trace_id=context.trace_id,
                        span_id=context.span_id,
                        parent_id=None if ticket.parent is None else ticket.parent.span_id,
                        name=self._op_span_names[ticket.op_name],
                        start=ticket.started,
                        duration=elapsed,
                        attributes={"op": ticket.op_name},
                    )
                )
                self._drain_trace()
            if self._slow_ms is not None and elapsed * 1000.0 >= self._slow_ms:
                trace_id = context.trace_id if context is not None else "-"
                self._slow_sink(
                    f"# slow op={ticket.op_name} ms={elapsed * 1000.0:.1f} trace={trace_id}"
                )
        with self._lock:
            self.requests_served += 1
        return encoded

    def handle_raw(self, raw: bytes) -> tuple[bytes, bool]:
        """Handle one request line; returns ``(response line, stop?)``.

        Never raises: protocol violations and handler errors come back as
        ``{"ok": false, "error": ...}`` responses so one bad request cannot
        take the daemon down.  This is begin → dispatch → finish in
        sequence — what the daemon runs for a request it does not batch,
        and what embedding callers (tests, tools) use directly.
        """
        ticket = self.begin(raw)
        response = self.dispatch(ticket)
        return self.finish(ticket, response), ticket.stop

    # ------------------------------------------------------------------
    # Batched dispatch, and the route every request shares
    # ------------------------------------------------------------------
    def process_batch(
        self, tickets: PySequence[RequestTicket]
    ) -> list[tuple[bytes, bool]]:
        """Dispatch a flushed batch of tickets, one sweep per namespace.

        The ``score`` and ``match`` tickets that share a namespace are
        answered together (:meth:`_answer`): one automaton pass over the
        concatenated query sequences of their cache misses.  Anything else
        in the batch — other operations, malformed tickets — takes the
        ordinary :meth:`dispatch`, and an unusable ``ns`` answers its own
        ticket with an error.  Records the batch's size in
        ``serve.batch.size``.

        Returns ``(response line, stop?)`` per ticket, in ticket order.
        Designed to run on a worker thread; auto-reload runs once per
        namespace per batch, before the namespace's state snapshot.
        """
        responses: dict[int, dict[str, Any]] = {}
        groups: dict[str, list[int]] = {}
        for index, ticket in enumerate(tickets):
            if not ticket.batchable:
                responses[index] = self.dispatch(ticket)
                continue
            assert ticket.request is not None
            try:
                namespace = self._namespace(ticket.request.get("ns"))
            except ProtocolError as exc:
                responses[index] = error_response(str(exc))
                continue
            ticket.ns_label = namespace.name
            groups.setdefault(namespace.name, []).append(index)
        for name, indexes in groups.items():
            answers = self._answer(self._namespaces[name], [tickets[i] for i in indexes])
            responses.update(zip(indexes, answers, strict=True))
        if self.obs.enabled:
            self._batch_sizes.observe(float(len(tickets)))
        return [
            (self.finish(ticket, responses[index]), ticket.stop)
            for index, ticket in enumerate(tickets)
        ]

    def _answer(
        self, namespace: _Namespace, tickets: list[RequestTicket]
    ) -> list[dict[str, Any]]:
        """Answer tickets routed to ``namespace`` against one state snapshot.

        Runs the namespace's auto-reload check once, then answers each
        ticket from the response cache or computes it — the ``score`` /
        ``match`` misses in one shared :meth:`_sweep`, any other operation
        alone — and fills the cache with every computed success.
        """
        self._maybe_auto_reload(namespace)
        state = namespace.state
        cached = [self._cache_read(ticket, namespace, state) for ticket in tickets]
        swept = [
            ticket
            for ticket, hit in zip(tickets, cached, strict=True)
            if hit is None and ticket.batchable
        ]
        computed = iter(self._sweep(state, swept))
        answers: list[dict[str, Any]] = []
        for ticket, answer in zip(tickets, cached, strict=True):
            if answer is None:
                if ticket.batchable:
                    answer = next(computed)
                else:
                    assert ticket.request is not None
                    answer = self._op_response(ticket.op, ticket.request, namespace, state)
                self._cache_fill(ticket, answer)
            answers.append(answer)
        return answers

    def _cache_read(
        self,
        ticket: RequestTicket,
        namespace: _Namespace,
        state: _ServingState,
        *,
        count_miss: bool = True,
    ) -> dict[str, Any] | None:
        """Key ``ticket`` under ``state``'s generation and read the response cache.

        Returns a copy of the cached response, or ``None`` on a miss and for
        uncacheable tickets.  The key stays on the ticket for
        :meth:`_cache_fill`.  Hits are counted wherever the read runs; the
        event loop's read passes ``count_miss=False``, leaving the miss to
        the worker's read, so each cacheable request counts once.
        """
        cache = self._cache
        if cache is None or ticket.op_name not in CACHEABLE_OPERATIONS:
            ticket.cache_key = None
            return None
        assert ticket.request is not None
        key = ticket.cache_key = (
            namespace.name,
            state.generation,
            ticket.op_name,
            canonical_request(ticket.request),
        )
        cached = cache.get(key)
        if cached is not None:
            self._cache_hits.inc()
        elif count_miss:
            self._cache_misses.inc()
        return cached

    def _cache_fill(self, ticket: RequestTicket, response: dict[str, Any]) -> None:
        """Cache a computed success under the key of the ticket's cache read."""
        key = ticket.cache_key
        if key is None or self._cache is None or not response.get("ok"):
            return
        evicted = self._cache.put(key, response)
        if evicted:
            self._cache_evictions.inc(evicted)

    def _sweep(
        self, state: _ServingState, tickets: list[RequestTicket]
    ) -> list[dict[str, Any]]:
        """Answer ``score`` / ``match`` tickets from one automaton pass.

        Per-sequence supports are independent (instances never span
        sequences), so slicing the pass over the tickets' concatenated
        query sequences back per ticket is byte-identical to matching each
        ticket alone.  A ticket with malformed ``sequences`` gets its own
        error and drops out of the pass, which runs under the first swept
        ticket's trace context.  The pass's
        :class:`~repro.match.automaton.MatchResult` is released before the
        score wire lists are built, so it is never alive next to them.
        """
        answers: dict[int, dict[str, Any]] = {}
        databases: list[tuple[int, SequenceDatabase]] = []
        for index, ticket in enumerate(tickets):
            assert ticket.request is not None
            try:
                databases.append((index, _query_database(ticket.request)))
            except ProtocolError as exc:
                answers[index] = error_response(str(exc))
            except Exception as exc:  # noqa: BLE001 - one bad request must not fail the rest
                answers[index] = error_response(f"{type(exc).__name__}: {exc}")
        if not databases:
            return [answers[index] for index in range(len(tickets))]
        query = SequenceDatabase([seq for _, database in databases for seq in database])
        first = tickets[databases[0][0]]
        token = set_context(first.context) if first.context is not None else None
        try:
            result = state.matcher.match(query)
        except Exception as exc:  # noqa: BLE001 - the daemon must keep serving
            for index, _ in databases:
                answers[index] = error_response(f"{type(exc).__name__}: {exc}")
            return [answers[index] for index in range(len(tickets))]
        finally:
            if token is not None:
                reset_context(token)
        scores: dict[int, list[SequenceScore]] = {}
        offset = 0
        for index, database in databases:
            count = len(database)
            if tickets[index].op_name == "score":
                scores[index] = [score_from_match(result, offset + i) for i in range(1, count + 1)]
            else:
                answers[index] = ok_response(**match_slice_to_wire(result, offset, count))
            offset += count
        del result
        for index, sequence_scores in scores.items():
            answers[index] = ok_response(scores=[score_to_wire(s) for s in sequence_scores])
        return [answers[index] for index in range(len(tickets))]

    def _op_response(
        self,
        op: Any,
        request: dict[str, Any],
        namespace: _Namespace,
        state: _ServingState,
    ) -> dict[str, Any]:
        """One operation's response against a coherent state snapshot."""
        if op == "ping":
            return ok_response(
                patterns=len(state.store),
                algorithm=state.store.algorithm,
                min_sup=state.store.min_sup,
                store_path=str(namespace.path),
                zero_copy=state.store.is_zero_copy,
                reloads=self.reloads,
                automaton_reuses=self.automaton_reuses,
                last_reload_error=self.last_reload_error,
                last_reload_seconds=self.last_reload_seconds,
                uptime_ticks=self.obs.clock() - self._started,
                requests_served=self.requests_served,
                pid=os.getpid(),
            )
        if op == "rank":
            ranked = state.matcher.rank_sequences(
                list(_query_database(request)),
                request.get("k"),
                by=request.get("by", "anomaly"),
            )
            return ok_response(ranked=ranked_to_wire(ranked))
        if op == "top_k":
            top = state.matcher.top_patterns(
                _query_database(request),
                request.get("k", 10),
                by=request.get("by", "support"),
            )
            return ok_response(patterns=top_patterns_to_wire(top))
        if op == "reload":
            return ok_response(
                **self._reload_namespace(namespace, force=bool(request.get("force")))
            )
        if op == "namespaces":
            return ok_response(
                namespaces={
                    name: {
                        "patterns": len(self._namespaces[name].state.store),
                        "generation": self._namespaces[name].state.generation,
                        "store_path": str(self._namespaces[name].path),
                        "zero_copy": self._namespaces[name].state.store.is_zero_copy,
                    }
                    for name in self.namespaces
                }
            )
        if op == "stats":
            return ok_response(stats=self.obs.snapshot())
        if op == "trace":
            recorder = self.obs.recorder
            if recorder is None:
                return ok_response(spans=[], dropped=0, total=0, enabled=False)
            limit = request.get("limit")
            spans = recorder.spans(None if limit is None else int(limit))
            return ok_response(
                spans=[span.to_wire() for span in spans],
                dropped=recorder.dropped,
                total=recorder.total,
                enabled=recorder.enabled,
            )
        if op == "shutdown":
            return ok_response(stopping=True)
        raise ProtocolError(
            f"unknown operation {op!r} (expected one of: {', '.join(OPERATIONS)})"
        )

    # ------------------------------------------------------------------
    # Teardown helpers
    # ------------------------------------------------------------------
    def _drain_trace(self) -> None:
        """Append spans recorded since the last drain to the span journal.

        Incremental via the recorder's sequence cursor; the cursor update
        and the append happen under the writer-side lock, so concurrent
        request threads never write a span twice or out of order.
        """
        writer = self._trace_writer
        recorder = self.obs.recorder
        if writer is None or recorder is None:
            return
        with self._trace_lock:
            spans, self._trace_cursor = recorder.since(self._trace_cursor)
            if spans:
                writer.write(spans)

    def _close_core(self) -> None:
        """Flush and close the core's owned resources (the span journal)."""
        if self._trace_writer is not None:
            self._drain_trace()
            self._trace_writer.close()


def _query_database(params: dict[str, Any]) -> SequenceDatabase:
    """Coerce a request's ``sequences`` parameter into a query database.

    Accepts a single string (one sequence of single-character events) or a
    list of sequences, each a string or a list of str/int events — the JSON
    shapes of what :func:`~repro.db.sequence.as_sequence` accepts.
    """
    sequences = params.get("sequences")
    if sequences is None:
        raise ProtocolError("missing required parameter 'sequences'")
    if isinstance(sequences, str):
        sequences = [sequences]
    if not isinstance(sequences, list) or not sequences:
        raise ProtocolError("'sequences' must be a non-empty list (or one string)")
    return SequenceDatabase([as_sequence(seq) for seq in sequences])
