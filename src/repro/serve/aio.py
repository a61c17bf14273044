"""The pattern-serving daemon: an asyncio event loop over ``ServeCore``.

The daemon's brains live in :class:`repro.serve.core.ServeCore`; this
module is the event-loop shell around them, exported as
``repro.serve.PatternServer``.  It answers each line exactly as
:meth:`~repro.serve.core.ServeCore.handle_raw` would in-process.

What the event loop buys:

* **Connection scaling** — one loop multiplexes every connection, so a
  thousand mostly-idle workers cost file descriptors, not threads, and a
  slowloris writer trickling bytes occupies a read buffer, not a stack.
* **A unix-domain socket** (``uds=...``) next to TCP, for same-host
  workers that want to skip the loopback stack and key access off file
  permissions.
* **Micro-batching** — ``score`` / ``match`` requests that arrive within
  the batching window (``batch_window_ms``) are answered from **one**
  automaton sweep over their concatenated query sequences
  (:meth:`~repro.serve.core.ServeCore.process_batch`), amortising the
  per-sweep overhead across the batch.  Per-sequence supports are
  independent, so batched responses are byte-identical to unbatched ones.
* **The loop never blocks on mining code** — dispatch (and every batch
  sweep) runs on a thread pool; the loop only reads frames, writes
  responses, and serves response-cache hits (a dict lookup).

The division of labour per request: the loop thread runs
:meth:`~repro.serve.core.ServeCore.begin` (decode) and, for cacheable
operations, the cache read :meth:`~repro.serve.core.ServeCore.try_cached`;
everything that can take real time — auto-reload checks, automaton sweeps,
store swaps — runs on the pool, a flushed batch through
:meth:`~repro.serve.core.ServeCore.process_batch` and any other request
through :meth:`~repro.serve.core.ServeCore.dispatch`.  Responses are
written back in arrival order per connection.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core.constraints import GapConstraint
from repro.obs import MetricsRegistry
from repro.serve.core import RequestTicket, ServeCore
from repro.serve.protocol import MAX_LINE_BYTES, encode_line, error_response

PathLike = str | Path

__all__ = ["PatternServer", "serve"]

#: Default batching window: how long the first batchable request in a
#: batch waits for company, in milliseconds.  One millisecond is long
#: enough to merge a concurrent burst and short enough to be invisible
#: next to a sweep.
DEFAULT_BATCH_WINDOW_MS = 1.0


class PatternServer(ServeCore):
    """A scoring daemon over loaded pattern stores, served by an event loop.

    Accepts every :class:`~repro.serve.core.ServeCore` parameter plus the
    transport's own:

    host, port:
        The TCP listening address; ``port=0`` (default) picks an ephemeral
        port, read back from :attr:`address`.
    uds:
        Optional unix-domain socket path to listen on *in addition to*
        TCP.  A stale socket file from a dead daemon is replaced; the path
        is unlinked again on :meth:`close`.
    batch_window_ms:
        The micro-batching window for ``score`` / ``match`` requests: the
        first such request starts a timer this many milliseconds long, and
        every one that arrives before it fires joins the same automaton
        sweep.  ``0`` disables batching (each request sweeps alone).
    max_workers:
        Thread-pool size for dispatch; defaults to the executor's own
        CPU-derived default.

    The sockets are bound in the constructor — :attr:`address` is real
    before :meth:`start` — and the event loop runs on whichever thread
    calls :meth:`serve_forever` (or the daemon thread :meth:`start`
    spawns).  :meth:`~repro.serve.core.ServeCore.handle_raw` works without
    any loop at all, so embedded callers and tests can drive the core
    in-process.
    """

    def __init__(
        self,
        store_path: PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: PathLike | None = None,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        max_workers: int | None = None,
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
        super().__init__(
            store_path,
            stores=stores,
            constraint=constraint,
            mmap=mmap,
            auto_reload=auto_reload,
            obs=obs,
            trace_out=trace_out,
            slow_ms=slow_ms,
            slow_sink=slow_sink,
            cache_size=cache_size,
        )
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        self._batch_window = batch_window_ms / 1000.0
        self._max_workers = max_workers
        # Sockets are bound eagerly so `address` answers before the loop
        # exists and bind errors surface at construction, where the caller
        # can still handle them.
        self._tcp_socket = socket.create_server((host, port))
        self._uds_path: Path | None = None
        self._uds_socket: socket.socket | None = None
        if uds is not None:
            path = Path(uds)
            if path.exists():
                # A stale socket file from a dead daemon would make bind()
                # fail; anything else at the path is somebody's data.
                if not path.is_socket():
                    self._tcp_socket.close()
                    raise OSError(f"refusing to replace non-socket path {path}")
                path.unlink()
            uds_socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                uds_socket.bind(str(path))
                uds_socket.listen()
            except OSError:
                uds_socket.close()
                self._tcp_socket.close()
                raise
            self._uds_path = path
            self._uds_socket = uds_socket
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_requested = False
        self._startup_error: BaseException | None = None
        self._pending: list[
            tuple[RequestTicket, asyncio.Future[tuple[bytes, bool]]]
        ] = []
        self._flush_handle: asyncio.TimerHandle | None = None

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound TCP ``(host, port)`` — real even when 0 was asked."""
        host, port = self._tcp_socket.getsockname()[:2]
        return host, port

    @property
    def uds_path(self) -> Path | None:
        """The bound unix-domain socket path, or ``None`` when TCP-only."""
        return self._uds_path

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        asyncio.run(self._serve_main())

    def start(self) -> threading.Thread:
        """Serve on a daemon background thread; returns the thread.

        Blocks until the loop is accepting (or startup failed, which
        re-raises here rather than dying silently on the thread).
        """
        thread = threading.Thread(
            target=self._run_loop, name="repro-serve-aio", daemon=True
        )
        self._thread = thread
        thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return thread

    def _run_loop(self) -> None:
        """The background thread's body: the event loop, startup errors kept."""
        try:
            asyncio.run(self._serve_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self._startup_error = exc
        finally:
            self._ready.set()

    def shutdown(self) -> None:
        """Stop the serving loop (safe to call from any thread, or twice)."""
        self._stop_requested = True
        loop = self._loop
        stop_event = self._stop_event
        if loop is None or stop_event is None:
            return
        try:
            loop.call_soon_threadsafe(stop_event.set)
        except RuntimeError:
            # The loop already exited; nothing left to stop.
            pass

    def close(self) -> None:
        """Stop serving, join the loop thread, and release every socket.

        The store is *not* force-closed here: pool workers may still be
        finishing in-flight requests on it, so the mapping is left to
        close when the last reference drops — exactly how superseded
        stores retire on :meth:`~repro.serve.core.ServeCore.reload`.
        """
        self.shutdown()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        # asyncio closed these when the loop exited; closing twice is a
        # no-op, and closing here covers the never-started case.
        self._tcp_socket.close()
        if self._uds_socket is not None:
            self._uds_socket.close()
        if self._uds_path is not None:
            try:
                self._uds_path.unlink()
            except OSError:
                pass
        self._close_core()

    def __enter__(self) -> PatternServer:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    async def _serve_main(self) -> None:
        """The loop's whole life: listen, serve until stopped, drain, exit."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-serve-worker"
        )
        connections: set[asyncio.Task[None]] = set()

        async def on_connection(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            """Track the connection task so shutdown can cancel stragglers."""
            task = asyncio.current_task()
            if task is not None:
                connections.add(task)
                task.add_done_callback(connections.discard)
            await self._serve_connection(reader, writer)

        tcp_server = await asyncio.start_server(
            on_connection, sock=self._tcp_socket, limit=MAX_LINE_BYTES + 2
        )
        uds_server: asyncio.AbstractServer | None = None
        if self._uds_socket is not None:
            uds_server = await asyncio.start_unix_server(
                on_connection, sock=self._uds_socket, limit=MAX_LINE_BYTES + 2
            )
        self._ready.set()
        if self._stop_requested:
            self._stop_event.set()
        try:
            await self._stop_event.wait()
        finally:
            tcp_server.close()
            if uds_server is not None:
                uds_server.close()
            await tcp_server.wait_closed()
            if uds_server is not None:
                await uds_server.wait_closed()
            self._flush_batch()
            for task in list(connections):
                task.cancel()
            if connections:
                await asyncio.gather(*connections, return_exceptions=True)
            self._executor.shutdown(wait=True)
            self._loop = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection's request/response loop until EOF or shutdown.

        Responses go back in request order per connection (the loop awaits
        each response before reading the next frame).  Transport faults — a
        peer gone mid-write, a frame longer than ``MAX_LINE_BYTES`` — end
        this connection and nothing else.
        """
        stop_event = self._stop_event
        assert stop_event is not None
        try:
            while True:
                # MAX_LINE_BYTES is read at call time so tests can shrink
                # it; the stream's own limit (set at listen time) backstops.
                max_line = MAX_LINE_BYTES
                try:
                    raw = await reader.readline()
                    too_long = len(raw) > max_line
                except ValueError:
                    # The stream limit tripped: an over-long frame.
                    too_long = True
                if too_long:
                    message = f"request line exceeds {max_line} bytes"
                    writer.write(encode_line(error_response(message)))
                    await writer.drain()
                    break
                if not raw:
                    break
                raw = raw.strip()
                if not raw:
                    continue
                response, stop = await self._handle_line(raw)
                writer.write(response)
                await writer.drain()
                if stop:
                    stop_event.set()
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            # The peer vanished mid-conversation; their loss, not ours.
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this connection mid-read.  Finish normally:
            # asyncio's stream plumbing calls ``task.exception()`` on the
            # connection task when it ends, and a propagated cancellation
            # would be re-raised there and logged as a loop error.  The
            # ``finally`` below still closes the transport.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    async def _handle_line(self, raw: bytes) -> tuple[bytes, bool]:
        """Route one frame: cache hit, batch queue, or pool dispatch."""
        loop = self._loop
        executor = self._executor
        assert loop is not None and executor is not None
        ticket = self.begin(raw)
        cached = self.try_cached(ticket)
        if cached is not None:
            return self.finish(ticket, cached), ticket.stop
        if ticket.batchable and self._batch_window > 0:
            future: asyncio.Future[tuple[bytes, bool]] = loop.create_future()
            self._pending.append((ticket, future))
            if self._flush_handle is None:
                self._flush_handle = loop.call_later(
                    self._batch_window, self._flush_batch
                )
            return await future
        return await loop.run_in_executor(executor, self._handle_ticket, ticket)

    def _handle_ticket(self, ticket: RequestTicket) -> tuple[bytes, bool]:
        """Pool-side lone dispatch: the core's dispatch + finish."""
        response = self.dispatch(ticket)
        return self.finish(ticket, response), ticket.stop

    def _flush_batch(self) -> None:
        """Hand the accumulated batch to the pool; runs on the loop thread."""
        self._flush_handle = None
        pending = self._pending
        if not pending:
            return
        self._pending = []
        loop = self._loop
        executor = self._executor
        if loop is None or executor is None or not loop.is_running():
            return
        tickets = [ticket for ticket, _ in pending]
        batch_future = loop.run_in_executor(executor, self.process_batch, tickets)

        def deliver(done: asyncio.Future[list[tuple[bytes, bool]]]) -> None:
            """Fan the batch's results (or its failure) out to the waiters."""
            try:
                results = done.result()
            except BaseException as exc:  # noqa: BLE001 - fail the waiters, not the loop
                for _, waiter in pending:
                    if not waiter.done():
                        waiter.set_exception(exc)
                return
            for (_, waiter), result in zip(pending, results):
                if not waiter.done():
                    waiter.set_result(result)

        batch_future.add_done_callback(deliver)


def serve(
    store_path: PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    uds: PathLike | None = None,
    stores: Mapping[str, PathLike] | None = None,
    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    cache_size: int = 1024,
    constraint: GapConstraint | None = None,
    mmap: bool | str = "auto",
    auto_reload: bool = False,
    obs: MetricsRegistry | None = None,
    trace_out: PathLike | None = None,
    slow_ms: float | None = None,
    block: bool = True,
) -> PatternServer:
    """Start a pattern-serving daemon over saved stores.

    ``block=True`` (default) serves on the calling thread until
    :meth:`PatternServer.shutdown` (or a ``shutdown`` request) stops it,
    then closes the sockets and returns.  ``block=False`` starts a daemon
    background thread and returns the running :class:`PatternServer`
    immediately — read :attr:`PatternServer.address` for the bound port
    (and :attr:`PatternServer.uds_path` for the socket path, if any).
    """
    server = PatternServer(
        store_path,
        host=host,
        port=port,
        uds=uds,
        stores=stores,
        batch_window_ms=batch_window_ms,
        cache_size=cache_size,
        constraint=constraint,
        mmap=mmap,
        auto_reload=auto_reload,
        obs=obs,
        trace_out=trace_out,
        slow_ms=slow_ms,
    )
    if not block:
        server.start()
        return server
    try:
        server.serve_forever()
    finally:
        server.close()
    return server

