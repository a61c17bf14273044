"""Concurrent-load benchmark: batched asyncio daemon vs thread-per-connection.

The serving daemon is an asyncio event loop with server-side
micro-batching (one automaton sweep amortised across every ``score`` /
``match`` request that lands inside the batching window) and a
generation-keyed response cache served straight from the event loop.  The
claim that justifies that design: under many concurrent clients it clearly
outperforms a thread-per-connection daemon, whose per-request costs — a
full matcher sweep per request plus GIL-contended handler threads — scale
with client count.

The baseline is :class:`ThreadPerConnectionServer` below: a
:mod:`socketserver` shell over the same :meth:`ServeCore.handle_raw`, so
the two daemons differ only in how requests reach the core.  This
benchmark drives both with the same fleet of concurrent clients over the
same store and records throughput plus per-request p50/p99 latency into
``extra_info`` (and therefore into the CI benchmark-smoke JSON), for two
workloads:

* **unique** — every request is a distinct tiny query, so the response
  cache never hits and the win comes from micro-batching alone;
* **repeat** — requests draw from a small pool, so after warm-up the
  asyncio daemon answers from the in-loop cache without ever touching a
  worker thread (the baseline shares the same cache, but pays a scheduled
  handler thread per response).

The acceptance bar: at ``CLIENTS`` concurrent clients the batched asyncio
daemon sustains at least ``REQUIRED_SPEEDUP``x the baseline's throughput
on the unique workload, and its unique run really batched (a flush of at
least two requests in ``serve.batch.size``).
"""

from __future__ import annotations

import asyncio
import random
import socketserver
import statistics
import threading
import time

import pytest

from repro.core.clogsgrow import mine_closed
from repro.db.database import SequenceDatabase
from repro.match.store import save_patterns
from repro.serve import PatternServer
from repro.serve.core import ServeCore
from repro.serve.protocol import encode_line

CLIENTS = 32
REQUESTS_PER_CLIENT = 30
WARMUP_REQUESTS = 8
BATCH_WINDOW_MS = 2.0
REPEAT_POOL = 8

#: The asyncio daemon must at least double the thread-per-connection
#: baseline's throughput at CLIENTS concurrent clients on the uncached
#: workload (in practice the margin is wider; the bar tolerates CI noise).
REQUIRED_SPEEDUP = 2.0


class ThreadPerConnectionServer(ServeCore):
    """The baseline daemon: a ServeCore behind a thread-per-connection socketserver.

    Every request line goes through :meth:`ServeCore.handle_raw` on its
    connection's thread — no batching, no event loop — and gets one
    response line back.  The listener is a stock ``ThreadingTCPServer``
    that points back at this core, default listen backlog (5) included:
    the fleet's burst of ``CLIENTS`` connects overflows that backlog, and
    the connections it stalls (a TCP retransmission, 200-400 ms) set much
    of this baseline's throughput.
    """

    def __init__(self, store_path) -> None:
        super().__init__(store_path)
        self._tcp = _ThreadingServer(("127.0.0.1", 0), _LineHandler)
        self._tcp.owner = self
        self.address = self._tcp.server_address

    def __enter__(self) -> ThreadPerConnectionServer:
        threading.Thread(target=self._tcp.serve_forever, daemon=True).start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _LineHandler(socketserver.StreamRequestHandler):
    """Answers each newline-framed request with ``handle_raw``'s line."""

    def handle(self) -> None:
        owner = self.server.owner
        for raw in self.rfile:
            raw = raw.strip()
            if raw:
                self.wfile.write(owner.handle_raw(raw)[0])
                self.wfile.flush()


@pytest.fixture(scope="module")
def load_store_file(tmp_path_factory):
    db = SequenceDatabase.from_strings(
        ["AABCDABB", "ABCD", "ABCABCD", "BCADDA", "ABABAB"]
    )
    result = mine_closed(db, 2)
    return save_patterns(result, tmp_path_factory.mktemp("serve-load") / "load.rps")


def _random_query(rng: random.Random) -> str:
    return "".join(rng.choices("ABCDE", k=rng.randint(4, 8)))


def _payloads(workload: str, seed: int) -> list[list[bytes]]:
    """Per-client request-line schedules for one load run."""
    rng = random.Random(seed)
    if workload == "repeat":
        pool = [
            encode_line({"op": "score", "sequences": [_random_query(rng)]})
            for _ in range(REPEAT_POOL)
        ]
        return [
            [rng.choice(pool) for _ in range(REQUESTS_PER_CLIENT)]
            for _ in range(CLIENTS)
        ]
    return [
        [
            encode_line(
                {"op": "score", "sequences": [f"{_random_query(rng)}{client:02d}"]}
            )
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for client in range(CLIENTS)
    ]


def _run_load(address: tuple[str, int], schedules: list[list[bytes]]) -> dict:
    """Drive every client schedule concurrently; return throughput and tails."""

    async def one_client(payloads: list[bytes], latencies: list[float]) -> None:
        reader, writer = await asyncio.open_connection(*address)
        try:
            for line in payloads:
                started = time.perf_counter()
                writer.write(line)
                await writer.drain()
                response = await reader.readline()
                latencies.append(time.perf_counter() - started)
                assert response.endswith(b"\n")
        finally:
            writer.close()
            await writer.wait_closed()

    async def fleet() -> tuple[float, list[float]]:
        # Warm caches and code paths outside the timed window.
        warm = [schedules[0][0]] * WARMUP_REQUESTS
        await one_client(warm, [])
        latencies: list[float] = []
        started = time.perf_counter()
        await asyncio.gather(
            *(one_client(schedule, latencies) for schedule in schedules)
        )
        return time.perf_counter() - started, latencies

    elapsed, latencies = asyncio.run(fleet())
    total = sum(len(schedule) for schedule in schedules)
    ordered = sorted(latencies)
    return {
        "requests": total,
        "seconds": elapsed,
        "throughput_rps": total / elapsed,
        "p50_ms": statistics.median(ordered) * 1e3,
        "p99_ms": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3,
    }


def test_batched_aio_daemon_outpaces_threaded_daemon(benchmark, load_store_file):
    """32 concurrent clients: asyncio+batching >= 2x thread-per-connection throughput."""

    def compare() -> dict:
        stats: dict[str, float] = {}
        for workload in ("unique", "repeat"):
            schedules = _payloads(workload, seed=10)
            with PatternServer(
                load_store_file, batch_window_ms=BATCH_WINDOW_MS
            ) as aio_server:
                aio = _run_load(aio_server.address, schedules)
                batches = aio_server.obs.snapshot()["histograms"]["serve.batch.size"]
            aio["max_batch_size"] = batches["max"]
            with ThreadPerConnectionServer(load_store_file) as threaded_server:
                threaded = _run_load(threaded_server.address, schedules)
            for name, run in (("aio", aio), ("threaded", threaded)):
                for key, value in run.items():
                    stats[f"{workload}_{name}_{key}"] = value
            stats[f"{workload}_speedup"] = (
                aio["throughput_rps"] / threaded["throughput_rps"]
            )
        return stats

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"clients": CLIENTS, "requests_per_client": REQUESTS_PER_CLIENT, **stats}
    )
    assert stats["unique_aio_max_batch_size"] >= 2, "the unique workload never batched"
    assert stats["unique_speedup"] >= REQUIRED_SPEEDUP, (
        f"batched asyncio daemon only {stats['unique_speedup']:.2f}x the "
        f"thread-per-connection daemon at {CLIENTS} clients "
        f"(bar: {REQUIRED_SPEEDUP}x): {stats}"
    )
