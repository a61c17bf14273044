"""Daemon processes and the clients that drive them.

Everything here speaks the daemon's wire protocol directly (one JSON object
per line), so no client-side program code sits in a measured path.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

HERE = Path(__file__).resolve().parent


def encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


PING = encode({"op": "ping"})
RELOAD = encode({"op": "reload"})
STATS = encode({"op": "stats"})
SHUTDOWN = encode({"op": "shutdown"})


class LineClient:
    """A blocking one-request-at-a-time connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response.endswith(b"\n"):
            raise ConnectionError("daemon closed the connection mid-response")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Daemon:
    """One serving daemon child process and its address."""

    process: subprocess.Popen
    address: tuple[str, int]
    log: IO[bytes] = field(repr=False)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """Ask the daemon to shut down, then make sure it has exited."""
        if self.process.poll() is None:
            try:
                client = LineClient(self.address, timeout=10.0)
                try:
                    client.request(SHUTDOWN)
                finally:
                    client.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self.log.close()


def start_daemon(store: Path, run_dir: Path, env: dict, *, traced: bool) -> Daemon:
    """Start a daemon over ``store`` and return once it answers a ping.

    Untraced it is ``python -m repro serve STORE`` with every default; traced
    it is the same command line entry under ``launcher.py``'s wrappers.
    """
    if traced:
        command = [sys.executable, str(HERE / "launcher.py"), str(store), str(run_dir)]
    else:
        command = [sys.executable, "-m", "repro", "serve", str(store)]
    log = open(run_dir / "daemon.log", "ab")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, env=env)
    try:
        address = _read_address(process)
        client = LineClient(address)
        try:
            if not json.loads(client.request(PING)).get("ok"):
                raise RuntimeError("daemon refused the first ping")
        finally:
            client.close()
    except BaseException:
        process.kill()
        process.wait(timeout=20)
        process.stdout.close()
        log.close()
        raise
    return Daemon(process, address, log)


def _read_address(process: subprocess.Popen, timeout: float = 60.0) -> tuple[str, int]:
    """Parse ``# serving ... on HOST:PORT`` off the daemon's first stdout line."""
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError("daemon did not announce its address")
    line = process.stdout.readline().decode("utf-8", "replace").strip()
    if not line.startswith("# serving"):
        raise RuntimeError(f"daemon failed to start: {line!r}")
    host, _, port = line.rsplit(" on ", 1)[1].split(",")[0].rpartition(":")
    return host, int(port)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


# ---------------------------------------------------------------------------
# Load over asyncio connections
# ---------------------------------------------------------------------------
@dataclass
class Sent:
    """One request's timeline: when it was due, sent and answered."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    hit: bool = False
    response: bytes = b""


class Load:
    """Requests ``lines[i]`` in order; ``repeat_of[i]`` names a pooled trace or is None.

    A request for a pooled trace is expected to hit the response cache
    once an earlier request for the same trace has been answered.
    """

    def __init__(self, lines: list[bytes], repeat_of: list[int | None]) -> None:
        self.lines = lines
        self.repeat_of = repeat_of
        self.next = 0
        self.answered_pool: set[int] = set()

    def take(self) -> int | None:
        if self.next >= len(self.lines):
            return None
        index = self.next
        self.next += 1
        return index

    async def _exchange(self, reader, writer, sent: Sent) -> None:
        pooled = self.repeat_of[sent.index]
        sent.hit = pooled is not None and pooled in self.answered_pool
        sent.sent = time.perf_counter()
        writer.write(self.lines[sent.index])
        await writer.drain()
        sent.response = await reader.readline()
        sent.done = time.perf_counter()
        if pooled is not None:
            self.answered_pool.add(pooled)

    async def closed(
        self, address: tuple[str, int], connections: int, seconds: float, limit: int | None = None
    ) -> tuple[list[Sent], float]:
        """Each connection sends its next request when the last one returns."""
        results: list[Sent] = []
        started = time.perf_counter()
        stop_at = started + seconds
        first = self.next

        async def connection() -> None:
            reader, writer = await asyncio.open_connection(*address)
            try:
                while time.perf_counter() < stop_at:
                    if limit is not None and self.next - first >= limit:
                        break
                    index = self.take()
                    if index is None:
                        break
                    sent = Sent(index, due=time.perf_counter())
                    await self._exchange(reader, writer, sent)
                    results.append(sent)
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(connection() for _ in range(connections)))
        return results, time.perf_counter() - started

    async def open(
        self, address: tuple[str, int], connections: int, rate: float, count: int
    ) -> tuple[list[Sent], list[float]]:
        """Send ``count`` requests due every ``1/rate`` s, over a shared pool of connections.

        Latency runs from each request's due time, so waiting for a busy
        connection counts against the daemon.  The second list is how late
        the generator's timer fired against the schedule, which excludes
        those waits.
        """
        queue: asyncio.Queue[Sent | None] = asyncio.Queue()
        results: list[Sent] = []
        lateness: list[float] = []

        async def connection() -> None:
            reader, writer = await asyncio.open_connection(*address)
            try:
                while True:
                    sent = await queue.get()
                    if sent is None:
                        break
                    await self._exchange(reader, writer, sent)
                    results.append(sent)
            finally:
                writer.close()
                await writer.wait_closed()

        workers = [asyncio.ensure_future(connection()) for _ in range(connections)]
        await asyncio.sleep(0.05)
        start = time.perf_counter() + 0.01
        for k in range(count):
            index = self.take()
            if index is None:
                break
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            queue.put_nowait(Sent(index, due=due))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return results, lateness


def request_stats(address: tuple[str, int]) -> dict:
    client = LineClient(address)
    try:
        return json.loads(client.request(STATS))["stats"]
    finally:
        client.close()


def python_env(root: Path) -> dict:
    """The environment every program process runs in."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed string-hash seed keeps set iteration, and so any work that
    # depends on it, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env
