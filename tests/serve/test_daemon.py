"""End-to-end tests of the pattern-serving daemon and its client.

The acceptance bar: start ``serve`` on a store mined in-test, issue
match/score/rank/top-k requests from the client, and get results identical
to the in-process :class:`~repro.match.service.PatternMatcher` (modulo the
JSON wire encoding, which stringifies per-sequence keys); cover graceful
reload on store republication, including the supports-only fast path that
reuses the compiled automaton.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.clogsgrow import mine_closed
from repro.db.database import SequenceDatabase
from repro.match.service import PatternMatcher
from repro.match.store import PatternStore, save_patterns
from repro.obs import MetricsRegistry, SpanJournalWriter, TraceRecorder
from repro.serve import PatternServer, ServeClient, ServeError, serve
from repro.serve import core as serve_core
from repro.stream.miner import StreamMiner

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

QUERY = ["ABCDAB", "AACB", "ABCABCDD", "DDDD"]

# train_db / store_file / running come from tests/serve/conftest.py, which
# also promotes ResourceWarning to an error for this whole suite.


def in_process_matcher(store_file) -> PatternMatcher:
    """The oracle: the same store matched without a network in between."""
    return PatternMatcher(PatternStore.load(store_file))


class TestOperations:
    def test_ping_reports_the_store(self, running, store_file):
        server, client = running
        info = client.ping()
        assert info["patterns"] == len(PatternStore.load(store_file))
        assert info["store_path"] == str(store_file)
        assert info["reloads"] == 0
        assert info["pid"] == os.getpid()

    def test_match_identical_to_in_process(self, running, store_file):
        _, client = running
        wire = client.match(QUERY)
        local = in_process_matcher(store_file).match(SequenceDatabase.from_strings(QUERY))
        assert wire["num_sequences"] == local.num_sequences
        assert wire["coverage"] == local.coverage()
        for entry, expected in zip(wire["entries"], local, strict=True):
            assert entry["pattern"] == list(expected.pattern.events)
            assert entry["support"] == expected.support
            assert entry["per_sequence"] == {
                str(i): n for i, n in expected.per_sequence.items()
            }

    def test_score_identical_to_in_process(self, running, store_file):
        _, client = running
        scores = client.score(QUERY)
        local = in_process_matcher(store_file).score_many(
            list(SequenceDatabase.from_strings(QUERY))
        )
        assert [s["coverage"] for s in scores] == [s.coverage for s in local]
        assert [s["anomaly"] for s in scores] == [s.anomaly for s in local]
        for wire_score, expected in zip(scores, local, strict=True):
            assert wire_score["supports"] == [
                [list(p.events), n] for p, n in expected.supports.items()
            ]
            assert wire_score["missing"] == [list(p.events) for p in expected.missing]

    def test_rank_identical_to_in_process(self, running, store_file):
        _, client = running
        ranked = client.rank(QUERY, k=2)
        local = in_process_matcher(store_file).rank_sequences(
            list(SequenceDatabase.from_strings(QUERY)), 2
        )
        assert [index for index, _ in ranked] == [index for index, _ in local]
        assert [score["anomaly"] for _, score in ranked] == [
            score.anomaly for _, score in local
        ]

    def test_top_k_identical_to_in_process(self, running, store_file):
        _, client = running
        top = client.top_k(QUERY, k=3)
        local = in_process_matcher(store_file).top_patterns(
            SequenceDatabase.from_strings(QUERY), 3
        )
        assert top == [[list(p.events), n] for p, n in local]

    def test_single_string_query(self, running):
        _, client = running
        scores = client.score("ABCDAB")
        assert len(scores) == 1

    def test_request_id_is_echoed(self, running):
        server, _ = running
        response, stop = server.handle_raw(b'{"op":"ping","id":42}')
        assert not stop
        assert json.loads(response)["id"] == 42


class _RecordingJournal(SpanJournalWriter):
    """A span journal that remembers every instance and whether it was closed."""

    opened: list[SpanJournalWriter] = []

    def __init__(self, path):
        super().__init__(path)
        self.closed = False
        self.opened.append(self)

    def close(self):
        self.closed = True
        super().close()


class TestConstruction:
    def test_negative_batch_window_is_checked_before_loading(self, tmp_path):
        with pytest.raises(ValueError, match="batch_window_ms"):
            PatternServer(tmp_path / "missing.rps", batch_window_ms=-1)

    @pytest.mark.parametrize(
        "failure", ["negative_window", "missing_store", "port_in_use", "uds_not_a_socket"]
    )
    def test_a_failed_construction_closes_the_span_journal(
        self, store_file, tmp_path, monkeypatch, failure
    ):
        monkeypatch.setattr(serve_core, "SpanJournalWriter", _RecordingJournal)
        monkeypatch.setattr(_RecordingJournal, "opened", [])
        options = {}
        occupied = None
        if failure == "negative_window":
            options["batch_window_ms"] = -1
        elif failure == "missing_store":
            options["stores"] = {"extra": tmp_path / "missing.rps"}
        elif failure == "port_in_use":
            occupied = socket.create_server(("127.0.0.1", 0))
            options["port"] = occupied.getsockname()[1]
        else:
            options["uds"] = tmp_path / "not-a-socket"
            options["uds"].write_text("somebody's data")
        try:
            with pytest.raises((ValueError, OSError)):
                PatternServer(
                    store_file,
                    obs=MetricsRegistry(recorder=TraceRecorder()),
                    trace_out=tmp_path / "spans.jsonl",
                    **options,
                )
        finally:
            if occupied is not None:
                occupied.close()
        assert all(journal.closed for journal in _RecordingJournal.opened)


class TestErrors:
    def test_unknown_operation(self, running):
        _, client = running
        with pytest.raises(ServeError, match="unknown operation"):
            client.request("frobnicate")

    def test_missing_sequences(self, running):
        _, client = running
        with pytest.raises(ServeError, match="sequences"):
            client.request("match")

    def test_invalid_json_line(self, running):
        server, _ = running
        response, stop = server.handle_raw(b"this is not json")
        assert not stop
        payload = json.loads(response)
        assert payload["ok"] is False and "JSON" in payload["error"]

    def test_errors_do_not_kill_the_connection(self, running):
        _, client = running
        with pytest.raises(ServeError):
            client.request("nope")
        assert client.ping()["ok"]

    def test_client_drops_connection_after_transport_error(self, running):
        """A failed request may leave a response in flight; the socket must
        not be reused (the next reader would get the wrong payload)."""
        _, client = running
        client.connect()

        class _FailsOnFlush:
            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                return self.inner.write(data)

            def flush(self):
                raise OSError("simulated mid-request timeout")

            def readline(self):
                return self.inner.readline()

            def close(self):
                self.inner.close()

        client._file = _FailsOnFlush(client._file)
        with pytest.raises(OSError, match="simulated"):
            client.ping()
        assert client._sock is None  # connection dropped, not reused
        assert client.ping()["ok"]  # lazy reconnect gives a clean pairing

    def test_oversized_request_line_is_rejected(self, store_file, monkeypatch):
        from repro.serve import aio as aio_module

        monkeypatch.setattr(aio_module, "MAX_LINE_BYTES", 1024)
        with PatternServer(store_file) as server:
            host, port = server.address
            with (
                socket.create_connection((host, port), timeout=30) as sock,
                sock.makefile("rwb") as stream,
            ):
                stream.write(b'{"op":"ping","pad":"' + b"x" * 2048 + b'"}\n')
                stream.flush()
                payload = json.loads(stream.readline())
                assert payload["ok"] is False
                assert "exceeds" in payload["error"]
                assert stream.readline() == b""  # daemon closed the connection


class TestReload:
    def test_reload_noop_when_unchanged(self, running):
        _, client = running
        outcome = client.reload()
        assert outcome["reloaded"] is False

    def test_reload_picks_up_new_pattern_set(self, running, store_file, train_db):
        _, client = running
        before = client.ping()["patterns"]
        save_patterns(mine_closed(train_db, 3), store_file)
        outcome = client.reload()
        assert outcome["reloaded"] is True
        assert outcome["automaton_reused"] is False
        assert outcome["patterns"] != before
        assert client.ping()["reloads"] == 1

    def test_supports_only_republish_reuses_the_automaton(self, running, store_file):
        _, client = running
        store = PatternStore.load(store_file)
        bumped = PatternStore(
            [(p, s + 1) for p, s in store.entries()],
            min_sup=store.min_sup,
            algorithm=store.algorithm,
            metadata=store.metadata,
        )
        assert bumped.patch_file_supports(store_file)
        outcome = client.reload()
        assert outcome["reloaded"] is True
        assert outcome["automaton_reused"] is True

    def test_auto_reload_swaps_before_the_request(self, store_file, train_db):
        with PatternServer(store_file, auto_reload=True) as server, ServeClient(
            *server.address
        ) as client:
            before = client.ping()["patterns"]
            save_patterns(mine_closed(train_db, 3), store_file)
            after = client.ping()["patterns"]
        assert after != before

    def test_auto_reload_failure_keeps_the_daemon_serving(self, store_file):
        """A corrupt republish must not poison requests (or remote shutdown)."""
        with PatternServer(store_file, auto_reload=True) as server, ServeClient(
            *server.address
        ) as client:
            patterns = client.ping()["patterns"]
            store_file.write_bytes(b"RPST garbage that cannot be parsed")
            info = client.ping()  # still answers, on the loaded state
            assert info["patterns"] == patterns
            assert info["last_reload_error"]
            assert client.score(QUERY)  # operations keep working
            assert client.shutdown()["stopping"] is True

    def test_explicit_reload_failure_is_reported_but_survivable(self, running, store_file):
        _, client = running
        store_file.write_bytes(b"RPST garbage that cannot be parsed")
        with pytest.raises(ServeError, match="pattern.store"):
            client.reload()
        assert client.ping()["ok"]  # the daemon kept its loaded state

    def test_racing_stale_reload_cannot_reinstall_old_state(self, store_file, train_db):
        """A slow loader finishing after a fresher swap must lose the race."""
        import time

        server = PatternServer(store_file)
        try:
            namespace = server._namespaces["default"]
            stale_state, stale_adopted = server._load_state(namespace.path, None)
            time.sleep(0.01)  # ensure the republish lands with a newer mtime
            save_patterns(mine_closed(train_db, 3), store_file)
            assert server.reload()["reloaded"] is True
            fresh_store = server.store
            assert not server._swap_state(namespace, stale_state, stale_adopted)
            assert server.store is fresh_store
        finally:
            server.close()

    def test_stream_republish_bridge(self, tmp_path):
        """StreamMiner(store_path=...) republishes; the daemon serves each window."""
        path = tmp_path / "stream.rps"
        miner = StreamMiner(2, shard_size=2, window=2, store_path=path)
        miner.append_many(["AA", "AA"])
        miner.refresh()
        with PatternServer(path) as server, ServeClient(*server.address) as client:
            first = client.top_k(["AAAA"], k=5)
            miner.append_many(["AAA", "AA"])
            miner.refresh()  # supports-only in-place patch
            outcome = client.reload()
            assert outcome["automaton_reused"] is True
            second = client.top_k(["AAAA"], k=5)
        # Query supports are query-side, so they match; the served store
        # changed supports underneath without a recompile.
        assert first == second


class TestStats:
    def test_stats_matches_a_scripted_request_sequence_exactly(self, running):
        """Per-op counters and latency histograms mirror the requests sent."""
        _, client = running
        client.ping()
        client.score(QUERY)
        client.score(QUERY[:1])
        client.match(QUERY)
        client.top_k(QUERY, k=3)
        client.rank(QUERY)
        snap = client.stats()
        counters = snap["counters"]
        # A request is recorded after its response is built, so this stats
        # request is not in the snapshot it carried back.
        expected = {
            "serve.op.ping.requests": 1,
            "serve.op.score.requests": 2,
            "serve.op.match.requests": 1,
            "serve.op.top_k.requests": 1,
            "serve.op.rank.requests": 1,
            "serve.op.stats.requests": 0,
            "serve.op.reload.requests": 0,
            "serve.op.shutdown.requests": 0,
            "serve.op.invalid.requests": 0,
            "serve.requests": 6,
            "serve.errors": 0,
        }
        for name, value in expected.items():
            assert counters[name] == value, name
        histograms = snap["histograms"]
        for op, requests in (("ping", 1), ("score", 2), ("match", 1)):
            summary = histograms[f"serve.op.{op}.seconds"]
            assert summary["count"] == requests
            assert 0.0 <= summary["p50"] <= summary["p99"] <= summary["max"]
        assert counters["serve.bytes_in"] > 0
        assert counters["serve.bytes_out"] > counters["serve.bytes_in"]
        # The next stats call sees the previous one counted.
        assert client.stats()["counters"]["serve.op.stats.requests"] == 1

    def test_errors_and_unknown_ops_are_counted(self, running):
        _, client = running
        with pytest.raises(ServeError):
            client.request("no_such_op")
        with pytest.raises(ServeError):
            client.score([])
        snap = client.stats()
        assert snap["counters"]["serve.op.invalid.requests"] == 1
        assert snap["counters"]["serve.op.score.requests"] == 1
        assert snap["counters"]["serve.errors"] == 2
        assert snap["counters"]["serve.requests"] == 2
        assert snap["histograms"]["serve.op.invalid.seconds"]["count"] == 1

    def test_reload_metrics_and_last_reload_duration(self, running):
        server, client = running
        assert client.ping()["last_reload_seconds"] is None
        client.reload(force=True)
        snap = client.stats()
        assert snap["counters"]["serve.reloads"] == 1
        assert snap["counters"]["serve.automaton_adoptions"] == 1
        assert snap["histograms"]["serve.reload.seconds"]["count"] == 1
        info = client.ping()
        assert info["last_reload_seconds"] is not None
        assert info["last_reload_seconds"] >= 0.0
        assert server.last_reload_seconds == info["last_reload_seconds"]

    def test_ping_reports_uptime_and_requests_served(self, running):
        _, client = running
        first = client.ping()
        assert first["requests_served"] == 0
        assert first["uptime_ticks"] >= 0.0
        second = client.ping()
        assert second["requests_served"] == 1
        assert second["uptime_ticks"] >= first["uptime_ticks"]

    def test_injected_clock_pins_latencies(self, store_file):
        """The clock seam makes per-op latency deterministic end to end."""
        from repro.obs import MetricsRegistry

        ticks = iter(range(10_000))
        obs = MetricsRegistry(clock=lambda: float(next(ticks)))
        server = PatternServer(store_file, obs=obs)
        raw, _stop = server.handle_raw(b'{"op":"ping"}')
        assert json.loads(raw)["ok"] is True
        summary = obs.snapshot()["histograms"]["serve.op.ping.seconds"]
        # one tick at request start, one inside ping (uptime), one at the end
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == 2.0
        server.close()

    def test_disabled_registry_serves_without_recording(self, store_file):
        from repro.obs import MetricsRegistry

        server = PatternServer(store_file, obs=MetricsRegistry(enabled=False))
        raw, _stop = server.handle_raw(b'{"op":"stats"}')
        response = json.loads(raw)
        assert response["ok"] is True
        assert response["stats"] == {"counters": {}, "gauges": {}, "histograms": {}}
        assert server.requests_served == 1
        server.close()


class TestShutdown:
    def test_shutdown_request_stops_the_server(self, store_file):
        server = serve(store_file, block=False)
        client = ServeClient(*server.address)
        assert client.shutdown()["stopping"] is True
        # The serving loop has been told to stop; the socket closes next.
        server.close()

    def test_cli_serve_end_to_end(self, store_file):
        """`python -m repro serve` prints its address and speaks the protocol."""
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store_file)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("# serving")
            host, port = banner.rsplit(" on ", 1)[1].split(":")
            with (
                socket.create_connection((host, int(port)), timeout=30) as sock,
                sock.makefile("rwb") as stream,
            ):
                stream.write(b'{"op":"ping"}\n')
                stream.flush()
                assert json.loads(stream.readline())["ok"] is True
                stream.write(b'{"op":"shutdown"}\n')
                stream.flush()
                assert json.loads(stream.readline())["stopping"] is True
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
