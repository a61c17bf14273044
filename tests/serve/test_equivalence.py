"""Byte-level equivalence across every way a request can be served.

The serving tier's core guarantee: a request produces the *same response
bytes* no matter which door it comes through.  This suite pins that down
pairwise against a single oracle — the in-process
:class:`~repro.match.service.PatternMatcher` plus the protocol's wire
encoders — for:

* the embedded :meth:`ServeCore.handle_raw` path,
* the asyncio daemon over TCP,
* the same daemon over its unix-domain socket,
* the same daemon with batching and the cache off
  (``batch_window_ms=0, cache_size=0``), where every request takes the
  lone-request route,
* the micro-batched dispatch path (one amortised automaton sweep), both
  driven directly through :meth:`ServeCore.process_batch` and provoked
  live with concurrent clients against a wide batch window,
* cache hits against the misses that filled them — including across a
  supports-only in-place patch, where the generation bump must force a
  recomputation that is still byte-identical for query-side operations.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.db.database import SequenceDatabase
from repro.db.sequence import as_sequence
from repro.match.service import PatternMatcher
from repro.match.store import PatternStore, load_patterns
from repro.serve import PatternServer
from repro.serve.core import ServeCore
from repro.serve.protocol import (
    encode_line,
    match_result_to_wire,
    ranked_to_wire,
    score_to_wire,
    top_patterns_to_wire,
)

# Every deterministic operation the daemons serve, with parameter
# variations and the error paths a client can hit.  ``id`` keys make the
# responses self-describing when an assertion fires.
WIRE_REQUESTS: list[dict] = [
    {"op": "match", "sequences": ["ABCDAB", "AACB"], "id": "match-list"},
    {"op": "match", "sequences": "ABCD", "id": "match-string"},
    {"op": "score", "sequences": ["ABCDAB", "AACB"], "id": "score-list"},
    {"op": "score", "sequences": "ABCABC", "id": "score-string"},
    {"op": "rank", "sequences": ["ABCDAB", "AACB", "DDDD"], "id": "rank"},
    {"op": "rank", "sequences": ["ABCDAB", "AACB"], "k": 1, "id": "rank-k"},
    {"op": "top_k", "sequences": ["ABCDAB"], "id": "topk-default"},
    {"op": "top-k", "sequences": ["ABCDAB"], "k": 2, "id": "topk-alias"},
    {"op": "top_k", "sequences": ["ABCDAB"], "by": "ratio", "id": "topk-ratio"},
    {"op": "score", "sequences": 42, "id": "err-bad-sequences"},
    {"op": "score", "id": "err-missing-sequences"},
    {"op": "frobnicate", "id": "err-unknown-op"},
    {"op": "score", "sequences": ["ABCD"], "ns": "nope", "id": "err-unknown-ns"},
    {"sequences": ["ABCD"], "id": "err-missing-op"},
]


def tcp_exchange(address: tuple[str, int], lines: list[bytes]) -> list[bytes]:
    """Send raw request lines over one TCP connection; collect raw responses."""
    with (
        socket.create_connection(address, timeout=30) as sock,
        sock.makefile("rwb") as stream,
    ):
        responses = []
        for line in lines:
            stream.write(line)
            stream.flush()
            responses.append(stream.readline())
        return responses


def uds_exchange(path, lines: list[bytes]) -> list[bytes]:
    """Same as :func:`tcp_exchange`, over the unix-domain socket."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(str(path))
        with sock.makefile("rwb") as stream:
            responses = []
            for line in lines:
                stream.write(line)
                stream.flush()
                responses.append(stream.readline())
            return responses


class TestTransportEquivalence:
    def test_every_transport_matches_the_embedded_core(self, store_file, uds_path):
        """aio-TCP == aio-UDS == unbatched, uncached TCP == in-process handle_raw."""
        lines = [encode_line(req) for req in WIRE_REQUESTS]
        oracle_core = ServeCore(store_file)
        expected = [oracle_core.handle_raw(line)[0] for line in lines]

        with PatternServer(store_file, uds=uds_path) as aio:
            via_tcp = tcp_exchange(aio.address, lines)
            via_uds = uds_exchange(uds_path, lines)
        with PatternServer(store_file, batch_window_ms=0, cache_size=0) as lone:
            via_lone = tcp_exchange(lone.address, lines)

        for request, want, tcp, uds, unbatched in zip(
            WIRE_REQUESTS, expected, via_tcp, via_uds, via_lone, strict=True
        ):
            label = request["id"]
            assert tcp == want, f"aio TCP diverged on {label}"
            assert uds == want, f"aio UDS diverged on {label}"
            assert unbatched == want, f"unbatched, uncached daemon diverged on {label}"

    def test_success_responses_match_in_process_matcher(self, store_file):
        """The daemons are a wire skin over PatternMatcher — prove it."""
        store = load_patterns(store_file)
        matcher = PatternMatcher(store)
        core = ServeCore(store_file)

        def served(request: dict) -> dict:
            response, _ = core.handle_raw(encode_line(request))
            return json.loads(response)

        query = ["ABCDAB", "AACB"]
        db = SequenceDatabase([as_sequence(seq) for seq in query])

        match_wire = match_result_to_wire(matcher.match(db))
        assert served({"op": "match", "sequences": query}) == {
            "ok": True,
            **match_wire,
        }
        scores = [score_to_wire(s) for s in matcher.score_many(list(db))]
        assert served({"op": "score", "sequences": query}) == {
            "ok": True,
            "scores": scores,
        }
        ranked = ranked_to_wire(matcher.rank_sequences(list(db), None, by="anomaly"))
        assert served({"op": "rank", "sequences": query}) == {
            "ok": True,
            "ranked": ranked,
        }
        top = top_patterns_to_wire(matcher.top_patterns(db, 10, by="support"))
        assert served({"op": "top_k", "sequences": query}) == {
            "ok": True,
            "patterns": top,
        }


class TestBatchedDispatchEquivalence:
    def test_process_batch_bytes_match_sequential_dispatch(self, store_file):
        """One amortised sweep == N independent sweeps, byte for byte."""
        sequential = ServeCore(store_file)
        batched = ServeCore(store_file)
        lines = [encode_line(req) for req in WIRE_REQUESTS]
        expected = [sequential.handle_raw(line)[0] for line in lines]

        tickets = [batched.begin(line) for line in lines]
        produced = [response for response, _ in batched.process_batch(tickets)]
        for request, want, got in zip(WIRE_REQUESTS, expected, produced):
            assert got == want, f"batched dispatch diverged on {request['id']}"
        # The amortised sweep really ran as one batch, not a loop.
        histogram = batched.obs.snapshot()["histograms"]["serve.batch.size"]
        assert histogram["max"] == len(WIRE_REQUESTS)

    def test_live_concurrent_batching_is_byte_identical(self, store_file):
        """Concurrent clients inside one window get single-path bytes."""
        oracle = ServeCore(store_file)
        queries = [["ABCDAB"], ["AACB", "ABCD"], ["DDDD"], ["ABCABC"], ["AABB"]]
        requests = [
            {"op": "score", "sequences": seq, "id": f"client-{i}"}
            for i, seq in enumerate(queries)
        ]
        expected = {
            req["id"]: oracle.handle_raw(encode_line(req))[0] for req in requests
        }

        async def fan_out(address: tuple[str, int]) -> dict[str, bytes]:
            connections = [
                await asyncio.open_connection(*address) for _ in requests
            ]
            try:
                # Write every request before reading anything, so they all
                # land inside the same (wide) batching window.
                for (_, writer), req in zip(connections, requests):
                    writer.write(encode_line(req))
                await asyncio.gather(*(w.drain() for _, w in connections))
                raw = await asyncio.gather(
                    *(reader.readline() for reader, _ in connections)
                )
            finally:
                for _, writer in connections:
                    writer.close()
                await asyncio.gather(*(w.wait_closed() for _, w in connections))
            return {
                req["id"]: line for req, line in zip(requests, raw)
            }

        with PatternServer(
            store_file, batch_window_ms=150.0, cache_size=0
        ) as server:
            produced = asyncio.run(fan_out(server.address))
            batch_sizes = server.obs.snapshot()["histograms"]["serve.batch.size"]

        for label, want in expected.items():
            assert produced[label] == want, f"live batch diverged on {label}"
        assert batch_sizes["max"] >= 2, "the wide window never actually batched"


class TestCacheEquivalence:
    def test_hit_is_byte_identical_to_miss_across_supports_patch(
        self, store_file, train_db
    ):
        """Cache epochs: a supports-only patch forces a recomputation whose
        bytes still match the pre-patch response for query-side ops."""
        core = ServeCore(store_file, auto_reload=True, cache_size=64)
        lines = {
            "score": encode_line({"op": "score", "sequences": ["ABCDAB", "AACB"]}),
            "match": encode_line({"op": "match", "sequences": ["ABCDAB", "AACB"]}),
        }
        generation_before = core.generation()

        miss = {name: core.handle_raw(line)[0] for name, line in lines.items()}
        hit = {name: core.handle_raw(line)[0] for name, line in lines.items()}
        assert hit == miss
        counters = core.obs.snapshot()["counters"]
        assert counters["serve.cache.hits"] == len(lines)

        # Supports-only in-place patch: same patterns, republished file.
        store = load_patterns(store_file)
        bumped = PatternStore(
            [(p, s + 1) for p, s in store.entries()],
            min_sup=store.min_sup,
            algorithm=store.algorithm,
            metadata=store.metadata,
        )
        assert bumped.patch_file_supports(store_file)

        after_patch = {name: core.handle_raw(line)[0] for name, line in lines.items()}
        assert core.generation() == generation_before + 1
        counters = core.obs.snapshot()["counters"]
        # The generation bump made the old cache entries unreachable: the
        # post-patch responses were recomputed (two new misses), and their
        # bytes still equal the pre-patch ones — query-side supports don't
        # depend on the mined supports column.
        assert counters["serve.cache.misses"] == 2 * len(lines)
        assert after_patch == miss
