"""The one route a request takes through :class:`~repro.serve.core.ServeCore`.

A lone request (``dispatch``) and a flushed batch (``process_batch``) are
answered the same way: each ticket reads the response cache, the
``score`` / ``match`` misses of one namespace share one automaton sweep,
and each computed success fills the cache.  These tests pin the route's
edges:

* a ticket whose ``ns`` cannot name a namespace gets its own error line
  and leaves the rest of its batch alone, in-process and on a live daemon;
* the cache counters stay true across the split between the event loop
  (which counts hits) and the worker pool (which counts misses): every
  cacheable request counts once, as a hit or a miss;
* the sweep releases its match result before it builds the score wire
  lists, so a lone request's garbage never holds both at once.
"""

from __future__ import annotations

import asyncio
import json
import weakref

import pytest

from repro.match.service import PatternMatcher
from repro.serve import PatternServer, ServeClient
from repro.serve import core as core_module
from repro.serve.core import ServeCore
from repro.serve.protocol import encode_line

GOOD = {"op": "score", "sequences": ["ABCDAB"], "id": "good"}


async def exchange_concurrently(
    address: tuple[str, int], requests: list[dict]
) -> list[bytes]:
    """One connection per request, all written before any is read."""
    connections = [await asyncio.open_connection(*address) for _ in requests]
    try:
        for (_, writer), request in zip(connections, requests, strict=True):
            writer.write(encode_line(request))
        await asyncio.gather(*(writer.drain() for _, writer in connections))
        return await asyncio.gather(
            *(asyncio.wait_for(reader.readline(), 30) for reader, _ in connections)
        )
    finally:
        for _, writer in connections:
            writer.close()
        await asyncio.gather(*(writer.wait_closed() for _, writer in connections))


class TestUnusableNamespaceInABatch:
    @pytest.mark.parametrize("bad_ns", [["x"], {"x": 1}])
    def test_process_batch_answers_each_ticket(self, store_file, bad_ns):
        bad = {"op": "score", "sequences": ["ABCDAB"], "ns": bad_ns, "id": "bad"}
        lines = [encode_line(GOOD), encode_line(bad)]
        oracle = ServeCore(store_file)
        expected = [oracle.handle_raw(line)[0] for line in lines]

        core = ServeCore(store_file)
        produced = [line for line, _ in core.process_batch([core.begin(x) for x in lines])]

        assert produced == expected
        assert json.loads(produced[1]) == {
            "ok": False,
            "error": f"'ns' must be a string, got {type(bad_ns).__name__}",
            "id": "bad",
        }
        assert json.loads(produced[0])["ok"] is True

    def test_live_daemon_answers_both_clients(self, store_file):
        bad = {"op": "score", "sequences": ["ABCDAB"], "ns": ["x"], "id": "bad"}
        oracle = ServeCore(store_file)
        expected = [oracle.handle_raw(encode_line(r))[0] for r in (GOOD, bad)]

        with PatternServer(store_file, batch_window_ms=150.0) as server:
            produced = asyncio.run(exchange_concurrently(server.address, [GOOD, bad]))
            sizes = server.obs.snapshot()["histograms"]["serve.batch.size"]

        assert sizes["max"] == 2, "the two requests never shared a batch"
        assert produced == expected


class TestCacheCountersAcrossLoopAndPool:
    def test_each_cacheable_request_counts_once(self, store_file):
        with PatternServer(store_file, batch_window_ms=20.0, cache_size=64) as server:
            with ServeClient(*server.address) as client:
                # Sequential: each first request misses, each repeat hits.
                client.score(["ABCDAB"])
                for _ in range(3):
                    client.score(["ABCDAB"])
                client.match(["ABCDAB"])
                client.match(["ABCDAB"])
                client.rank(["ABCDAB", "AACB"])
                client.rank(["ABCDAB", "AACB"])
                client.top_k(["ABCDAB"], k=2)
                client.top_k(["ABCDAB"], k=2)
                for fresh in ("AB", "ABC", "BCD"):
                    client.score([fresh])
                client.ping()
                counters = client.stats()["counters"]
                assert counters["serve.cache.hits"] == 6
                assert counters["serve.cache.misses"] == 7

                # A concurrent burst: repeats of a new query that land in one
                # window miss together; already-cached ones hit on the loop.
                burst = [
                    {"op": "score", "sequences": ["DCBA"]},
                    {"op": "score", "sequences": ["DCBA"]},
                    {"op": "score", "sequences": ["DCBA"]},
                    {"op": "score", "sequences": ["CCAB"]},
                    {"op": "match", "sequences": ["DCBA"]},
                    {"op": "score", "sequences": ["ABCDAB"]},
                    {"op": "match", "sequences": ["ABCDAB"]},
                    {"op": "rank", "sequences": ["ABCDAB", "AACB"], "k": None, "by": "anomaly"},
                ]
                lines = asyncio.run(exchange_concurrently(server.address, burst))
                assert all(json.loads(line)["ok"] for line in lines)
                counters = client.stats()["counters"]

        cacheable = 13 + len(burst)
        assert counters["serve.cache.hits"] + counters["serve.cache.misses"] == cacheable
        assert counters["serve.cache.hits"] >= 6 + 3


class TestSweepReleasesItsResult:
    def test_match_result_is_gone_before_score_wire_lists(self, store_file, monkeypatch):
        results: list[weakref.ref] = []
        alive_at_wire: list[bool] = []
        match, score_to_wire = PatternMatcher.match, core_module.score_to_wire

        def recording_match(self, query, **kwargs):
            result = match(self, query, **kwargs)
            results.append(weakref.ref(result))
            return result

        def checking_score_to_wire(score):
            alive_at_wire.append(results[-1]() is not None)
            return score_to_wire(score)

        monkeypatch.setattr(PatternMatcher, "match", recording_match)
        monkeypatch.setattr(core_module, "score_to_wire", checking_score_to_wire)
        core = ServeCore(store_file, cache_size=0)
        lines = [
            encode_line({"op": "score", "sequences": ["ABCDAB", "AACB"]}),
            encode_line({"op": "match", "sequences": ["ABCD"]}),
            encode_line({"op": "score", "sequences": ["ABCABC"]}),
        ]
        core.handle_raw(lines[0])
        core.process_batch([core.begin(lines[0])])
        core.process_batch([core.begin(line) for line in lines])

        assert len(results) == 3
        assert alive_at_wire == [False] * 7
