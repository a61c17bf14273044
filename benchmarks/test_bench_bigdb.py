"""Bigger-than-RAM clickstream: ingest, mine and serve on the disk backend.

The tentpole workload of the storage seam: a Gazelle-like clickstream is
streamed into a disk-backed :class:`StreamingSequenceDatabase` (index
columns sealed into mmap'd segment files, sequences materialised lazily),
mined closed with a spill budget on the DFS frontiers, published as a
:class:`PatternStore`, and served back (scored) over a sample of the
stream — all while the in-RAM tail stays bounded by the seal threshold.

Scale is environment-driven so the same file is both the CI smoke and the
full experiment::

    REPRO_BIGDB_SEQUENCES=1000000 PYTHONPATH=src \
        python -m pytest benchmarks/test_bench_bigdb.py --benchmark-only -s

The default (2 000 sequences) keeps CI fast; the 1M-sequence run is the
paper-scale reproduction.  Every run records peak RSS (``ru_maxrss``), the
backend's resident-vs-mapped byte split, and ingest/mine/serve throughput
into ``extra_info`` (set ``REPRO_BIGDB_TRACEMALLOC=1`` for an additional
untimed mining pass under ``tracemalloc``) so the numbers land in
the benchmark-smoke JSON artifact.

At smoke scale the run additionally asserts byte-identity against a fully
RAM-backed mine of the same data — the seam must never change results.
"""

import os
import resource
import time
import tracemalloc

import pytest

from repro.core.clogsgrow import CloGSgrow, mine_closed
from repro.datagen.gazelle import GazelleLikeGenerator
from repro.db.backend import can_map_zero_copy
from repro.match.service import PatternMatcher
from repro.match.store import PatternStore
from repro.obs import MetricsRegistry
from repro.stream.database import StreamingSequenceDatabase

#: Scale knob: 2k sequences for the CI smoke, 1M for the full reproduction.
NUM_SEQUENCES = int(os.environ.get("REPRO_BIGDB_SEQUENCES", "2000"))
NUM_EVENTS = int(os.environ.get("REPRO_BIGDB_EVENTS", "120"))

#: Seal threshold of the disk backend's in-RAM tail — the memory budget the
#: index ingestion runs under, independent of database size.
SEGMENT_BYTES = int(os.environ.get("REPRO_BIGDB_SEGMENT_BYTES", str(64 * 1024)))

#: Per-set spill threshold for the mining frontiers.
SPILL_BUDGET = 1 << 20

#: Support threshold tracks the database size (clickstream events are
#: zipfian, so a fixed fraction keeps the pattern count stable as N grows).
MIN_SUP = max(200, NUM_SEQUENCES // 10)
MAX_LENGTH = 4

#: Above this size the RAM-backed equality oracle is skipped (it would
#: materialise the whole database twice; the seam's equivalence is gated at
#: smoke scale and by the randomized suites in tests/).
ORACLE_LIMIT = 20_000

SERVE_SAMPLE = 200

#: Opt-in second mining pass under ``tracemalloc`` for an exact allocation
#: peak.  Off by default: tracing slows the mine ~10x, and ``ru_maxrss``
#: already gives a process-level peak on every run.
TRACE_ALLOCATIONS = os.environ.get("REPRO_BIGDB_TRACEMALLOC", "") == "1"


def canon(result):
    return sorted((mp.pattern.events, mp.support) for mp in result)


@pytest.fixture(scope="module")
def clickstream():
    return GazelleLikeGenerator(
        num_sequences=NUM_SEQUENCES, num_events=NUM_EVENTS, seed=8
    ).generate()


def test_bigdb_mine_and_serve_under_memory_budget(benchmark, run_once, tmp_path, clickstream):
    obs = MetricsRegistry()

    def pipeline():
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # --- Ingest: stream every sequence into the disk-backed index ----
        t0 = time.perf_counter()
        stream = StreamingSequenceDatabase(
            name="bigdb-clickstream",
            db_backend="disk",
            db_dir=str(tmp_path / "bigdb"),
            segment_bytes=SEGMENT_BYTES,
        )
        for seq in clickstream:
            stream.append(seq)
        ingest_seconds = time.perf_counter() - t0
        ingest_stats = stream.index.backend.memory_stats()

        # --- Mine closed patterns with spilled frontiers -----------------
        def mine():
            miner = CloGSgrow(
                MIN_SUP,
                max_length=MAX_LENGTH,
                spill_budget=SPILL_BUDGET,
                spill_dir=str(tmp_path / "spill"),
                obs=obs,
            )
            return miner.mine(stream.index)

        t0 = time.perf_counter()
        result = mine()
        mine_seconds = time.perf_counter() - t0
        # tracemalloc slows mining ~10x, so the traced pass is a separate
        # untimed run, opt-in only (ru_maxrss covers every run for free).
        mine_peak = None
        if TRACE_ALLOCATIONS:
            tracemalloc.start()
            try:
                mine()
                _, mine_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        # --- Serve: publish the patterns and score a stream sample -------
        store = PatternStore.from_result(result)
        matcher = PatternMatcher(store)
        step = max(1, len(stream) // SERVE_SAMPLE)
        sample = [stream.sequence(i) for i in range(1, len(stream) + 1, step)]
        t0 = time.perf_counter()
        scores = matcher.score_many(sample)
        serve_seconds = time.perf_counter() - t0

        stats = {
            "sequences": NUM_SEQUENCES,
            "events_ingested": stream.appended_events,
            "segment_bytes": SEGMENT_BYTES,
            "min_sup": MIN_SUP,
            "patterns": len(result),
            "sequences_scored": len(scores),
            "ingest_seconds": round(ingest_seconds, 4),
            "ingest_events_per_second": round(stream.appended_events / ingest_seconds),
            "mine_seconds": round(mine_seconds, 4),
            "serve_seconds": round(serve_seconds, 4),
            "serve_sequences_per_second": round(len(scores) / serve_seconds),
            "db_resident_bytes": ingest_stats["resident_bytes"],
            "db_mapped_bytes": ingest_stats["mapped_bytes"],
            "db_segments": ingest_stats["segments"],
            "spills": obs.counter("core.spill.spills").value,
            "rss_peak_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
            **(
                {"mine_tracemalloc_peak_bytes": mine_peak}
                if mine_peak is not None
                else {}
            ),
            "rss_delta_bytes": max(
                0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
            )
            * 1024,
        }
        return stream, result, stats

    stream, result, stats = run_once(pipeline)
    benchmark.extra_info.update(stats)

    assert stats["patterns"] > 0
    assert stats["sequences_scored"] > 0
    if can_map_zero_copy():
        # The budget claim: sealed data is mapped, not resident — the tail
        # (plus per-list overhead on a just-opened overlay) stays within a
        # small multiple of the seal threshold regardless of database size.
        assert stats["db_segments"] > 0
        assert stats["db_mapped_bytes"] > 0
        assert stats["db_resident_bytes"] <= 4 * SEGMENT_BYTES

    if NUM_SEQUENCES <= ORACLE_LIMIT:
        # Byte-identity oracle: the same data mined fully in RAM.
        oracle = mine_closed(stream.snapshot(), MIN_SUP, max_length=MAX_LENGTH)
        assert canon(result) == canon(oracle)

    stream.index.backend.close()
