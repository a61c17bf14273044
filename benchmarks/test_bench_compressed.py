"""Compressed vs full-landmark engine: growth speed and peak memory.

``store_instances=False`` (the default) runs the miners on the Section III-D
``(i, l1, lm)`` triples; ``store_instances=True`` runs on full ``m``-wide
landmark rows.  These benchmarks quantify the difference on a long-pattern
workload — the regime the compressed representation exists for, where the
full engine pays O(pattern_length) per instance per growth step and the
compressed engine pays O(1).

Each test records its engine, wall time (the benchmark timer) and
``tracemalloc`` peak into ``extra_info``, so the numbers land in the
benchmark-smoke JSON artifact CI uploads; the comparison test additionally
asserts the two engines agree and that the compressed engine's peak memory
is strictly lower.
"""

import random
import time
import tracemalloc

import pytest

from repro.core.compressed import equivalent, sup_comp_compressed
from repro.core.gsgrow import GSgrow
from repro.core.support import sup_comp
from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex

#: Length-24 pattern — long enough that full landmark rows dominate the cost.
PATTERN = "ABCABCABCABCABCABCABCABC"

MINE_MIN_SUP = 150
MINE_MAX_LENGTH = 6


@pytest.fixture(scope="module")
def long_pattern_index():
    """Noisy periodic traces: deep frequent patterns with high repetitive support."""
    rng = random.Random(11)
    sequences = []
    for _ in range(8):
        events = []
        for _ in range(150):
            events.extend("ABC")
            if rng.random() < 0.3:
                events.append(rng.choice("DE"))
        sequences.append("".join(events))
    db = SequenceDatabase.from_strings(sequences, name="long-pattern-traces")
    return InvertedEventIndex(db)


def _peak_memory(func):
    tracemalloc.start()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_growth_full_landmarks(benchmark, long_pattern_index):
    result = benchmark(sup_comp, long_pattern_index, PATTERN)
    _, peak = _peak_memory(lambda: sup_comp(long_pattern_index, PATTERN))
    benchmark.extra_info["engine"] = "full-landmark"
    benchmark.extra_info["support"] = result.support
    benchmark.extra_info["tracemalloc_peak_bytes"] = peak
    assert result.support > 0


def test_growth_compressed(benchmark, long_pattern_index):
    result = benchmark(sup_comp_compressed, long_pattern_index, PATTERN)
    _, peak = _peak_memory(lambda: sup_comp_compressed(long_pattern_index, PATTERN))
    benchmark.extra_info["engine"] = "compressed"
    benchmark.extra_info["support"] = result.support
    benchmark.extra_info["tracemalloc_peak_bytes"] = peak
    assert equivalent(sup_comp(long_pattern_index, PATTERN), result)


def test_engine_comparison(benchmark, long_pattern_index):
    """Head-to-head on the same process: equality, wall time and peak memory."""

    def compare():
        t0 = time.perf_counter()
        full = sup_comp(long_pattern_index, PATTERN)
        full_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        compressed = sup_comp_compressed(long_pattern_index, PATTERN)
        compressed_seconds = time.perf_counter() - t0
        assert equivalent(full, compressed)
        _, full_peak = _peak_memory(lambda: sup_comp(long_pattern_index, PATTERN))
        _, compressed_peak = _peak_memory(
            lambda: sup_comp_compressed(long_pattern_index, PATTERN)
        )
        return {
            "support": compressed.support,
            "pattern_length": len(PATTERN),
            "full_seconds": full_seconds,
            "compressed_seconds": compressed_seconds,
            "growth_speedup": full_seconds / compressed_seconds,
            "full_peak_bytes": full_peak,
            "compressed_peak_bytes": compressed_peak,
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["compressed_peak_bytes"] < stats["full_peak_bytes"]


def test_mine_default_engine_matches_full(benchmark, long_pattern_index):
    """Whole-mine comparison: default (compressed) DFS vs store_instances=True."""

    def compare():
        t0 = time.perf_counter()
        full = GSgrow(
            MINE_MIN_SUP, max_length=MINE_MAX_LENGTH, store_instances=True
        ).mine(long_pattern_index)
        full_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        compressed = GSgrow(MINE_MIN_SUP, max_length=MINE_MAX_LENGTH).mine(
            long_pattern_index
        )
        compressed_seconds = time.perf_counter() - t0
        assert [(mp.pattern.events, mp.support) for mp in compressed] == [
            (mp.pattern.events, mp.support) for mp in full
        ]
        return {
            "patterns": len(compressed),
            "full_seconds": full_seconds,
            "compressed_seconds": compressed_seconds,
            "mine_speedup": full_seconds / compressed_seconds,
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["patterns"] > 0
