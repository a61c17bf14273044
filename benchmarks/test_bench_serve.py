"""Serving-path benchmarks: zero-copy store sharing and compiled-automaton reuse.

The serving deployment is N worker processes on one host, all answering
queries over the same published pattern store.  Two costs dominate worker
start-up and fleet memory:

* **Store residency** — the copying read path gives every worker a private
  decoded copy of the columns, so fleet memory grows as N x store size.
  The zero-copy path (:meth:`PatternStore.open`) maps the file read-only;
  all workers share one physical copy through the page cache.  Measured
  here as the sum of per-worker PSS deltas (``/proc/self/smaps_rollup`` —
  PSS charges each resident page 1/sharers, so genuinely shared pages show
  up once across the fleet, which is exactly the quantity a capacity
  planner cares about), with all N workers resident simultaneously.
* **Automaton compilation** — recompiling the shared trie in every worker
  repeats identical work N times.  Pool workers receive the parent's
  compiled automaton pickled, so each pays one ``pickle.loads`` instead of
  a compile.

Both tests record their numbers into ``extra_info`` (the CI benchmark-smoke
JSON artifact) and assert the acceptance bars: fleet PSS near one store
(not N) for the mmap path, and unpickling strictly faster than
recompilation.
"""

import gc
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.pattern import Pattern
from repro.match import PatternAutomaton
from repro.match.store import PatternStore

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

NUM_WORKERS = 4
NUM_PATTERNS = 40_000
NUM_AUTOMATON_PATTERNS = 3_000

#: The mmap fleet must use at most half the memory of the copying fleet
#: (in practice it uses ~1/N; the bar is loose to keep CI immune to noise).
REQUIRED_MEMORY_RATIO = 2.0

#: Unpickling the compiled automaton must beat per-worker recompilation by
#: at least this factor (typically ~2x; the bar is loose to keep CI immune
#: to noise).
REQUIRED_REUSE_SPEEDUP = 1.2


def _random_patterns(count, seed, alphabet_size=64, min_len=6, max_len=16):
    """``count`` distinct random patterns over a synthetic string alphabet."""
    rng = random.Random(seed)
    alphabet = [f"EVT{i:03d}" for i in range(alphabet_size)]
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.choices(alphabet, k=rng.randint(min_len, max_len))))
    return [Pattern(events) for events in sorted(seen)]


@pytest.fixture(scope="module")
def big_store_file(tmp_path_factory):
    """A multi-megabyte store — large enough for PSS deltas to dominate noise."""
    rng = random.Random(3)
    patterns = _random_patterns(NUM_PATTERNS, seed=3)
    store = PatternStore(
        ((p, rng.randint(1, 10**6)) for p in patterns),
        min_sup=2,
        algorithm="bench",
    )
    path = tmp_path_factory.mktemp("serve-bench") / "big.rps"
    store.save(path)
    return path


#: Worker body: load the store, hold it resident across a barrier so every
#: worker is mapped simultaneously, then report the PSS delta of the load.
_WORKER = r"""
import sys
sys.path.insert(0, sys.argv[1])
mode, path = sys.argv[2], sys.argv[3]

def pss():
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    raise SystemExit("no Pss field")

from repro.match.store import PatternStore
before = pss()
if mode == "mmap":
    store = PatternStore.open(path, mmap=True)
else:
    store = PatternStore.load(path)
checksum = store.support_at(0) + store.support_at(len(store) - 1)
print("loaded", flush=True)
sys.stdin.readline()
print(pss() - before, flush=True)
sys.stdin.readline()
"""


def _fleet_pss_deltas(mode, path, workers=NUM_WORKERS):
    """Per-worker PSS growth of loading ``path`` with all workers resident."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, REPO_SRC, mode, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(workers)
    ]
    try:
        for proc in procs:
            assert proc.stdout.readline().strip() == "loaded"
        for proc in procs:  # barrier: everyone is loaded, now measure
            proc.stdin.write("measure\n")
            proc.stdin.flush()
        deltas = [int(proc.stdout.readline()) for proc in procs]
        for proc in procs:
            proc.stdin.write("exit\n")
            proc.stdin.flush()
        for proc in procs:
            proc.wait(timeout=60)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
    return deltas


def test_mmap_fleet_shares_one_store_copy(benchmark, big_store_file):
    """N zero-copy workers cost ~one store of memory; N copying workers cost N."""
    if not os.path.exists("/proc/self/smaps_rollup"):
        pytest.skip("PSS accounting needs /proc/self/smaps_rollup (Linux)")
    if PatternStore.open(big_store_file).is_zero_copy is False:
        pytest.skip("platform cannot memory-map stores")

    def fleet_comparison():
        copy_deltas = _fleet_pss_deltas("copy", big_store_file)
        mmap_deltas = _fleet_pss_deltas("mmap", big_store_file)
        return {
            "workers": NUM_WORKERS,
            "store_bytes": os.path.getsize(big_store_file),
            "copy_fleet_pss_bytes": sum(copy_deltas),
            "mmap_fleet_pss_bytes": sum(mmap_deltas),
            "fleet_memory_ratio": sum(copy_deltas) / max(1, sum(mmap_deltas)),
        }

    stats = benchmark.pedantic(fleet_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    # Copying fleet: ~N stores. Zero-copy fleet: ~one store (shared pages
    # are charged 1/N to each worker, so the fleet sum stays ~constant in N).
    assert stats["fleet_memory_ratio"] >= REQUIRED_MEMORY_RATIO
    # Incremental cost of the mmap fleet stays near one store, not N.
    assert stats["mmap_fleet_pss_bytes"] < NUM_WORKERS * stats["store_bytes"]


def test_pickled_automaton_reuse_beats_recompilation(benchmark):
    """``pickle.loads`` of the shipped automaton vs compiling in every worker."""
    patterns = _random_patterns(NUM_AUTOMATON_PATTERNS, seed=7, min_len=3, max_len=12)
    compiled = PatternAutomaton(patterns)
    payload = pickle.dumps(compiled)

    def median_seconds(func, rounds=5):
        # As timeit does, the collector is paused and the result freed after
        # the clock stops: a full collection over this test process's heap
        # (or freeing ~100k objects) would otherwise land in one timed round
        # out of two and time the harness, not the operation.
        timings = []
        for _ in range(rounds):
            gc.disable()
            try:
                start = time.perf_counter()
                kept = func()
                timings.append(time.perf_counter() - start)
            finally:
                gc.enable()
            del kept
        return statistics.median(timings)

    def compare():
        compile_seconds = median_seconds(lambda: PatternAutomaton(patterns))
        reuse_seconds = median_seconds(lambda: pickle.loads(payload))
        rebuilt = pickle.loads(payload)
        assert rebuilt.patterns == compiled.patterns
        assert rebuilt.state_count == compiled.state_count
        return {
            "patterns": len(patterns),
            "trie_states": compiled.state_count,
            "payload_bytes": len(payload),
            "compile_seconds": compile_seconds,
            "unpickle_seconds": reuse_seconds,
            "reuse_speedup": compile_seconds / reuse_seconds,
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["reuse_speedup"] >= REQUIRED_REUSE_SPEEDUP
