"""Telemetry benchmarks: internal counters in the smoke JSON + overhead bar.

Two jobs.  First, put the *internal* counters next to the wall-clock
numbers: a timing alone says only how long a mine or a serve call took,
which cannot distinguish "the DFS visited fewer nodes" from "the same DFS
got faster".  The mining and serving benchmarks here snapshot the
:mod:`repro.obs` registry into ``extra_info``, so every smoke artifact
records DFS nodes visited, LBCheck prunes, closure checks, per-op request
counts and latency quantiles alongside the timings.

Second, pin the overhead contract: instrumentation threaded through the
miners must be effectively free when nobody reads it.  The hot path keeps
plain dataclass counters and mirrors them into the registry once per run,
so an enabled registry and a disabled one must mine at the same speed; the
bar is asserted loosely (CI noise) and both timings land in ``extra_info``.
"""

import json
import time

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.match.store import PatternStore
from repro.obs import MetricsRegistry, TraceRecorder
from repro.serve import PatternServer

#: Enabled-vs-disabled mining time ratio allowed before the overhead
#: contract is considered broken (the issue's bar is 2%; the assertion adds
#: headroom for CI timer noise on a sub-second workload).
MAX_OVERHEAD_RATIO = 1.10

#: Same bar with a trace recorder attached: spans are recorded once per
#: run/phase, never per DFS node, so enabled tracing must cost what
#: enabled metrics cost.
MAX_TRACING_OVERHEAD_RATIO = 1.10


@pytest.fixture(scope="module")
def quest_database():
    params = QuestParameters(D=5, C=20, N=10, S=20)
    return QuestSequenceGenerator(params, scale=0.02, seed=2).generate()


def test_clogsgrow_counters_in_smoke_json(benchmark, quest_database):
    """Mine with an enabled registry; record its snapshot next to the timing."""
    obs = MetricsRegistry()
    miner = CloGSgrow(12, max_length=4, obs=obs)
    result = benchmark.pedantic(miner.mine, args=(quest_database,), rounds=1, iterations=1)
    assert len(result) > 0
    assert result.stats is not None

    snapshot = obs.snapshot()
    # The registry mirrors the run's dataclass counters exactly.
    assert snapshot["counters"]["mine.nodes_visited"] == result.stats["nodes_visited"]
    assert snapshot["counters"]["mine.patterns_reported"] == len(result)
    # Counters are plain ints; phase durations go in as flat floats so the
    # JSON artifact stays greppable.
    benchmark.extra_info.update(snapshot["counters"])
    benchmark.extra_info.update(
        {f"phase.{name}.seconds": seconds for name, seconds in result.stats["phase_seconds"].items()}
    )


def test_disabled_instrumentation_is_free(benchmark, quest_database):
    """Enabled registry mines at disabled-registry speed (counters stay local)."""

    def mine_seconds(obs):
        start = time.perf_counter()
        CloGSgrow(12, max_length=4, obs=obs).mine(quest_database)
        return time.perf_counter() - start

    def compare(rounds=5):
        # Interleave the two configurations and compare best-of runs: CPU
        # frequency drift and container noise hit both sides alike, and the
        # minimum is the least-noisy estimate of a CPU-bound workload.
        disabled, enabled = [], []
        for _ in range(rounds):
            disabled.append(mine_seconds(MetricsRegistry(enabled=False)))
            enabled.append(mine_seconds(MetricsRegistry()))
        return {
            "disabled_mine_seconds": min(disabled),
            "enabled_mine_seconds": min(enabled),
            "overhead_ratio": min(enabled) / min(disabled),
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["overhead_ratio"] <= MAX_OVERHEAD_RATIO


def test_enabled_tracing_costs_what_metrics_cost(benchmark, quest_database):
    """A trace recorder on the registry adds no per-node cost to mining.

    Mirrors the pool-worker seam: one ``mine.worker.seconds`` span wraps
    the whole run (that is where tracing touches mining — never inside the
    DFS), so the traced side pays exactly one span record per run.
    """

    def mine_seconds(obs):
        start = time.perf_counter()
        with obs.span("mine.worker.seconds"):
            CloGSgrow(12, max_length=4, obs=obs).mine(quest_database)
        return time.perf_counter() - start

    def compare(rounds=5):
        plain, traced = [], []
        recorders = []
        for _ in range(rounds):
            plain.append(mine_seconds(MetricsRegistry()))
            recorder = TraceRecorder()
            traced.append(mine_seconds(MetricsRegistry(recorder=recorder)))
            recorders.append(recorder)
        return {
            "plain_mine_seconds": min(plain),
            "traced_mine_seconds": min(traced),
            "tracing_overhead_ratio": min(traced) / min(plain),
            # spans per run stays a small constant (phases, not DFS nodes)
            "trace.spans.per_run": max(r.total for r in recorders),
            "trace.spans.dropped": sum(r.dropped for r in recorders),
        }

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["tracing_overhead_ratio"] <= MAX_TRACING_OVERHEAD_RATIO
    assert stats["trace.spans.dropped"] == 0
    assert 0 < stats["trace.spans.per_run"] < 64


def test_serve_stats_in_smoke_json(benchmark, quest_database, tmp_path):
    """Drive the daemon's request path; record per-op counts and quantiles."""
    store = PatternStore.from_result(CloGSgrow(12, max_length=4).mine(quest_database))
    path = tmp_path / "patterns.rps"
    store.save(path)
    queries = ["".join(map(str, range(8))), "0123", "99"]
    recorder = TraceRecorder()
    server = PatternServer(path, obs=MetricsRegistry(recorder=recorder))
    try:

        def drive():
            for _ in range(50):
                server.handle_raw(json.dumps({"op": "score", "sequences": queries}).encode())
                server.handle_raw(json.dumps({"op": "ping"}).encode())
            return server.obs.snapshot()

        snapshot = benchmark.pedantic(drive, rounds=1, iterations=1)
    finally:
        server.close()

    assert snapshot["counters"]["serve.op.score.requests"] == 50
    assert snapshot["counters"]["serve.requests"] == 100
    benchmark.extra_info.update(snapshot["counters"])
    score_latency = snapshot["histograms"]["serve.op.score.seconds"]
    benchmark.extra_info.update(
        {f"serve.op.score.seconds.{key}": value for key, value in score_latency.items()}
    )
    # The trace recorder's own counters ride along in the smoke artifact:
    # spans recorded (op + matcher spans per request) and ring drops.
    assert recorder.total > 0
    benchmark.extra_info.update(
        {
            "trace.spans.total": recorder.total,
            "trace.spans.dropped": recorder.dropped,
            "trace.spans.retained": len(recorder),
        }
    )
