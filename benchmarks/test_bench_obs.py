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
plain dataclass counters and mirrors them into the registry once per run.
Tier-1 asserts that mechanism with exact counts: the miner reads the clock
as often for the two-sequence Table III mine as for the 711-node Quest
mine, whether the registry is enabled or not; a disabled registry records
no instrument; and a traced mine records one span per run, whatever the
database, and drops none.  The wall-clock bars (an enabled registry, and a
trace recorder, mine at disabled-registry speed) are skipped in tier-1:
``REPRO_WALLCLOCK_GATES=1`` runs them (CI's wall-clock job does, retrying
once), and both timings land in ``extra_info``.
"""

import json
import os
import time

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.db.database import SequenceDatabase
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

#: Whether to run the wall-clock overhead bars (tier-1 leaves them out: a
#: loaded host can sink one run whatever the code does).
WALLCLOCK_GATES = os.environ.get("REPRO_WALLCLOCK_GATES") == "1"

wallclock_gate = pytest.mark.skipif(
    not WALLCLOCK_GATES, reason="wall-clock gate: set REPRO_WALLCLOCK_GATES=1"
)

#: Clock reads of one mine: the start and end of ``prepare``, of ``dfs``
#: and of the whole run share them, five in all.
CLOCK_READS_PER_MINE = 5


@pytest.fixture(scope="module")
def quest_database():
    params = QuestParameters(D=5, C=20, N=10, S=20)
    return QuestSequenceGenerator(params, scale=0.02, seed=2).generate()


def _table3():
    """The Table III running example: two sequences, a 32-node closed mine."""
    return SequenceDatabase.from_strings(["ABCACBDDB", "ACDBACADD"])


def _mines(quest_database):
    """(database, min_sup) of a tiny and of the 711-node benchmark closed mine."""
    return [(_table3(), 2), (quest_database, 12)]


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


def _counters(stats: dict) -> dict:
    """A run's ``MiningResult.stats`` without its wall-clock phase durations."""
    return {key: value for key, value in stats.items() if key != "phase_seconds"}


def test_the_miner_reads_the_clock_per_run_not_per_node(quest_database):
    """Clock reads do not grow with the DFS, and an enabled registry adds none."""
    reads = []
    nodes = []
    for database, min_sup in _mines(quest_database):
        for enabled in (False, True):
            ticks = [0]

            def clock():
                ticks[0] += 1
                return float(ticks[0])

            miner = CloGSgrow(
                min_sup, max_length=4, obs=MetricsRegistry(enabled=enabled, clock=clock)
            )
            miner.mine(database)
            reads.append(ticks[0])
            nodes.append(miner.stats.nodes_visited)
    assert nodes == [32, 32, 711, 711]
    assert reads == [CLOCK_READS_PER_MINE] * 4


def test_disabled_registry_records_no_instrument(quest_database):
    """A disabled registry stays empty; the run's own counters do not change."""
    for database, min_sup in _mines(quest_database):
        disabled = MetricsRegistry(enabled=False)
        enabled = MetricsRegistry()
        quiet = CloGSgrow(min_sup, max_length=4, obs=disabled).mine(database)
        loud = CloGSgrow(min_sup, max_length=4, obs=enabled).mine(database)
        assert disabled.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert quiet.as_dict() == loud.as_dict()
        counters = _counters(quiet.stats)
        assert counters == _counters(loud.stats)
        mirrored = enabled.snapshot()["counters"]
        assert mirrored["mine.runs"] == 1
        assert mirrored["mine.nodes_visited"] == counters["nodes_visited"]
        assert mirrored["mine.closure_checks"] == counters["closure_checks"]
        assert mirrored["mine.grow.rows"] == counters["grow_rows"]


def test_traced_mine_records_one_span_per_run(quest_database):
    """Tracing touches mining once per run (the worker span), never per DFS node."""
    for database, min_sup in _mines(quest_database):
        recorder = TraceRecorder()
        obs = MetricsRegistry(recorder=recorder)
        with obs.span("mine.worker.seconds"):
            CloGSgrow(min_sup, max_length=4, obs=obs).mine(database)
        assert [span.name for span in recorder.spans()] == ["mine.worker.seconds"]
        assert (recorder.total, recorder.dropped) == (1, 0)


@wallclock_gate
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


@wallclock_gate
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
