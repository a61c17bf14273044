"""One workload in a fresh process: set up, measure, count, check.

    python3 perfbench/worker.py WORKLOAD RUN_DIR LAUNCHED_AT SECONDS MODE

``LAUNCHED_AT`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so set-up time includes interpreter start and
imports.  ``MODE`` is ``setup`` (set up, tear down, report set-up time),
``measure`` (the untraced run) or ``trace`` (the traced run).  The result
goes to ``RUN_DIR/result-<pid>.json``; input generation happened in the
parent and is not counted.

Order inside a run: set-up, one run of the host-speed kernel
(``hostspeed.py``), the timed window, then — outside it — the count pass
(the exact work counters, with counting wrappers), and the correctness
oracles, whose every mismatch is a failed operation.  In the timed window
of ``mine``, ``disk-mine`` and ``pipeline`` the kernel runs again after
each operation, so each operation time has a kernel run on either side.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

LAUNCHED_AT = float(sys.argv[3]) if len(sys.argv) > 3 else time.monotonic()

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads as shapes  # noqa: E402

#: The exact work counters every measured run of a mining workload records.
COUNTERS = (
    "patterns",
    "core.nodes_visited",
    "core.grow.calls",
    "core.closure.calls",
    "core.extension_evaluations",
    "core.sup_comp.calls",
    "db.lookup.calls",
    "stream.shards_remined",
    "match.sweep.sequences",
)

#: Mines timed in a traced run's untraced reference, and traced.
TRACE_REFERENCE_MINES = 2
#: Batches replayed by the pipeline count pass and by each traced episode.
PIPE_COUNTED_BATCHES = 4
#: Pipeline peak RSS is read after this many timed batches.  It grows with
#: the batches a run has carried, and how many fit in the window depends on
#: the host's speed; every run at up to ~2x nominal slowdown reaches this.
PIPE_RSS_BATCHES = 24
#: Untimed requests that open a serve episode, so connections and code paths are warm.
WARMUP_REQUESTS = 50
#: Closed-loop requests in each serve trace episode, then open-loop ones.
TRACE_CLOSED_REQUESTS = 600
TRACE_OPEN_REQUESTS = 600
#: The open loop's fixed rate, and the connections the load uses.  The
#: rate is about a quarter of closed-loop saturation on a 2-core host, low
#: enough that other tenants' load does not tip it into queueing.
OPEN_RATE = 150.0
CONNECTIONS = 2
#: The generator check: how late the open loop's timer may fire (seconds).
LATE_P50_LIMIT = 0.002
LATE_P99_LIMIT = 0.020


def now() -> float:
    return time.monotonic()


def canon(result) -> list:
    return sorted((list(mp.pattern.events), mp.support) for mp in result)


class Run:
    """State and results shared by every workload."""

    def __init__(self, name: str, run_dir: Path, seconds: float) -> None:
        self.name = name
        self.run_dir = run_dir
        self.seconds = seconds
        self.env = loadgen.python_env(Path(__file__).resolve().parent.parent)
        started = now()
        self.inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
        #: Reading the generated inputs is not set-up of the program.
        self.input_load_s = now() - started
        #: A traced run's wrappers; they also time set-up (disk ingest lands in db.append).
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.extra: dict = {}
        self.daemons: list[loadgen.Daemon] = []
        #: Kernel times (``hostspeed.py``): one just after set-up, then one
        #: after each timed operation of the mining and pipeline workloads.
        self.kernels_s: list[float] = []

    def fail(self, reason: str) -> None:
        if len(self.failures) < 20:
            print(f"perfbench: {self.name}: {reason}", file=sys.stderr)
        self.failures.append(reason)

    def stop_daemons(self) -> None:
        while self.daemons:
            self.daemons.pop().stop()

    def scaled_ops(self, times_s: list[float], items_per_op: int, peak_mb: float) -> dict:
        """Operation times at the kernel's nominal host speed, and the rate they give."""
        scaled = hostspeed.scaled(times_s, self.kernels_s)
        self.extra["host_slowdown"] = statistics.median(self.kernels_s) / hostspeed.NOMINAL_S
        return {
            "op_ms": [t * 1e3 for t in scaled],
            "raw_op_ms": [t * 1e3 for t in times_s],
            "rate_per_s": items_per_op * len(scaled) / sum(scaled),
            "peak_rss_mb": peak_mb,
        }


# ---------------------------------------------------------------------------
# mine and disk-mine
# ---------------------------------------------------------------------------
class MineRun(Run):
    def setup(self) -> None:
        from repro.db.database import SequenceDatabase
        from repro.db.index import InvertedEventIndex

        self.index = InvertedEventIndex(SequenceDatabase(self.inputs["sequences"]))

    def miner(self, **overrides):
        from repro.core.clogsgrow import CloGSgrow

        return CloGSgrow(shapes.MINE_MIN_SUP, max_length=shapes.MINE_MAX_LENGTH, **overrides)

    def mine(self):
        return self.miner().mine(self.index)

    def teardown(self) -> None:
        pass

    def measure(self) -> dict:
        times, results = [], []
        started = now()
        while now() - started < self.seconds or len(times) < 3:
            t0 = now()
            result = self.mine()
            times.append(now() - t0)
            self.kernels_s.append(hostspeed.kernel_s())
            results.append(result)
        peak = loadgen.vm_hwm_mb()
        self.check(results)
        return self.scaled_ops(times, 1, peak)

    def oracles(self) -> list:
        """Pattern sets every mine must equal."""
        return [("full-landmark engine", canon(self.miner(store_instances=True).mine(self.index)))]

    def check(self, results: list) -> None:
        expected = self.oracles()
        for k, result in enumerate(results):
            self.attempted += 1
            got = canon(result)
            for label, want in expected:
                if got != want:
                    self.fail(f"mine {k} differs from the {label}")
                    break

    def count(self) -> dict:
        tracer = tracing.Tracer()
        tracing.install_in_process(tracer)
        tracing.install_lookup_counter(tracer)
        try:
            result = self.mine()
        finally:
            tracer.uninstall()
        counters = tracing.mining_counters(tracing.SpanIndex(tracer.spans), tracer.lookups)
        counters["patterns"] = len(result)
        return {name: counters.get(name, 0) for name in COUNTERS}

    def trace(self) -> dict:
        reference = []
        for _ in range(TRACE_REFERENCE_MINES):
            t0 = now()
            self.mine()
            reference.append(now() - t0)
        tracer = self.tracer
        tracing.install_in_process(tracer)
        tracer.state.request = 1
        try:
            t0 = now()
            result = self.mine()
            traced = now() - t0
        finally:
            tracer.uninstall()
        self.check([result])
        layers = tracing.in_process_layers(tracing.SpanIndex(tracer.spans))
        layers["trace.overhead_ratio"] = traced / statistics.median(reference)
        memory = self.index.backend.memory_stats()
        layers["db.resident_bytes"] = memory["resident_bytes"]
        layers["db.mapped_bytes"] = memory["mapped_bytes"]
        tracer.dump(self.run_dir / "spans.jsonl")
        return layers


class DiskMineRun(MineRun):
    def setup(self) -> None:
        from repro.stream.database import StreamingSequenceDatabase

        # A directory of this process's own: a disk store replays whatever
        # segments it finds, and each set-up sample ingests from scratch.
        self.disk_dir = self.run_dir / f"disk-{os.getpid()}"
        self.stream = StreamingSequenceDatabase(
            (),
            db_backend="disk",
            db_dir=str(self.disk_dir / "segments"),
            segment_bytes=shapes.DISK_SEGMENT_BYTES,
        )
        for sequence in self.inputs["sequences"]:
            self.stream.append(sequence)
        self.index = self.stream.index

    def miner(self, **overrides):
        from repro.core.clogsgrow import CloGSgrow

        options = {
            "max_length": shapes.DISK_MAX_LENGTH,
            "spill_budget": shapes.DISK_SPILL_BUDGET,
            "spill_dir": str(self.disk_dir / "spill"),
        }
        options.update(overrides)
        return CloGSgrow(shapes.DISK_MIN_SUP, **options)

    def oracles(self) -> list:
        from repro.db.database import SequenceDatabase
        from repro.db.index import InvertedEventIndex

        ram = InvertedEventIndex(SequenceDatabase(self.inputs["sequences"]))
        return [
            ("full-landmark engine", canon(self.miner(store_instances=True).mine(ram))),
            ("RAM-backed mine", canon(self.miner(spill_budget=None).mine(ram))),
        ]

    def teardown(self) -> None:
        self.index.backend.close()
        shutil.rmtree(self.disk_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
class PipelineRun(Run):
    def batches(self) -> list[list[list[str]]]:
        stream = self.inputs["stream"][shapes.PIPE_WINDOW :]
        size = shapes.PIPE_BATCH
        return [stream[k : k + size] for k in range(0, len(stream), size)]

    def new_miner(self, store: Path):
        from repro.stream import StreamMiner

        miner = StreamMiner(
            shapes.PIPE_MIN_SUP,
            shard_size=shapes.PIPE_BATCH,
            window=shapes.PIPE_WINDOW,
            max_length=shapes.PIPE_MAX_LENGTH,
            store_path=store,
        )
        for sequence in self.inputs["stream"][: shapes.PIPE_WINDOW]:
            miner.append(sequence)
        miner.refresh()
        return miner

    def start(self, traced: bool = False) -> None:
        """Miner with the first window published, then a daemon serving it."""
        self.store = self.run_dir / "window.rps"
        self.miner = self.new_miner(self.store)
        daemon = loadgen.start_daemon(self.store, self.run_dir, self.env, traced=traced)
        self.daemons.append(daemon)
        self.client = loadgen.LineClient(daemon.address)

    def setup(self) -> None:
        self.start()

    def teardown(self) -> None:
        self.client.close()
        self.stop_daemons()

    def peak_rss_mb(self) -> float:
        return loadgen.vm_hwm_mb() + self.daemons[0].peak_rss_mb()

    def batch(self, batch: list[list[str]], tracer: tracing.Tracer | None = None) -> tuple:
        """Append, refresh (publishes), reload, score; returns the two responses."""
        for sequence in batch:
            self.miner.append(sequence)
        update = self.miner.refresh()
        t0 = time.perf_counter_ns()
        reload = self.client.request(loadgen.RELOAD)
        t1 = time.perf_counter_ns()
        score = self.client.request(loadgen.encode({"op": "score", "sequences": batch}))
        t2 = time.perf_counter_ns()
        if tracer is not None:
            tracer.span("pipeline.reload", t0, t1)
            tracer.span("pipeline.score", t1, t2)
        return update, reload, score

    def run_batches(
        self, batches, stop_after: float | None, tracer=None, kernels_s: list | None = None
    ) -> tuple[list, list]:
        """Run batches until ``stop_after`` seconds; returns lags and what to check.

        Each record keeps only the reload verdict, a digest of the score
        response and the published store, so memory does not grow with the
        number of batches a run fits in.  With ``kernels_s``, the host-speed
        kernel runs after each batch and its time is appended there.
        """
        lags, records = [], []
        started = now()
        for batch in batches:
            if stop_after is not None and now() - started >= stop_after and len(lags) >= 3:
                break
            if tracer is not None:
                tracer.state.request = len(lags) + 1
            t0 = now()
            update, reload, score = self.batch(batch, tracer)
            lags.append(now() - t0)
            if len(lags) == PIPE_RSS_BATCHES:
                self.rss_mb = self.peak_rss_mb()
            reloaded = json.loads(reload)
            swapped = bool(reloaded.get("ok") and reloaded.get("reloaded"))
            digest = hashlib.sha256(score).digest()
            records.append((batch, swapped, digest, self.store.read_bytes()))
            if kernels_s is not None:
                kernels_s.append(hostspeed.kernel_s())
        self.final_result = update.result
        return lags, records

    def measure(self) -> dict:
        self.rss_mb = None
        lags, records = self.run_batches(self.batches(), self.seconds, kernels_s=self.kernels_s)
        peak = self.rss_mb if self.rss_mb is not None else self.peak_rss_mb()
        self.teardown()
        self.check(records)
        return self.scaled_ops(lags, shapes.PIPE_BATCH, peak)

    def check(self, records: list) -> None:
        from repro.core.clogsgrow import mine_closed
        from repro.match.service import PatternMatcher
        from repro.match.store import PatternStore
        from repro.serve.protocol import encode_line, ok_response, score_to_wire

        for k, (batch, swapped, digest, blob) in enumerate(records):
            self.attempted += 1
            if not swapped:
                self.fail(f"batch {k}: reload did not swap in the new store")
                continue
            matcher = PatternMatcher(PatternStore.from_bytes(blob))
            scores = [score_to_wire(s) for s in matcher.score_many(batch)]
            if hashlib.sha256(encode_line(ok_response(scores=scores))).digest() != digest:
                self.fail(f"batch {k}: daemon score response differs from the in-process matcher")
        batch_mine = mine_closed(
            self.miner.snapshot_database(), shapes.PIPE_MIN_SUP, max_length=shapes.PIPE_MAX_LENGTH
        )
        if canon(self.final_result) != canon(batch_mine):
            self.fail("final window differs from mine_closed over snapshot_database()")

    def count(self) -> dict:
        """Replay the window fill and the first batches in-process, counting."""
        from repro.match.service import PatternMatcher
        from repro.match.store import PatternStore

        tracer = tracing.Tracer()
        tracing.install_in_process(tracer)
        tracing.install_lookup_counter(tracer)
        try:
            store = self.run_dir / "count.rps"
            miner = self.new_miner(store)
            for batch in self.batches()[:PIPE_COUNTED_BATCHES]:
                for sequence in batch:
                    miner.append(sequence)
                update = miner.refresh()
                PatternMatcher(PatternStore.from_bytes(store.read_bytes())).score_many(batch)
        finally:
            tracer.uninstall()
        counters = tracing.mining_counters(tracing.SpanIndex(tracer.spans), tracer.lookups)
        counters["patterns"] = len(update.result)
        counters["stream.shards_remined"] = miner.stats.shards_remined
        return {name: counters[name] for name in COUNTERS}

    def trace(self) -> dict:
        batches = self.batches()[:PIPE_COUNTED_BATCHES]
        reference, _ = self.run_batches(batches, None)
        self.teardown()
        # A fresh tracer: the traced episode is a second set-up and its batches.
        tracer = tracing.Tracer()
        tracing.install_in_process(tracer)
        try:
            self.start(traced=True)
            first_batch_ns = time.perf_counter_ns()
            traced, records = self.run_batches(batches, None, tracer)
        finally:
            tracer.uninstall()
        remined = self.miner.stats.shards_remined
        gauges = self.miner.obs.snapshot()["gauges"]
        self.teardown()
        self.check(records)
        index = tracing.SpanIndex(tracer.spans)
        layers = tracing.in_process_layers(index)
        layers.update(json.loads((self.run_dir / "daemon-layers.json").read_text()))
        layers["trace.overhead_ratio"] = sum(traced) / sum(reference)
        layers["stream.shards_remined"] = remined
        # The miner mirrors its shards' backend.memory_stats() totals here.
        layers["db.resident_bytes"] = gauges["db.backend.resident.bytes"]
        layers["db.mapped_bytes"] = gauges["db.backend.mapped.bytes"]
        saves = index.named("match.store.save")
        layers["match.store.bytes"] = len(records[-1][3]) if saves else 0
        layers.update(tracing.stage_shares(tracing.SpanIndex(
            [span for span in tracer.spans if span[3] >= first_batch_ns]
        )))
        tracer.dump(self.run_dir / "spans.jsonl")
        return layers


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
class ServeRun(Run):
    def setup(self) -> None:
        self.store = self.run_dir / "store.rps"
        self.start_daemon(traced=False)

    def start_daemon(self, traced: bool) -> None:
        self.daemons.append(loadgen.start_daemon(self.store, self.run_dir, self.env, traced=traced))

    def teardown(self) -> None:
        self.stop_daemons()

    def load(self) -> loadgen.Load:
        pool = self.inputs["pool"]
        fresh = self.inputs["fresh"]
        lines, repeat_of = [], []
        for kind, trace in self.inputs["requests"]:
            events = pool[trace] if kind == "pool" else fresh[trace]
            lines.append(loadgen.encode({"op": "score", "sequences": [events]}))
            repeat_of.append(trace if kind == "pool" else None)
        return loadgen.Load(lines, repeat_of)

    def measure(self) -> dict:
        import asyncio

        load = self.load()
        address = self.daemons[0].address
        warm, _ = asyncio.run(load.closed(address, CONNECTIONS, 60.0, WARMUP_REQUESTS))
        closed, closed_s = asyncio.run(load.closed(address, CONNECTIONS, self.seconds / 2))
        count = int(OPEN_RATE * self.seconds / 2)
        opened, lateness = asyncio.run(load.open(address, CONNECTIONS, OPEN_RATE, count))
        stats = loadgen.request_stats(address)
        peak = self.daemons[0].peak_rss_mb()
        self.teardown()
        self.check(load, warm + closed + opened)
        misses = [(s.done - s.due) * 1e3 for s in opened if not s.hit]
        hits = [(s.done - s.due) * 1e3 for s in opened if s.hit]
        self.report_serving(stats, closed + opened, hits, misses, lateness)
        return {"op_ms": misses, "rate_per_s": len(closed) / closed_s, "peak_rss_mb": peak}

    def report_serving(self, stats, sent, hits, misses, lateness) -> None:
        counters = stats["counters"]
        expected_hits = sum(1 for s in sent if s.hit)
        self.extra["hit_p50_ms"] = statistics.median(hits) if hits else 0.0
        self.extra["miss_p99_ms"] = tracing.quantile(misses, 99)
        self.extra["miss_samples"] = len(misses)
        self.extra["cache_hits"] = [counters.get("serve.cache.hits", 0), expected_hits]
        late_p50 = statistics.median(lateness)
        late_p99 = tracing.quantile(lateness, 99)
        self.extra["generator_late_ms"] = [late_p50 * 1e3, late_p99 * 1e3]
        if late_p50 > LATE_P50_LIMIT or late_p99 > LATE_P99_LIMIT:
            self.fail(
                f"load generator ran late (p50 {late_p50 * 1e3:.2f} ms, p99 "
                f"{late_p99 * 1e3:.2f} ms); the run does not measure the daemon"
            )

    def check(self, load: loadgen.Load, sent: list) -> None:
        """Each distinct request's responses are byte-identical to ``handle_raw``."""
        from repro.serve.core import ServeCore

        core = ServeCore(self.store)
        expected: dict[bytes, bytes] = {}
        for s in sent:
            self.attempted += 1
            line = load.lines[s.index]
            want = expected.get(line)
            if want is None:
                want = expected[line] = core.handle_raw(line.strip())[0]
            if s.response != want:
                self.fail(f"request {s.index}: response differs from in-process handle_raw")

    def trace(self) -> dict:
        import asyncio

        load = self.load()
        address = self.daemons[0].address
        asyncio.run(load.closed(address, CONNECTIONS, 60.0, WARMUP_REQUESTS))
        _, reference = asyncio.run(
            load.closed(address, CONNECTIONS, 600.0, TRACE_CLOSED_REQUESTS)
        )
        self.teardown()
        load = self.load()
        self.start_daemon(traced=True)
        address = self.daemons[0].address
        warm, _ = asyncio.run(load.closed(address, CONNECTIONS, 60.0, WARMUP_REQUESTS))
        closed, traced = asyncio.run(
            load.closed(address, CONNECTIONS, 600.0, TRACE_CLOSED_REQUESTS)
        )
        opened, lateness = asyncio.run(
            load.open(address, CONNECTIONS, OPEN_RATE, TRACE_OPEN_REQUESTS)
        )
        stats = loadgen.request_stats(address)
        self.teardown()
        self.check(load, warm + closed + opened)
        layers = tracing.in_process_layers(tracing.SpanIndex([]))
        layers.update(json.loads((self.run_dir / "daemon-layers.json").read_text()))
        counters = stats["counters"]
        hits, misses = counters.get("serve.cache.hits", 0), counters.get("serve.cache.misses", 0)
        layers["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        hit_ms = [(s.done - s.due) * 1e3 for s in opened if s.hit]
        layers["serve.hit_p50_ms"] = statistics.median(hit_ms) if hit_ms else 0.0
        layers["trace.overhead_ratio"] = traced / reference
        return layers


RUNS = {"mine": MineRun, "disk-mine": DiskMineRun, "pipeline": PipelineRun, "serve": ServeRun}

#: Per-layer metrics a workload has no source for read zero (the layer is idle).
PER_LAYER_DEFAULTS = dict.fromkeys(
    [
        "db.lookup.calls",
        "db.resident_bytes",
        "db.mapped_bytes",
        "stream.shards_remined",
        "match.store.bytes",
        "serve.cache.hit_ratio",
        "serve.hit_p50_ms",
        *(f"pipeline.share.{s}" for s in (
            "append", "remine", "gapfill", "stream_self", "publish", "reload", "score"
        )),
    ],
    0.0,
)


def main(argv: list[str]) -> int:
    name, run_dir, _launched, seconds, mode = argv
    run_dir = Path(run_dir)
    run = RUNS[name](name, run_dir, float(seconds))
    if mode == "trace":
        tracing.install_in_process(run.tracer)
    try:
        run.setup()
    finally:
        run.tracer.uninstall()
    result: dict = {"setup_s": now() - LAUNCHED_AT - run.input_load_s}
    try:
        run.kernels_s.append(hostspeed.kernel_s())
        result["setup_kernel_s"] = run.kernels_s[0]
        if mode == "measure":
            result.update(run.measure())
            if name != "serve":
                result["counters"] = run.count()
        elif mode == "trace":
            layers = dict(PER_LAYER_DEFAULTS)
            layers.update(tracing.serve_layers(tracing.SpanIndex([]), []))
            layers.update(run.trace())
            if name != "serve":
                counted = run.count()
                layers["db.lookup.calls"] = counted["db.lookup.calls"]
            result["layers"] = layers
    finally:
        run.teardown()
    from repro.core.sweep import HAVE_NUMPY

    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy_sweep": HAVE_NUMPY,
    }
    result["attempted"] = run.attempted
    result["failures"] = run.failures
    result["extra"] = run.extra
    out = run_dir / f"result-{os.getpid()}.json"
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
