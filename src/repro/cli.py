"""Command-line interface.

Installed as ``repro-mine`` (see ``setup.py``) and runnable as
``python -m repro``.  The subcommands cover the common workflows:

* ``mine`` — mine (closed) repetitive gapped subsequences from a file;
* ``mine-many`` — mine several database files in one batch, optionally
  sharded across a process pool (``--jobs``);
* ``mine-stream`` — tail a file of incoming sequences and print pattern
  updates as the stream grows (``--follow`` keeps polling for appended
  lines, like ``tail -f``);
* ``export-patterns`` — mine a database and persist the result as a
  pattern store (binary or JSON), the artifact the serving side loads;
* ``match`` — load a pattern store and match it against a fresh database:
  per-sequence coverage/anomaly scores plus per-pattern supports, all in
  one shared automaton pass;
* ``serve`` — run the long-running scoring daemon over a pattern store:
  match/score/rank/top-k over a newline-delimited JSON TCP protocol, with
  graceful reload when the store file is republished; ``--trace-out``
  journals completed request spans as JSON lines and ``--slow-ms`` logs
  slow requests with their trace ids;
* ``top`` — poll a running daemon's ``stats`` op and render a live
  per-operation rate/p50/p99 table (a ``top(1)`` for the serving fleet);
* ``support`` — compute the repetitive support of one pattern;
* ``stats`` — print summary statistics of a sequence database file.

Input files may be SPMF format (``--format spmf``), whitespace-separated
tokens (``--format text``) or one string of single-character events per line
(``--format chars``).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.api import mine, mine_many
from repro.core.clogsgrow import CloGSgrow
from repro.core.gsgrow import GSgrow
from repro.core.support import repetitive_support
from repro.db import io as db_io
from repro.db.database import SequenceDatabase
from repro.db.stats import describe
from repro.match import PatternMatcher, load_patterns, save_patterns, score_from_match
from repro.stream import StreamMiner


def load_database(path: str, fmt: str) -> SequenceDatabase:
    """Load a database according to the ``--format`` option."""
    if fmt == "spmf":
        return db_io.load_spmf(path)
    if fmt == "text":
        return db_io.load_text(path)
    if fmt == "chars":
        return db_io.load_text(path, chars=True)
    if fmt == "json":
        return db_io.load_json(path)
    raise ValueError(f"unknown format {fmt!r}")


def _positive_int(value: str) -> int:
    """argparse type for options that must be >= 1."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Mine (closed) repetitive gapped subsequences from a sequence database.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_format(sub):
        sub.add_argument(
            "--format",
            choices=("spmf", "text", "chars", "json"),
            default="text",
            help="input file format (default: text — whitespace-separated events)",
        )

    def add_common(sub):
        sub.add_argument("path", help="input sequence database file")
        add_format(sub)

    def add_mining_options(sub):
        sub.add_argument("--min-sup", type=int, required=True, help="support threshold")
        sub.add_argument(
            "--all",
            action="store_true",
            help="mine all frequent patterns (GSgrow) instead of closed ones (CloGSgrow)",
        )
        sub.add_argument("--max-length", type=int, default=None, help="maximum pattern length")
        sub.add_argument("--top", type=int, default=None, help="print only the top-N by support")

    def add_storage_options(sub):
        sub.add_argument(
            "--db-backend",
            choices=("ram", "disk"),
            default="ram",
            help="index storage: in-RAM arrays (default) or mmap'd on-disk segments",
        )
        sub.add_argument(
            "--db-dir",
            default=None,
            help="directory for --db-backend disk files (a temp dir when omitted)",
        )
        sub.add_argument(
            "--spill-budget",
            type=_positive_int,
            default=None,
            help="per-support-set byte budget; bigger DFS frontier sets spill to disk",
        )

    mine = subparsers.add_parser("mine", help="mine frequent patterns")
    add_common(mine)
    add_mining_options(mine)
    add_storage_options(mine)
    mine.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase timing / DFS counter table after the patterns",
    )

    many = subparsers.add_parser(
        "mine-many", help="mine several database files as one batch"
    )
    many.add_argument("paths", nargs="+", help="input sequence database files")
    add_format(many)
    add_mining_options(many)
    many.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the batch (1 = serial, 0 = one per CPU)",
    )

    stream = subparsers.add_parser(
        "mine-stream", help="tail a growing file of sequences and stream pattern updates"
    )
    stream.add_argument("path", help="file of incoming sequences (one per line)")
    stream.add_argument(
        "--format",
        choices=("spmf", "text", "chars"),
        default="text",
        help="line format (default: text — whitespace-separated events)",
    )
    add_mining_options(stream)
    add_storage_options(stream)
    stream.add_argument(
        "--shard-size", type=int, default=16, help="sequences per re-mining shard"
    )
    stream.add_argument(
        "--window", type=int, default=None, help="sliding window: keep only the last N sequences"
    )
    stream.add_argument(
        "--refresh-every",
        type=_positive_int,
        default=8,
        help="appended sequences batched between pattern refreshes (default: 8)",
    )
    stream.add_argument(
        "--follow",
        action="store_true",
        help="keep polling the file for appended lines (like tail -f)",
    )
    stream.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between polls with --follow (default: 1.0)",
    )
    stream.add_argument(
        "--max-updates",
        type=int,
        default=None,
        help="stop after this many pattern updates (useful with --follow)",
    )

    export = subparsers.add_parser(
        "export-patterns", help="mine a database and persist the patterns as a store"
    )
    add_common(export)
    add_mining_options(export)
    export.add_argument(
        "--out", required=True, help="pattern-store output path"
    )
    export.add_argument(
        "--store-format",
        choices=("auto", "binary", "json"),
        default="auto",
        help="store encoding (auto: json for *.json paths, binary otherwise)",
    )

    matcher = subparsers.add_parser(
        "match", help="match a pattern store against a fresh sequence database"
    )
    matcher.add_argument("patterns", help="pattern-store file (binary or JSON, sniffed)")
    matcher.add_argument("path", help="query sequence database file")
    add_format(matcher)
    matcher.add_argument(
        "--top", type=int, default=None, help="print only the top-N patterns by query support"
    )
    matcher.add_argument(
        "--per-sequence",
        action="store_true",
        help="also print one coverage/anomaly line per query sequence",
    )

    server = subparsers.add_parser(
        "serve",
        help="serve pattern stores over TCP/UDS (match/score/rank/top-k)",
    )
    server.add_argument("patterns", help="pattern-store file to serve (binary or JSON)")
    server.add_argument("--host", default="127.0.0.1", help="listening address")
    server.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port (default: 0 — an ephemeral port, printed at startup)",
    )
    server.add_argument(
        "--uds",
        default=None,
        metavar="PATH",
        help="also listen on a unix-domain socket at PATH (removed on exit)",
    )
    server.add_argument(
        "--ns",
        action="append",
        default=None,
        metavar="NAME=STORE",
        help=(
            "serve an extra namespace: NAME answers requests carrying "
            '{"ns": NAME} from STORE (repeatable; the positional store '
            "remains the default namespace)"
        ),
    )
    server.add_argument(
        "--batch-window-ms",
        type=float,
        default=1.0,
        metavar="N",
        help=(
            "micro-batch score/match requests arriving within N ms into one "
            "automaton sweep (default: 1.0; 0 disables batching)"
        ),
    )
    server.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "cache up to N query responses keyed on the store generation, "
            "so reloads invalidate automatically (default: 1024; 0 disables)"
        ),
    )
    server.add_argument(
        "--auto-reload",
        action="store_true",
        help="re-check the store file before every request and reload when republished",
    )
    server.add_argument(
        "--no-mmap",
        action="store_true",
        help="load a private decoded copy instead of the shared zero-copy mapping",
    )
    server.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        help="print a '# stats <json>' metrics snapshot every N seconds",
    )
    server.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "enable tracing and append every completed request span to FILE "
            "as JSON lines (one span per line; see repro.obs.SpanJournalWriter)"
        ),
    )
    server.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="N",
        help=(
            "log '# slow op=... ms=... trace=...' to stderr for every request "
            "slower than N milliseconds"
        ),
    )

    top = subparsers.add_parser(
        "top", help="live per-operation rate/p50/p99 table of a running daemon"
    )
    top.add_argument("--host", default="127.0.0.1", help="daemon address")
    top.add_argument("--port", type=int, required=True, help="daemon port")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between stats polls (default: 2)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--timeout", type=float, default=10.0, help="per-request socket timeout"
    )

    support = subparsers.add_parser("support", help="repetitive support of one pattern")
    add_common(support)
    support.add_argument("--pattern", required=True, help="pattern events, space separated")

    stats = subparsers.add_parser("stats", help="summary statistics of a database")
    add_common(stats)

    return parser


def _print_result(result, args, algorithm: str, path: str | None = None) -> None:
    """Shared result printer of the mining subcommands."""
    entries = result.sorted_by_support()
    if args.top is not None:
        entries = entries[: args.top]
    prefix = f"{path}: " if path is not None else ""
    print(f"# {prefix}{algorithm}: {len(result)} patterns (min_sup={args.min_sup})")
    for entry in entries:
        print(f"{entry.support}\t{entry.pattern}")


def _print_profile(stats: dict | None) -> None:
    """Render ``MiningResult.stats`` as a per-phase timing / counter table."""
    if not stats:
        print("# profile: no run statistics recorded")
        return
    print("# profile")
    phases = stats.get("phase_seconds", {})
    rows = [(f"phase.{name}", f"{seconds * 1000.0:.3f} ms") for name, seconds in phases.items()]
    rows += [
        (name, str(value)) for name, value in stats.items() if name != "phase_seconds"
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value:>14}")


def _load_for_mining(args):
    """The mining target for ``mine`` (database or index) plus a cleanup callable.

    With ``--db-backend disk`` line-based inputs are streamed straight into
    a disk-backed :class:`~repro.db.index.InvertedEventIndex` (through a
    :class:`~repro.stream.database.StreamingSequenceDatabase` with a lazy
    database), so the input is never materialised in RAM as a whole — the
    point of the disk backend.  ``--db-dir`` names the *parent* of a fresh
    per-run store directory (reusing one verbatim would replay a previous
    run's segments); the returned cleanup removes it.  JSON inputs (not
    line-parseable) fall back to loading the database and letting the miner
    build the disk index.
    """
    if args.db_backend == "disk" and args.format != "json":
        import shutil
        import tempfile

        from repro.stream.database import StreamingSequenceDatabase

        store_dir = None
        if args.db_dir is not None:
            import os

            os.makedirs(args.db_dir, exist_ok=True)
            store_dir = tempfile.mkdtemp(prefix="mine-", dir=args.db_dir)
        streamed = StreamingSequenceDatabase(db_backend="disk", db_dir=store_dir)
        with open(args.path) as handle:
            for line in handle:
                events = db_io.parse_event_line(line, args.format)
                if events is not None:
                    streamed.append(events)

        def cleanup() -> None:
            streamed.index.backend.close()
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)

        return streamed.index, cleanup
    return load_database(args.path, args.format), lambda: None


def run_mine(args) -> int:
    target, cleanup = _load_for_mining(args)
    options = dict(
        max_length=args.max_length,
        db_backend=args.db_backend,
        db_dir=args.db_dir,
        spill_budget=args.spill_budget,
    )
    try:
        if args.all:
            miner = GSgrow(args.min_sup, **options)
        else:
            miner = CloGSgrow(args.min_sup, **options)
        result = miner.mine(target)
    finally:
        cleanup()
    _print_result(result, args, miner.algorithm_name)
    if args.profile:
        _print_profile(result.stats)
    return 0


def run_mine_many(args) -> int:
    databases = [load_database(path, args.format) for path in args.paths]
    results = mine_many(
        databases,
        args.min_sup,
        closed=not args.all,
        n_jobs=args.jobs if args.jobs != 1 else None,
        max_length=args.max_length,
    )
    algorithm = GSgrow.algorithm_name if args.all else CloGSgrow.algorithm_name
    for path, result in zip(args.paths, results, strict=False):
        _print_result(result, args, algorithm, path=path)
    return 0


def parse_stream_line(line: str, fmt: str) -> list[str] | None:
    """Parse one incoming line into a sequence of events (``None`` to skip).

    Delegates to :func:`repro.db.io.parse_event_line` — the same tokenizer
    the batch loaders use — so tailing a file and batch-mining it can never
    disagree about its contents.
    """
    return db_io.parse_event_line(line, fmt)


def run_mine_stream(args) -> int:
    """Tail ``args.path``, appending each line to a StreamMiner and printing updates."""
    miner = StreamMiner(
        args.min_sup,
        closed=not args.all,
        shard_size=args.shard_size,
        window=args.window,
        max_length=args.max_length,
        db_backend=args.db_backend,
        db_dir=args.db_dir,
        spill_budget=args.spill_budget,
    )
    updates = 0
    pending = 0

    def emit_update() -> None:
        nonlocal updates, pending
        update = miner.refresh()
        pending = 0
        updates += 1
        print(f"# update {updates}: {update.summary()}", flush=True)

    try:
        with open(args.path) as stream:
            try:
                while True:
                    position = stream.tell()
                    line = stream.readline()
                    if args.follow and line and not line.endswith("\n"):
                        # A producer is mid-write: readline() returns whatever
                        # sits at EOF without waiting for the newline, and
                        # consuming it would split one in-flight sequence into
                        # two.  Rewind and poll again.
                        stream.seek(position)
                        line = ""
                    if line:
                        events = parse_stream_line(line, args.format)
                        if events is None:
                            continue
                        miner.append(events)
                        pending += 1
                        if pending >= args.refresh_every:
                            emit_update()
                    else:
                        if pending:
                            emit_update()
                        if args.max_updates is not None and updates >= args.max_updates:
                            break
                        if not args.follow:
                            break
                        time.sleep(args.poll_interval)
                    if args.max_updates is not None and updates >= args.max_updates:
                        break
            except KeyboardInterrupt:
                pass  # Ctrl-C ends a --follow tail; the final block still prints
        name = GSgrow.algorithm_name if args.all else CloGSgrow.algorithm_name
        _print_result(miner.results(), args, f"StreamMiner({name})", path=args.path)
    finally:
        miner.close()
    return 0


def run_export_patterns(args) -> int:
    """Mine ``args.path`` and persist the result as a pattern store."""
    database = load_database(args.path, args.format)
    result = mine(
        database, args.min_sup, closed=not args.all, max_length=args.max_length
    )
    out = save_patterns(result, args.out, encoding=args.store_format)
    algorithm = result.algorithm or ("GSgrow" if args.all else "CloGSgrow")
    print(f"# {args.path}: {algorithm}: {len(result)} patterns -> {out}")
    return 0


def run_match(args) -> int:
    """Match a stored pattern set against a query database."""
    store = load_patterns(args.patterns)
    database = load_database(args.path, args.format)
    matcher = PatternMatcher(store)
    result = matcher.match(database)
    matched = result.matched()
    print(
        f"# {args.patterns}: {len(matched)}/{len(result)} patterns matched "
        f"over {len(database)} sequences (coverage={result.coverage():.3f})"
    )
    if args.per_sequence:
        for i in range(1, len(database) + 1):
            print(f"seq {i}\t{score_from_match(result, i).describe()}")
    ranked = result.top_k(len(result) if args.top is None else args.top)
    for entry in ranked:
        print(f"{entry.support}\t{entry.pattern}")
    return 0


def run_serve(args) -> int:
    """Serve a pattern store until interrupted (Ctrl-C) or shut down remotely."""
    from repro.obs import MetricsRegistry, TraceRecorder
    from repro.serve import PatternServer

    # A span journal needs spans: --trace-out turns tracing on by giving
    # the daemon's registry a recorder (the default registry has none).
    obs = (
        MetricsRegistry(recorder=TraceRecorder())
        if args.trace_out is not None
        else None
    )
    stores: dict[str, str] = {}
    for spec in args.ns or []:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            print(f"error: --ns expects NAME=STORE, got {spec!r}", file=sys.stderr)
            return 2
        if name in stores:
            print(f"error: duplicate --ns name {name!r}", file=sys.stderr)
            return 2
        stores[name] = path
    server = PatternServer(
        args.patterns,
        host=args.host,
        port=args.port,
        uds=args.uds,
        stores=stores or None,
        batch_window_ms=args.batch_window_ms,
        cache_size=args.cache_size,
        mmap=False if args.no_mmap else "auto",
        auto_reload=args.auto_reload,
        obs=obs,
        trace_out=args.trace_out,
        slow_ms=args.slow_ms,
    )
    host, port = server.address
    store = server.store
    extra_ns = f", +{len(stores)} ns" if stores else ""
    print(
        f"# serving {args.patterns} ({len(store)} patterns"
        f"{', zero-copy' if store.is_zero_copy else ''}{extra_ns}) on {host}:{port}"
        f"{f', uds {args.uds}' if args.uds else ''}"
        f"{f', tracing -> {args.trace_out}' if args.trace_out else ''}",
        flush=True,
    )
    stop_stats = threading.Event()
    if args.stats_interval is not None and args.stats_interval > 0:

        def report_stats() -> None:
            while not stop_stats.wait(args.stats_interval):
                print(f"# stats {server.obs.snapshot_json()}", flush=True)

        threading.Thread(
            target=report_stats, name="repro-serve-stats", daemon=True
        ).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop_stats.set()
        server.close()
    return 0


def _format_latency(seconds: float) -> str:
    """Human-scaled latency (µs/ms/s), matching the bench-diff rendering."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_top(
    previous: dict | None, current: dict, interval: float
) -> str:
    """One ``repro top`` frame from two consecutive ``stats`` snapshots.

    Pure function of its inputs (testable without a daemon): per-operation
    request rate from the counter delta over ``interval``, p50/p99 from the
    current latency summaries, plus a totals line.  With no ``previous``
    snapshot (the first frame) the rate column shows ``-``.
    """
    counters = current.get("counters", {})
    histograms = current.get("histograms", {})
    prev_counters = (previous or {}).get("counters", {})
    lines = [f"{'op':<10} {'rate/s':>8} {'p50':>9} {'p99':>9} {'total':>9}"]
    prefix, suffix = "serve.op.", ".requests"
    for name in sorted(counters):
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        op = name[len(prefix) : -len(suffix)]
        count = counters[name]
        if not count:
            continue
        if previous is None or interval <= 0:
            rate = "-"
        else:
            rate = f"{(count - prev_counters.get(name, 0)) / interval:.1f}"
        summary = histograms.get(f"{prefix}{op}.seconds", {})
        lines.append(
            f"{op:<10} {rate:>8} {_format_latency(summary.get('p50', 0.0)):>9} "
            f"{_format_latency(summary.get('p99', 0.0)):>9} {count:>9}"
        )
    lines.append(
        f"requests={counters.get('serve.requests', 0)} "
        f"errors={counters.get('serve.errors', 0)} "
        f"bytes_in={counters.get('serve.bytes_in', 0)} "
        f"bytes_out={counters.get('serve.bytes_out', 0)}"
    )
    return "\n".join(lines)


def run_top(args) -> int:
    """Poll a daemon's ``stats`` op and render live per-op rate/latency frames."""
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    previous: dict | None = None
    frames = 0
    try:
        while args.count is None or frames < args.count:
            if previous is not None:
                time.sleep(args.interval)
            current = client.stats()
            print(render_top(previous, current, args.interval), flush=True)
            previous = current
            frames += 1
    except KeyboardInterrupt:
        pass
    except (ServeError, OSError) as exc:
        # OSError covers the daemon simply not being there (connection
        # refused/reset) — a clean one-line failure, not a traceback.
        print(f"# top: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def run_support(args) -> int:
    database = load_database(args.path, args.format)
    pattern = args.pattern.split() if " " in args.pattern else list(args.pattern)
    print(repetitive_support(database, pattern))
    return 0


def run_stats(args) -> int:
    database = load_database(args.path, args.format)
    stats = describe(database)
    for key, value in stats.as_dict().items():
        print(f"{key}: {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by both the console script and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mine":
        return run_mine(args)
    if args.command == "mine-many":
        return run_mine_many(args)
    if args.command == "mine-stream":
        return run_mine_stream(args)
    if args.command == "export-patterns":
        return run_export_patterns(args)
    if args.command == "match":
        return run_match(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "top":
        return run_top(args)
    if args.command == "support":
        return run_support(args)
    if args.command == "stats":
        return run_stats(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
