"""The repository benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for their shapes): ``mine``, ``disk-mine``,
``pipeline``, ``serve``, or ``all`` to run each in turn.  Run from the root
of a source checkout; everything the run writes stays under
``.perfbench/`` there.

``--trace 0`` measures with no wrappers installed.  Set-up is measured three
times, each in a fresh process, and reported as the median; then a fresh
worker process sets up once more and runs the timed window.  Outside the
window it makes an exact count pass and checks every output against an
oracle; every mismatch is a failed operation.  ``--trace 1`` is a separate
run that installs the benchmark's timing wrappers and prints the per-layer
metrics, including the tracing overhead.

Set-up times, and the operation times of ``mine``, ``disk-mine`` and
``pipeline``, are reported at a fixed host speed: each is scaled by a
kernel of the benchmark's own timed just before and just after it (see
``hostspeed.py``), because a shared host's speed drifts by more than the
bounds between runs.  ``serve``'s operation times stay as measured: its
open loop is paced by the wall clock.  The readable lines give the raw
median beside the scaled figures, and how much slower than nominal the host
ran.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric named in
``BENCHMARK.json``, or with ``--trace 1`` every per-layer one).  Lines
before it, each starting with ``#``, are the readable report: units,
sample counts, the work counters, the environment and the oracle verdicts.
``--save FILE`` also appends the whole record to FILE as one JSON line,
which ``compare.py`` reads.

Every workload reports every end-to-end metric, so their names are generic.
An *operation* is one closed mine (``mine``, ``disk-mine``), one batch from
its first append to the daemon's ``score`` answer (``pipeline``), or one
cache-missing open-loop ``score`` request timed from when it was due
(``serve``).  ``op_tmean_ms`` is the 10%-trimmed mean operation time,
``op_p90_ms`` its 90th percentile, ``rate_per_s`` mines, sequences or
closed-loop requests completed per second of operation time,
``peak_rss_mb`` the summed peak RSS of the processes running program code
(for ``pipeline``, over set-up and its first 24 batches), ``setup_s`` the
median set-up time.  The median, p99, cache-hit latency, failed fraction and generator
lateness are printed in the readable lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Every run, its set-up samples and its checks end within this budget.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def spawn(workload: str, run_dir: Path, seconds: float, mode: str, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result.

    The result's ``setup_s`` is scaled to nominal host speed by the kernel
    run here just before the launch and the one the worker runs just after
    its set-up; ``raw_setup_s`` keeps the measured time.
    """
    kernel_before_s = hostspeed.kernel_s()
    launched_at = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(run_dir), repr(launched_at),
         repr(seconds), mode],
        stdout=sys.stderr,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The worker's own daemons are in its session: stop any it left.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code is None:
        raise RuntimeError(f"{workload} {mode} worker ran past the deadline")
    if code != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with status {code}")
    result = json.loads((run_dir / f"result-{process.pid}.json").read_text(encoding="utf-8"))
    result["raw_setup_s"] = result["setup_s"]
    [result["setup_s"]] = hostspeed.scaled(
        [result["setup_s"]], [kernel_before_s, result["setup_kernel_s"]]
    )
    return result


def trimmed_mean(values: list[float]) -> float:
    """The mean after dropping the fastest and the slowest tenth.

    Other tenants of a shared host slow everything by up to ~1.5x for
    stretches of seconds to minutes.  A median flips between those two
    speeds depending on which held for most of a run; a mean moves in
    proportion to how long each held, and trimming keeps rare stalls out.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def run_one(args, spec: dict) -> dict:
    import workloads
    from loadgen import python_env
    from tracing import quantile

    run_dir = ROOT / ".perfbench" / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    env = python_env(ROOT)
    try:
        workloads.make_inputs(args.workload, args.seed, run_dir, ROOT / ".perfbench" / "cache")
        if args.trace:
            result = spawn(args.workload, run_dir, args.seconds, "trace", env, deadline)
            setups = [result]
            (ROOT / ".perfbench" / "traces").mkdir(parents=True, exist_ok=True)
            for name in ("spans.jsonl", "daemon-spans.jsonl"):
                if (run_dir / name).exists():
                    shutil.copyfile(
                        run_dir / name,
                        ROOT / ".perfbench" / "traces" / f"{args.workload}-s{args.seed}-{name}",
                    )
        else:
            setups = [
                spawn(args.workload, run_dir, args.seconds, "setup", env, deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = spawn(args.workload, run_dir, args.seconds, "measure", env, deadline)
            setups.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        op_ms = result["op_ms"]
        result["extra"]["op_p50_ms"] = statistics.median(op_ms)
        if "raw_op_ms" in result:
            result["extra"]["raw_op_p50_ms"] = statistics.median(result["raw_op_ms"])
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_tmean_ms": trimmed_mean(op_ms),
            "op_p90_ms": quantile(op_ms, 90),
            "rate_per_s": result["rate_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{args.workload} produced no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "metrics": metrics,
        "samples": len(result.get("op_ms", [])),
        "op_ms": result.get("op_ms", []),
        "setup_samples": [s["setup_s"] for s in setups],
        "raw_setup_samples": [s["raw_setup_s"] for s in setups],
        "counters": result.get("counters", {}),
        "attempted": max(1, result["attempted"]),
        "failed": len(result["failures"]),
        "failures": result["failures"][:10],
        "extra": result["extra"],
    }


def report(record: dict) -> None:
    """The readable lines that precede the JSON result."""
    env = record["env"]
    print(
        f"# perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}"
    )
    print(
        f"# env nproc={env['nproc']} python={env['python']} "
        f"numpy_sweep={'on' if env['numpy_sweep'] else 'off'}"
    )
    for name, metric in record["metrics"].items():
        note = ""
        if name == "setup_s":
            note = "median of " + " ".join(f"{s:.3f}" for s in record["setup_samples"])
            note += " (raw " + " ".join(f"{s:.3f}" for s in record["raw_setup_samples"]) + ")"
        elif name.startswith("op_"):
            note = f"n={record['samples']}"
        print(f"#   {name:<30} {metric['value']:>14.4f} {metric['unit']:<6} {note}")
    print(f"#   failed_frac {record['failed'] / record['attempted']:.4f} "
          f"({record['failed']} of {record['attempted']} attempted)")
    if record["counters"]:
        print("# counters " + json.dumps(record["counters"], sort_keys=True))
    for key, value in sorted(record["extra"].items()):
        print(f"# {key} {json.dumps(value)}")
    for reason in record["failures"]:
        print(f"# FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    records = []
    for name in names:
        args.workload = name
        try:
            record = run_one(args, spec)
        except (RuntimeError, OSError, ValueError) as exc:
            return fail(str(exc))
        report(record)
        records.append(record)
        if args.save is not None:
            with open(args.save, "a", encoding="utf-8") as out:
                out.write(json.dumps(record) + "\n")
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (
            records[0]["metrics"]
            if len(records) == 1
            else {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
        ),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
