"""Compare two sets of benchmark records (``run.py --save FILE``).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload measured in both sets, under the same configuration
(``nproc``, Python version, numpy sweep on or off, run length — records
from different configurations are never compared), it prints every end-to-end metric's
medians, the base set's spread, and a verdict against the bound in
``BENCHMARK.json``.  Exact work counters are compared separately, seed by
seed, so "did less work" reads apart from "did the same work faster".
Exits 1 when a metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                by_workload[record["workload"]].append(record)
    return by_workload


def config(records: list[dict]) -> set[str]:
    return {json.dumps({**r["env"], "seconds": r["seconds"]}, sort_keys=True) for r in records}


def spread(values: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: dict, base: list[float], new: list[float], paired: list[tuple]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = sign * (new_median - base_median) / base_median
    base_spread = spread(base)
    if worse > metric["bound"]:
        return f"WORSE by {worse:+.1%} (bound {metric['bound']:.0%})"
    if base_spread > metric["bound"] and not all(
        sign * (n - b) < 0 for b in base for n in new
    ):
        return f"unresolved: base spread {base_spread:.1%} exceeds the bound"
    wins = sum(1 for b, n in paired if sign * (n - b) < 0)
    if paired and wins >= 0.9 * len(paired) and -worse > base_spread:
        return f"better by {-worse:.1%} ({wins}/{len(paired)} seeds)"
    return f"no claimable change ({-worse:+.1%}, + is better)"


def counter_changes(base: list[dict], new: list[dict]) -> list[str]:
    lines = []
    new_by_seed = {r["seed"]: r["counters"] for r in new}
    for record in base:
        other = new_by_seed.get(record["seed"])
        if other is None:
            continue
        for name in sorted(set(record["counters"]) | set(other)):
            before, after = record["counters"].get(name), other.get(name)
            if before != after:
                lines.append(f"  seed {record['seed']}: {name} {before} -> {after}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_set, new_set = load(argv[0]), load(argv[1])
    regressed = False
    for workload in sorted(set(base_set) & set(new_set)):
        base, new = base_set[workload], new_set[workload]
        print(f"{workload}: {len(base)} base runs, {len(new)} new runs")
        if config(base) != config(new) or len(config(base)) != 1:
            print(f"  not compared: configurations differ {config(base)} vs {config(new)}")
            continue
        new_by_seed = {r["seed"]: r for r in new}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_base = [r["metrics"][name]["value"] for r in base]
            values_new = [r["metrics"][name]["value"] for r in new]
            paired = [
                (r["metrics"][name]["value"], new_by_seed[r["seed"]]["metrics"][name]["value"])
                for r in base
                if r["seed"] in new_by_seed
            ]
            text = verdict(metric, values_base, values_new, paired)
            regressed |= text.startswith("WORSE")
            print(
                f"  {name:<12} {statistics.median(values_base):>12.4f} -> "
                f"{statistics.median(values_new):>12.4f} {metric['unit']:<4} "
                f"base spread {spread(values_base):5.1%}  {text}"
            )
        print(
            f"  failed operations: {sum(r['failed'] for r in base)} -> "
            f"{sum(r['failed'] for r in new)}"
        )
        changes = counter_changes(base, new)
        print("  work counters: " + ("identical" if not changes else "CHANGED"))
        for line in changes:
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
