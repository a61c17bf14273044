"""The four workloads: their fixed shapes, and the inputs made from a seed.

Each workload mines or serves a fixed base data set, generated with the
generator seed the shape was measured at.  ``--seed`` then decides what a
run actually receives, without changing how much work it is:

* ``mine`` and ``disk-mine`` get the base database's sequences in a
  seed-shuffled order (repetitive support is a per-sequence sum, so the
  patterns and every work counter are the same for every seed);
* ``pipeline`` gets the base arrival stream with each batch shuffled
  (a batch is exactly one shard, so shard contents do not change);
* ``serve`` gets a seed-drawn request stream: which fresh traces, in which
  order, and where the repeated ones fall.

Fixing the data is what lets runs at ten different seeds agree within a
few percent; the seed still varies every byte the program is handed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("mine", "disk-mine", "pipeline", "serve")

# mine: the core-ops database, Quest D5 C20 N10 S20 at scale 0.02 (100
# sequences), mined closed with a RAM index.
MINE_MIN_SUP = 12
MINE_MAX_LENGTH = 4

# disk-mine: many short clickstream sessions over a wide alphabet, ingested
# into the disk backend (about ten sealed segments) and mined with a
# spill budget small enough that most frontier sets spill.
DISK_SESSIONS = 300
DISK_EVENTS = 120
DISK_MIN_SUP = 90
DISK_MAX_LENGTH = 4
DISK_SEGMENT_BYTES = 6 * 1024
DISK_SPILL_BUDGET = 8 * 1024

# pipeline: Markov arrivals in batches of one shard into a 5-shard window.
PIPE_MIN_SUP = 30
PIPE_MAX_LENGTH = 4
PIPE_BATCH = 12
PIPE_WINDOW = 60
PIPE_MAX_BATCHES = 150

# serve: the closed patterns of a TCAS-like trace set, scored one fresh
# trace per request; a quarter of requests repeat one of a few pooled traces.
SERVE_STORE_TRACES = 200
SERVE_MIN_SUP = 200
SERVE_QUERY_TRACES = 10_000
SERVE_POOL = 16
SERVE_REPEAT_SHARE = 0.25
SERVE_MAX_REQUESTS = 20_000


def _event_lists(database) -> list[list[str]]:
    return [list(sequence) for sequence in database]


def mine_database() -> list[list[str]]:
    from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator

    params = QuestParameters(D=5, C=20, N=10, S=20)
    return _event_lists(QuestSequenceGenerator(params, scale=0.02, seed=2).generate())


def disk_database() -> list[list[str]]:
    from repro.datagen.gazelle import GazelleLikeGenerator

    return _event_lists(
        GazelleLikeGenerator(num_sequences=DISK_SESSIONS, num_events=DISK_EVENTS, seed=8).generate()
    )


def pipeline_stream() -> list[list[str]]:
    from repro.datagen.markov import MarkovSequenceGenerator

    count = PIPE_WINDOW + PIPE_MAX_BATCHES * PIPE_BATCH
    return _event_lists(
        MarkovSequenceGenerator(
            num_sequences=count, num_events=10, average_length=20.0, concentration=4.0, seed=7
        ).generate()
    )


def serve_store(path: Path) -> None:
    """Mine the served pattern set and save it as a binary store."""
    from repro.core.clogsgrow import mine_closed
    from repro.datagen.tcas import TcasLikeGenerator
    from repro.match.store import save_patterns

    database = TcasLikeGenerator(num_sequences=SERVE_STORE_TRACES, seed=1).generate()
    save_patterns(mine_closed(database, SERVE_MIN_SUP), path)


def serve_requests(seed: int) -> list[tuple[str, int]]:
    """``(kind, trace)`` per request: ``("fresh", i)`` never repeats, ``("pool", p)`` does."""
    rng = random.Random(seed)
    fresh = list(range(SERVE_QUERY_TRACES - SERVE_POOL))
    rng.shuffle(fresh)
    requests: list[tuple[str, int]] = []
    taken = 0
    while len(requests) < SERVE_MAX_REQUESTS and taken < len(fresh):
        if rng.random() < SERVE_REPEAT_SHARE:
            requests.append(("pool", rng.randrange(SERVE_POOL)))
        else:
            requests.append(("fresh", fresh[taken]))
            taken += 1
    return requests


def serve_traces() -> tuple[list[list[str]], list[list[str]]]:
    """Distinct query traces: ``(pool, fresh)``, so a fresh trace is never a repeat."""
    from repro.datagen.tcas import TcasLikeGenerator

    seen: set[tuple[str, ...]] = set()
    distinct: list[list[str]] = []
    for trace in TcasLikeGenerator(num_sequences=SERVE_QUERY_TRACES + 400, seed=99).generate():
        key = tuple(trace)
        if key not in seen:
            seen.add(key)
            distinct.append(list(trace))
    distinct = distinct[:SERVE_QUERY_TRACES]
    return distinct[:SERVE_POOL], distinct[SERVE_POOL:]


def make_inputs(workload: str, seed: int, run_dir: Path, cache_dir: Path) -> None:
    """Write everything a run of ``workload`` receives into ``run_dir``."""
    rng = random.Random(seed)
    inputs: dict = {}
    if workload == "mine":
        sequences = mine_database()
        rng.shuffle(sequences)
        inputs["sequences"] = sequences
    elif workload == "disk-mine":
        sequences = disk_database()
        rng.shuffle(sequences)
        inputs["sequences"] = sequences
    elif workload == "pipeline":
        stream = pipeline_stream()
        for start in range(0, len(stream), PIPE_BATCH):
            batch = stream[start : start + PIPE_BATCH]
            rng.shuffle(batch)
            stream[start : start + PIPE_BATCH] = batch
        inputs["stream"] = stream
    elif workload == "serve":
        cache_dir.mkdir(parents=True, exist_ok=True)
        store = cache_dir / f"tcas-{SERVE_STORE_TRACES}-minsup{SERVE_MIN_SUP}.rps"
        if not store.exists():
            partial = store.with_suffix(".partial")
            serve_store(partial)
            partial.replace(store)
        (run_dir / "store.rps").write_bytes(store.read_bytes())
        pool, fresh = serve_traces()
        inputs["pool"] = pool
        inputs["fresh"] = fresh
        inputs["requests"] = serve_requests(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (run_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
