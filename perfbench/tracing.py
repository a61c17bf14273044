"""Timing wrappers around each layer's public calls, and the spans they record.

The benchmark never edits the program: a traced run replaces public
attributes (methods on classes, functions in modules, the ``grow`` and
``initial`` callables of the support engines) with wrappers that record one
span per call, and restores the originals afterwards.  Spans are
``(span_id, parent_id, name, start_ns, end_ns, request_id, info)`` tuples kept
in memory; ``parent_id`` is the span open on the same thread when the call
started, so a layer's self time is its duration minus its direct children's.
``info`` carries one cheap fact read off the call (a support, a batch size,
a byte count) for the ratios the layer metrics need.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Span = tuple[int, int, str, int, int, int, Any]
Info = Callable[[tuple, dict, Any], Any]

_perf_ns = time.perf_counter_ns


class _ThreadState(threading.local):
    """Per thread: the ids of the spans open on it, and the request it serves."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.request = 0


class Tracer:
    """Installs wrappers, records spans, and takes every wrapper out again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.lookups = 0
        self.state = _ThreadState()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, start_ns: int, end_ns: int, info: Any = None) -> None:
        """Record a span measured by the caller (client-side stages)."""
        state = self.state
        parent = state.stack[-1] if state.stack else 0
        self.spans.append((next(self._ids), parent, name, start_ns, end_ns, state.request, info))

    # -- installing ------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, info: Info | None = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        state = self.state

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = _perf_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _perf_ns()
                stack.pop()
            note = info(args, kwargs, result) if info is not None else None
            spans.append((span_id, parent, name, start, end, state.request, note))
            return result

        self.patch(owner, attr, traced)

    def count_lookups(self, owner: Any, attr: str) -> None:
        """Count calls of ``owner.attr`` without timing them (the index hot path)."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args: Any) -> Any:
            tracer.lookups += 1
            return original(*args)

        self.patch(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span[:6]) + "\n")


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------
def _first_arg_min_sup(args: tuple, kwargs: dict, result: Any) -> Any:
    return (args[0].config.min_sup, result.stats)


def _support(args: tuple, kwargs: dict, result: Any) -> Any:
    return result.support


def _spilled(args: tuple, kwargs: dict, result: Any) -> Any:
    return result is not args[1]


def returned(args: tuple, kwargs: dict, result: Any) -> Any:
    return bool(result)


def _query_sequences(args: tuple, kwargs: dict, result: Any) -> Any:
    query = args[1]
    try:
        return len(query)
    except TypeError:
        return 1


def install_in_process(tracer: Tracer) -> None:
    """Wrap the calls the mining, streaming and publishing layers make."""
    support_module = importlib.import_module("repro.core.support")
    miner_module = importlib.import_module("repro.stream.miner")
    from repro.core.closure import ClosureChecker
    from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE
    from repro.core.gsgrow import GSgrow
    from repro.core.spill import SpillPolicy
    from repro.db.index import InvertedEventIndex
    from repro.match.store import PatternStore
    from repro.stream.miner import StreamMiner, StreamUpdate

    for engine in (COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE):
        tracer.wrap(engine, "grow", "core.grow", _support)
        tracer.wrap(engine, "initial", "core.initial")
    tracer.wrap(ClosureChecker, "check", "core.closure")
    tracer.wrap(GSgrow, "mine", "core.mine", _first_arg_min_sup)
    tracer.wrap(SpillPolicy, "maybe_spill", "core.spill", _spilled)
    tracer.wrap(support_module, "repetitive_support", "core.sup_comp")
    tracer.wrap(miner_module, "repetitive_support", "core.sup_comp")
    tracer.wrap(InvertedEventIndex, "size_one_arrays", "db.size1")
    tracer.wrap(InvertedEventIndex, "append_sequence", "db.append")
    tracer.wrap(StreamMiner, "append", "stream.append")
    tracer.wrap(StreamMiner, "refresh", "stream.refresh")
    tracer.wrap(StreamUpdate, "to_store", "publish.to_store")
    tracer.wrap(PatternStore, "to_bytes", "publish.encode")
    tracer.wrap(PatternStore, "save", "match.store.save")
    tracer.wrap(PatternStore, "patch_file_supports", "match.store.patch", returned)
    install_match(tracer)


def install_match(tracer: Tracer) -> None:
    """Wrap automaton compilation and the matching sweep."""
    from repro.match.automaton import PatternAutomaton

    tracer.wrap(PatternAutomaton, "__init__", "match.compile")
    tracer.wrap(PatternAutomaton, "match", "match.sweep", _query_sequences)


def install_lookup_counter(tracer: Tracer) -> None:
    from repro.db.index import InvertedEventIndex

    tracer.count_lookups(InvertedEventIndex, "raw_positions_by_id")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
class SpanIndex:
    """Per-name totals and self times over a list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.child_ns: dict[int, int] = defaultdict(int)
        for span in spans:
            if span[1]:
                self.child_ns[span[1]] += span[4] - span[3]

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [span for span in self.spans if span[2] in wanted]

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def seconds(self, *names: str) -> float:
        return sum(span[4] - span[3] for span in self.named(*names)) / 1e9

    def self_seconds(self, *names: str) -> float:
        return (
            sum(span[4] - span[3] - self.child_ns[span[0]] for span in self.named(*names))
            / 1e9
        )

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def seconds_under(self, name: str, ancestor: str) -> float:
        return (
            sum(
                span[4] - span[3]
                for span in self.named(name)
                if self.has_ancestor(span, ancestor)
            )
            / 1e9
        )


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mining_counters(index: SpanIndex, lookups: int) -> dict[str, int]:
    """The exact work counters of the mining and streaming layers."""
    mines = index.named("core.mine")
    return {
        "core.nodes_visited": sum(span[6][1]["nodes_visited"] for span in mines),
        "core.extension_evaluations": sum(
            span[6][1]["extension_evaluations"] for span in mines
        ),
        "core.grow.calls": index.calls("core.grow"),
        "core.grow.closure.calls": sum(
            1 for span in index.named("core.grow") if index.has_ancestor(span, "core.closure")
        ),
        "core.closure.calls": index.calls("core.closure"),
        "core.initial.calls": index.calls("core.initial"),
        "core.sup_comp.calls": index.calls("core.sup_comp"),
        "db.lookup.calls": lookups,
        "match.sweep.sequences": sum(span[6] for span in index.named("match.sweep")),
    }


def refresh_parts(index: SpanIndex) -> dict[str, float]:
    """Seconds of ``StreamMiner.refresh`` and of the stages it calls."""
    parts = {
        "refresh": index.seconds("stream.refresh"),
        "remine": index.seconds_under("core.mine", "stream.refresh"),
        "gapfill": index.seconds_under("core.sup_comp", "stream.refresh"),
        "publish": sum(
            index.seconds_under(name, "stream.refresh")
            for name in (
                "publish.to_store", "publish.encode", "match.store.save", "match.store.patch"
            )
        ),
    }
    parts["stream_self"] = (
        parts["refresh"] - parts["remine"] - parts["gapfill"] - parts["publish"]
    )
    return parts


def stage_shares(index: SpanIndex) -> dict[str, float]:
    """Each pipeline stage's share of per-batch time; the shares sum to 1."""
    parts = refresh_parts(index)
    stages = {
        "append": index.seconds("stream.append"),
        **{name: parts[name] for name in ("remine", "gapfill", "stream_self", "publish")},
        "reload": index.seconds("pipeline.reload"),
        "score": index.seconds("pipeline.score"),
    }
    total = sum(stages.values())
    return {f"pipeline.share.{name}": value / total for name, value in stages.items()}


def in_process_layers(index: SpanIndex) -> dict[str, float]:
    """Per-layer metrics measured inside the benchmark's worker process."""
    layers: dict[str, float] = dict(mining_counters(index, 0))
    del layers["db.lookup.calls"]  # counted in a pass of its own
    grows = index.named("core.grow")
    min_sup_of_mine = {span[0]: span[6][0] for span in index.named("core.mine")}

    def reaches_min_sup(grow: Span) -> bool:
        parent = index.by_id.get(grow[1])
        while parent is not None:
            if parent[0] in min_sup_of_mine:
                return grow[6] >= min_sup_of_mine[parent[0]]
            parent = index.by_id.get(parent[1])
        return False

    frequent = sum(1 for span in grows if reaches_min_sup(span))
    spills = [span for span in index.named("core.spill") if span[6]]
    saves = index.calls("match.store.save")
    patches = sum(1 for span in index.named("match.store.patch") if span[6])
    parts = refresh_parts(index)
    layers.update({
        "db.size1.calls": index.calls("db.size1"),
        "db.append.calls": index.calls("db.append"),
        "db.append.s": index.seconds("db.append"),
        "core.grow.s": index.seconds("core.grow"),
        "core.grow.frequent_ratio": frequent / len(grows) if grows else 0.0,
        "core.initial.s": index.seconds("core.initial"),
        "core.dfs.self_s": index.self_seconds("core.mine"),
        "core.closure.self_s": index.self_seconds("core.closure"),
        "core.sup_comp.s": index.seconds("core.sup_comp"),
        "core.mine.s": parts["remine"],
        "core.spill.calls": len(spills),
        "core.spill.s": sum(span[4] - span[3] for span in spills) / 1e9,
        "stream.refresh.s": parts["refresh"],
        "stream.self_s": parts["stream_self"],
        "match.store.write.s": index.seconds("match.store.save", "match.store.patch"),
        "match.store.patch_ratio": patches / (patches + saves) if patches + saves else 0.0,
    })
    return layers


def serve_layers(index: SpanIndex, waits_s: list[float]) -> dict[str, float]:
    """Per-layer metrics measured inside a daemon (see ``launcher.py``)."""
    finishes = index.named("serve.finish")
    batches = index.named("serve.process_batch")
    adoptions = index.named("match.adopt")
    return {
        "match.store.open.s": index.seconds("match.store.open"),
        "match.compile.calls": index.calls("match.compile"),
        "match.compile.s": index.seconds("match.compile"),
        "match.adopt_ratio": (
            sum(1 for span in adoptions if span[6]) / len(adoptions) if adoptions else 0.0
        ),
        "match.sweep.calls": index.calls("match.sweep"),
        "match.sweep.s": index.seconds("match.sweep"),
        "match.sweep.sequences": sum(span[6] for span in index.named("match.sweep")),
        "serve.begin.s": index.seconds("serve.begin"),
        "serve.finish.s": index.seconds("serve.finish"),
        "serve.dispatch.self_s": index.self_seconds("serve.dispatch", "serve.process_batch"),
        "serve.bytes_out_per_req": (
            sum(span[6] for span in finishes) / len(finishes) if finishes else 0.0
        ),
        "serve.wait.s": sum(waits_s),
        "serve.batch.mean_size": (
            sum(span[6] for span in batches) / len(batches) if batches else 0.0
        ),
        "serve.reload.s": sum(
            span[4] - span[3] for span in index.named("serve.dispatch") if span[6] == "reload"
        )
        / 1e9,
    }
