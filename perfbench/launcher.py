"""Run the serving daemon with the benchmark's timing wrappers installed.

    python3 perfbench/launcher.py STORE OUT_DIR

Installs the serve-layer wrappers (begin, dispatch, process_batch, finish,
the automaton sweep and compile, store open and adoption), then
serves ``STORE`` through the ``repro serve`` command line entry, with the
daemon's default batch window and cache, printing its
``# serving ... on HOST:PORT`` line.  Every request gets an id that its
spans carry.  When a ``shutdown`` request stops the daemon, it writes
``OUT_DIR/daemon-spans.jsonl`` and ``OUT_DIR/daemon-layers.json``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from tracing import SpanIndex, Tracer, install_match, returned, serve_layers


def install_serve(tracer: Tracer, waits_s: list[float]) -> None:
    # ``repro.serve`` the attribute is the package's ``serve`` function, so
    # the submodule is fetched by its full name.
    core_module = importlib.import_module("repro.serve.core")
    from repro.match.store import PatternStore
    from repro.serve.core import ServeCore

    tracer.wrap(core_module, "load_patterns", "match.store.open")
    tracer.wrap(PatternStore, "adopt_automaton", "match.adopt", returned)
    tracer.wrap(ServeCore, "begin", "serve.begin")
    # A ``reload`` request runs inside ``dispatch``; its spans carry the op.
    tracer.wrap(
        ServeCore, "dispatch", "serve.dispatch", lambda args, kwargs, result: args[1].op_name
    )
    tracer.wrap(
        ServeCore, "process_batch", "serve.process_batch", lambda args, kwargs, result: len(args[1])
    )
    tracer.wrap(ServeCore, "finish", "serve.finish", lambda args, kwargs, result: len(result))
    begin, dispatch = ServeCore.begin, ServeCore.dispatch
    process_batch, finish = ServeCore.process_batch, ServeCore.finish
    state = tracer.state
    request_ids = itertools.count(1)
    lock = threading.Lock()
    # id(ticket) -> [request id, ns when begin returned, or None once taken up]
    begun: dict[int, list] = {}

    def take_up(tickets: list) -> int:
        """Record each ticket's wait: from ``begin`` returning until now."""
        now = time.perf_counter_ns()
        request = 0
        with lock:
            for ticket in tickets:
                entry = begun.get(id(ticket))
                if entry is None:
                    continue
                request = entry[0]
                if entry[1] is not None:
                    waits_s.append((now - entry[1]) / 1e9)
                    entry[1] = None
        return request if len(tickets) == 1 else 0

    def begin_request(self: ServeCore, raw: bytes):
        state.request = next(request_ids)
        ticket = begin(self, raw)
        with lock:
            begun[id(ticket)] = [state.request, time.perf_counter_ns()]
        return ticket

    def dispatch_request(self: ServeCore, ticket):
        state.request = take_up([ticket])
        return dispatch(self, ticket)

    def batch_request(self: ServeCore, tickets):
        state.request = take_up(tickets)
        return process_batch(self, tickets)

    def finish_request(self: ServeCore, ticket, response):
        with lock:
            entry = begun.pop(id(ticket), None)
        outer = state.request
        state.request = entry[0] if entry is not None else 0
        try:
            return finish(self, ticket, response)
        finally:
            state.request = outer

    tracer.patch(ServeCore, "begin", begin_request)
    tracer.patch(ServeCore, "dispatch", dispatch_request)
    tracer.patch(ServeCore, "process_batch", batch_request)
    tracer.patch(ServeCore, "finish", finish_request)


def main(argv: list[str]) -> int:
    store, out_dir = argv[0], Path(argv[1])
    tracer = Tracer()
    waits_s: list[float] = []
    install_match(tracer)
    install_serve(tracer, waits_s)
    from repro.cli import main as repro_main

    # The CLI entry is what ``python -m repro serve`` runs, so the traced
    # daemon differs from the untraced one by the wrappers alone.
    status = repro_main(["serve", store])
    spans = list(tracer.spans)
    tracer.dump(out_dir / "daemon-spans.jsonl")
    layers = serve_layers(SpanIndex(spans), waits_s)
    (out_dir / "daemon-layers.json").write_text(json.dumps(layers), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
