"""Cross-process fan-out and its telemetry: what workers ship, how parents absorb it.

Repetitive support is additive across sequences (Definition 2.5), so whole
databases, chunks of a scoring batch and stream shards can each be worked on
in a separate process.  :func:`pooled_map` is the one place that does so, for
``mine_many``, ``score_many`` and the stream miner's shard re-mine alike:

* :func:`pool_width` resolves ``n_jobs`` — ``None``/``1`` in-process,
  ``<= 0`` one worker per CPU, never wider than the task list;
* in-process, every task records straight into the caller's registry;
* pooled, each worker runs its own :class:`~repro.obs.MetricsRegistry` (the
  parent's holds thread locks and live instruments, neither of which crosses
  a process boundary) under the caller's
  :class:`~repro.obs.context.TraceContext` (so its spans stitch into the
  caller's trace), and ships the registry home in a plain, picklable
  envelope that the parent absorbs in task order.

The envelope:

* :class:`WorkerTelemetry` — a registry :meth:`~repro.obs.MetricsRegistry.dump`
  plus the worker's finished spans in wire form (plus the worker recorder's
  drop count, so span loss stays observable after the merge);
* :func:`capture_telemetry` — build the envelope at the end of a worker task;
* :func:`absorb_telemetry` — merge it into the parent registry
  (:meth:`~repro.obs.MetricsRegistry.merge`) and replay the spans into the
  parent's recorder under one lock acquisition each.

A task records the same instruments whether it gets the caller's registry
or a worker's, so serial and pooled runs leave the same names and counts.

:func:`merge_states` is the pure fold over several dumps — what a
multi-process collector (or a test asserting n_jobs-invariance) uses without
needing a live registry at all.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.obs.context import TraceContext, activated, current_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord, TraceRecorder

__all__ = [
    "WorkerTelemetry",
    "absorb_telemetry",
    "capture_telemetry",
    "merge_states",
    "pool_width",
    "pooled_map",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class WorkerTelemetry:
    """One worker's telemetry, as plain picklable data.

    ``state`` is a registry :meth:`~repro.obs.MetricsRegistry.dump`;
    ``spans`` are finished :class:`~repro.obs.trace.SpanRecord` wire dicts
    (oldest first); ``spans_dropped`` is the worker recorder's ring-drop
    count at capture time.
    """

    state: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    spans_dropped: int = 0


def capture_telemetry(obs: MetricsRegistry) -> WorkerTelemetry:
    """Package ``obs`` (registry dump + recorder spans) for the trip home.

    Called at the end of a pool-worker task; the result crosses the process
    boundary by pickle and lands in :func:`absorb_telemetry` on the parent
    side.  A disabled registry captures as empty telemetry.
    """
    if not obs.enabled:
        return WorkerTelemetry()
    recorder = obs.recorder
    if recorder is None or not recorder.enabled:
        return WorkerTelemetry(state=obs.dump())
    return WorkerTelemetry(
        state=obs.dump(),
        spans=[span.to_wire() for span in recorder.spans()],
        spans_dropped=recorder.dropped,
    )


def absorb_telemetry(obs: MetricsRegistry, telemetry: WorkerTelemetry | None) -> None:
    """Merge one worker's telemetry into the parent registry ``obs``.

    Counters add, gauges keep the later tick, histograms add bucket-wise
    (:meth:`~repro.obs.MetricsRegistry.merge`); spans replay into the
    parent's recorder in worker order via
    :meth:`~repro.obs.trace.TraceRecorder.record_many`.  ``None`` telemetry
    (a worker that ran with telemetry off) and absorbing into a disabled
    registry are both no-ops.
    """
    if telemetry is None or not obs.enabled:
        return
    if telemetry.state:
        obs.merge(telemetry.state)
    recorder = obs.recorder
    if recorder is not None and recorder.enabled and telemetry.spans:
        recorder.record_many([SpanRecord.from_wire(wire) for wire in telemetry.spans])


def merge_states(*states: dict[str, Any]) -> dict[str, Any]:
    """Fold several :meth:`~repro.obs.MetricsRegistry.dump` states into one.

    Pure function of its inputs: feeds every state, in order, through a
    fresh enabled registry's :meth:`~repro.obs.MetricsRegistry.merge` and
    returns the merged dump.  Same semantics as merging into a live
    registry — counters additive, gauges last-writer-by-tick, histograms
    bucket-wise with :class:`ValueError` on mismatched bounds.
    """
    registry = MetricsRegistry(enabled=True)
    for state in states:
        registry.merge(state)
    return registry.dump()


def pool_width(n_jobs: int | None, n_tasks: int) -> int:
    """How many worker processes :func:`pooled_map` uses for ``n_tasks`` tasks.

    ``None`` or ``1`` means in-process (width 1), ``<= 0`` one worker per
    CPU; the width never exceeds the task count, and a width of 1 runs
    in-process too.
    """
    if n_jobs is None or n_jobs == 1:
        return 1
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    return max(1, min(n_jobs, n_tasks))


def pooled_map(
    work: Callable[[T, MetricsRegistry | None], R],
    tasks: Iterable[T],
    *,
    n_jobs: int | None = None,
    obs: MetricsRegistry | None = None,
) -> list[R]:
    """``[work(task, registry) for task in tasks]``, in-process or over a process pool.

    At :func:`pool_width` 1 every call gets ``obs`` itself.  Otherwise every
    task runs in a worker process, so ``work`` must be a module-level
    function and the tasks and results picklable.  With an enabled ``obs``
    each worker call gets a fresh registry with a trace recorder, runs under
    the caller's ambient trace context, and its telemetry is absorbed into
    ``obs`` in task order; without one, workers get ``None``.  Results come
    back in task order either way.
    """
    tasks = list(tasks)
    width = pool_width(n_jobs, len(tasks))
    if width == 1:
        return [work(task, obs) for task in tasks]
    telemetry = obs is not None and obs.enabled
    context = current_context() if telemetry else None
    trace_wire = context.to_wire() if context is not None else None
    calls = [(work, task, telemetry, trace_wire) for task in tasks]
    # Imported here: the pool machinery costs ~20 ms to import, and
    # in-process callers never need it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=width) as pool:
        returned = list(pool.map(_run_in_worker, calls))
    if obs is not None:
        for _, shipped in returned:
            absorb_telemetry(obs, shipped)
    return [value for value, _ in returned]


def _run_in_worker(
    call: tuple[Callable[[Any, MetricsRegistry | None], Any], Any, bool, dict[str, str] | None],
) -> tuple[Any, WorkerTelemetry | None]:
    """Pool-side half of :func:`pooled_map`: one task, plus its telemetry."""
    work, task, telemetry, trace_wire = call
    if not telemetry:
        return work(task, None), None
    obs = MetricsRegistry(recorder=TraceRecorder())
    with activated(TraceContext.from_wire(trace_wire)):
        value = work(task, obs)
    return value, capture_telemetry(obs)
