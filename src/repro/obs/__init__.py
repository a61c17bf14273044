"""``repro.obs`` — metrics, tracing, aggregation and export for the stack.

The package façade.  Everything the single-module ``repro.obs`` exported
is re-exported here unchanged (``MetricsRegistry``, the instrument types,
``DEFAULT_BUCKETS``, the ``Clock`` seam), so existing imports keep
working; the tracing/aggregation/export layers added on top live in
submodules and surface their primary types alongside:

* :mod:`repro.obs.metrics` — instruments, ``MetricsRegistry`` (now with
  ``dump()``/``merge()`` and a recorder-fed ``span()``);
* :mod:`repro.obs.trace` — :class:`SpanRecord` and the bounded
  :class:`TraceRecorder` ring buffer;
* :mod:`repro.obs.context` — :class:`TraceContext` propagation
  (contextvars in-process, wire dicts across the serve protocol and the
  process pools);
* :mod:`repro.obs.aggregate` — the one process-pool fan-out
  (``pooled_map``), its :class:`WorkerTelemetry` envelopes and the
  capture/absorb/merge helpers;
* :mod:`repro.obs.export` — Prometheus text exposition and the JSON-lines
  span journal.
"""

from __future__ import annotations

from repro.obs.aggregate import (
    WorkerTelemetry,
    absorb_telemetry,
    capture_telemetry,
    merge_states,
)
from repro.obs.context import (
    TraceContext,
    activated,
    child_of,
    current_context,
    new_id,
    reset_context,
    root_context,
    set_context,
)
from repro.obs.export import SpanJournalWriter, prometheus_text
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Clock,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import DEFAULT_CAPACITY, SpanRecord, TraceRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanJournalWriter",
    "SpanRecord",
    "TraceContext",
    "TraceRecorder",
    "WorkerTelemetry",
    "absorb_telemetry",
    "activated",
    "capture_telemetry",
    "child_of",
    "current_context",
    "merge_states",
    "new_id",
    "prometheus_text",
    "reset_context",
    "root_context",
    "set_context",
]
