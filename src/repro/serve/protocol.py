"""Wire format shared by the serving daemon and its client.

The protocol is deliberately boring: one JSON object per line in both
directions over a plain TCP connection.  A request is
``{"op": <name>, ...params}`` (an optional ``"id"`` is echoed back for
callers that pipeline); a response is ``{"ok": true, ...payload}`` or
``{"ok": false, "error": <message>}``.  Newline framing means any language
with a socket and a JSON parser can speak to the daemon — no schema
compiler, no dependency.

Operations (see :class:`repro.serve.core.ServeCore` for semantics):

``ping``
    Liveness + store snapshot (pattern count, reload counters).
``match``
    Match every served pattern against ``sequences`` in one shared pass.
``score``
    Coverage/anomaly score per query sequence.
``rank``
    Query sequences ordered by anomaly (or coverage).
``top_k`` (alias ``top-k``)
    The served patterns most present in the query.
``reload``
    Swap in a republished store file (no-op when the file is unchanged).
``namespaces``
    The served namespaces: per-namespace pattern count, publish
    generation, store path, and zero-copy flag.
``stats``
    The daemon's metrics snapshot (per-op request counts and latency
    histograms, bytes in/out, reload counters) as deterministic sorted JSON.
``trace``
    The daemon's recent completed spans (the trace-recorder ring) as wire
    dicts, plus the ring's drop/total counters; ``limit`` trims to the
    newest N.
``shutdown``
    Stop the daemon after responding.

Any request may carry an optional ``ns`` field selecting the namespace —
the named store slot — it runs against; requests without it go to the
``default`` namespace, whose wire behaviour is exactly the single-store
daemon's.

Any request may carry an optional ``trace`` field — a
``{"trace_id": ..., "span_id": ...}`` wire context
(:meth:`repro.obs.TraceContext.to_wire`).  A tracing daemon parents its
operation span under it and echoes its own context back as the response's
``trace`` field, which is how client-side and daemon-side spans stitch
into one tree.

Pattern events are restricted to JSON scalars by construction (stores
persist str/int events only), so patterns travel as plain JSON arrays and
support tables as ``[pattern, support]`` pairs — JSON objects cannot key on
arrays.

This module holds the pure encode/decode helpers so the client never
imports the server (and vice versa); everything here is side-effect free.
"""

from __future__ import annotations

import json
from typing import Any, TypedDict

from repro.core.pattern import Pattern
from repro.match.automaton import MatchResult
from repro.match.service import SequenceScore

#: Request operations the daemon understands (``top-k`` is accepted for
#: ``top_k``); named in the unknown-operation error.
OPERATIONS = (
    "ping",
    "match",
    "score",
    "rank",
    "top_k",
    "reload",
    "namespaces",
    "stats",
    "trace",
    "shutdown",
)


class PingInfo(TypedDict):
    """The typed shape of a ``ping`` response (the daemon's liveness card).

    ``uptime_ticks`` counts seconds of the daemon's *monotonic* clock since
    construction (not wall-clock — RL005); ``last_reload_seconds`` is
    ``None`` until the first actual (non-fast-path) reload.
    """

    ok: bool
    patterns: int
    algorithm: str | None
    min_sup: int | None
    store_path: str
    zero_copy: bool
    reloads: int
    automaton_reuses: int
    last_reload_error: str | None
    last_reload_seconds: float | None
    uptime_ticks: float
    requests_served: int
    pid: int

#: Hard cap on one request line.  Newline framing buffers a whole line
#: before parsing, so without a bound one connection could grow daemon
#: memory arbitrarily; 32 MiB comfortably fits large scoring batches.
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A request or response line that does not follow the wire format."""


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the newline terminator.

    A lone surrogate (``"\\ud800"`` is valid JSON, so a request can carry
    one back in its ``id``) has no UTF-8 form; such a payload is written
    ``\\u``-escaped instead, which decodes to the same strings.
    """
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    try:
        return text.encode() + b"\n"
    except UnicodeEncodeError:
        return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one protocol line into its JSON object (clear errors otherwise)."""
    try:
        payload = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def ok_response(**payload: Any) -> dict[str, Any]:
    """A success response carrying ``payload``."""
    response: dict[str, Any] = {"ok": True}
    response.update(payload)
    return response


def error_response(message: str) -> dict[str, Any]:
    """A failure response carrying a human-readable error message."""
    return {"ok": False, "error": message}


def pattern_to_wire(pattern: Pattern) -> list[Any]:
    """A pattern as the JSON array of its events."""
    return list(pattern.events)


def score_to_wire(score: SequenceScore) -> dict[str, Any]:
    """A :class:`SequenceScore` as a JSON-serialisable object.

    ``supports`` and ``missing`` keep the mined-set order of the score; the
    support table is a list of ``[pattern, support]`` pairs because JSON
    objects cannot key on arrays.
    """
    return {
        "matched": score.matched,
        "total": score.total,
        "coverage": score.coverage,
        "anomaly": score.anomaly,
        "supports": [
            [pattern_to_wire(pattern), support]
            for pattern, support in score.supports.items()
        ],
        "missing": [pattern_to_wire(pattern) for pattern in score.missing],
    }


def match_result_to_wire(result: MatchResult) -> dict[str, Any]:
    """A :class:`MatchResult` as a JSON-serialisable object.

    Entries keep compilation (store) order; ``per_sequence`` keys become
    strings because JSON object keys always are — clients index with
    ``str(i)``.
    """
    return {
        "num_sequences": result.num_sequences,
        "coverage": result.coverage(),
        "entries": [
            {
                "pattern": pattern_to_wire(entry.pattern),
                "support": entry.support,
                "per_sequence": {str(i): n for i, n in entry.per_sequence.items()},
            }
            for entry in result
        ],
    }


def match_slice_to_wire(
    result: MatchResult, offset: int, count: int
) -> dict[str, Any]:
    """One request's slice of a batched :class:`MatchResult`, as wire.

    The batched dispatch path concatenates several requests' query
    sequences into one database and sweeps once; this projects sequences
    ``offset+1 .. offset+count`` of the combined result back onto local
    1-based indices.  Instances never span sequences and per-sequence
    counts are recorded in ascending sequence order, so the projection —
    slice supports summed, coverage recomputed over the slice — is
    byte-identical to :func:`match_result_to_wire` over a standalone match
    of just that request's sequences.
    """
    entries: list[dict[str, Any]] = []
    matched = 0
    for entry in result:
        per_sequence: dict[str, int] = {}
        support = 0
        for i, n in entry.per_sequence.items():
            if offset < i <= offset + count:
                per_sequence[str(i - offset)] = n
                support += n
        if support:
            matched += 1
        entries.append(
            {
                "pattern": pattern_to_wire(entry.pattern),
                "support": support,
                "per_sequence": per_sequence,
            }
        )
    coverage = matched / len(entries) if entries else 1.0
    return {"num_sequences": count, "coverage": coverage, "entries": entries}


def canonical_request(request: dict[str, Any]) -> str:
    """A request's cache identity: its parameters, canonically serialised.

    Strips the fields that do not affect the computed payload — ``id``
    (echo-only), ``trace`` (telemetry), ``op`` and ``ns`` (already embedded
    in the cache key as normalised values) — and serialises the rest with
    sorted keys, so two requests that differ only in field order or
    telemetry decoration share one cache entry.
    """
    params = {
        key: value
        for key, value in request.items()
        if key not in ("id", "trace", "op", "ns")
    }
    return json.dumps(
        params, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


def ranked_to_wire(ranked: list[tuple[int, SequenceScore]]) -> list[list[Any]]:
    """``rank_sequences`` output as ``[index, score]`` pairs."""
    return [[index, score_to_wire(score)] for index, score in ranked]


def top_patterns_to_wire(ranked: list[tuple[Pattern, int]]) -> list[list[Any]]:
    """``top_patterns`` output as ``[pattern, support]`` pairs."""
    return [[pattern_to_wire(pattern), support] for pattern, support in ranked]
