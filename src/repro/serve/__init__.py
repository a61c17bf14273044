"""repro.serve — the pattern-serving daemon: resident, queryable stores.

The read-side subsystem (:mod:`repro.match`) made mined patterns loadable
and matchable; this package keeps them *resident*: a long-running daemon
that loads pattern stores once (zero-copy over shared mappings where the
platform allows), compiles each shared automaton once, and answers scoring
traffic over a newline-delimited JSON protocol — TCP and, optionally, a
unix-domain socket — until told to stop.

* :mod:`repro.serve.protocol` — the wire format (one JSON object per line)
  and its pure encode/decode helpers, shared by daemon and client.
* :mod:`repro.serve.core` — :class:`~repro.serve.core.ServeCore`, the
  transport-agnostic request engine: namespace-keyed multi-store routing,
  generation-keyed response caching, one shared automaton sweep per batch
  of ``score``/``match`` requests, graceful ``reload`` on store
  republication (compiled-automaton reuse when only supports changed), and
  the per-request telemetry contract.
* :mod:`repro.serve.aio` — :class:`PatternServer`, the daemon: an asyncio
  event loop with TCP + unix-domain socket listeners, micro-batched
  ``score``/``match`` dispatch through a thread pool, and the in-loop
  response-cache fast path.
* :mod:`repro.serve.client` — :class:`ServeClient`, the helper that speaks
  the protocol from Python (any language with sockets + JSON works).

Surfaced as :func:`repro.api.serve` and the ``serve`` CLI subcommand.
"""

from repro.serve.aio import PatternServer, serve
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import PingInfo

__all__ = [
    "PatternServer",
    "PingInfo",
    "ServeClient",
    "ServeError",
    "serve",
]
