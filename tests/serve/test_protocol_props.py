"""Property tests for the wire protocol, driven through ``handle_raw``.

Hypothesis feeds the request pipeline everything from well-formed requests
to raw byte garbage and asserts the protocol's three load-bearing
invariants hold for *every* input:

* one line in, exactly one well-formed JSON-object line out — never zero,
  never two, never a raised exception — alone or inside a batch
  (``process_batch``);
* a request ``id`` comes back verbatim on the response, success or error;
* responses are deterministic and canonically encoded (RL002): compact
  separators, preserved key order, byte-identical across independent
  daemons given the same input, and byte-identical on cache hits.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clogsgrow import mine_closed
from repro.db.database import SequenceDatabase
from repro.match.store import save_patterns
from repro.serve.core import ServeCore
from repro.serve.protocol import OPERATIONS, encode_line

SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def module_store(tmp_path_factory):
    db = SequenceDatabase.from_strings(["AABCDABB", "ABCD", "ABCABCD"])
    result = mine_closed(db, 2)
    return save_patterns(result, tmp_path_factory.mktemp("props") / "patterns.rps")


@pytest.fixture(scope="module")
def core(module_store):
    return ServeCore(module_store)


@pytest.fixture(scope="module")
def twin_cores(module_store):
    """Two independent daemons over the same store, for determinism checks."""
    return ServeCore(module_store), ServeCore(module_store)


# --- request strategies -------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

ops = st.one_of(
    st.sampled_from(OPERATIONS),
    st.sampled_from(["top-k", "", "SCORE", "bogus"]),
    json_scalars,
)

sequences = st.one_of(
    st.lists(st.text(alphabet="ABCDE", max_size=12), max_size=4),
    st.text(alphabet="ABCDE", max_size=12),
    json_scalars,
    st.lists(json_scalars, max_size=3),
)

requests = st.fixed_dictionaries(
    {},
    optional={
        "op": ops,
        "id": json_scalars,
        "sequences": sequences,
        "k": json_scalars,
        "by": st.sampled_from(["support", "ratio", "length"]) | json_scalars,
        "ns": st.text(max_size=12),
        "unexpected": json_scalars,
    },
)

raw_lines = st.one_of(
    requests.map(encode_line),
    st.binary(max_size=200).filter(lambda b: b"\n" not in b),
    st.text(max_size=200).filter(lambda t: "\n" not in t).map(str.encode),
)

# Mostly batchable requests, each with an ``ns`` that is any JSON value —
# including the lists and objects that cannot name a namespace.
batch_requests = st.fixed_dictionaries(
    {
        "op": st.one_of(
            st.just("score"),
            st.just("match"),
            st.sampled_from(["rank", "top_k", "ping", "bogus"]),
        ),
        "ns": st.one_of(
            st.lists(json_scalars, max_size=2),
            st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
            st.sampled_from([None, "default", "nope", 7, True]),
        ),
    },
    optional={"sequences": sequences, "k": json_scalars},
)


def well_formed(response: bytes) -> dict:
    """Assert the single-line framing invariant; return the parsed payload."""
    assert response.endswith(b"\n")
    assert response.count(b"\n") == 1
    payload = json.loads(response.decode())
    assert isinstance(payload, dict)
    assert isinstance(payload["ok"], bool)
    return payload


class TestFraming:
    @SETTINGS
    @given(raw=raw_lines)
    def test_every_input_yields_exactly_one_response_line(self, core, raw):
        response, stop = core.handle_raw(raw)
        payload = well_formed(response)
        if not payload["ok"]:
            assert isinstance(payload["error"], str)
            assert payload["error"]
        try:
            requested_op = json.loads(raw.decode()).get("op")
        except (ValueError, AttributeError, UnicodeDecodeError):
            requested_op = None
        assert stop == (payload["ok"] and requested_op == "shutdown")

    @SETTINGS
    @given(request=requests)
    def test_response_key_order_is_canonical(self, core, request):
        """RL002: re-encoding a parsed response reproduces it byte for byte."""
        response, _ = core.handle_raw(encode_line(request))
        payload = well_formed(response)
        assert encode_line(payload) == response
        assert next(iter(payload)) == "ok"


class TestIdEcho:
    @SETTINGS
    @given(request=requests, request_id=json_scalars.filter(lambda v: v is not None))
    def test_id_round_trips_on_success_and_error(self, core, request, request_id):
        request["id"] = request_id
        response, _ = core.handle_raw(encode_line(request))
        payload = well_formed(response)
        assert payload["id"] == request_id

    @SETTINGS
    @given(request=requests)
    def test_no_id_in_means_no_id_out(self, core, request):
        request.pop("id", None)
        response, _ = core.handle_raw(encode_line(request))
        assert "id" not in well_formed(response)


class TestBatchFraming:
    @SETTINGS
    @given(
        batch=st.lists(batch_requests, min_size=2, max_size=8),
        garbage=st.lists(raw_lines, max_size=2),
    )
    def test_every_ticket_yields_one_line_with_its_id(self, core, batch, garbage):
        lines = [encode_line({**request, "id": i}) for i, request in enumerate(batch)]
        lines += garbage
        results = core.process_batch([core.begin(line) for line in lines])
        assert len(results) == len(lines)
        for index, (response, _) in enumerate(results):
            payload = well_formed(response)
            if index < len(batch):
                assert payload["id"] == index


class TestDeterminism:
    @SETTINGS
    @given(raw=raw_lines)
    def test_independent_daemons_agree_byte_for_byte(self, twin_cores, raw):
        """Same store, same request → same bytes, on ops with stable payloads.

        ``ping``/``stats``/``trace``/``namespaces`` legitimately embed
        daemon-local state (uptime, counters, generations); everything
        else — including every error path — must be a pure function of
        (store, request).
        """
        left, right = twin_cores
        response_l, _ = left.handle_raw(raw)
        payload = well_formed(response_l)
        stateful = (b'"ping"', b'"stats"', b'"trace"', b'"namespaces"', b'"shutdown"')
        if payload["ok"] and any(tag in raw for tag in stateful):
            return
        response_r, _ = right.handle_raw(raw)
        assert response_l == response_r

    @SETTINGS
    @given(
        sequences=st.lists(st.text(alphabet="ABCD", min_size=1, max_size=10), min_size=1, max_size=3),
        op=st.sampled_from(["score", "match"]),
    )
    def test_cache_hit_is_byte_identical_to_miss(self, module_store, sequences, op):
        fresh = ServeCore(module_store, cache_size=64)
        raw = encode_line({"op": op, "sequences": sequences, "id": 7})
        miss, _ = fresh.handle_raw(raw)
        hit, _ = fresh.handle_raw(raw)
        assert miss == hit
        snapshot = fresh.obs.snapshot()
        assert snapshot["counters"]["serve.cache.hits"] == 1
