"""Tests for the HTTP serving layer: wire-protocol schemas, admission
control (queue overflow + breaker-open shedding), deadline semantics
over HTTP, flight-record lookup, and the byte-parity contract between
served bodies and direct in-process serialization."""

import http.client
import importlib.util
import itertools
import json
import logging
import re
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import company_control, figures, generators
from repro.core import ExplanationService, MappingError, TemplateMapper
from repro.core import explain as core_explain, templates
from repro.core.explain import Explainer
from repro.datalog.atoms import Atom
from repro.datalog import parser
from repro.io import dumps_database, loads_database, loads_facts, parse_fact
from repro.core.service import Deadline, ExplanationSession
from repro.obs import MetricsRegistry
from repro.serve import (
    PARSERS,
    SERVE_FORMAT,
    BatchRequest,
    ExplainRequest,
    ExplanationServer,
    ProtocolError,
    ServeConfig,
    UpdateRequest,
    WhyNotRequest,
    WorkerPool,
    batch_payload,
    encode_body,
    error_payload,
    explanation_payload,
    parse_batch_request,
    parse_explain_request,
    parse_update_request,
    parse_whynot_request,
    whynot_payload,
)
from repro.serve import protocol
from repro.serve.admission import (
    ERROR_RATE_MIN_EVENTS,
    LATENCY_P99_MAX_S,
    CircuitBreaker,
    healthy,
)


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _request(server, method, path, payload=None, connection=None):
    """One HTTP exchange; returns (status, headers, body bytes)."""
    own = connection is None
    if own:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
    try:
        body = _body(payload) if payload is not None else None
        connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = connection.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        if own:
            connection.close()


# ----------------------------------------------------------------------
# Protocol schemas
# ----------------------------------------------------------------------

class TestProtocolRoundTrips:
    def test_explain_request_round_trip(self):
        request = parse_explain_request(_body({
            "query": "Control(IrishBank, MadridCredit)",
            "prefer_enhanced": False,
            "deadline_s": 2.5,
            "audit": True,
        }))
        assert isinstance(request, ExplainRequest)
        assert str(request.query) == "Control(IrishBank, MadridCredit)"
        assert request.prefer_enhanced is False
        assert request.deadline_s == 2.5
        assert request.audit is True

    def test_explain_request_defaults(self):
        request = parse_explain_request(_body({"query": "Own(A, B, 1.0)"}))
        assert request.prefer_enhanced is True
        assert request.deadline_s is None
        assert request.audit is False

    def test_batch_request_round_trip(self):
        request = parse_batch_request(_body({
            "queries": ["Control(A, B)", "Control(B, C)"],
            "deadline_s": 1,
        }))
        assert isinstance(request, BatchRequest)
        assert [str(query) for query in request.queries] == [
            "Control(A, B)", "Control(B, C)",
        ]
        assert request.deadline_s == 1.0

    def test_whynot_request_round_trip(self):
        request = parse_whynot_request(_body({"query": "Control(A, B)"}))
        assert isinstance(request, WhyNotRequest)
        assert str(request.query) == "Control(A, B)"

    @pytest.mark.parametrize("body", [
        b"",
        b"not json",
        b"[1, 2]",
        _body({}),
        _body({"query": 7}),
        _body({"query": "   "}),
        _body({"query": "Control(x, y)"}),          # variables: not ground
        _body({"query": "Control(A, B)", "deadline_s": -1}),
        _body({"query": "Control(A, B)", "deadline_s": True}),
        _body({"query": "Control(A, B)", "deadline_s": float("nan")}),
        _body({"query": "Control(A, B)", "deadline_s": float("inf")}),
        _body({"query": "Control(A, B)", "audit": "yes"}),
    ])
    def test_explain_request_rejections(self, body):
        with pytest.raises(ProtocolError) as excinfo:
            parse_explain_request(body)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("body", [
        _body({}),
        _body({"queries": []}),
        _body({"queries": "Control(A, B)"}),
        _body({"queries": ["Control(A, B)", 3]}),
        _body({"queries": ["Control(A, B)"], "deadline_s": float("nan")}),
        _body({"queries": ["Control(A, B)"], "deadline_s": float("inf")}),
    ])
    def test_batch_request_rejections(self, body):
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch_request(body)
        assert excinfo.value.status == 400

    def test_update_request_round_trip(self):
        request = parse_update_request(_body({
            "adds": ["Own(A, B, 0.6)", "Company(B)"],
            "retracts": ["Own(A, C, 0.4)"],
        }))
        assert isinstance(request, UpdateRequest)
        assert [str(fact) for fact in request.adds] == [
            "Own(A, B, 0.6)", "Company(B)",
        ]
        assert [str(fact) for fact in request.retracts] == ["Own(A, C, 0.4)"]

    def test_update_request_one_side_suffices(self):
        request = parse_update_request(_body({"adds": ["Company(A)"]}))
        assert request.retracts == ()
        request = parse_update_request(_body({"retracts": ["Company(A)"]}))
        assert request.adds == ()

    @pytest.mark.parametrize("body", [
        b"",
        b"not json",
        _body({}),                                   # empty delta
        _body({"adds": [], "retracts": []}),
        _body({"adds": "Company(A)"}),               # not a list
        _body({"adds": [7]}),
        _body({"adds": ["Company(x)"]}),             # variables: not ground
        _body({"retracts": ["   "]}),
    ])
    def test_update_request_rejections(self, body):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request(body)
        assert excinfo.value.status == 400

    def test_encode_body_is_canonical(self):
        payload = {"zebra": 1, "alpha": {"beta": "é"}}
        body = encode_body(payload)
        assert body.endswith(b"\n")
        assert body == b'{"alpha": {"beta": "\xc3\xa9"}, "zebra": 1}\n'
        assert json.loads(body.decode("utf-8")) == payload

    def test_error_payload_shape(self):
        payload = error_payload("shed", "queue full", results=[{"x": 1}])
        assert payload["format"] == SERVE_FORMAT
        assert payload["status"] == "shed"
        assert payload["error"] == "queue full"
        assert payload["results"] == [{"x": 1}]


#: A request body nested far deeper than the JSON decoder's stack, and
#: far under the server's body bound.
DEEP_BODY = b"[" * 100_000

#: Route name -> the request dataclass its parser returns.
REQUEST_TYPES = {
    "explain": ExplainRequest,
    "explain_batch": BatchRequest,
    "whynot": WhyNotRequest,
    "update": UpdateRequest,
}

_atom_texts = st.one_of(
    st.text(max_size=40),
    st.from_regex(r"[A-Z][a-z]{0,6}\((\s*[A-Za-z0-9_.\-\"]{1,8}\s*,?){0,4}\)",
                  fullmatch=True),
    st.integers(min_value=1, max_value=6_000).map(
        lambda digits: "Own(A, B, " + "9" * digits + ")"
    ),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _atom_texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_fields = st.sampled_from([
    "query", "queries", "adds", "retracts", "deadline_s",
    "prefer_enhanced", "audit",
])
_request_bodies = st.one_of(
    st.binary(max_size=200),
    _json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.dictionaries(
        _fields, _json_values | st.lists(_atom_texts, max_size=4),
        max_size=4,
    ).map(lambda value: json.dumps(value).encode("utf-8")),
    st.tuples(
        st.sampled_from(["[", "{\"query\": ", "{\"adds\": ["]),
        st.integers(min_value=1, max_value=60_000),
    ).map(lambda shape: (shape[0] * shape[1]).encode("utf-8")),
)


class TestParserProperties:
    """Every parser, on any byte body, returns its request or raises a
    :class:`ProtocolError`: nothing else may reach the server, which
    answers anything else 500 and counts it against the error budget."""

    @settings(max_examples=300, deadline=None)
    @given(route=st.sampled_from(sorted(PARSERS)), body=_request_bodies)
    @example(route="explain", body=DEEP_BODY)
    @example(route="update", body=b'{"adds": ["Own(A, B, ' + b"9" * 5000 + b')"]}')
    def test_a_body_parses_or_is_a_protocol_error(self, route, body):
        try:
            request = PARSERS[route](body)
        except ProtocolError as error:
            assert error.status == 400
        else:
            assert isinstance(request, REQUEST_TYPES[route])


# ----------------------------------------------------------------------
# A shared warm server over the Figure 15 company-control instance
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def scenario():
    return figures.figure15_instance()


@pytest.fixture(scope="module")
def snapshot(scenario):
    return dumps_database(scenario.database)


@pytest.fixture(scope="module")
def server(scenario, snapshot):
    instance = ExplanationServer(
        scenario.application, snapshot=snapshot,
        config=ServeConfig(
            slo_period_s=60.0, slo_interval_requests=10_000,
        ),
        llm=None,
    )
    with instance.run_in_thread():
        yield instance


@pytest.fixture(scope="module")
def direct(scenario, snapshot):
    service = ExplanationService(llm=None)
    session = service.session(
        scenario.application, loads_database(snapshot), strategy="planned"
    )
    yield session
    service.shutdown()


class TestEndpoints:
    def test_healthz(self, server):
        status, _headers, data = _request(server, "GET", "/healthz")
        assert status == 200
        payload = json.loads(data)
        assert payload["format"] == SERVE_FORMAT
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        assert "backend" not in payload  # one backend: nothing to name
        assert payload["admission"]["limit"] == server.config.queue_limit
        assert payload["warm_start"]["warm_start_max_s"] >= 0
        # Serving has one engine: no strategy to report or to set.
        assert "strategy" not in payload
        assert "strategy" not in payload["warm_start"]
        for retired in ("strategy", "backend", "workers"):
            with pytest.raises(TypeError):
                ServeConfig(**{retired: None})

    def test_explain_and_flight_lookup(self, server, scenario):
        status, headers, data = _request(
            server, "POST", "/explain", {"query": str(scenario.target)}
        )
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert payload["query"] == str(scenario.target)
        assert payload["text"]
        assert payload["paths"]
        query_id = headers.get("X-Query-Id")
        assert query_id  # the flight id travels as a header, not the body
        status, _headers, data = _request(
            server, "GET", f"/flight/{query_id}"
        )
        assert status == 200
        document = json.loads(data)
        assert document["format"] == "repro-flight/1"
        assert len(document["records"]) == 1
        assert document["records"][0]["query_id"] == query_id

    def test_flight_unknown_query_id_is_404(self, server):
        status, _headers, data = _request(
            server, "GET", "/flight/nonexistent-qid"
        )
        assert status == 404
        assert json.loads(data)["status"] == "not_found"

    def test_metrics_prometheus_text(self, server, scenario):
        _request(server, "POST", "/explain", {"query": str(scenario.target)})
        status, headers, data = _request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = data.decode("utf-8")
        assert "repro_serve_requests" in text
        assert "repro_serve_ok" in text

    def test_underivable_fact_is_404(self, server):
        status, _headers, data = _request(
            server, "POST", "/explain",
            {"query": "Control(Absentia0, Absentia1)"},
        )
        assert status == 404
        assert json.loads(data)["status"] == "not_derived"

    def test_malformed_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            connection.request("POST", "/explain", body=b"not json")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["status"] == "bad_request"
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "path", ["/explain", "/explain/batch", "/whynot", "/update"]
    )
    def test_a_deeply_nested_body_is_400_not_a_server_error(
        self, server, path
    ):
        errors = server.metrics.counter_value("serve.errors")
        bad = server.metrics.counter_value("serve.bad_requests")
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            connection.request("POST", path, body=DEEP_BODY)
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["status"] == "bad_request"
        finally:
            connection.close()
        assert server.metrics.counter_value("serve.errors") == errors
        assert server.metrics.counter_value("serve.bad_requests") == bad + 1

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, server, declared):
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as raw:
            raw.sendall(
                b"POST /explain HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
            )
            answer = b""
            while chunk := raw.recv(4096):  # the server closes after it
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "bad_request"

    def test_transfer_encoding_is_one_400_then_close(self, server, scenario):
        # A chunked body read as an empty one left its chunks to parse as
        # a second request: two answers to one request.
        chunk = _body({"query": str(scenario.target)})
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as raw:
            raw.sendall(
                b"POST /explain HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n"
            )
            answer = b""
            while data := raw.recv(4096):  # the server closes after it
                answer += data
        assert answer.count(b"HTTP/1.1 ") == 1
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["status"] == "bad_request"
        assert "Transfer-Encoding" in payload["error"]

    def test_unknown_routes_and_methods(self, server):
        status, _headers, _data = _request(server, "GET", "/nope")
        assert status == 404
        status, _headers, _data = _request(
            server, "POST", "/nope", {"query": "Control(A, B)"}
        )
        assert status == 404
        status, _headers, _data = _request(server, "DELETE", "/explain")
        assert status == 405

    def test_keep_alive_serves_sequential_requests(self, server, scenario):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for _ in range(3):
                status, _headers, data = _request(
                    server, "POST", "/explain",
                    {"query": str(scenario.target)},
                    connection=connection,
                )
                assert status == 200
                assert json.loads(data)["status"] == "ok"
        finally:
            connection.close()

    def test_explain_zero_deadline_is_504(self, server, scenario):
        status, _headers, data = _request(
            server, "POST", "/explain",
            {"query": str(scenario.target), "deadline_s": 0.0},
        )
        assert status == 504
        payload = json.loads(data)
        assert payload["status"] == "deadline_exceeded"
        assert payload["results"] == []

    def test_batch_zero_deadline_is_504_with_partial_body(
        self, server, scenario
    ):
        queries = [str(scenario.target)] * 3
        status, _headers, data = _request(
            server, "POST", "/explain/batch",
            {"queries": queries, "deadline_s": 0.0},
        )
        assert status == 504
        payload = json.loads(data)
        # The explain_batch contract over HTTP: a spent budget still
        # returns every outcome, marking the missed tail.
        assert payload["status"] == "partial"
        assert payload["missed"] > 0
        assert len(payload["results"]) == 3
        statuses = {entry["status"] for entry in payload["results"]}
        assert "deadline_exceeded" in statuses

    def test_batch_within_deadline_is_200(self, server, scenario):
        status, _headers, data = _request(
            server, "POST", "/explain/batch",
            {"queries": [str(scenario.target)], "deadline_s": 30.0},
        )
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert payload["served"] == 1
        assert payload["missed"] == 0

    def test_whynot_over_http(self, server):
        status, _headers, data = _request(
            server, "POST", "/whynot",
            {"query": "Control(Absentia0, Absentia1)"},
        )
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert payload["obstacles"]


def _raw_exchange(server, data: bytes) -> tuple[bytes, dict]:
    """Send ``data`` on a fresh socket; the head and JSON body the server
    answers before it closes the connection."""
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as raw:
        raw.sendall(data)
        answer = b""
        while chunk := raw.recv(65536):  # the server closes after it
            answer += chunk
    assert answer.count(b"HTTP/1.1 ") == 1
    head, _, body = answer.partition(b"\r\n\r\n")
    return head, json.loads(body)


class TestUserErrors:
    """A question the caller got wrong is a 4xx with a reason, counted in
    ``serve.bad_requests`` and never in ``serve.errors`` (the breaker's
    budget); a fault of the pipeline is a 500 that is counted there."""

    @pytest.mark.parametrize("path, query", [
        ("/whynot", "Control(IrishBank, MadridCredit)"),  # it holds
        ("/whynot", "Control(IrishBank)"),  # the wrong arity
        ("/whynot", "Nope(IrishBank)"),  # a predicate the program lacks
        ("/explain", "Nope(IrishBank)"),
    ])
    def test_a_bad_question_is_400(self, server, path, query):
        errors = server.metrics.counter_value("serve.errors")
        bad = server.metrics.counter_value("serve.bad_requests")
        status, _headers, data = _request(server, "POST", path, {"query": query})
        assert status == 400
        assert json.loads(data)["status"] == "bad_request"
        assert server.metrics.counter_value("serve.errors") == errors
        assert server.metrics.counter_value("serve.bad_requests") == bad + 1

    def test_the_not_derived_body_keeps_its_spelling(self, server):
        # bench/check.py builds the 404 it expects from str(KeyError).
        query = "Control(Absentia0, Absentia1)"
        status, _headers, data = _request(
            server, "POST", "/explain", {"query": query}
        )
        assert status == 404
        cause = KeyError(f"{query} was not derived by the chase")
        assert data == encode_body(error_payload(
            "not_derived", f"{query} was not derived: {cause}"
        ))

    def test_a_pipeline_fault_in_a_batch_is_500(
        self, monkeypatch, scenario, snapshot
    ):
        def broken(self, *args, **kwargs):
            raise MappingError("no reasoning path covers the spine")

        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(slo_period_s=60.0),
        )
        with instance.run_in_thread():
            monkeypatch.setattr(TemplateMapper, "map_spine", broken)
            status, _headers, data = _request(
                instance, "POST", "/explain/batch",
                {"queries": [str(scenario.target)]},
            )
        assert status == 500
        assert "MappingError" in json.loads(data)["error"]
        assert instance.metrics.counter_value("serve.errors") == 1
        assert instance.metrics.counter_value("serve.bad_requests") == 0


class TestHeadFraming:
    """How the server frames a request head: line ends, line lengths,
    header counts.  A head it cannot frame is one 400, counted in
    ``serve.bad_requests``, and the connection closes."""

    def _rejected(self, server, data: bytes, caplog) -> str:
        bad = server.metrics.counter_value("serve.bad_requests")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            head, payload = _raw_exchange(server, data)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert payload["status"] == "bad_request"
        assert server.metrics.counter_value("serve.bad_requests") == bad + 1
        assert not [
            record for record in caplog.records
            if "Unhandled exception" in record.getMessage()
        ]
        return payload["error"]

    def test_a_bare_lf_head_is_served(self, server, scenario):
        body = _body({"query": str(scenario.target)})
        head, payload = _raw_exchange(
            server,
            b"POST /explain HTTP/1.1\nHost: test\nConnection: close\n"
            b"Content-Length: " + str(len(body)).encode() + b"\n\n" + body,
        )
        assert head.startswith(b"HTTP/1.1 200 ")
        assert payload["query"] == str(scenario.target)

    def test_a_malformed_request_line_is_400(self, server, caplog):
        error = self._rejected(server, b"GARBAGE\r\n\r\n", caplog)
        assert error == "malformed request line"

    def test_64_headers_are_served_and_65_are_400(self, server, caplog):
        def head(count: int) -> bytes:
            filler = b"".join(
                b"X-Filler-%d: %d\r\n" % (index, index)
                for index in range(count - 1)
            )
            return (
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                + filler + b"\r\n"
            )

        answer, payload = _raw_exchange(server, head(64))
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert payload["status"] == "ok"
        assert self._rejected(server, head(65), caplog) == "too many headers"

    @pytest.mark.parametrize("data", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"POST /explain HTTP/1.1\r\nX-Filler: " + b"a" * 70_000
        + b"\r\nContent-Length: 0\r\n\r\n",
    ], ids=["request-line", "header-line"])
    def test_a_head_line_over_64_kib_is_400(self, server, data, caplog):
        # StreamReader.readline raises a bare ValueError past its limit;
        # uncaught, it dropped the connection unanswered and uncounted.
        error = self._rejected(server, data, caplog)
        assert "exceeds" in error


def _raw_post(path: bytes, payload: dict, line_end: bytes = b"\r\n") -> bytes:
    """One POST as raw bytes, its head lines ended by ``line_end``."""
    body = _body(payload)
    head = line_end.join((
        b"POST " + path + b" HTTP/1.1", b"Host: test",
        b"Content-Type: application/json",
        b"Content-Length: %d" % len(body),
    ))
    return head + line_end * 2 + body


def _read_answers(raw: socket.socket, count: int) -> list[tuple]:
    """``count`` answers off one connection, in order: (status, the
    head fields a client reads, whether X-Query-Id is there, body)."""
    reader = raw.makefile("rb")
    answers = []
    try:
        for _ in range(count):
            status = int(reader.readline().split()[1])
            fields: dict[str, str] = {}
            while (line := reader.readline()) not in (b"\r\n", b""):
                name, _sep, value = line.decode("latin-1").partition(":")
                fields[name.strip().lower()] = value.strip()
            body = reader.read(int(fields["content-length"]))
            answers.append((
                status,
                tuple(fields.get(name) for name in (
                    "content-type", "content-length", "connection",
                )),
                "x-query-id" in fields,
                body,
            ))
    finally:
        reader.close()
    return answers


@pytest.fixture(scope="module")
def pipeline(server, scenario):
    """A keep-alive stream of requests and the answers each gets when
    it is written alone and answered before the next is sent."""
    target = str(scenario.target)
    absent = "Control(Absentia0, Absentia1)"
    requests = [
        _raw_post(b"/explain", {"query": target}),
        _raw_post(b"/explain/batch", {"queries": [target, absent]}),
        _raw_post(b"/explain", {"query": absent}),              # 404
        _raw_post(b"/explain/batch",                            # 504
                  {"queries": [target] * 2, "deadline_s": 0}),
        _raw_post(b"/explain", {"query": target, "prefer_enhanced": False},
                  line_end=b"\n"),                               # bare LF
        _raw_post(b"/whynot", {"query": absent}),                # off-loop
        _raw_post(b"/explain", {"query": target}),
    ]
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as raw:
        alone = []
        for request in requests:
            raw.sendall(request)
            alone.extend(_read_answers(raw, 1))
    assert [answer[0] for answer in alone] == [200, 200, 404, 504, 200, 200, 200]
    return b"".join(requests), alone


class TestPipelinedFraming:
    """The framer's law: however a keep-alive stream of requests is cut
    into writes, from one byte per write to the whole pipeline in one,
    each request is answered in order with the status, head fields and
    body bytes it gets when written alone."""

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.one_of(
        st.just([1]),
        st.just([1 << 20]),
        st.lists(st.integers(min_value=1, max_value=600),
                 min_size=1, max_size=12),
    ))
    @example(sizes=[1])
    @example(sizes=[1 << 20])
    def test_any_cut_answers_like_one_request_per_write(
        self, server, pipeline, sizes
    ):
        stream, alone = pipeline
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as raw:
            start = 0
            for index in itertools.count():
                if start >= len(stream):
                    break
                end = start + sizes[index % len(sizes)]
                raw.sendall(stream[start:end])
                start = end
            assert _read_answers(raw, len(alone)) == alone


class TestWriteBackpressure:
    def test_a_client_that_reads_late_is_answered_in_order(
        self, server, scenario, monkeypatch
    ):
        # The answers outgrow every buffer between the server and a
        # client that reads none of them yet: the transport pauses the
        # connection, which then neither reads nor frames until the
        # client drains it.
        from repro.serve.server import _Connection

        made = _Connection.connection_made

        def small_send_buffer(connection, transport):
            # Keep the kernel from taking the whole stream of answers.
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            made(connection, transport)

        monkeypatch.setattr(_Connection, "connection_made", small_send_buffer)
        pauses = _count_method(monkeypatch, _Connection, "pause_writing")
        queries = [str(query) for query in sorted(
            server.pool.session.answers("Control"), key=str
        )]
        alone = []
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as raw:
            for query in queries:
                raw.sendall(_raw_post(b"/explain", {"query": query}))
                alone.extend(_read_answers(raw, 1))
        rounds = 2_000 // len(queries) + 1
        stream = b"".join(
            _raw_post(b"/explain", {"query": query}) for query in queries
        ) * rounds
        with socket.socket() as raw:
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(60)
            raw.connect((server.host, server.port))
            sender = threading.Thread(target=raw.sendall, args=(stream,))
            sender.start()
            _wait_until(lambda: pauses)
            answers = _read_answers(raw, len(alone) * rounds)
            sender.join(30)
        assert answers == alone * rounds


#: The most one read of the selector transport hands a protocol.
_TRANSPORT_READ_BYTES = 256 * 1024


class TestReadBackpressure:
    def test_a_pipelining_client_that_reads_is_buffered_within_bounds(
        self, server, scenario, monkeypatch
    ):
        # The client sends 4 MiB of pipelined requests as fast as the
        # kernel takes them and reads every answer as it comes. A read
        # brings up to 256 KiB and a loop turn serves one 16 KiB
        # request, so without a bound the server's buffer would grow
        # towards the whole stream.
        from repro.serve.server import _MAX_BUFFERED_BYTES, _Connection

        peak = [0]
        received = _Connection.data_received

        def measured(connection, data):
            received(connection, data)
            peak[0] = max(peak[0], len(connection.framer.buffer))

        monkeypatch.setattr(_Connection, "data_received", measured)
        body = _body({"query": str(scenario.target)}) + b" " * 16_000
        request = (
            b"POST /explain HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        count = (4 << 20) // len(request)
        with socket.create_connection(
            (server.host, server.port), timeout=60
        ) as raw:
            raw.sendall(request)
            (alone,) = _read_answers(raw, 1)
            sender = threading.Thread(
                target=raw.sendall, args=(request * count,)
            )
            sender.start()
            answers = _read_answers(raw, count)
            sender.join(30)
        assert answers == [alone] * count
        assert alone[0] == 200
        assert 0 < peak[0] <= _MAX_BUFFERED_BYTES + _TRANSPORT_READ_BYTES


class TestHeadScan:
    def test_a_head_that_trickles_in_is_parsed_once(
        self, server, monkeypatch
    ):
        # Each header line is parsed once, when its line end is in, not
        # again on every read that leaves the head unfinished.
        from repro.serve import server as server_module

        reads = _count_method(
            monkeypatch, server_module._Connection, "data_received"
        )
        parsed = _count_method(monkeypatch, server_module, "_header_field")
        filler = b"".join(
            b"X-Filler-%02d: %s\r\n" % (index, b"v" * 1000)
            for index in range(63)
        )
        head = (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n" + filler
            + b"\r\n"
        )
        with socket.create_connection(
            (server.host, server.port), timeout=30
        ) as raw:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start in range(0, len(head), 512):
                raw.sendall(head[start:start + 512])
                time.sleep(0.002)
            answer = b""
            while chunk := raw.recv(65536):
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert len(reads) > 8   # the head did arrive in pieces
        assert len(parsed) == 64


def _wait_until(condition, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _asyncio_errors(caplog) -> list[str]:
    return [
        record.getMessage() for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


class TestTeardown:
    """A client may go away at any point of a request; the server
    answers nobody, logs nothing, counts no error and serves on."""

    @pytest.fixture()
    def fresh(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            yield instance

    @staticmethod
    def _hang_up(raw: socket.socket, reset: bool) -> None:
        if reset:  # an RST instead of a FIN
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        raw.close()

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    @pytest.mark.parametrize("data", [
        b"POST /explain HTTP/1.1\r\nHost: te",
        b"POST /explain HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"query\"",
    ], ids=["mid-head", "mid-body"])
    def test_a_client_gone_mid_request(
        self, fresh, scenario, caplog, data, reset
    ):
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            raw = socket.create_connection((fresh.host, fresh.port), timeout=30)
            _wait_until(lambda: len(fresh._connections) == 1)
            raw.sendall(data)
            self._hang_up(raw, reset)
            _wait_until(lambda: not fresh._connections)
            status, _headers, _data = _request(
                fresh, "POST", "/explain", {"query": str(scenario.target)}
            )
        assert status == 200
        assert _asyncio_errors(caplog) == []
        assert fresh.metrics.counter_value("serve.errors") == 0
        assert fresh.metrics.counter_value("serve.requests") == 1

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_a_client_gone_while_its_whynot_runs(
        self, fresh, scenario, caplog, monkeypatch, reset
    ):
        entered, release = threading.Event(), threading.Event()
        why_not = ExplanationSession.why_not

        def blocking(session, *args, **kwargs):
            entered.set()
            assert release.wait(30)
            return why_not(session, *args, **kwargs)

        monkeypatch.setattr(ExplanationSession, "why_not", blocking)
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            raw = socket.create_connection((fresh.host, fresh.port), timeout=30)
            raw.sendall(_raw_post(
                b"/whynot", {"query": "Control(Absentia0, Absentia1)"}
            ))
            assert entered.wait(30)
            self._hang_up(raw, reset)
            release.set()
            # Served, and its answer dropped with the connection, which
            # reads (and so sees the hang-up) once the search is done.
            _wait_until(
                lambda: fresh.metrics.counter_value("serve.ok") == 1
                and not fresh._connections
            )
            status, _headers, _data = _request(
                fresh, "POST", "/explain", {"query": str(scenario.target)}
            )
        assert status == 200
        assert _asyncio_errors(caplog) == []
        assert fresh.metrics.counter_value("serve.errors") == 0
        assert fresh.admission.depth == 0

    def test_stop_returns_with_idle_keep_alive_connections_open(
        self, scenario, snapshot, caplog
    ):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(slo_period_s=60.0), llm=None,
        )
        handle = instance.run_in_thread()
        sockets = [
            socket.create_connection((instance.host, instance.port), timeout=30)
            for _ in range(3)
        ]
        try:
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                for raw in sockets:  # keep-alive, answered, now idle
                    raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                    ((status, (_type, _length, connection), _qid, _body),) = (
                        _read_answers(raw, 1)
                    )
                    assert (status, connection) == (200, "keep-alive")
                started = time.monotonic()
                handle.stop(timeout_s=20)
                assert time.monotonic() - started < 20
            assert not handle.thread.is_alive()
            for raw in sockets:  # the server closed its end
                assert raw.recv(1) == b""
            assert _asyncio_errors(caplog) == []
        finally:
            for raw in sockets:
                raw.close()


class TestHotPathBookkeeping:
    """Clock-free cost of a memo-hit ``/explain``: one flight record per
    request, and the query rendered once (for its body) at most."""

    def test_memo_hits_close_one_record_and_render_the_query_once(
        self, scenario, snapshot, monkeypatch
    ):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        requests = 20
        payload = {"query": str(scenario.target)}
        with instance.run_in_thread():
            connection = http.client.HTTPConnection(
                instance.host, instance.port, timeout=30
            )
            try:
                status, _headers, first = _request(
                    instance, "POST", "/explain", payload,
                    connection=connection,
                )
                assert status == 200  # composed: later asks are memo hits
                closed = len(instance.flight)
                renders = _count_method(monkeypatch, Atom, "__str__")
                query_ids = set()
                for _ in range(requests):
                    status, headers, data = _request(
                        instance, "POST", "/explain", payload,
                        connection=connection,
                    )
                    assert (status, data) == (200, first)
                    query_ids.add(headers["X-Query-Id"])
                rendered = len(renders)
                monkeypatch.undo()
            finally:
                connection.close()
            records = instance.flight.records()[closed:]
        assert len(records) == requests
        assert {record.query_id for record in records} == query_ids
        assert all("explain" in record.phases for record in records)
        assert rendered <= requests


# ----------------------------------------------------------------------
# Admission control: queue overflow and breaker-open shedding
# ----------------------------------------------------------------------

class TestAdmission:
    def test_queue_overflow_sheds_503_with_retry_after(
        self, scenario, snapshot
    ):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                queue_limit=0, retry_after_s=2.0,
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            status, headers, data = _request(
                instance, "POST", "/explain",
                {"query": str(scenario.target)},
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 2
            payload = json.loads(data)
            assert payload["status"] == "shed"
            assert "queue" in payload["error"]
            assert instance.metrics.counter_value("serve.shed_queue") == 1

    def test_reads_waiting_for_the_loop_shed_past_the_limit(
        self, scenario, snapshot, monkeypatch
    ):
        # An explain holds the loop while more arrive; they wait for it
        # admitted, so those past the bound shed instead of queuing
        # unseen behind it.
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                queue_limit=2,
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        entered, release = threading.Event(), threading.Event()
        explain = ExplanationSession.explain

        def holding_once(session, *args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(30)
            return explain(session, *args, **kwargs)

        monkeypatch.setattr(ExplanationSession, "explain", holding_once)
        body = _body({"query": str(scenario.target)})
        headers = {"Content-Type": "application/json"}
        with instance.run_in_thread():
            connections = [
                http.client.HTTPConnection(
                    instance.host, instance.port, timeout=30
                )
                for _ in range(7)
            ]
            try:
                for connection in connections:  # accepted, now idle
                    status, _headers, _data = _request(
                        instance, "GET", "/healthz", connection=connection
                    )
                    assert status == 200
                holder, *waiting = connections
                holder.request("POST", "/explain", body=body, headers=headers)
                assert entered.wait(30)
                for connection in waiting:
                    connection.request(
                        "POST", "/explain", body=body, headers=headers
                    )
                # Let the requests reach the server's sockets before the
                # loop is let go.
                time.sleep(0.2)
                release.set()
                assert holder.getresponse().status == 200
                responses = [
                    connection.getresponse() for connection in waiting
                ]
                statuses = sorted(response.status for response in responses)
            finally:
                release.set()
                for connection in connections:
                    connection.close()
        assert set(statuses) == {200, 503}, statuses
        assert (
            instance.metrics.counter_value("serve.shed_queue")
            == statuses.count(503)
        )

    def test_open_breaker_sheds_503(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                breaker_window=4, breaker_min_calls=2,
                breaker_cooldown_s=60.0,
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            # A healthy server serves...
            status, _headers, _data = _request(
                instance, "POST", "/explain",
                {"query": str(scenario.target)},
            )
            assert status == 200
            # ... then sustained SLO breaches open the breaker.
            for _ in range(4):
                instance.breaker.observe_health(False)
            status, headers, data = _request(
                instance, "POST", "/explain",
                {"query": str(scenario.target)},
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 60
            payload = json.loads(data)
            assert payload["status"] == "shed"
            assert "circuit open" in payload["error"]
            assert (
                instance.metrics.counter_value("serve.shed_breaker") == 1
            )
            status, _headers, data = _request(instance, "GET", "/healthz")
            assert status == 200
            assert json.loads(data)["status"] == "shedding"


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


def tripped_breaker(clock):
    breaker = CircuitBreaker(
        MetricsRegistry(), window=4, min_calls=2, cooldown_s=30.0,
        clock=clock,
    )
    breaker.observe_health(False)
    breaker.observe_health(False)
    return breaker


class TestCircuitBreaker:
    def test_opens_at_failure_rate(self):
        breaker = CircuitBreaker(
            MetricsRegistry(), window=4, min_calls=2, clock=FakeClock()
        )
        assert breaker.state == "closed"
        breaker.observe_health(False)
        assert breaker.state == "closed"  # below min_calls
        breaker.observe_health(False)
        assert breaker.state == "open"

    def test_successes_keep_rate_below_threshold(self):
        breaker = CircuitBreaker(
            MetricsRegistry(), window=4, min_calls=4, clock=FakeClock()
        )
        for _ in range(3):
            breaker.observe_health(True)
        breaker.observe_health(False)
        assert breaker.state == "closed"  # 1/4 < 0.5

    def test_half_open_healthy_verdict_closes(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        clock.now += 31.0
        assert breaker.state == "half_open"
        breaker.observe_health(True)
        assert breaker.state == "closed"
        assert breaker.metrics.counter_value("serve.breaker_closed") == 1

    def test_half_open_unhealthy_verdict_reopens(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        clock.now += 31.0
        assert breaker.state == "half_open"
        breaker.observe_health(False)
        assert breaker.state == "open"
        # ... and the new cooldown starts from the failed verdict.
        clock.now += 29.0
        assert breaker.state == "open"
        clock.now += 2.0
        assert breaker.state == "half_open"

    def test_thread_safety_under_concurrent_failures(self):
        breaker = CircuitBreaker(
            MetricsRegistry(), window=64, min_calls=64, clock=FakeClock()
        )
        threads = [
            threading.Thread(target=breaker.observe_health, args=(False,))
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.snapshot()["failures_in_window"] == 32

    def test_transitions_count_on_the_server_registry(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot, llm=None,
        )
        for _ in range(instance.config.breaker_min_calls):
            instance.breaker.observe_health(False)
        assert instance.metrics.counter_value("serve.breaker_opened") == 1


class TestHealthCheck:
    """The server's one fixed health check: p99 of ``serve.request`` and
    the ``serve.errors`` rate, fed to the breaker."""

    @staticmethod
    def _latencies(value):
        metrics = MetricsRegistry()
        for _ in range(10):
            metrics.observe("serve.request", value)
        return metrics

    def test_latency_breach_and_recovery(self):
        assert not healthy(self._latencies(LATENCY_P99_MAX_S * 2))
        assert healthy(self._latencies(LATENCY_P99_MAX_S / 100))

    def test_empty_histogram_is_healthy(self):
        metrics = MetricsRegistry()
        assert healthy(metrics)
        metrics.histogram("serve.request")  # created, never observed
        assert healthy(metrics)

    def test_error_rate_below_min_events_is_healthy(self):
        metrics = MetricsRegistry()
        metrics.incr("serve.errors", ERROR_RATE_MIN_EVENTS - 1)
        assert healthy(metrics)  # every request failed, but too few
        metrics.incr("serve.errors")
        assert not healthy(metrics)
        metrics.incr("serve.ok", 10_000)
        assert healthy(metrics)  # 50 / 10,050 is within the budget

    def test_sustained_breach_opens_breaker(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot, llm=None,
        )
        instance.metrics.observe("serve.request", LATENCY_P99_MAX_S * 2)
        for _ in range(instance.config.breaker_min_calls):
            instance._check_health()
        assert instance.breaker.state == "open"
        assert instance.metrics.gauge_value("slo.healthy") == 0.0
        assert instance.health_payload()["slo_healthy"] is False


# ----------------------------------------------------------------------
# One flight record per served request
# ----------------------------------------------------------------------

#: route -> (body, the session phase its record must carry)
FLIGHT_ROUTES = {
    "/explain": ({"query": "Control(IrishBank, MadridCredit)"}, "explain"),
    "/explain/batch": (
        {"queries": ["Control(IrishBank, MadridCredit)"]}, "explain_batch",
    ),
    "/whynot": ({"query": "Control(Absentia0, Absentia1)"}, "why_not"),
    "/update": ({"adds": ["Company(Absentia0)"]}, "update"),
}


class TestFlightRecordPerRequest:
    @pytest.fixture()
    def fresh(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            yield instance

    @pytest.mark.parametrize("route", sorted(FLIGHT_ROUTES))
    def test_request_leaves_one_record_naming_its_work(self, fresh, route):
        body, phase = FLIGHT_ROUTES[route]
        before = len(fresh.flight)
        status, headers, _data = _request(fresh, "POST", route, body)
        assert status == 200
        assert len(fresh.flight) == before + 1
        status, _headers, data = _request(
            fresh, "GET", f"/flight/{headers['X-Query-Id']}"
        )
        assert status == 200
        (record,) = json.loads(data)["records"]
        assert record["kind"] == "serve." + route.strip("/").replace("/", "_")
        assert phase in record["phases"]
        assert record["fingerprint"]
        if route != "/update":
            assert any(name.startswith("cache.") for name in record["counts"])


# ----------------------------------------------------------------------
# Every metric the server records has a reader (DESIGN.md §7)
# ----------------------------------------------------------------------

def _reader_table_patterns() -> list[re.Pattern]:
    """The metric names of DESIGN.md's metric-reader table, as patterns
    (``<rule>``-style placeholders match one name segment or more)."""
    design = Path(__file__).parent.parent / "DESIGN.md"
    section = design.read_text(encoding="utf-8").split(
        "### Who reads each metric", 1
    )[1].split("\n#", 1)[0]
    patterns = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            parts = re.split(r"<[^>]+>", name)
            patterns.append(
                re.compile(r"[\w.]+".join(map(re.escape, parts)) + "$")
            )
    return patterns


class TestMetricReaders:
    def test_served_workload_records_only_read_metrics(
        self, scenario, snapshot
    ):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=1,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            for route in ("/explain", "/explain/batch", "/whynot", "/update"):
                status, _headers, _data = _request(
                    instance, "POST", route, FLIGHT_ROUTES[route][0]
                )
                assert status == 200
            status, _headers, text = _request(instance, "GET", "/metrics")
            assert status == 200
        patterns = _reader_table_patterns()
        snapshot_doc = instance.metrics.snapshot()
        names = {
            name
            for kind in ("counters", "gauges", "histograms")
            for name in snapshot_doc[kind]
        }
        assert "slo.healthy" in names and "serve.request" in names
        unread = sorted(
            name for name in names
            if not any(pattern.match(name) for pattern in patterns)
        )
        assert not unread, f"metrics without a DESIGN.md reader: {unread}"
        # The series bench/ scrapes and CI reads are still exported.
        for series in (
            "repro_serve_ok", "repro_serve_requests",
            "repro_serve_request_count", 'repro_cache_evictions{cache="',
            'repro_cache_region_hits{cache="explanation_cache",'
            'region="explain"}',
        ):
            assert series.encode() in text, series


# ----------------------------------------------------------------------
# Byte parity: HTTP bodies == direct in-process serialization
# ----------------------------------------------------------------------

#: One scenario per bundled application family.
PARITY_SCENARIOS = (
    figures.figure8_instance,                      # integrated ownership
    figures.figure12_stress_instance,              # stress testing
    figures.figure15_instance,                     # company control
    lambda: generators.close_links_common_control(seed=0),
)


class TestByteParity:
    @pytest.mark.parametrize(
        "build", PARITY_SCENARIOS,
        ids=lambda build: getattr(build, "__name__", "generated"),
    )
    def test_served_bytes_equal_direct_serialization(self, build):
        parity_scenario = build()
        parity_snapshot = dumps_database(parity_scenario.database)
        service = ExplanationService(llm=None)
        session = service.session(
            parity_scenario.application,
            loads_database(parity_snapshot), strategy="planned",
        )
        instance = ExplanationServer(
            parity_scenario.application, snapshot=parity_snapshot,
            config=ServeConfig(),
            llm=None,
        )
        try:
            with instance.run_in_thread():
                targets = [
                    query for query in session.answers()
                    if query.predicate == parity_scenario.target.predicate
                    and session.result.chase_result.is_derived(query)
                ][:4] or [parity_scenario.target]
                for query in targets:
                    status, _headers, served = _request(
                        instance, "POST", "/explain",
                        {"query": str(query)},
                    )
                    assert status == 200
                    expected = encode_body(
                        explanation_payload(session.explain(query))
                    )
                    assert served == expected, f"diverged on {query}"
                status, _headers, served = _request(
                    instance, "POST", "/explain/batch",
                    {
                        "queries": [str(query) for query in targets],
                        "deadline_s": 30.0,
                    },
                )
                assert status == 200
                expected = encode_body(batch_payload(
                    session.explain_batch(targets, deadline=Deadline(30.0))
                ))
                assert served == expected
                arity = parity_scenario.target.arity
                absent = "{}({})".format(
                    parity_scenario.target.predicate,
                    ", ".join(f"Absentia{n}" for n in range(arity)),
                )
                # A batch with an underived query, a spent budget (the
                # 504 partial) and the plain templates.
                mixed = [*targets, parse_fact(absent)]
                for queries, deadline_s, enhanced, wanted in (
                    (mixed, 30.0, True, 200),
                    (targets, 0, True, 504),
                    (mixed, 30.0, False, 200),
                ):
                    status, _headers, served = _request(
                        instance, "POST", "/explain/batch",
                        {"queries": [str(query) for query in queries],
                         "deadline_s": deadline_s,
                         "prefer_enhanced": enhanced},
                    )
                    assert status == wanted
                    expected = encode_body(batch_payload(
                        session.explain_batch(
                            queries, deadline=Deadline(deadline_s),
                            prefer_enhanced=enhanced,
                        ),
                        partial=wanted == 504,
                    ))
                    assert served == expected, (deadline_s, enhanced)
                for query in targets:
                    status, _headers, served = _request(
                        instance, "POST", "/explain",
                        {"query": str(query), "prefer_enhanced": False},
                    )
                    assert status == 200
                    assert served == encode_body(explanation_payload(
                        session.explain(query, prefer_enhanced=False)
                    ))
                status, _headers, served = _request(
                    instance, "POST", "/whynot", {"query": absent}
                )
                assert status == 200
                expected = encode_body(
                    whynot_payload(session.why_not(parse_fact(absent)))
                )
                assert served == expected
        finally:
            service.shutdown()


def _count_calls_to(monkeypatch, module, name: str) -> list:
    """Count calls to ``module.name`` through every ``repro`` module that
    bound it by name; returns the list calls are appended to."""
    calls: list = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for other in list(sys.modules.values()):
        if other is not None and other.__name__.startswith("repro"):
            if vars(other).get(name) is original:
                monkeypatch.setattr(other, name, counting)
    return calls


def _bench_s_graph():
    """``bench/gen.py``'s ``S`` graph (seed 1): the facts and the derived
    facts, as strings."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return module.ownership_graph("S", 1)
    finally:
        del sys.modules[spec.name]


def _count_method(monkeypatch, owner, name: str) -> list:
    """Count calls to the method ``owner.name``."""
    calls: list = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestJoinedBodies:
    """Clock-free cost of a served explanation: its body is joined from
    fragments the binding escaped once, so no explanation request runs
    the canonical encoder, a fact composed before composes nothing, and
    a segment is escaped once however many proofs contain it.  The
    joined bytes are always the direct serialization of the explanation
    the current binding gives."""

    @pytest.fixture()
    def fresh(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        service = ExplanationService(llm=None)
        mirror = service.session(
            scenario.application, loads_database(snapshot),
            strategy="planned",
        )
        try:
            with instance.run_in_thread():
                yield instance, mirror
        finally:
            service.shutdown()

    def test_repeats_skip_the_tokenizer_and_the_encoder(
        self, fresh, scenario, monkeypatch
    ):
        # Before bodies were joined, five repeats encoded twice (the
        # miss, then the body kept on the first hit).
        instance, _mirror = fresh
        tokenized = _count_calls_to(monkeypatch, parser, "_tokenize")
        encoded = _count_calls_to(monkeypatch, protocol, "encode_body")
        bodies = set()
        for _ in range(5):
            status, _headers, served = _request(
                instance, "POST", "/explain", {"query": str(scenario.target)}
            )
            assert status == 200
            bodies.add(served)
        assert len(bodies) == 1
        assert (len(tokenized), len(encoded)) == (0, 0)

    @pytest.mark.parametrize("enhanced", [True, False])
    def test_a_batch_runs_no_encoder(
        self, fresh, scenario, monkeypatch, enhanced
    ):
        # Before, every 200 batch encoded its whole payload once.
        instance, mirror = fresh
        queries = [
            query for query in mirror.answers(scenario.target.predicate)
            if mirror.result.chase_result.is_derived(query)
        ]
        encoded = _count_calls_to(monkeypatch, protocol, "encode_body")
        for _ in range(2):
            status, _headers, served = _request(
                instance, "POST", "/explain/batch",
                {"queries": [str(query) for query in queries],
                 "prefer_enhanced": enhanced},
            )
            assert status == 200
        assert encoded == []
        monkeypatch.undo()
        assert served == encode_body(batch_payload(mirror.explain_batch(
            queries, deadline=Deadline(30.0), prefer_enhanced=enhanced,
        )))

    @pytest.mark.parametrize("audit", [False, True])
    def test_every_serve_is_the_direct_serialization(
        self, fresh, scenario, audit
    ):
        instance, mirror = fresh
        expected = encode_body(explanation_payload(
            mirror.explain(scenario.target), audit=audit
        ))
        for _ in range(4):  # the miss, then memo hits
            status, _headers, served = _request(
                instance, "POST", "/explain",
                {"query": str(scenario.target), "audit": audit},
            )
            assert status == 200
            assert served == expected

    def test_an_update_serves_the_new_bindings_bytes(
        self, fresh, scenario, monkeypatch
    ):
        instance, mirror = fresh
        query = {"query": str(scenario.target)}
        for _ in range(3):
            _request(instance, "POST", "/explain", query)
        edge = "Own(FrenchPLC, MadridCredit, 0.21)"
        for delta, wanted in (({"retracts": [edge]}, 404),
                              ({"adds": [edge]}, 200)):
            status, _headers, _data = _request(
                instance, "POST", "/update", delta
            )
            assert status == 200
            mirror.update(
                adds=[parse_fact(f) for f in delta.get("adds", ())],
                retracts=[parse_fact(f) for f in delta.get("retracts", ())],
            )
            encoded = _count_calls_to(monkeypatch, protocol, "encode_body")
            composed = _count_method(monkeypatch, Explainer, "_compose")
            status, _headers, served = _request(
                instance, "POST", "/explain", query
            )
            assert status == wanted
            # The 404 body is encoded; the new binding's explanation is
            # composed afresh and joined, never encoded.
            assert len(encoded) == (wanted == 404)
            assert bool(composed) == (wanted == 200)
            monkeypatch.undo()
        assert served == encode_body(
            explanation_payload(mirror.explain(scenario.target))
        )

    def test_a_sweep_escapes_each_segment_once(self, monkeypatch):
        """Two passes over bench ``S`` in batches of 16, as serve-sweep
        sends them: the first escapes each rendered segment once, the
        second escapes and composes nothing."""
        graph = _bench_s_graph()
        pool = WorkerPool.from_database(
            company_control.build(), loads_facts("\n".join(graph.facts))
        )
        batches = [
            _body({"queries": graph.derived[start:start + 16]})
            for start in range(0, len(graph.derived), 16)
        ]
        try:
            escaped = _count_method(monkeypatch, core_explain, "json_escaped")
            rendered = _count_method(
                monkeypatch, templates.ExplanationTemplate, "instantiate"
            )
            composed = _count_method(monkeypatch, Explainer, "_compose")
            encoded = _count_calls_to(monkeypatch, protocol, "encode_body")
            for body in batches:
                status, payload = pool.serve("explain_batch", body)
                assert status == 200 and isinstance(payload, bytes)
            segments = len(pool.session.explainer._segment_memo)
            assert segments > 0
            assert len(escaped) == len(rendered) == segments
            assert len(composed) >= len(graph.derived)
            del escaped[:], composed[:]
            for body in batches:
                pool.serve("explain_batch", body)
            assert (len(escaped), len(composed), len(encoded)) == (0, 0, 0)
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# Live updates over HTTP: POST /update
# ----------------------------------------------------------------------

class TestUpdateEndpoint:
    """POST /update against a dedicated server (updates mutate worker
    state, so the module-scoped shared server stays out of this), with a
    mirror in-process session applying the same deltas for byte parity."""

    @pytest.fixture()
    def setup(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                breaker_window=4, breaker_min_calls=2,
                breaker_cooldown_s=60.0,
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        service = ExplanationService(llm=None)
        mirror = service.session(
            scenario.application, loads_database(snapshot),
            strategy="planned",
        )
        try:
            with instance.run_in_thread():
                yield instance, mirror
        finally:
            service.shutdown()

    def test_update_then_explain_byte_parity(self, setup):
        instance, mirror = setup
        adds = ["Company(Absentia0)", "Own(IrishBank, Absentia0, 0.9)"]
        status, _headers, data = _request(
            instance, "POST", "/update", {"adds": adds}
        )
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert payload["mode"] == "incremental"
        assert payload["added"] == adds
        assert payload["retracted"] == []
        assert payload["replayed"] > 0
        mirror.update(adds=[parse_fact(entry) for entry in adds])
        derived = "Control(IrishBank, Absentia0)"
        status, _headers, served = _request(
            instance, "POST", "/explain", {"query": derived}
        )
        assert status == 200
        expected = encode_body(
            explanation_payload(mirror.explain(parse_fact(derived)))
        )
        assert served == expected
        assert instance.metrics.counter_value("serve.updates") == 1

    def test_retraction_switches_explain_to_whynot(self, setup, scenario):
        # Dropping the FrenchPLC edge starves IrishBank's joint majority
        # over MadridCredit: the old answer must 404 and the why-not
        # report must match the mirror byte for byte.
        instance, mirror = setup
        edge = "Own(FrenchPLC, MadridCredit, 0.21)"
        status, _headers, data = _request(
            instance, "POST", "/update", {"retracts": [edge]}
        )
        assert status == 200
        assert json.loads(data)["retracted"] == [edge]
        mirror.update(retracts=[parse_fact(edge)])
        target = str(scenario.target)
        status, _headers, _data = _request(
            instance, "POST", "/explain", {"query": target}
        )
        assert status == 404
        status, _headers, served = _request(
            instance, "POST", "/whynot", {"query": target}
        )
        assert status == 200
        expected = encode_body(
            whynot_payload(mirror.why_not(parse_fact(target)))
        )
        assert served == expected

    def test_retracting_derived_fact_is_400(self, setup):
        instance, _mirror = setup
        status, _headers, data = _request(
            instance, "POST", "/update",
            {"retracts": ["Control(IrishBank, FondoItaliano)"]},
        )
        assert status == 400
        payload = json.loads(data)
        assert payload["status"] == "bad_request"
        assert "derived" in payload["error"]
        assert instance.metrics.counter_value("serve.bad_requests") == 1

    @pytest.mark.parametrize("adds", [
        ["Own(IrishBank, MadridCredit)"],  # the wrong arity
        ['Own(IrishBank, MadridCredit, "x")'],  # a share sigma3 cannot sum
    ])
    def test_a_delta_the_program_rejects_is_400(self, setup, scenario, adds):
        instance, mirror = setup
        status, _headers, data = _request(
            instance, "POST", "/update", {"adds": adds}
        )
        assert status == 400
        assert json.loads(data)["status"] == "bad_request"
        assert instance.metrics.counter_value("serve.bad_requests") == 1
        assert instance.metrics.counter_value("serve.errors") == 0
        assert instance.metrics.counter_value("serve.updates") == 0
        # Nothing was published: the old state still serves.
        status, _headers, served = _request(
            instance, "POST", "/explain", {"query": str(scenario.target)}
        )
        assert status == 200
        assert served == encode_body(
            explanation_payload(mirror.explain(scenario.target))
        )

    def test_empty_delta_is_400(self, setup):
        instance, _mirror = setup
        status, _headers, data = _request(
            instance, "POST", "/update", {"adds": [], "retracts": []}
        )
        assert status == 400
        assert json.loads(data)["status"] == "bad_request"

    def test_open_breaker_sheds_update_503(self, setup):
        instance, _mirror = setup
        for _ in range(4):
            instance.breaker.observe_health(False)
        status, headers, data = _request(
            instance, "POST", "/update",
            {"adds": ["Company(Absentia0)"]},
        )
        assert status == 503
        assert int(headers["Retry-After"]) >= 60
        payload = json.loads(data)
        assert payload["status"] == "shed"
        assert "circuit open" in payload["error"]


class TestDispatchThreads:
    """Where a request runs, by call site rather than by clock:
    explains on the event-loop thread, ``/whynot`` and
    ``/update`` on a thread beside it, so a slow search or update never
    holds the readers."""

    @pytest.fixture()
    def fresh(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread() as handle:
            yield instance, handle.thread

    def test_explains_run_on_the_loop_and_the_rest_beside_it(
        self, fresh, scenario, monkeypatch
    ):
        instance, loop_thread = fresh
        threads: dict[str, threading.Thread] = {}
        serve = WorkerPool.serve

        def recording(pool, route, body, record=None):
            threads[route] = threading.current_thread()
            return serve(pool, route, body, record=record)

        monkeypatch.setattr(WorkerPool, "serve", recording)
        target = str(scenario.target)
        for path, payload in (
            ("/explain", {"query": target}),
            ("/explain/batch", {"queries": [target]}),
            ("/whynot", {"query": "Control(Absentia0, Absentia1)"}),
            ("/update", {"adds": ["Company(Absentia0)"]}),
        ):
            status, _headers, _data = _request(
                instance, "POST", path, payload
            )
            assert status == 200, path
        assert threads["explain"] is loop_thread
        assert threads["explain_batch"] is loop_thread
        assert threads["whynot"] is not loop_thread
        assert threads["update"] is not loop_thread
        assert not any(
            isinstance(value, ThreadPoolExecutor)
            for value in vars(instance).values()
        )

    @pytest.mark.parametrize("path, method, payload, answered", [
        ("/update", "update", {"adds": ["Company(Absentia0)"]}, "added"),
        ("/whynot", "why_not", {"query": "Control(Absentia0, Absentia1)"},
         "query"),
    ])
    def test_a_blocked_search_or_update_does_not_hold_the_loop(
        self, fresh, scenario, monkeypatch, path, method, payload, answered
    ):
        instance, _loop_thread = fresh
        entered, release = threading.Event(), threading.Event()
        work = getattr(ExplanationSession, method)

        def blocking(session, *args, **kwargs):
            entered.set()
            assert release.wait(30)
            return work(session, *args, **kwargs)

        monkeypatch.setattr(ExplanationSession, method, blocking)
        answer: list = []
        client = threading.Thread(target=lambda: answer.append(
            _request(instance, "POST", path, payload)
        ))
        client.start()
        try:
            assert entered.wait(30)
            status, _headers, _data = _request(instance, "GET", "/healthz")
            assert status == 200
            status, _headers, data = _request(
                instance, "POST", "/explain", {"query": str(scenario.target)}
            )
            assert status == 200
            assert json.loads(data)["status"] == "ok"
            assert not answer  # the blocked request is still blocked
        finally:
            release.set()
            client.join(timeout=30)
        assert not client.is_alive()
        status, _headers, data = answer[0]
        assert status == 200
        assert answered in json.loads(data)


# ----------------------------------------------------------------------
# Satellite fixes: integer Retry-After, breaker cooldown in /healthz,
# per-worker boot telemetry
# ----------------------------------------------------------------------

class TestRetryAfterAndCooldown:
    @pytest.fixture()
    def shedding(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                breaker_window=4, breaker_min_calls=2,
                breaker_cooldown_s=45.5,
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            yield instance

    def test_retry_after_is_integer_ceil_of_remaining(self, shedding):
        for _ in range(4):
            shedding.breaker.observe_health(False)
        status, headers, _data = _request(
            shedding, "POST", "/explain", {"query": "Control(A, B)"}
        )
        assert status == 503
        retry_after = headers["Retry-After"]
        assert "." not in retry_after  # integer seconds, not a float
        # ceil of the *remaining* cooldown (45.5s window, just opened).
        assert 1 <= int(retry_after) <= 46

    def test_healthz_surfaces_remaining_cooldown(self, shedding):
        status, _headers, data = _request(shedding, "GET", "/healthz")
        payload = json.loads(data)
        assert status == 200
        assert payload["breaker_cooldown_remaining_s"] == 0.0
        for _ in range(4):
            shedding.breaker.observe_health(False)
        status, _headers, data = _request(shedding, "GET", "/healthz")
        payload = json.loads(data)
        assert payload["status"] == "shedding"
        remaining = payload["breaker_cooldown_remaining_s"]
        assert 0.0 < remaining <= 45.5
        # The nested admission view reads its own clock a hair later.
        nested = payload["admission"]["breaker"]["cooldown_remaining_s"]
        assert abs(nested - remaining) < 0.5


class TestWorkerBootTelemetry:
    def test_boot_rows_in_healthz(self, server):
        _status, _headers, data = _request(server, "GET", "/healthz")
        rows = json.loads(data)["warm_start"]["boot_rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["worker"] == 0
        assert row["snapshot_load_s"] >= 0.0
        assert row["boot_s"] > 0.0
        assert row["total_s"] >= row["boot_s"]

    def test_boot_histograms_recorded(self, server):
        for name in (
            "serve.worker_snapshot_load", "serve.worker_boot",
            "serve.worker_warm_start",
        ):
            histogram = server.metrics.find_histogram(name)
            assert histogram is not None, name
            assert histogram.count == 1


# ----------------------------------------------------------------------
# POST /update racing keep-alive /explain connections
# ----------------------------------------------------------------------

class TestUpdateRacesKeepAlive:
    """The drain lock must neither drop nor reorder in-flight responses:
    every response on a keep-alive connection answers its own request,
    and the pre-to-post-update transition is atomic (no response shows
    pre-update state after one has shown post-update state)."""

    @pytest.fixture()
    def racing(self, scenario, snapshot):
        instance = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(
                slo_period_s=60.0, slo_interval_requests=10_000,
            ),
            llm=None,
        )
        with instance.run_in_thread():
            yield instance

    def test_update_does_not_drop_or_reorder_responses(
        self, racing, scenario
    ):
        import threading as _threading

        target = str(scenario.target)
        # Pre-update: the target explains (200).  The update retracts
        # the FrenchPLC edge, after which it must 404 as not_derived.
        status, _headers, pre_body = _request(
            racing, "POST", "/explain", {"query": target}
        )
        assert status == 200

        results: dict[int, list] = {}
        errors: list = []
        started = _threading.Barrier(4)

        def client(slot: int) -> None:
            connection = http.client.HTTPConnection(
                racing.host, racing.port, timeout=30
            )
            rows = results.setdefault(slot, [])
            try:
                started.wait(timeout=10)
                for _ in range(10):
                    status, _headers, data = _request(
                        racing, "POST", "/explain", {"query": target},
                        connection=connection,
                    )
                    rows.append((status, data))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)
            finally:
                connection.close()

        threads = [
            _threading.Thread(target=client, args=(slot,))
            for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        started.wait(timeout=10)
        status, _headers, data = _request(
            racing, "POST", "/update",
            {"retracts": ["Own(FrenchPLC, MadridCredit, 0.21)"]},
        )
        assert status == 200
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        for slot, rows in results.items():
            assert len(rows) == 10, f"connection {slot} dropped responses"
            seen_post = False
            for status, data in rows:
                if status == 200:
                    # Pre-update state: exact bytes, and never after a
                    # post-update response on the same ordered connection.
                    assert data == pre_body
                    assert not seen_post, (
                        f"connection {slot} regressed to pre-update state"
                    )
                else:
                    assert status == 404
                    assert json.loads(data)["status"] == "not_derived"
                    seen_post = True
        # The update really landed: fresh requests see post-update state.
        status, _headers, _data = _request(
            racing, "POST", "/explain", {"query": target}
        )
        assert status == 404
        for counter in ("serve.errors", "serve.shed_queue",
                        "serve.shed_breaker"):
            assert racing.metrics.counter_value(counter) == 0, counter
