"""The network front end: an asyncio HTTP server over one warm session.

A dependency-light HTTP/1.1 server built directly on a stdlib
:class:`asyncio.Protocol` — no web framework, no ASGI dependency —
exposing the explanation service to network clients:

===========================  =========================================
``POST /explain``            one query -> explanation (or 504 partial)
``POST /explain/batch``      many queries under one deadline budget
``POST /whynot``             why a fact was *not* derived
``POST /update``             apply an extensional add/retract delta
``GET /healthz``             liveness + breaker/queue/worker view
``GET /metrics``             Prometheus text from the obs registry
``GET /flight/<qid>``        one flight record as ``repro-flight/1``
``GET /flight``              the whole flight ring buffer
===========================  =========================================

Request lifecycle.  Each connection is one :class:`_Connection`
protocol: the bytes it receives append to its :class:`_Framer`, which
takes whole requests off the front, parsing each head line once (LF or
CRLF line ends; a malformed head, a 65th header, a line over 64 KiB or
any ``Transfer-Encoding`` is one 400, a body over 4 MiB a 413, and the
connection closes).  A framed ``GET`` is answered at once.  A framed
``POST`` to a route is admitted in the same callback by the
:class:`~repro.serve.admission.AdmissionController` (bounded queue +
health-driven circuit breaker — a shed answers ``503`` with
``Retry-After`` before any work is queued) and served from a
:meth:`loop.call_soon <asyncio.loop.call_soon>` callback, so every
request framed in one loop iteration is admitted before any is served:
what waits for the loop counts against the admission bound and in
``serve.request``, which times from admission and which the health
check reads.  An admitted ``/explain`` or ``/explain/batch`` is served
on the event-loop thread itself from the
:class:`~repro.serve.workers.WorkerPool`'s one warm session (compiled
program + provenance index, booted once from a ``repro-db/1``
snapshot): a memo hit is a lookup plus a join of escaped fragments, and
a thread hop under one interpreter lock would only add hand-offs.  Work
that can block leaves the loop through :func:`asyncio.to_thread`: a
``/whynot`` searches and an ``/update`` chases on a background thread
beside the readers (the update then publishes its successor session),
and its connection reads nothing more until it is answered.  A
connection frames its next request only once the previous one is
answered, so pipelined answers leave in request order, each head and
body in one ``transport.write``; while the transport's write buffer is
over its high-water mark the connection neither reads nor frames, and
it stops reading once 128 KiB wait behind the request in flight.
Every request carries a :class:`~repro.core.service.Deadline`; a spent
budget answers ``504`` with whatever partial results were computed
(the ``explain_batch`` contract, now over HTTP).  Each request leaves
one flight record, named by the ``X-Query-Id`` header, so
``GET /flight/<qid>`` resolves a slow exemplar to its phase breakdown.

The server periodically runs its fixed health check
(:func:`~repro.serve.admission.healthy`): sustained p99 or error-budget
breaches open the breaker and shed load until the cooldown ends and the
next healthy verdict closes it.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .. import obs
from ..apps.base import KGApplication
from ..engine.database import Database
from ..io import dumps_database
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from .admission import (
    OPEN,
    AdmissionController,
    CircuitBreaker,
    ShedRequest,
    _AdmissionToken,
    healthy,
)
from .protocol import (
    SERVE_FORMAT,
    ProtocolError,
    encode_body,
    error_payload,
    refusal,
)
from .workers import WorkerPool

_REASONS = {
    200: b"OK", 400: b"Bad Request", 404: b"Not Found",
    405: b"Method Not Allowed", 413: b"Payload Too Large",
    500: b"Internal Server Error", 503: b"Service Unavailable",
    504: b"Gateway Timeout",
}

#: Upper bound on accepted request bodies (a batch of a few thousand
#: textual queries fits comfortably; anything larger is abuse).
MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADERS = 64
#: Upper bound on one line of a request head (the request line or a
#: header), its line end not counted.
_MAX_LINE_BYTES = 64 * 1024

#: Bytes a connection buffers behind the request it has in flight before
#: it stops reading (twice a head line, the bound a stream reader of
#: :data:`_MAX_LINE_BYTES` paused at): a client that pipelines requests
#: faster than they are served waits in its own socket buffers, not in
#: the server's memory.
_MAX_BUFFERED_BYTES = 2 * _MAX_LINE_BYTES

#: A framed request: (method, target, headers, body).
Framed = tuple[str, str, dict[str, str], bytes]
#: An answer: (status, body, content type, extra header fields).
Response = tuple[int, bytes, bytes, list[tuple[str, str]]]
#: What serving a routed request returns: (status, payload, query id).
Served = tuple[int, "dict | bytes", str]


def _line_too_long() -> ProtocolError:
    return ProtocolError(f"request head line exceeds {_MAX_LINE_BYTES} bytes")


def _header_field(line: bytearray) -> tuple[str, str]:
    """One header line as (lower-cased name, value)."""
    name, _sep, value = line.decode("latin-1").partition(":")
    return name.strip().lower(), value.strip()


class _Framer:
    """Takes whole requests off the front of one connection's bytes.

    A head line ends at LF, with or without a CR before it, and the
    first empty line ends the head.  Only ``Content-Length`` frames a
    body.  Each head line is checked and parsed once, when its LF is in,
    and the framer keeps its place in an unfinished head, so a head that
    arrives a few bytes at a time costs its length, not its length
    squared.  A head that cannot be framed raises :class:`ProtocolError`
    as soon as the bytes that break it are in: a malformed request line,
    a 65th header, a line over :data:`_MAX_LINE_BYTES`, any
    ``Transfer-Encoding``, a bad or oversized ``Content-Length`` (413).
    """

    __slots__ = ("buffer", "_start", "_request_line", "_headers", "_count",
                 "_length")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self._next_head()

    def _next_head(self) -> None:
        self._start = 0             # the first line not parsed yet, or the body
        self._request_line: tuple[str, str] | None = None
        self._headers: dict[str, str] = {}
        self._count = 0             # header lines parsed
        self._length = -1           # the body's length once the head is whole

    def take(self) -> Framed | None:
        """The request at the front of the buffer, removed from it, or
        ``None`` while it is incomplete."""
        buffer = self.buffer
        if self._length < 0 and not self._read_head(buffer):
            return None
        start, length = self._start, self._length
        if len(buffer) - start < length:
            return None
        assert self._request_line is not None
        method, target = self._request_line
        framed = method, target, self._headers, bytes(
            buffer[start:start + length]
        )
        del buffer[:start + length]
        self._next_head()
        return framed

    def _read_head(self, buffer: bytearray) -> bool:
        """Parse the head lines now whole; ``True`` once the head is."""
        find = buffer.find
        start, headers = self._start, self._headers
        while True:
            end = find(b"\n", start)
            if end < 0:
                self._start = start
                if len(buffer) - start > _MAX_LINE_BYTES:
                    raise _line_too_long()
                return False
            if end - start > _MAX_LINE_BYTES:
                raise _line_too_long()
            line = buffer[start:end]
            start = end + 1
            if self._request_line is None:
                try:
                    method, target, _version = (
                        line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    raise ProtocolError("malformed request line")
                self._request_line = method.upper(), target
                continue
            if line == b"" or line == b"\r":
                break
            self._count += 1
            if self._count > _MAX_HEADERS:
                raise ProtocolError("too many headers", status=400)
            name, value = _header_field(line)
            headers[name] = value
        self._start = start
        self._length = self._body_length()
        return True

    def _body_length(self) -> int:
        headers = self._headers
        if "transfer-encoding" in headers:
            # Only Content-Length frames a body here; reading a chunked
            # body as empty would parse its chunks as the next request.
            raise ProtocolError(
                "Transfer-Encoding is not supported; send Content-Length"
            )
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise ProtocolError(f"malformed Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound",
                status=413,
            )
        return length


@dataclass
class ServeConfig:
    """Tunables of one server instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (tests, benchmarks)
    queue_limit: int = 64              # admitted (served + waiting) bound
    default_deadline_s: float = 10.0   # per-request budget when unspecified
    retry_after_s: float = 1.0         # hint on queue sheds
    slo_interval_requests: int = 32    # run the health check every N requests
    slo_period_s: float = 1.0          # ... and at least this often
    breaker_window: int = 16
    breaker_min_calls: int = 8
    breaker_cooldown_s: float = 2.0
    flight_capacity: int = 512


class ExplanationServer:
    """One application served over HTTP from one warm session."""

    def __init__(
        self,
        application: KGApplication,
        database: Database | None = None,
        snapshot: str | None = None,
        config: ServeConfig | None = None,
        llm: object | None = None,
    ):
        if snapshot is None:
            if database is None:
                raise ValueError("pass a database or a repro-db/1 snapshot")
            snapshot = dumps_database(database)
        self.application = application
        self.snapshot = snapshot
        self.config = config if config is not None else ServeConfig()
        self.llm = llm
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity, enabled=True
        )
        self.breaker = CircuitBreaker(
            self.metrics,
            window=self.config.breaker_window,
            min_calls=self.config.breaker_min_calls,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.admission = AdmissionController(
            self.config.queue_limit, self.breaker, self.metrics,
            retry_after_s=self.config.retry_after_s,
        )
        self.pool: WorkerPool | None = None
        self.host = self.config.host
        self.port = self.config.port
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._completed_since_slo = 0
        self._slo_task: asyncio.Task | None = None
        self._connections: set[_Connection] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot the worker pool and bind the listening socket."""
        if self.pool is None:
            self.pool = WorkerPool(
                self.application, self.snapshot,
                llm=self.llm, metrics=self.metrics,
                default_deadline_s=self.config.default_deadline_s,
            )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self.config.host,
            port=self.config.port,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def _shutdown(self) -> None:
        if self._slo_task is not None:
            self._slo_task.cancel()
            self._slo_task = None
        if self._server is not None:
            self._server.close()
            # Close the connections first: a server waits for its open
            # connections to close, idle keep-alive ones included.
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.sleep(0)
        # Let requests in flight on asyncio.to_thread finish before the
        # pool they use goes away.
        await asyncio.get_running_loop().shutdown_default_executor()
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    async def _run_async(
        self,
        on_ready: Callable[["ExplanationServer"], None] | None = None,
        install_signals: bool = False,
    ) -> None:
        """Serve until :meth:`request_stop` (or SIGINT/SIGTERM) fires."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        with obs.observed(metrics=self.metrics, flight=self.flight):
            await self.start()
            if install_signals:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    self._loop.add_signal_handler(
                        signum, self._stop_event.set
                    )
            self._slo_task = self._loop.create_task(self._slo_heartbeat())
            if on_ready is not None:
                on_ready(self)
            try:
                await self._stop_event.wait()
            finally:
                if install_signals:
                    for signum in (signal.SIGINT, signal.SIGTERM):
                        self._loop.remove_signal_handler(signum)
                await self._shutdown()

    def run(
        self,
        on_ready: Callable[["ExplanationServer"], None] | None = None,
    ) -> None:
        """Blocking entry point (the CLI): serve until SIGINT/SIGTERM."""
        asyncio.run(self._run_async(on_ready=on_ready, install_signals=True))

    def run_in_thread(self, timeout_s: float = 60.0) -> "ServerHandle":
        """Serve from a daemon thread; returns once the port is bound.

        The handle the tests and the load harness drive: ``handle.stop()``
        requests a clean shutdown and joins the thread.
        """
        ready = threading.Event()
        failures: list[BaseException] = []

        def _target() -> None:
            try:
                asyncio.run(
                    self._run_async(on_ready=lambda _server: ready.set())
                )
            except BaseException as error:  # surfaced to the caller
                failures.append(error)
                ready.set()

        thread = threading.Thread(
            target=_target, name="repro-serve-loop", daemon=True
        )
        thread.start()
        if not ready.wait(timeout_s):
            raise RuntimeError(f"server did not start within {timeout_s}s")
        if failures:
            raise failures[0]
        return ServerHandle(self, thread)

    def request_stop(self) -> None:
        """Thread-safe shutdown request."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _slo_heartbeat(self) -> None:
        """Periodic health check so an idle server still recovers
        (request-count-driven checks alone would freeze an open
        breaker's window when traffic stops arriving)."""
        while True:
            await asyncio.sleep(self.config.slo_period_s)
            self._check_health()

    def _check_health(self) -> None:
        """Feed one :func:`healthy` verdict to the breaker and publish it
        as the ``slo.healthy`` gauge ``/healthz`` reports."""
        verdict = healthy(self.metrics)
        self.metrics.set_gauge("slo.healthy", 1.0 if verdict else 0.0)
        self.breaker.observe_health(verdict)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, connection: "_Connection", method: str, target: str,
        body: bytes,
    ) -> None:
        """Answer one framed request, or admit it and schedule its
        serving (a POST to a route)."""
        path = target.split("?", 1)[0]
        try:
            if method == "POST":
                route = self._ROUTES.get(path)
                if route is not None:
                    self._admit(connection, route, body)
                    return
                response = self._json_response(
                    404, error_payload("not_found", f"no route {path!r}")
                )
            elif method == "GET":
                response = self._dispatch_get(path)
            else:
                response = self._json_response(
                    405, error_payload("error", f"method {method} not allowed")
                )
        except Exception as error:  # never leak a traceback to the socket
            response = self._internal_error(error)
        connection.answer(response)

    def _internal_error(self, error: Exception) -> Response:
        self.metrics.incr("serve.errors")
        return self._json_response(
            500, error_payload("error", f"{type(error).__name__}: {error}"),
        )

    @staticmethod
    def _json_response(
        status: int,
        payload: dict | bytes,
        extra: list[tuple[str, str]] | None = None,
    ) -> Response:
        # A payload arrives as bytes when it is a body already joined
        # (an explanation's, protocol.explanation_body / batch_body).
        if not isinstance(payload, bytes):
            payload = encode_body(payload)
        return status, payload, b"application/json", extra or []

    def _dispatch_get(self, path: str) -> Response:
        if path == "/healthz":
            return self._json_response(200, self.health_payload())
        if path == "/metrics":
            text = obs.render_prometheus(self.metrics)
            return 200, text.encode("utf-8"), b"text/plain; version=0.0.4", []
        if path == "/flight" or path == "/flight/":
            document = self.flight.document(
                meta={"app": self.application.name}
            )
            return self._json_response(200, document)
        if path.startswith("/flight/"):
            query_id = path[len("/flight/"):]
            record = self.flight.find(query_id)
            if record is None:
                return self._json_response(
                    404,
                    error_payload(
                        "not_found",
                        f"no flight record {query_id!r} retained",
                    ),
                )
            document = self.flight.document(
                meta={"app": self.application.name, "query_id": query_id}
            )
            document["records"] = [record.to_dict()]
            return self._json_response(200, document)
        return self._json_response(
            404, error_payload("not_found", f"no route {path!r}")
        )

    def health_payload(self) -> dict:
        """The ``/healthz`` body (also handy for tests and the CLI)."""
        breaker = self.breaker.snapshot()
        return {
            "format": SERVE_FORMAT,
            "status": "shedding" if breaker["state"] == OPEN else "ok",
            "app": self.application.name,
            "breaker_cooldown_remaining_s": breaker["cooldown_remaining_s"],
            "workers": len(self.pool) if self.pool is not None else 0,
            "warm_start": (
                self.pool.snapshot_stats() if self.pool is not None else None
            ),
            "admission": self.admission.snapshot(),
            "slo_healthy": bool(
                self.metrics.gauge_value("slo.healthy", 1.0)
            ),
        }

    # ------------------------------------------------------------------
    # POST serving
    # ------------------------------------------------------------------
    _ROUTES: dict[str, str] = {
        "/explain": "explain",
        "/explain/batch": "explain_batch",
        "/whynot": "whynot",
        "/update": "update",
    }

    #: Routes served beside the loop, not on it: a why-not search and an
    #: update's chase take as long as the instance makes them, with no
    #: deadline to bound how long they would hold it.
    _OFF_LOOP = frozenset({"whynot", "update"})

    def _admit(
        self, connection: "_Connection", route: str, body: bytes
    ) -> None:
        """Admit a routed request and schedule its serving, or shed it.

        Serving starts in a later loop callback, so every request framed
        in this loop iteration is admitted before any is served: the
        loop is the queue, and its wait counts against ``queue_limit``
        and in ``serve.request``, which times from admission.
        """
        self.metrics.incr("serve.requests")
        try:
            token = self.admission.admit()
        except ShedRequest as shed:
            retry_after = max(1, math.ceil(shed.retry_after_s))
            connection.answer(self._json_response(
                503,
                error_payload("shed", shed.reason),
                extra=[("Retry-After", str(retry_after))],
            ))
            return
        started = time.perf_counter()
        connection.busy = True
        # An off-loop request holds its connection: it reads nothing
        # more until it is answered.
        connection.held = route in self._OFF_LOOP
        assert self._loop is not None
        if connection.held:
            self._loop.create_task(
                self._serve_off_loop(connection, route, body, token, started)
            )
        else:
            self._loop.call_soon(
                self._serve, connection, route, body, token, started
            )

    def _serve(
        self, connection: "_Connection", route: str, body: bytes,
        token: _AdmissionToken, started: float,
    ) -> None:
        self._finish(
            connection, route, token, started, self._execute(route, body)
        )

    async def _serve_off_loop(
        self, connection: "_Connection", route: str, body: bytes,
        token: _AdmissionToken, started: float,
    ) -> None:
        served = await asyncio.to_thread(self._execute, route, body)
        self._finish(connection, route, token, started, served)

    def _finish(
        self, connection: "_Connection", route: str,
        token: _AdmissionToken, started: float, served: Served | Exception,
    ) -> None:
        """Release the admission slot, record the request and answer it;
        then go on with the connection's next request."""
        token.release()
        try:
            self._tick_slo()
            if isinstance(served, Exception):
                raise served
            status, payload, query_id = served
            elapsed = time.perf_counter() - started
            exemplar = query_id or None
            self.metrics.observe("serve.request", elapsed, exemplar=exemplar)
            self.metrics.observe(f"serve.{route}", elapsed, exemplar=exemplar)
            if status < 500:
                self.metrics.incr("serve.ok")
            # The flight id travels as a header, not in the body: response
            # bodies stay byte-identical to in-process serialization (the
            # parity gate), and the exemplar still resolves via /flight/<qid>.
            extra = [("X-Query-Id", query_id)] if query_id else []
            response = self._json_response(status, payload, extra=extra)
        except Exception as error:  # never leak a traceback to the socket
            response = self._internal_error(error)
        connection.answer(response)
        connection.frame()

    def _tick_slo(self) -> None:
        self._completed_since_slo += 1
        if self._completed_since_slo >= self.config.slo_interval_requests:
            self._completed_since_slo = 0
            self._check_health()

    # ------------------------------------------------------------------
    # Serving one routed request (on the loop, or beside it)
    # ------------------------------------------------------------------
    def _execute(self, route: str, body: bytes) -> Served | Exception:
        """Serve one routed request; returns (status, payload, qid), or
        the exception that escaped serving it (a 500, :meth:`_finish`).

        The one serving path, whichever thread :meth:`_admit` schedules
        it on: explains run here on the event-loop thread; why-nots and
        updates on a thread of :func:`asyncio.to_thread`.  The flight
        record opened here is the request's one record, the one
        ``X-Query-Id`` names: the session work joins it
        (:func:`repro.obs.flight_record`) instead of opening children, so
        its phase, fingerprint and cache counts land on it.  Parsing and
        route semantics live in :meth:`WorkerPool.serve`, which answers a
        caller's mistake itself.
        """
        assert self.pool is not None
        try:
            with self.flight.record(f"serve.{route}") as record:
                query_id = record.query_id or ""
                status, payload = self.pool.serve(route, body, record=record)
                record.set(http_status=status)
        except Exception as error:
            return error
        return status, payload, query_id


class _Connection(asyncio.Protocol):
    """One client connection, served in request order.

    Bytes append to the connection's :class:`_Framer`; :meth:`frame`
    takes whole requests off its front and hands each to the server,
    which answers it at once or admits it and serves it in a later loop
    callback.  While a request is admitted and unanswered (``busy``), or
    while the transport's write buffer is over its high-water mark,
    nothing more is framed, so responses leave in the order their
    requests came.  :meth:`_pace` decides whether the transport reads.
    """

    def __init__(self, server: ExplanationServer):
        self.server = server
        self.transport: asyncio.Transport  # set by connection_made
        self.framer = _Framer()
        self.keep_alive = True      # of the request being answered
        self.busy = False           # a request is admitted, not answered
        self.held = False           # ... and it runs off the loop
        self.write_paused = False
        self.reading = True         # the transport reads
        self.eof = False

    # asyncio.Protocol ----------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.framer.buffer += data
        self.frame()

    def eof_received(self) -> bool:
        # Stay open to answer what was framed; frame() closes once
        # nothing more can be.
        self.eof = True
        self.frame()
        return True

    def pause_writing(self) -> None:
        self.write_paused = True
        self._pace()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.frame()

    # Serving -------------------------------------------------------------
    def frame(self) -> None:
        """Route every whole request at the front of the buffer, until
        one is in flight or the buffer holds none; then pace reading.
        Every answer is followed by a call of this method."""
        transport = self.transport
        while not (self.busy or self.write_paused or transport.is_closing()):
            try:
                framed = self.framer.take()
            except ProtocolError as error:
                # The request never parsed far enough to route; answer
                # and drop the connection (framing is gone).
                self.server.metrics.incr("serve.bad_requests")
                self.keep_alive = False
                self.answer(self.server._json_response(*refusal(error)))
                return
            if framed is None:
                if self.eof:
                    transport.close()
                break
            method, target, headers, body = framed
            self.keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
            )
            self.server._route(self, method, target, body)
        self._pace()

    def _pace(self) -> None:
        """Read unless the request in flight runs off the loop, the
        answers back up, or more than :data:`_MAX_BUFFERED_BYTES` wait
        behind the request in flight.  An unframed request is never
        held back: the framer bounds it (a head line, the header count,
        the body) and reading on is how it completes."""
        reading = not (
            self.held or self.write_paused
            or (self.busy and len(self.framer.buffer) > _MAX_BUFFERED_BYTES)
        )
        if reading != self.reading:
            self.reading = reading
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()

    def answer(self, response: Response) -> None:
        """Write the answer to the request in flight, head and body in
        one write; a connection that closed meanwhile gets none."""
        transport = self.transport
        self.busy = self.held = False
        if transport.is_closing():
            return
        status, payload, content_type, extra = response
        head = (
            b"HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n"
            b"Connection: %s\r\n" % (
                status, _REASONS.get(status, b"Unknown"), content_type,
                len(payload), b"keep-alive" if self.keep_alive else b"close",
            )
        )
        for name, value in extra:
            head += f"{name}: {value}\r\n".encode("latin-1")
        transport.write(head + b"\r\n" + payload)
        if not self.keep_alive:
            transport.close()


class ServerHandle:
    """A running background server: address + clean stop."""

    def __init__(self, server: ExplanationServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout_s: float = 30.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout_s)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
