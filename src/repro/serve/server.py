"""The network front end: an asyncio HTTP server over one warm session.

A dependency-light HTTP/1.1 server built directly on stdlib
:func:`asyncio.start_server` streams — no web framework, no ASGI
dependency — exposing the explanation service to network clients:

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

Request lifecycle: the event loop parses the request and consults the
:class:`~repro.serve.admission.AdmissionController` (bounded queue +
health-driven circuit breaker — sheds answer ``503`` with
``Retry-After`` before any work is queued).  An admitted ``/explain``
or ``/explain/batch`` is served on the event-loop thread itself from
the :class:`~repro.serve.workers.WorkerPool`'s one warm session
(compiled program + provenance index, booted once from a
``repro-db/1`` snapshot): a memo hit is a lookup plus a substitution,
and a thread hop under one interpreter lock would only add hand-offs.
Before it runs, the request yields the loop once, so every request
that became ready in the same loop iteration is admitted first: what
waits for the loop is counted against the admission bound and timed in
``serve.request``, which the health check reads.  Work that can block
leaves the loop through :func:`asyncio.to_thread`: a ``/whynot``
searches and an ``/update`` chases on a background thread beside the
readers (the update then publishes its successor session).  Every
request carries a :class:`~repro.core.service.Deadline`; a spent
budget answers ``504`` with whatever partial results were computed
(the ``explain_batch`` contract, now over HTTP).  Each request leaves one
flight record, so ``GET /flight/<qid>`` resolves a slow exemplar to
its phase breakdown.

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
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on accepted request bodies (a batch of a few thousand
#: textual queries fits comfortably; anything larger is abuse).
MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_HEADERS = 64
#: Upper bound on one line of a request head (the request line or a
#: header); the stream reader holds no more than this for one line.
_MAX_LINE_BYTES = 64 * 1024


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of a request head."""
    try:
        return await reader.readline()
    except ValueError:
        # readline's form of LimitOverrunError: the line outgrew the
        # reader's limit, and the rest of the head is unframed.
        raise ProtocolError(
            f"request head line exceeds {_MAX_LINE_BYTES} bytes"
        )


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
        self._connections: set[asyncio.StreamWriter] = set()

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
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port, limit=_MAX_LINE_BYTES,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def _shutdown(self) -> None:
        if self._slo_task is not None:
            self._slo_task.cancel()
            self._slo_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge idle keep-alive connections: closing the transport makes
        # their pending readline() return EOF, so the handler tasks exit
        # normally instead of being cancelled at loop teardown (which
        # would spray CancelledError noise from the streams machinery).
        for writer in list(self._connections):
            writer.close()
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
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                keep_alive = False
                try:
                    parsed = await self._read_request(reader)
                except ProtocolError as error:
                    # The request never parsed far enough to route;
                    # answer and drop the connection (framing is gone).
                    self.metrics.incr("serve.bad_requests")
                    response = self._json_response(*refusal(error))
                else:
                    if parsed is None:
                        break
                    method, target, headers, body = parsed
                    response = await self._dispatch(method, target, body)
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower() != "close"
                    )
                status, payload, content_type, extra = response
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                )
                for name, value in extra:
                    head += f"{name}: {value}\r\n"
                head += "\r\n"
                writer.write(head.encode("latin-1") + payload)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Loop teardown raced the _shutdown() nudge; finish quietly
            # (re-raising would leave a cancelled task for the streams
            # machinery to complain about after the loop is gone).
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        request_line = await _read_line(reader)
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ProtocolError("malformed request line")
        headers: dict[str, str] = {}
        # Up to _MAX_HEADERS headers, then the blank line that ends them.
        for _ in range(_MAX_HEADERS + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError("too many headers", status=400)
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
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes, str, list[tuple[str, str]]]:
        path = target.split("?", 1)[0]
        try:
            if method == "GET":
                return self._dispatch_get(path)
            if method == "POST":
                return await self._dispatch_post(path, body)
            return self._json_response(
                405, error_payload("error", f"method {method} not allowed")
            )
        except Exception as error:  # never leak a traceback to the socket
            self.metrics.incr("serve.errors")
            return self._json_response(
                500,
                error_payload("error", f"{type(error).__name__}: {error}"),
            )

    @staticmethod
    def _json_response(
        status: int,
        payload: dict | bytes,
        extra: list[tuple[str, str]] | None = None,
    ) -> tuple[int, bytes, str, list[tuple[str, str]]]:
        # A payload arrives as bytes when it is a body already joined
        # (an explanation's, protocol.explanation_body / batch_body).
        if not isinstance(payload, bytes):
            payload = encode_body(payload)
        return status, payload, "application/json", extra or []

    def _dispatch_get(
        self, path: str
    ) -> tuple[int, bytes, str, list[tuple[str, str]]]:
        if path == "/healthz":
            return self._json_response(200, self.health_payload())
        if path == "/metrics":
            text = obs.render_prometheus(self.metrics)
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4", []
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

    async def _dispatch_post(
        self, path: str, body: bytes
    ) -> tuple[int, bytes, str, list[tuple[str, str]]]:
        route = self._ROUTES.get(path)
        if route is None:
            return self._json_response(
                404, error_payload("not_found", f"no route {path!r}")
            )
        self.metrics.incr("serve.requests")
        try:
            token = self.admission.admit()
        except ShedRequest as shed:
            retry_after = max(1, math.ceil(shed.retry_after_s))
            return self._json_response(
                503,
                error_payload("shed", shed.reason),
                extra=[("Retry-After", str(retry_after))],
            )
        started = time.perf_counter()
        try:
            if route in self._OFF_LOOP:
                status, payload, query_id = await asyncio.to_thread(
                    self._execute, route, body
                )
            else:
                # Yield once so every request ready in this loop
                # iteration is admitted before any is served: the loop
                # is the queue, and its wait must count against
                # queue_limit and in serve.request.
                await asyncio.sleep(0)
                status, payload, query_id = self._execute(route, body)
        finally:
            token.release()
            self._tick_slo()
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
        return self._json_response(status, payload, extra=extra)

    def _tick_slo(self) -> None:
        self._completed_since_slo += 1
        if self._completed_since_slo >= self.config.slo_interval_requests:
            self._completed_since_slo = 0
            self._check_health()

    # ------------------------------------------------------------------
    # Serving one routed request (on the loop, or beside it)
    # ------------------------------------------------------------------
    def _execute(
        self, route: str, body: bytes
    ) -> tuple[int, dict | bytes, str]:
        """Serve one routed request; returns (status, payload, qid).

        The one serving path, whichever thread :meth:`_dispatch_post`
        runs it on: explains run here on the event-loop thread; why-nots
        and updates on a thread of :func:`asyncio.to_thread`.  The flight
        record opened here is the request's one record, the one
        ``X-Query-Id`` names: the session work joins it
        (:func:`repro.obs.flight_record`) instead of opening children, so
        its phase, fingerprint and cache counts land on it.  Parsing and
        route semantics live in :meth:`WorkerPool.serve`, which answers a
        caller's mistake itself; an exception escaping it is
        ``_dispatch``'s 500.
        """
        assert self.pool is not None
        with self.flight.record(f"serve.{route}") as record:
            query_id = record.query_id or ""
            status, payload = self.pool.serve(route, body, record=record)
            record.set(http_status=status)
        return status, payload, query_id


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
