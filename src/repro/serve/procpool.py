"""Process-backed serving workers: N processes, one warm session each.

The thread-backed :class:`~repro.serve.workers.WorkerPool` keeps its one
session on the server's interpreter, so explanation work serializes
behind the GIL.  This module scales the
same serving contract across cores: each worker is a **separate
process** booted from the shared ``repro-db/1`` snapshot, answering the
same routes through the same :mod:`repro.serve.routes` functions — so
HTTP responses are byte-identical to the thread backend by construction
(there is exactly one serializer, imported on both sides of the pipe).

Design rules, in the order they bit:

* **spawn-safe, no pickled sessions** — the child receives only the
  application, the snapshot string and scalar config over the spawn
  boundary, then builds its own session exactly like a thread worker
  (``loads_database`` → compile → chase → provenance index).  Sessions,
  caches and indexes never cross a process boundary;
* **one pipe per worker, checkout dispatch** — a request borrows a
  worker handle (pipe + process) from a checkout queue, writes one
  ``("serve", route, body)`` message, and reads one response.  Pipes
  are not thread-safe; checkout is the mutual exclusion;
* **telemetry ships with every response** — the child runs a private
  delta-enabled :class:`~repro.obs.metrics.MetricsRegistry` and a private
  :class:`~repro.obs.flight.FlightRecorder` (query ids prefixed
  ``w<i>-`` so they stay globally unique); each response carries the
  metrics recorded since the last drain plus the closed flight records,
  and the parent folds them into the server's registry/ring — `GET
  /metrics` and `GET /flight` aggregate the whole pool exactly as they
  do in-process;
* **updates broadcast under the drain lock** — ``POST /update`` drains
  every handle (no request can race a half-updated pool), sends the
  same delta to all children, and requires their answers to agree.
  Children validate against identical state, so a rejected delta
  rejects identically everywhere and no child applies anything.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import threading
import time
from typing import Iterable

from ..apps.base import KGApplication
from ..datalog.atoms import Fact
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from .protocol import ProtocolError, parse_update_request
from .workers import WorkerPool

#: Worker-side flight ring: small, because records ship to the parent
#: after every response and the ring only buffers between drains.
_CHILD_FLIGHT_CAPACITY = 64


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------

def _worker_main(conn, spec: tuple) -> None:
    """The worker process body: boot one warm session, answer the pipe.

    ``spec`` is the picklable boot tuple shipped through the spawn
    boundary: (application, snapshot, worker index, default deadline,
    llm).  The child reuses :class:`WorkerPool`, which buys boot timing,
    route serving and incremental updates without a second
    implementation.
    """
    from .. import obs  # local import keeps the spawn preamble minimal

    application, snapshot, index, default_deadline_s, llm = spec
    metrics = MetricsRegistry()
    metrics.enable_delta()
    flight = FlightRecorder(
        capacity=_CHILD_FLIGHT_CAPACITY, enabled=True,
        id_prefix=f"w{index}-",
    )
    try:
        with obs.observed(metrics=metrics, flight=flight):
            pool = WorkerPool(
                application, snapshot, llm=llm, metrics=metrics,
                default_deadline_s=default_deadline_s,
            )
            conn.send((
                "ready",
                {
                    "warm_start_s": list(pool.warm_start_s),
                    "boot_rows": [dict(row) for row in pool.boot_rows],
                    "fingerprint": pool.snapshot_stats()["fingerprint"],
                    "metrics": metrics.drain_delta(),
                    "flights": flight.drain(),
                },
            ))
            _serve_loop(conn, pool, metrics, flight)
    except EOFError:
        pass  # parent went away; exit quietly
    except Exception as error:  # boot failed: tell the parent why
        try:
            conn.send(("boot_error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _serve_loop(conn, pool: WorkerPool, metrics, flight) -> None:
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "stop":
            return
        assert message[0] == "serve", message
        _route, route, body = message
        meta: dict = {}
        try:
            with flight.record(f"serve.{route}") as record:
                meta["query_id"] = record.query_id
                status, payload = pool.serve(route, body, record=record)
                record.set(http_status=status)
            kind = "ok"
        except ProtocolError as error:
            kind, status, payload = "protocol_error", error.status, str(error)
        except Exception as error:
            kind, status, payload = (
                "error", 500, f"{type(error).__name__}: {error}"
            )
        meta["metrics"] = metrics.drain_delta()
        meta["flights"] = flight.drain()
        conn.send((kind, status, payload, meta))


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

class _WorkerHandle:
    """One worker process plus its parent-side pipe end."""

    __slots__ = ("index", "process", "conn")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn

    def request(self, message: tuple, timeout_s: float) -> tuple:
        self.conn.send(message)
        if not self.conn.poll(timeout_s):
            raise RuntimeError(
                f"worker process {self.index} did not answer within "
                f"{timeout_s:.1f}s"
            )
        return self.conn.recv()


class ProcessWorkerPool:
    """N worker processes behind a checkout queue (the ``process``
    backend of ``repro-explain serve``).

    Drop-in for :class:`WorkerPool` where the server touches it:
    ``serve``, ``update``, ``snapshot_stats``, ``warm_start_s``,
    ``__len__``, ``shutdown``.  ``llm`` must be picklable (the bundled
    template/stub clients are); live network clients should stay on the
    thread backend or be reconstructed per process by a picklable
    factory object.
    """

    backend = "process"

    def __init__(
        self,
        application: KGApplication,
        snapshot: str,
        workers: int = 2,
        llm: object | None = None,
        metrics: MetricsRegistry | None = None,
        default_deadline_s: float = 10.0,
        flight: FlightRecorder | None = None,
        boot_timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.application = application
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.flight = flight
        self.warm_start_s: list[float] = []
        self.boot_rows: list[dict] = []
        self._fingerprint: str | None = None
        self._handles: list[_WorkerHandle] = []
        self._available: "queue.SimpleQueue[_WorkerHandle]" = (
            queue.SimpleQueue()
        )
        self._update_lock = threading.Lock()
        context = multiprocessing.get_context("spawn")
        try:
            for index in range(workers):
                parent_conn, child_conn = context.Pipe()
                spec = (
                    application, snapshot, index, default_deadline_s, llm,
                )
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, spec),
                    name=f"repro-serve-w{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()  # the child holds its own copy
                self._handles.append(
                    _WorkerHandle(index, process, parent_conn)
                )
            for handle in self._handles:
                self._await_ready(handle, boot_timeout_s)
                self._available.put(handle)
        except BaseException:
            self.shutdown()
            raise

    @classmethod
    def from_database(cls, application, database, **kwargs):
        from ..io import dumps_database

        return cls(application, dumps_database(database), **kwargs)

    def _await_ready(self, handle: _WorkerHandle, timeout_s: float) -> None:
        if not handle.conn.poll(timeout_s):
            raise RuntimeError(
                f"worker process {handle.index} did not become ready "
                f"within {timeout_s:.1f}s"
            )
        message = handle.conn.recv()
        if message[0] != "ready":
            raise RuntimeError(
                f"worker process {handle.index} failed to boot: "
                f"{message[1]}"
            )
        meta = message[1]
        self.warm_start_s.extend(meta["warm_start_s"])
        for row in meta["boot_rows"]:
            row = dict(row)
            row["worker"] = handle.index
            self.boot_rows.append(row)
        self._fingerprint = meta["fingerprint"]
        self._merge_meta(meta)

    # ------------------------------------------------------------------
    # Telemetry merge
    # ------------------------------------------------------------------
    def _merge_meta(self, meta: dict) -> None:
        payload = meta.get("metrics")
        if payload:
            self.metrics.merge_delta(payload)
        flights = meta.get("flights")
        if flights and self.flight is not None:
            self.flight.ingest(flights)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        route: str,
        body: bytes,
        record=None,
        timeout_s: float = 30.0,
    ) -> tuple[int, dict]:
        """Dispatch one request to a worker process: (status, payload).

        Mirrors :meth:`WorkerPool.serve` exactly — including raising
        :class:`ProtocolError` for malformed bodies — so the HTTP server
        is backend-blind.  ``timeout_s`` bounds the worker's answer; the
        wait for a free worker is unbounded (the server's admission
        bounds how many requests wait).
        """
        if route == "update":
            parse_update_request(body)  # ProtocolError propagates
            return self._broadcast_update(body, record, timeout_s)
        handle = self._available.get()
        try:
            kind, status, payload, meta = handle.request(
                ("serve", route, body), timeout_s
            )
        finally:
            self._available.put(handle)
        self._merge_meta(meta)
        if record is not None:
            record.set(worker=handle.index)
            worker_qid = meta.get("query_id")
            if worker_qid:
                record.set(worker_query_id=worker_qid)
        if kind == "protocol_error":
            raise ProtocolError(payload, status=status)
        if kind == "error":
            raise RuntimeError(payload)
        return status, payload

    def _broadcast_update(
        self, body: bytes, record, timeout_s: float
    ) -> tuple[int, dict]:
        """Send one update body to every worker under the drain lock."""
        with self._update_lock:
            held: list[_WorkerHandle] = []
            try:
                for _ in range(len(self._handles)):
                    try:
                        held.append(self._available.get(timeout=timeout_s))
                    except queue.Empty:
                        raise RuntimeError(
                            f"could not drain the process pool within "
                            f"{timeout_s:.1f}s for an update "
                            f"({len(held)}/{len(self._handles)} workers held)"
                        )
                held.sort(key=lambda handle: handle.index)
                responses = []
                for handle in held:
                    kind, status, payload, meta = handle.request(
                        ("serve", "update", body), timeout_s
                    )
                    self._merge_meta(meta)
                    if kind == "error":
                        raise RuntimeError(
                            f"worker {handle.index} failed mid-update: "
                            f"{payload}"
                        )
                    responses.append((status, payload, meta))
                statuses = {status for status, _payload, _meta in responses}
                if len(statuses) != 1:
                    raise RuntimeError(
                        f"update diverged across workers "
                        f"(statuses {sorted(statuses)})"
                    )
                status, payload, _meta = responses[0]
                if status == 200 and record is not None:
                    record.set(mode=payload.get("mode"))
                return status, payload
            finally:
                for handle in held:
                    self._available.put(handle)

    def update(
        self,
        adds: Iterable[Fact] = (),
        retracts: Iterable[Fact] = (),
        timeout_s: float = 30.0,
    ) -> dict:
        """Programmatic update: broadcast the delta, return the payload.

        Unlike the thread pool this returns the serialized
        ``update_payload`` dict (the child's :class:`UpdateOutcome`
        holds a full chase result and never crosses the pipe).  A
        rejected delta raises :class:`ValueError` like the thread pool.
        """
        body = json.dumps({
            "adds": [str(fact) for fact in adds],
            "retracts": [str(fact) for fact in retracts],
        }).encode("utf-8")
        status, payload = self.serve("update", body, timeout_s=timeout_s)
        if status != 200:
            raise ValueError(payload.get("message", "update rejected"))
        return payload

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._handles)

    def snapshot_stats(self) -> dict:
        return {
            "workers": len(self._handles),
            "backend": self.backend,
            "warm_start_s": [round(s, 6) for s in self.warm_start_s],
            "warm_start_max_s": (
                round(max(self.warm_start_s), 6) if self.warm_start_s else 0.0
            ),
            "boot_rows": [dict(row) for row in self.boot_rows],
            "fingerprint": self._fingerprint,
        }

    def shutdown(self, timeout_s: float = 10.0) -> None:
        for handle in self._handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout_s
        for handle in self._handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            handle.conn.close()
        self._handles = []
