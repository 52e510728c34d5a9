"""Warm explanation workers: snapshot-based spin-up, checkout execution.

The serving story the last PRs built toward: a worker is one
:class:`~repro.core.service.ExplanationSession` — a compiled program
bound to a materialized instance with its
:class:`~repro.engine.provenance_index.ProvenanceIndex` already built —
kept **warm** so requests pay only the memoized serving path.

Spin-up is cheap by construction:

* all workers share one :class:`~repro.core.service.ExplanationService`,
  so the program/glossary compile runs once (workers 2..N hit the
  compile cache) and every session shares the bounded explanation LRU;
* each worker rehydrates its database from one ``repro-db/1`` snapshot
  string (:func:`repro.io.loads_database`) — the snapshot preserves the
  interned symbol ids and insertion sequences, so every worker holds a
  byte-identical columnar instance and serves byte-identical
  explanations;
* the provenance index is materialized eagerly during spin-up, not on
  the first unlucky request.

Execution uses a checkout queue: a request borrows a worker for its
lifetime and returns it, so one session never serves two requests'
recursions at once (its caches are thread-safe, but checkout keeps
per-worker telemetry and the pool's capacity story simple).  Per-worker
spin-up seconds land in ``serve.worker_warm_start`` — the number the
restart story is judged by.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Iterable, TypeVar

from ..apps.base import KGApplication
from ..core.service import ExplanationService, ExplanationSession
from ..datalog.atoms import Fact
from ..engine.database import Database
from ..engine.incremental import (
    UpdateOutcome,
    extensional_facts,
    resolve_delta,
)
from ..io import dumps_database, loads_database
from ..obs.metrics import ServiceMetrics
from .. import obs
from .protocol import UpdateRequest, error_payload, update_payload
from .routes import PARSERS, serve_session_request

T = TypeVar("T")


class WorkerPool:
    """A fixed set of warm sessions behind a checkout queue."""

    def __init__(
        self,
        application: KGApplication,
        snapshot: str,
        workers: int = 2,
        llm: object | None = None,
        metrics: ServiceMetrics | None = None,
        default_deadline_s: float = 10.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.application = application
        self.snapshot = snapshot
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.service = ExplanationService(llm=llm, metrics=self.metrics)
        self.warm_start_s: list[float] = []
        self.boot_rows: list[dict] = []
        self._workers: list[ExplanationSession] = []
        self._available: "queue.SimpleQueue[ExplanationSession]" = (
            queue.SimpleQueue()
        )
        self._update_lock = threading.Lock()
        for _ in range(workers):
            self._spin_up_one()

    @classmethod
    def from_database(
        cls,
        application: KGApplication,
        database: Database,
        **kwargs: object,
    ) -> "WorkerPool":
        """Snapshot ``database`` once and spin the pool up from it —
        the normal construction path (the CLI and tests hold a live
        database, not a snapshot file)."""
        return cls(application, dumps_database(database), **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Spin-up
    # ------------------------------------------------------------------
    def _spin_up_one(self) -> None:
        index = len(self._workers)
        started = time.perf_counter()
        database = loads_database(self.snapshot)
        loaded = time.perf_counter()
        session = self.service.session(self.application, database)
        session.result.index  # materialize before taking traffic
        done = time.perf_counter()
        # Two phases behind the historical warm-start total: rehydrating
        # the repro-db/1 snapshot, then building the session (compile
        # cache hit or miss, chase, provenance index).
        snapshot_load_s = loaded - started
        boot_s = done - loaded
        elapsed = done - started
        self.warm_start_s.append(elapsed)
        self.boot_rows.append({
            "worker": index,
            "snapshot_load_s": round(snapshot_load_s, 6),
            "boot_s": round(boot_s, 6),
            "total_s": round(elapsed, 6),
        })
        self.metrics.observe("serve.worker_snapshot_load", snapshot_load_s)
        self.metrics.observe("serve.worker_boot", boot_s)
        self.metrics.observe("serve.worker_warm_start", elapsed)
        obs.get_profiler().record(
            f"serve.worker_boot[{index}]", wall_s=elapsed
        )
        self._workers.append(session)
        self._available.put(session)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, task: Callable[[ExplanationSession], T], timeout_s: float = 30.0
    ) -> T:
        """Check a worker out, run ``task`` against its session, return it.

        ``timeout_s`` bounds the checkout wait — the executor is sized to
        the pool, so a wait only happens when a caller bypasses the
        executor; it must not hang forever if it does.
        """
        try:
            worker = self._available.get(timeout=timeout_s)
        except queue.Empty:
            raise RuntimeError(
                f"no worker became available within {timeout_s:.1f}s "
                f"(pool size {len(self._workers)})"
            )
        try:
            return task(worker)
        finally:
            self._available.put(worker)

    def serve(
        self,
        route: str,
        body: bytes,
        record=None,
        timeout_s: float = 30.0,
    ) -> tuple[int, dict]:
        """Parse ``body`` for ``route`` and serve it: (status, payload).

        The backend-agnostic entry point the HTTP server calls — the
        process-backed pool overrides it to ship the same work over a
        pipe.  A :class:`~repro.serve.protocol.ProtocolError` from the
        parser propagates (the server answers 400); ``update`` targets
        the whole pool, every other route borrows one worker.
        """
        request = PARSERS[route](body)
        if isinstance(request, UpdateRequest):
            if record is not None:
                record.set(
                    adds=len(request.adds), retracts=len(request.retracts)
                )
            try:
                outcome = self.update(
                    request.adds, request.retracts, timeout_s=timeout_s
                )
            except ValueError as error:
                # A semantically invalid delta (e.g. retracting a
                # derived fact) is the client's mistake, not server
                # unhealth.
                self.metrics.incr("serve.bad_requests")
                return 400, error_payload("bad_request", str(error))
            if record is not None:
                record.set(mode=outcome.mode)
            return 200, update_payload(outcome)

        def task(session: ExplanationSession) -> tuple[int, dict]:
            return serve_session_request(
                session, request,
                default_deadline_s=self.default_deadline_s,
                metrics=self.metrics,
            )

        return self.run(task, timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def update(
        self,
        adds: Iterable[Fact] = (),
        retracts: Iterable[Fact] = (),
        timeout_s: float = 30.0,
    ) -> UpdateOutcome:
        """Apply one extensional delta to every warm worker.

        All workers are checked out first — an update never races a
        request against a half-updated pool, and in-flight requests
        finish against the pre-update instance before the delta lands.
        The update lock serializes concurrent updates (two updates each
        holding part of the pool would deadlock on the rest).  Every
        session applies the same delta incrementally, so the pool stays
        byte-identical across workers; the stored snapshot is refreshed
        to the post-update EDB for any future spin-up.
        """
        adds = tuple(adds)
        retracts = tuple(retracts)
        with self._update_lock:
            checked_out: list[ExplanationSession] = []
            try:
                for _ in range(len(self._workers)):
                    try:
                        checked_out.append(
                            self._available.get(timeout=timeout_s)
                        )
                    except queue.Empty:
                        raise RuntimeError(
                            f"could not drain the pool within "
                            f"{timeout_s:.1f}s for an update "
                            f"({len(checked_out)}/{len(self._workers)} "
                            "workers held)"
                        )
                # Validate once before touching any worker: a rejected
                # delta (e.g. retracting a derived fact) must leave the
                # pool untouched, not half-updated.
                resolve_delta(
                    checked_out[0].result.chase_result, adds, retracts
                )
                outcome: UpdateOutcome | None = None
                for session in checked_out:
                    outcome = session.update(adds=adds, retracts=retracts)
                assert outcome is not None  # pool is never empty
                self.snapshot = dumps_database(
                    Database(
                        extensional_facts(checked_out[0].result.chase_result)
                    )
                )
                self.metrics.incr("serve.updates")
                return outcome
            finally:
                for session in checked_out:
                    self._available.put(session)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._workers)

    def snapshot_stats(self) -> dict:
        return {
            "workers": len(self._workers),
            "warm_start_s": [round(s, 6) for s in self.warm_start_s],
            "warm_start_max_s": round(max(self.warm_start_s), 6),
            "boot_rows": [dict(row) for row in self.boot_rows],
            "fingerprint": (
                self._workers[0].compiled.fingerprint
                if self._workers else None
            ),
        }

    def shutdown(self) -> None:
        self.service.shutdown()
