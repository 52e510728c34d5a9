"""One warm reasoning state per pool, read by every request.

The pool boots exactly one :class:`~repro.core.service.ExplanationSession`
— a compiled program bound to a materialized instance with its
:class:`~repro.engine.provenance_index.ProvenanceIndex` already built —
and keeps it **warm**, so requests pay only the memoized serving path:

* the session is rehydrated from one ``repro-db/1`` snapshot string
  (:func:`repro.io.loads_database`), chased once and indexed once, and
  the index is materialized during boot, not on the first unlucky
  request;
* every read is served from that one session: explains on the
  server's event-loop thread, why-nots on a thread beside it.  Between
  updates its chase result and index are read-only apart from memo
  inserts, which are thread-safe, so a chase step one request rendered
  is a memo hit for every other;
* ``/update`` runs on a background thread beside the readers, serialised
  only against other updates: it applies the delta to a shallow copy of
  the session (a chase result maintained over the delta's forward
  closure, an index copy rebound over that closure, a fresh explainer —
  nothing a reader holds is mutated) and publishes the copy with one
  reference assignment.  A request in flight finishes on the session it
  started with; later requests see the new one.  A delta the program
  rejects publishes nothing and answers 400.

Boot seconds land in ``serve.worker_warm_start`` — the number the
restart story is judged by.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Callable, Iterable, TypeVar

from ..apps.base import KGApplication
from ..core.service import ExplanationService, ExplanationSession
from ..datalog.atoms import Fact
from ..datalog.errors import UserError
from ..engine.database import Database
from ..engine.incremental import UpdateOutcome
from ..io import dumps_database, loads_database
from ..obs.metrics import MetricsRegistry
from .protocol import UpdateRequest, refusal, update_payload
from .routes import PARSERS, serve_session_request

T = TypeVar("T")


class WorkerPool:
    """One warm session, shared by every request the server serves."""

    def __init__(
        self,
        application: KGApplication,
        snapshot: str,
        llm: object | None = None,
        metrics: MetricsRegistry | None = None,
        default_deadline_s: float = 10.0,
    ):
        self.application = application
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.service = ExplanationService(llm=llm, metrics=self.metrics)
        self._update_lock = threading.Lock()
        started = time.perf_counter()
        database = loads_database(snapshot)
        loaded = time.perf_counter()
        self.session = self.service.session(application, database)
        self.session.result.index  # materialize before taking traffic
        done = time.perf_counter()
        # Two phases behind the warm-start total: rehydrating the
        # repro-db/1 snapshot, then building the session (compile, chase,
        # provenance index).
        snapshot_load_s = loaded - started
        boot_s = done - loaded
        elapsed = done - started
        self.warm_start_s = [elapsed]
        self.boot_rows = [{
            "worker": 0,
            "snapshot_load_s": round(snapshot_load_s, 6),
            "boot_s": round(boot_s, 6),
            "total_s": round(elapsed, 6),
        }]
        self.metrics.observe("serve.worker_snapshot_load", snapshot_load_s)
        self.metrics.observe("serve.worker_boot", boot_s)
        self.metrics.observe("serve.worker_warm_start", elapsed)

    @classmethod
    def from_database(
        cls,
        application: KGApplication,
        database: Database,
        **kwargs: object,
    ) -> "WorkerPool":
        """Snapshot ``database`` and boot the pool from it — the normal
        construction path (the CLI and tests hold a live database, not a
        snapshot file)."""
        return cls(application, dumps_database(database), **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, task: Callable[[ExplanationSession], T]) -> T:
        """Run ``task`` against the current session.

        The reference is read once, so the task sees one consistent
        state even if an update publishes the next one meanwhile.
        """
        return task(self.session)

    def serve(
        self, route: str, body: bytes, record=None
    ) -> tuple[int, dict | bytes]:
        """Parse ``body`` for ``route`` and serve it: (status, payload),
        where a payload already encoded arrives as bytes.

        The entry point the HTTP server calls, and the one place where a
        request's :class:`~repro.datalog.errors.UserError` becomes its
        4xx answer (in ``serve.bad_requests``, never ``serve.errors``).
        """
        try:
            request = PARSERS[route](body)
            if not isinstance(request, UpdateRequest):
                return self.run(lambda session: serve_session_request(
                    session, request,
                    default_deadline_s=self.default_deadline_s,
                    metrics=self.metrics,
                ))
            if record is not None:
                record.set(
                    adds=len(request.adds), retracts=len(request.retracts)
                )
            outcome = self.update(request.adds, request.retracts)
        except UserError as error:
            self.metrics.incr("serve.bad_requests")
            return refusal(error)
        if record is not None:
            record.set(mode=outcome.mode)
        return 200, update_payload(outcome)

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def update(
        self, adds: Iterable[Fact] = (), retracts: Iterable[Fact] = ()
    ) -> UpdateOutcome:
        """Apply one extensional delta and publish the post-update session.

        Readers are never waited for: the delta is applied to a shallow
        copy of the current session, and the copy replaces it in one
        assignment.  A rejected delta (retracting a derived fact, a
        wrong arity, a value an aggregate cannot combine) raises a
        :class:`~repro.datalog.errors.UserError` before anything is
        published.
        """
        with self._update_lock:
            successor = copy.copy(self.session)
            outcome = successor.update(adds=adds, retracts=retracts)
            self.session = successor
        self.metrics.incr("serve.updates")
        return outcome

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return 1

    def snapshot_stats(self) -> dict:
        return {
            "workers": 1,
            "warm_start_s": [round(s, 6) for s in self.warm_start_s],
            "warm_start_max_s": round(max(self.warm_start_s), 6),
            "boot_rows": [dict(row) for row in self.boot_rows],
            "fingerprint": self.session.compiled.fingerprint,
        }

    def shutdown(self) -> None:
        self.service.shutdown()
