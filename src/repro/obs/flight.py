"""The query flight recorder: request-scoped trace context + ring buffer.

Histograms say *where time goes in aggregate*; they cannot say which
query caused a slow p99 bucket.  A :class:`FlightRecorder` closes that
gap with per-request **flight records**: every service request (session
build, single explain, batch, why-not, update) opens a record carrying
a query id and the compile fingerprint, accumulates phase timings
(every timed region of the program, :func:`repro.obs.phase`),
kernel/cache counters and degradation events while the request runs,
and lands in a bounded ring buffer of recent flights on close.  The
buffer is dumpable as a ``repro-flight/1`` JSON document, and histogram
exemplars (see :meth:`~repro.obs.metrics.Histogram.observe`) carry the
query id, so a p99 outlier resolves to a replayable flight record.

Design constraints:

* **near-zero overhead when disabled** — a disabled recorder hands out
  one shared no-op record from every :meth:`FlightRecorder.record` call
  and :meth:`FlightRecorder.current` returns ``None`` after a single
  attribute check, so instrumentation stays in hot paths
  unconditionally;
* **context-local current record** — the current record is tracked
  per execution context (a :class:`contextvars.ContextVar`, so plain
  threads see a per-thread stack and interleaved asyncio tasks on one
  loop thread each see their own — concurrent coroutines cannot corrupt
  each other's current record or mis-parent children);
* **bounded everything** — the ring buffer holds the most recent
  ``capacity`` records and each record keeps at most ``max_events``
  events (drops are counted, never silent).
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from typing import Any, Iterator

#: Version tag of the serialized flight-record layout.
FLIGHT_FORMAT = "repro-flight/1"


class _PhaseTimer:
    """Context manager accumulating one named phase on a record."""

    __slots__ = ("_record", "_name", "_started")

    def __init__(self, record: "FlightRecord", name: str):
        self._record = record
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._record.add_phase(
            self._name, time.perf_counter() - self._started
        )


class FlightRecord:
    """One request's flight: identity, phases, counters, events.

    Usable as a context manager (entering installs it as the thread's
    current record, exiting closes it into the recorder's ring buffer).
    Mutation is lock-protected — a batch record is updated concurrently
    by its worker tasks.
    """

    __slots__ = (
        "query_id", "kind", "query", "fingerprint", "parent_id",
        "start_s", "end_s", "status", "phases", "counts", "events",
        "events_dropped", "attrs", "_recorder", "_lock",
    )

    def __init__(
        self,
        recorder: "FlightRecorder",
        query_id: str,
        kind: str,
        query: object | None = None,
        fingerprint: str | None = None,
        parent_id: str | None = None,
        **attrs: Any,
    ):
        self._recorder = recorder
        self._lock = threading.Lock()
        self.query_id = query_id
        self.kind = kind
        self.query = query
        self.fingerprint = fingerprint
        self.parent_id = parent_id
        self.start_s = 0.0
        self.end_s: float | None = None
        self.status = "ok"
        self.phases: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.events: list[dict] = []
        self.events_dropped = 0
        self.attrs = dict(attrs)

    # ------------------------------------------------------------------
    # Telemetry intake
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _PhaseTimer:
        """Time one named phase of this flight (re-entry accumulates)."""
        return _PhaseTimer(self, name)

    def add_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a cheap per-flight counter (kernel firings, cache hits)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def event(self, kind: str, **data: Any) -> None:
        """Append a bounded event (fallbacks, breaker trips, deadlines)."""
        with self._lock:
            if len(self.events) >= self._recorder.max_events:
                self.events_dropped += 1
                return
            entry = {"kind": kind}
            entry.update(data)
            self.events.append(entry)

    def set(self, **attrs: Any) -> "FlightRecord":
        """Attach (or overwrite) identity attributes on an open record.

        ``query`` and ``fingerprint`` are special-cased (and ignored when
        ``None``) so identity can be filled in once the work resolves it:
        the compile fingerprint after compilation, the query when session
        work joins a served request's record.  ``query`` may be any
        object, the fact itself included: :meth:`to_dict` renders it
        with ``str``, so a record nobody reads renders nothing.
        """
        with self._lock:
            query = attrs.pop("query", None)
            if query is not None:
                self.query = query
            fingerprint = attrs.pop("fingerprint", None)
            if fingerprint is not None:
                self.fingerprint = fingerprint
            self.attrs.update(attrs)
        return self

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "query_id": self.query_id,
                "kind": self.kind,
                "query": None if self.query is None else str(self.query),
                "fingerprint": self.fingerprint,
                "parent": self.parent_id,
                "start_s": round(self.start_s, 9),
                "duration_s": round(self.duration_s, 9),
                "status": self.status,
                "phases": {
                    name: round(seconds, 9)
                    for name, seconds in sorted(self.phases.items())
                },
                "counts": dict(sorted(self.counts.items())),
                "events": [dict(event) for event in self.events],
                "events_dropped": self.events_dropped,
                "attrs": dict(self.attrs),
            }

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "FlightRecord":
        self.start_s = time.perf_counter() - self._recorder.epoch
        self._recorder._push(self)
        return self

    def __exit__(self, exc_type: type | None, exc: object, tb: object) -> None:
        # Mutations under the lock: a batch record's worker tasks may
        # still be appending events/attrs while the batch thread closes.
        with self._lock:
            self.end_s = time.perf_counter() - self._recorder.epoch
            if exc_type is not None:
                self.status = "error"
                self.attrs.setdefault("error", exc_type.__name__)
        self._recorder._pop(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightRecord({self.kind!r}, id={self.query_id!r})"


class _NullFlightRecord:
    """The shared do-nothing record a disabled recorder hands out.

    Every method no-ops; ``phase()`` returns the singleton itself so it
    can serve as its own context manager.  ``query_id`` is ``None``,
    which downstream exemplar plumbing treats as "no exemplar".
    """

    __slots__ = ()

    query_id = None
    kind = None
    query = None
    fingerprint = None
    parent_id = None

    def __enter__(self) -> "_NullFlightRecord":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def phase(self, name: str) -> "_NullFlightRecord":
        return self

    def add_phase(self, name: str, seconds: float) -> None:
        return None

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def event(self, kind: str, **data: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullFlightRecord":
        return self


#: The singleton no-op flight record (one per process).
NULL_FLIGHT_RECORD = _NullFlightRecord()


class FlightRecorder:
    """A bounded ring buffer of per-request flight records.

    Parameters
    ----------
    capacity:
        Number of most recent closed records retained.
    max_events:
        Per-record event bound (drops beyond it are counted).
    enabled:
        When ``False``, :meth:`record` returns the shared no-op record
        and :meth:`current` returns ``None`` — the documented
        near-zero-overhead mode for production hot paths.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_events: int = 64,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.capacity = capacity
        self.max_events = max_events
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._ring: deque[FlightRecord] = deque(maxlen=capacity)
        # The current-record stack is context-local, not thread-local:
        # under asyncio many tasks interleave on one loop thread, and a
        # thread-local stack lets task B pop task A's record (or parent
        # its own under A's).  A ContextVar holding an immutable tuple
        # gives each task — and each plain thread — an isolated stack.
        self._stack: contextvars.ContextVar[tuple[FlightRecord, ...]] = (
            contextvars.ContextVar(f"flight_stack_{id(self)}", default=())
        )

    # ------------------------------------------------------------------
    # Record creation and the per-thread current record
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        query: object | None = None,
        query_id: str | None = None,
        fingerprint: str | None = None,
        **attrs: Any,
    ):
        """Open a flight record (a context manager).

        The record becomes the calling thread's *current* flight while
        open; a record opened under another becomes its child
        (``parent`` carries the enclosing record's query id).  Disabled
        recorders return the shared no-op record.
        """
        if not self.enabled:
            return NULL_FLIGHT_RECORD
        if query_id is None:
            with self._lock:
                query_id = f"q-{self._next_id}"
                self._next_id += 1
        parent = self.current()
        return FlightRecord(
            self, query_id, kind, query=query, fingerprint=fingerprint,
            parent_id=parent.query_id if parent is not None else None,
            **attrs,
        )

    def current(self) -> FlightRecord | None:
        """The calling context's innermost open flight record, if any."""
        if not self.enabled:
            return None
        stack = self._stack.get()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def records(self) -> tuple[FlightRecord, ...]:
        """Closed records, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return tuple(self._ring)

    def find(self, query_id: str) -> FlightRecord | None:
        """The most recent closed record with ``query_id``, if retained."""
        with self._lock:
            for record in reversed(self._ring):
                if record.query_id == query_id:
                    return record
        return None

    def document(self, meta: dict | None = None) -> dict:
        """The ring buffer as a ``repro-flight/1`` JSON document."""
        records = self.records()
        return {
            "format": FLIGHT_FORMAT,
            "meta": dict(meta or {}),
            "capacity": self.capacity,
            "records": [record.to_dict() for record in records],
        }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __iter__(self) -> Iterator[FlightRecord]:
        return iter(self.records())

    # ------------------------------------------------------------------
    # Internal bookkeeping (called by FlightRecord)
    # ------------------------------------------------------------------
    def _push(self, record: FlightRecord) -> None:
        self._stack.set(self._stack.get() + (record,))

    def _pop(self, record: FlightRecord) -> None:
        stack = self._stack.get()
        if stack and stack[-1] is record:
            self._stack.set(stack[:-1])
        elif record in stack:  # out-of-order close: be forgiving
            self._stack.set(
                tuple(entry for entry in stack if entry is not record)
            )
        with self._lock:
            self._ring.append(record)


def write_flight(recorder: FlightRecorder, path, meta: dict | None = None) -> None:
    """Serialize the recorder's ring buffer as ``repro-flight/1`` JSON."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.document(meta=meta), handle, indent=2, default=str)
        handle.write("\n")


#: The process-default recorder: permanently disabled, shared by all
#: uninstrumented runs.  ``repro.obs.observed(flight=...)`` swaps in a
#: live one.
NULL_FLIGHT_RECORDER = FlightRecorder(enabled=False)
