"""``repro.obs`` — flight records and metrics.

The observability layer the rest of the system reports into:

* :mod:`repro.obs.flight` — the query flight recorder, the program's one
  timing mechanism: request-scoped records (query id + compile
  fingerprint, phase timings, kernel and cache counters, degradation
  events) in a bounded ring buffer, dumpable as ``repro-flight/1`` JSON;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with p50/p95/p99 summaries, plus cache telemetry;
* :mod:`repro.obs.export` — the stats document and Prometheus text;
* :mod:`repro.obs.profile` — the per-rule-kernel view of
  ``ChaseStats.plans`` feeding ``--metrics``, the stats document and
  ``repro-explain obs top``.

Instrumented modules (chase engine, compiler, enhancer, service) do not
take recorder/registry parameters; they report to the **ambient** pair
installed with :func:`observed`::

    recorder, registry = FlightRecorder(), MetricsRegistry()
    with observed(metrics=registry, flight=recorder):
        session = service.session(app, database)   # phases + counters land
    write_flight(recorder, "run.json")

A timed region is a :func:`phase` of the calling context's current
flight record.  Outside an ``observed`` block the ambient recorder is
permanently disabled (every ``phase()`` returns the shared no-op record
and reads no clock) and counters go to a process-default registry —
both cheap enough to leave the call sites in hot paths
unconditionally.  The ambient pair is process-global on purpose:
threads spawned inside an observed region report to the same sinks as
the thread that installed it.
"""

from __future__ import annotations

from contextlib import contextmanager

from .export import (
    STATS_DOCUMENT_KEYS,
    STATS_FORMAT,
    render_prometheus,
    stats_document,
    write_stats,
)
from .flight import (
    FLIGHT_FORMAT,
    NULL_FLIGHT_RECORD,
    NULL_FLIGHT_RECORDER,
    FlightRecord,
    FlightRecorder,
    write_flight,
)
from .metrics import DEFAULT_REGISTRY, Histogram, MetricsRegistry
from .profile import kernel_profile, render_top

__all__ = [
    "FLIGHT_FORMAT", "FlightRecord", "FlightRecorder", "Histogram",
    "MetricsRegistry", "NULL_FLIGHT_RECORD", "NULL_FLIGHT_RECORDER",
    "STATS_DOCUMENT_KEYS", "STATS_FORMAT", "current_flight",
    "flight_event", "flight_record", "get_flight", "incr",
    "kernel_profile", "observe", "observed", "phase",
    "render_prometheus", "render_top", "set_gauge", "stats_document",
    "write_flight", "write_stats",
]

_active_metrics: MetricsRegistry = DEFAULT_REGISTRY
_active_flight: FlightRecorder = NULL_FLIGHT_RECORDER


def get_flight() -> FlightRecorder:
    """The ambient flight recorder (disabled outside ``observed``)."""
    return _active_flight


def current_flight() -> FlightRecord | None:
    """The calling thread's open flight record, or ``None``.

    One attribute check when flight recording is off — cheap enough for
    hot paths (cache lookups, kernel executions) to call unconditionally.
    """
    return _active_flight.current()


def phase(name: str):
    """Time the enclosed region as phase ``name`` of the calling
    context's current flight record.

    With no record open this is the shared no-op record: no allocation,
    no clock read.  Re-entering a phase name on one record accumulates.
    """
    record = _active_flight.current()
    if record is None:
        return NULL_FLIGHT_RECORD
    return record.phase(name)


class _Joined:
    """A served request's open record, joined by the work it runs: the
    work's ``with`` leaves the record open."""

    __slots__ = ("record",)

    def __init__(self, record: FlightRecord):
        self.record = record

    def __enter__(self) -> FlightRecord:
        return self.record

    def __exit__(self, *exc_info: object) -> None:
        return None


def flight_record(
    kind: str,
    query: object | None = None,
    fingerprint: str | None = None,
    **attrs,
):
    """The flight record one unit of service work reports into (a
    context manager).

    When the calling context already has a record open — a served
    request, whose id the client holds as ``X-Query-Id`` — the work
    joins it: identity and attributes land on that record and no child
    is opened, so one request leaves one record.  Otherwise a record of
    ``kind`` is opened (the shared no-op one while recording is off).
    ``query`` may be the fact itself: a record renders it when read.
    """
    current = _active_flight.current()
    if current is not None:
        return _Joined(current.set(query=query, fingerprint=fingerprint, **attrs))
    return _active_flight.record(
        kind, query=query, fingerprint=fingerprint, **attrs
    )


def flight_event(kind: str, **data) -> None:
    """Append an event to the current flight record, if one is open."""
    record = _active_flight.current()
    if record is not None:
        record.event(kind, **data)


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter on the ambient registry."""
    _active_metrics.incr(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the ambient registry."""
    _active_metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the ambient registry."""
    _active_metrics.set_gauge(name, value)


@contextmanager
def observed(
    metrics: MetricsRegistry | None = None,
    flight: FlightRecorder | None = None,
):
    """Install the ambient metrics registry and flight recorder for the
    enclosed work.

    Either side may be omitted to keep the current one (the recorder
    defaults to a permanently-disabled singleton).  The previous pair is
    restored on exit, so observed regions nest.
    """
    global _active_metrics, _active_flight
    previous = (_active_metrics, _active_flight)
    if metrics is not None:
        _active_metrics = metrics
    if flight is not None:
        _active_flight = flight
    try:
        yield
    finally:
        _active_metrics, _active_flight = previous
