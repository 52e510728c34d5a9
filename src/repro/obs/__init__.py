"""``repro.obs`` — unified tracing, metrics and profiling.

The observability layer the rest of the system reports into:

* :mod:`repro.obs.trace` — hierarchical span tracer (monotonic clock,
  parent/child nesting, shared no-op span when disabled);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with p50/p95/p99 summaries, plus cache telemetry;
* :mod:`repro.obs.export` — JSON-lines traces, the stats document and
  Prometheus text.

The second layer (per-query attribution, added in PR 7):

* :mod:`repro.obs.flight` — the query flight recorder: request-scoped
  records (query id + compile fingerprint, phase timings, kernel and
  cache counters, degradation events) in a bounded ring buffer,
  dumpable as ``repro-flight/1`` JSON;
* :mod:`repro.obs.profile` — per-rule-kernel wall time / rows / probes
  attribution feeding ``--metrics`` and ``repro-explain obs top``.

Instrumented modules (chase engine, compiler, enhancer, service) do not
take tracer/registry parameters; they report to the **ambient** pair
installed with :func:`observed`::

    tracer, registry = Tracer(), MetricsRegistry()
    with observed(tracer=tracer, metrics=registry):
        session = service.session(app, database)   # spans + counters land
    write_trace(tracer, "run.jsonl")

Outside an ``observed`` block the ambient tracer is permanently disabled
(every ``span()`` returns the shared no-op object) and counters go to a
process-default registry — both cheap enough to leave the call sites in
hot paths unconditionally.  The ambient pair is process-global on
purpose: thread-pool workers spawned inside an observed region report to
the same sinks as the thread that installed it.
"""

from __future__ import annotations

from contextlib import contextmanager

from .export import (
    STATS_DOCUMENT_KEYS,
    STATS_FORMAT,
    parse_trace_jsonl,
    render_prometheus,
    span_aggregate,
    span_tree,
    stats_document,
    trace_jsonl,
    write_stats,
    write_trace,
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
from .profile import NULL_PROFILER, KernelProfiler, render_top
from .trace import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "FLIGHT_FORMAT", "FlightRecord", "FlightRecorder", "Histogram",
    "KernelProfiler", "MetricsRegistry",
    "NULL_FLIGHT_RECORD", "NULL_FLIGHT_RECORDER",
    "NULL_SPAN", "NULL_TRACER", "STATS_DOCUMENT_KEYS", "STATS_FORMAT",
    "Span", "Tracer", "current_flight", "flight_event", "flight_record",
    "get_flight", "get_profiler", "get_tracer", "incr",
    "observe", "observed", "parse_trace_jsonl", "render_prometheus",
    "render_top", "set_gauge", "span", "span_aggregate", "span_tree", "stats_document",
    "trace_jsonl", "write_flight", "write_stats", "write_trace",
]

_active_tracer: Tracer = NULL_TRACER
_active_metrics: MetricsRegistry = DEFAULT_REGISTRY
_active_flight: FlightRecorder = NULL_FLIGHT_RECORDER
_active_profiler: KernelProfiler = NULL_PROFILER


def get_tracer() -> Tracer:
    """The ambient tracer (disabled no-op outside ``observed`` blocks)."""
    return _active_tracer


def get_flight() -> FlightRecorder:
    """The ambient flight recorder (disabled outside ``observed``)."""
    return _active_flight


def get_profiler() -> KernelProfiler:
    """The ambient kernel profiler (disabled outside ``observed``)."""
    return _active_profiler


def current_flight() -> FlightRecord | None:
    """The calling thread's open flight record, or ``None``.

    One attribute check when flight recording is off — cheap enough for
    hot paths (cache lookups, kernel executions) to call unconditionally.
    """
    return _active_flight.current()


@contextmanager
def flight_record(
    kind: str,
    query: str | None = None,
    fingerprint: str | None = None,
    **attrs,
):
    """The flight record one unit of service work reports into.

    When the calling context already has a record open — a served
    request, whose id the client holds as ``X-Query-Id`` — the work
    joins it: identity and attributes land on that record and no child
    is opened, so one request leaves one record.  Otherwise a record of
    ``kind`` is opened (the shared no-op one while recording is off).
    """
    current = _active_flight.current()
    if current is not None:
        yield current.set(query=query, fingerprint=fingerprint, **attrs)
        return
    with _active_flight.record(
        kind, query=query, fingerprint=fingerprint, **attrs
    ) as record:
        yield record


def flight_event(kind: str, **data) -> None:
    """Append an event to the current flight record, if one is open."""
    record = _active_flight.current()
    if record is not None:
        record.event(kind, **data)


def span(name: str, **attrs):
    """Open a span on the ambient tracer (no-op when tracing is off)."""
    return _active_tracer.span(name, **attrs)


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
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    flight: FlightRecorder | None = None,
    profile: KernelProfiler | None = None,
):
    """Install ambient observability sinks for the enclosed work.

    Any side may be omitted to keep the current one (the flight recorder
    and kernel profiler default to permanently-disabled singletons, so
    the base tracer/metrics-only call keeps its old cost).  The previous
    set is restored on exit, so observed regions nest.
    """
    global _active_tracer, _active_metrics, _active_flight, _active_profiler
    previous = (
        _active_tracer, _active_metrics, _active_flight, _active_profiler,
    )
    if tracer is not None:
        _active_tracer = tracer
    if metrics is not None:
        _active_metrics = metrics
    if flight is not None:
        _active_flight = flight
    if profile is not None:
        _active_profiler = profile
    try:
        yield (_active_tracer, _active_metrics)
    finally:
        (
            _active_tracer, _active_metrics,
            _active_flight, _active_profiler,
        ) = previous
