"""Request serving: parse + serve one session request.

The HTTP server answers four routes with canonical-JSON payloads
through :class:`~repro.serve.workers.WorkerPool`.  This module is the
single definition of that behaviour: a route-name → parser table plus
one function per route turning a parsed request and a warm
:class:`~repro.core.service.ExplanationSession` into an HTTP
``(status, payload)`` pair, or raising the caller's mistake as a
:class:`~repro.datalog.errors.UserError`.  A payload is a dict the
server encodes, or an explanation body already joined from its stored
fragments (:mod:`repro.serve.protocol`); either way the bytes equal
``encode_body`` of the payload in-process callers build.
"""

from __future__ import annotations

from .. import obs
from ..core.service import (
    BatchOutcome,
    Deadline,
    DeadlineExceeded,
    ExplanationSession,
)
from ..obs.metrics import MetricsRegistry
from .protocol import (
    BatchRequest,
    ExplainRequest,
    WhyNotRequest,
    batch_body,
    error_payload,
    explanation_body,
    explanation_payload,
    parse_batch_request,
    parse_explain_request,
    parse_update_request,
    parse_whynot_request,
    whynot_payload,
)

#: Route name → body parser.  ``update`` parses here like the others but
#: is served by the pool itself: it publishes a new shared session
#: instead of reading the current one.
PARSERS = {
    "explain": parse_explain_request,
    "explain_batch": parse_batch_request,
    "whynot": parse_whynot_request,
    "update": parse_update_request,
}


def _deadline(requested: float | None, default_deadline_s: float) -> Deadline:
    budget = requested if requested is not None else default_deadline_s
    return Deadline(budget)


def serve_explain(
    session: ExplanationSession,
    request: ExplainRequest,
    *,
    default_deadline_s: float,
    metrics: MetricsRegistry,
) -> tuple[int, dict | bytes]:
    deadline = _deadline(request.deadline_s, default_deadline_s)
    try:
        deadline.check("explain request admission")
        explanation = session.explain(
            request.query, prefer_enhanced=request.prefer_enhanced
        )
        # Work that *finished* is returned even if the budget ran out
        # meanwhile — computed results are never discarded.
        if request.audit:
            return 200, explanation_payload(explanation, audit=True)
        return 200, explanation_body(explanation)
    except DeadlineExceeded as error:
        metrics.incr("serve.deadline_exceeded")
        obs.flight_event("deadline_exceeded", where="explain")
        return 504, error_payload("deadline_exceeded", str(error))


def serve_batch(
    session: ExplanationSession,
    request: BatchRequest,
    *,
    default_deadline_s: float,
    metrics: MetricsRegistry,
) -> tuple[int, bytes]:
    deadline = _deadline(request.deadline_s, default_deadline_s)
    outcomes = session.explain_batch(
        list(request.queries), deadline=deadline,
        prefer_enhanced=request.prefer_enhanced,
    )
    assert all(isinstance(o, BatchOutcome) for o in outcomes)
    missed = sum(
        1 for outcome in outcomes
        if outcome.status == BatchOutcome.STATUS_DEADLINE
    )
    if missed:
        metrics.incr("serve.deadline_exceeded")
        obs.flight_event(
            "deadline_exceeded", where="explain_batch", missed=missed
        )
        # 504 with a partial-result body: the served prefix rides along
        # so the client keeps every explanation the budget did cover.
        return 504, batch_body(outcomes, partial=True)
    return 200, batch_body(outcomes)


def serve_whynot(
    session: ExplanationSession,
    request: WhyNotRequest,
    *,
    default_deadline_s: float,
    metrics: MetricsRegistry,
) -> tuple[int, dict]:
    answer = session.why_not(request.query)
    return 200, whynot_payload(answer)


_SERVERS = {
    ExplainRequest: serve_explain,
    BatchRequest: serve_batch,
    WhyNotRequest: serve_whynot,
}


def serve_session_request(
    session: ExplanationSession,
    request: ExplainRequest | BatchRequest | WhyNotRequest,
    *,
    default_deadline_s: float,
    metrics: MetricsRegistry,
) -> tuple[int, dict | bytes]:
    """Serve one parsed session-scoped request (not ``update``): the
    status and a payload to encode, or a body already encoded."""
    return _SERVERS[type(request)](
        session, request,
        default_deadline_s=default_deadline_s, metrics=metrics,
    )
