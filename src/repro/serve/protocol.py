"""The serve wire protocol: request schemas and canonical JSON bodies.

Everything that crosses the HTTP boundary is defined here, in one place,
so the server, the ``bench/`` client, the smoke tests and the
byte-parity sweep all speak the same dialect:

* **requests** are parsed into frozen dataclasses
  (:class:`ExplainRequest`, :class:`BatchRequest`, :class:`WhyNotRequest`,
  :class:`UpdateRequest`)
  with typed validation errors (:class:`ProtocolError` carries the HTTP
  status the server should answer with);
* **responses** are canonical ``repro-serve/1`` payloads rendered by
  :func:`encode_body` — ``json.dumps`` with sorted keys and a trailing
  newline, so an HTTP-served explanation is *byte-identical* to the same
  payload serialized from a direct in-process
  :class:`~repro.core.service.ExplanationService` call.  Explanation
  bodies are joined from fragments the binding escaped once
  (:func:`explanation_body`, :func:`batch_body`) to those same bytes.
  The parity checks in ``tests/test_serve.py`` compare bytes, not
  parsed values.

The protocol is deliberately small: a query is the textual ground atom
(``"Control(A, C)"``) parsed by :func:`repro.io.parse_fact`, and an
explanation travels as its text plus the reasoning-path names (plus the
full audit record on request) — the same surfaces the CLI prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.explain import Explanation, json_escaped
from ..core.service import BatchOutcome
from ..core.whynot import WhyNotAnswer
from ..datalog.atoms import Fact
from ..datalog.errors import NotDerived, ParseError, UserError
from ..io import parse_fact

#: Version tag carried by every response body.
SERVE_FORMAT = "repro-serve/1"


class ProtocolError(UserError):
    """A malformed request; ``status`` is the HTTP answer it deserves."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# Request schemas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExplainRequest:
    """``POST /explain``: one query, optional deadline and audit flag."""

    query: Fact
    prefer_enhanced: bool = True
    deadline_s: float | None = None
    audit: bool = False


@dataclass(frozen=True)
class BatchRequest:
    """``POST /explain/batch``: many queries under one optional budget."""

    queries: tuple[Fact, ...]
    prefer_enhanced: bool = True
    deadline_s: float | None = None


@dataclass(frozen=True)
class WhyNotRequest:
    """``POST /whynot``: one absent fact to probe."""

    query: Fact


@dataclass(frozen=True)
class UpdateRequest:
    """``POST /update``: an extensional add/retract delta."""

    adds: tuple[Fact, ...] = ()
    retracts: tuple[Fact, ...] = ()


def _decode_json(body: bytes) -> dict:
    if not body:
        raise ProtocolError("empty request body (expected a JSON object)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}")
    except RecursionError:
        # A body of nested brackets well under MAX_BODY_BYTES exhausts
        # the decoder's stack: a malformed request, not server trouble.
        raise ProtocolError("request body nests too deeply")
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _parse_query(value: Any, field: str = "query") -> Fact:
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"{field!r} must be a non-empty string")
    try:
        return parse_fact(value)
    except ParseError as error:
        raise ProtocolError(f"{field!r} is not a ground atom: {error}")


def _parse_flag(payload: dict, field: str, default: bool) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{field!r} must be a boolean")
    return value


def _parse_deadline(payload: dict) -> float | None:
    value = payload.get("deadline_s")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("'deadline_s' must be a number of seconds")
    if not math.isfinite(value):
        raise ProtocolError("'deadline_s' must be finite")
    if value < 0:
        raise ProtocolError("'deadline_s' must be non-negative")
    return float(value)


def parse_explain_request(body: bytes) -> ExplainRequest:
    payload = _decode_json(body)
    return ExplainRequest(
        query=_parse_query(payload.get("query")),
        prefer_enhanced=_parse_flag(payload, "prefer_enhanced", True),
        deadline_s=_parse_deadline(payload),
        audit=_parse_flag(payload, "audit", False),
    )


def parse_batch_request(body: bytes) -> BatchRequest:
    payload = _decode_json(body)
    raw = payload.get("queries")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'queries' must be a non-empty list of strings")
    queries = tuple(
        _parse_query(entry, field=f"queries[{index}]")
        for index, entry in enumerate(raw)
    )
    return BatchRequest(
        queries=queries,
        prefer_enhanced=_parse_flag(payload, "prefer_enhanced", True),
        deadline_s=_parse_deadline(payload),
    )


def parse_whynot_request(body: bytes) -> WhyNotRequest:
    payload = _decode_json(body)
    return WhyNotRequest(query=_parse_query(payload.get("query")))


def _parse_fact_list(payload: dict, field: str) -> tuple[Fact, ...]:
    raw = payload.get(field, [])
    if not isinstance(raw, list):
        raise ProtocolError(f"{field!r} must be a list of fact strings")
    return tuple(
        _parse_query(entry, field=f"{field}[{index}]")
        for index, entry in enumerate(raw)
    )


def parse_update_request(body: bytes) -> UpdateRequest:
    payload = _decode_json(body)
    request = UpdateRequest(
        adds=_parse_fact_list(payload, "adds"),
        retracts=_parse_fact_list(payload, "retracts"),
    )
    if not request.adds and not request.retracts:
        raise ProtocolError(
            "an update needs at least one of 'adds' or 'retracts'"
        )
    return request


# ----------------------------------------------------------------------
# Response payloads
# ----------------------------------------------------------------------

def encode_body(payload: dict) -> bytes:
    """The canonical byte rendering of a response payload.

    Sorted keys, no ASCII escaping, one trailing newline — the contract
    the byte-parity gates compare against.  The server encodes every
    body with it but a non-audit ``/explain`` and an ``/explain/batch``
    (200 or 504 partial): those it joins from stored fragments
    (:func:`explanation_body`, :func:`batch_body`), to the same bytes.
    """
    return (
        json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n"
    ).encode("utf-8")


def explanation_payload(
    explanation: Explanation, audit: bool = False
) -> dict:
    """The serialization of one served explanation."""
    payload: dict = {
        "format": SERVE_FORMAT,
        "query": str(explanation.query),
        "text": explanation.text,
        "paths": list(explanation.paths_used()),
        "status": "ok",
    }
    if audit:
        payload["audit"] = explanation.to_dict()
    return payload


def outcome_payload(outcome: BatchOutcome) -> dict:
    """One per-query entry of a batch response."""
    entry: dict = {"query": str(outcome.query), "status": outcome.status}
    if outcome.explanation is not None:
        entry["text"] = outcome.explanation.text
        entry["paths"] = list(outcome.explanation.paths_used())
    if outcome.error is not None:
        entry["error"] = outcome.error
    return entry


def batch_payload(
    outcomes: Sequence[BatchOutcome], partial: bool = False
) -> dict:
    """The serialization of a batch response (possibly partial)."""
    return {
        "format": SERVE_FORMAT,
        "status": "partial" if partial else "ok",
        "served": sum(1 for outcome in outcomes if outcome.ok),
        "missed": sum(
            1 for outcome in outcomes
            if outcome.status == BatchOutcome.STATUS_DEADLINE
        ),
        "results": [outcome_payload(outcome) for outcome in outcomes],
    }


# ----------------------------------------------------------------------
# Explanation bodies, joined from the fixed keys in sorted order, the
# escaped query and what the binding escaped once
# (``Explanation.fragments``, ``Explanation.paths_json``).  The payload
# functions above, through ``encode_body``, stay the reference.
# ----------------------------------------------------------------------

_FORMAT = b'{"format": ' + json.dumps(SERVE_FORMAT).encode("utf-8") + b", "


def _ok_fields(query: Fact, explanation: Explanation) -> bytes:
    """``outcome_payload`` of a served query, without its braces."""
    return b"".join((
        b'"paths": ', explanation.paths_json,
        b', "query": "', json_escaped(str(query)),
        b'", "status": "ok", "text": "', b" ".join(explanation.fragments),
        b'"',
    ))


def explanation_body(explanation: Explanation) -> bytes:
    """``encode_body(explanation_payload(explanation))``, joined."""
    return _FORMAT + _ok_fields(explanation.query, explanation) + b"}\n"


def _entry(outcome: BatchOutcome) -> bytes:
    if outcome.explanation is None:
        return json.dumps(
            outcome_payload(outcome), ensure_ascii=False, sort_keys=True
        ).encode("utf-8")
    return b"{" + _ok_fields(outcome.query, outcome.explanation) + b"}"


def batch_body(
    outcomes: Sequence[BatchOutcome], partial: bool = False
) -> bytes:
    """``encode_body(batch_payload(outcomes, partial))``, joined: an
    entry that carries no explanation goes through the canonical
    encoder."""
    served = sum(1 for outcome in outcomes if outcome.ok)
    missed = sum(
        1 for outcome in outcomes
        if outcome.status == BatchOutcome.STATUS_DEADLINE
    )
    return b"".join((
        _FORMAT, b'"missed": %d, "results": [' % missed,
        b", ".join([_entry(outcome) for outcome in outcomes]),
        b'], "served": %d, "status": ' % served,
        b'"partial"}\n' if partial else b'"ok"}\n',
    ))


def update_payload(outcome) -> dict:
    """The serialization of an applied update
    (an :class:`~repro.engine.incremental.UpdateOutcome`)."""
    return {
        "format": SERVE_FORMAT,
        "status": "ok",
        "mode": outcome.mode,
        "added": [str(fact) for fact in outcome.added],
        "retracted": [str(fact) for fact in outcome.retracted],
        "replayed": outcome.replayed,
        "recomputed": outcome.recomputed,
        "rederived": outcome.rederived,
    }


def whynot_payload(answer: WhyNotAnswer) -> dict:
    """The serialization of a why-not report."""
    return {
        "format": SERVE_FORMAT,
        "query": str(answer.query),
        "text": answer.text,
        "obstacles": [
            {
                "rule": obstacle.rule.label,
                "kind": obstacle.kind,
                "detail": obstacle.detail,
                "satisfied": obstacle.satisfied,
            }
            for obstacle in answer.obstacles
        ],
        "status": "ok",
    }


def error_payload(
    status: str, message: str, results: Sequence[dict] | None = None
) -> dict:
    """A non-200 body.  ``results`` carries any partial results computed
    before the failure (the deadline contract: partial service beats no
    service, even over HTTP)."""
    payload: dict = {
        "format": SERVE_FORMAT,
        "status": status,
        "error": message,
        "results": list(results or ()),
    }
    return payload


def refusal(error: UserError) -> tuple[int, dict]:
    """The HTTP answer to a caller's mistake: the error's own status and
    a body whose ``status`` is its ``reason``."""
    message = str(error)
    if isinstance(error, NotDerived):
        # str() of a KeyError quotes it: the spelling the 404 always had.
        message = f"{error.fact} was not derived: {message}"
    return error.status, error_payload(error.reason, message)
