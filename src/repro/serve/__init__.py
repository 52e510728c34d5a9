"""``repro.serve`` — the network-facing explanation service.

The serving layer: a dependency-light asyncio HTTP server
(:mod:`repro.serve.server`) over one warm explanation session
(:mod:`repro.serve.workers`), with bounded admission and health-driven
shedding (:mod:`repro.serve.admission`) and a canonical wire protocol
whose response bodies are byte-identical to in-process serialization
(:mod:`repro.serve.protocol`).

Quick start::

    from repro.apps.company_control import build_application
    from repro.serve import ExplanationServer, ServeConfig

    app, scenario = build_application()
    server = ExplanationServer(
        app, database=scenario.database,
        config=ServeConfig(port=8080),
    )
    server.run()          # blocks; SIGINT/SIGTERM shut down cleanly

or, from the shell, ``repro-explain serve --app company_control``.
See ``docs/SERVING.md`` for the full cookbook.
"""

from .admission import AdmissionController, ShedRequest
from .protocol import (
    SERVE_FORMAT,
    BatchRequest,
    ExplainRequest,
    ProtocolError,
    UpdateRequest,
    WhyNotRequest,
    batch_body,
    batch_payload,
    encode_body,
    error_payload,
    explanation_body,
    explanation_payload,
    outcome_payload,
    parse_batch_request,
    parse_explain_request,
    parse_update_request,
    parse_whynot_request,
    update_payload,
    whynot_payload,
)
from .routes import (
    PARSERS,
    serve_batch,
    serve_explain,
    serve_session_request,
    serve_whynot,
)
from .server import ExplanationServer, ServeConfig, ServerHandle
from .workers import WorkerPool

__all__ = [
    "AdmissionController",
    "BatchRequest",
    "ExplainRequest",
    "ExplanationServer",
    "PARSERS",
    "ProtocolError",
    "SERVE_FORMAT",
    "ServeConfig",
    "ServerHandle",
    "ShedRequest",
    "UpdateRequest",
    "WhyNotRequest",
    "WorkerPool",
    "batch_body",
    "batch_payload",
    "encode_body",
    "error_payload",
    "explanation_body",
    "explanation_payload",
    "outcome_payload",
    "parse_batch_request",
    "parse_explain_request",
    "parse_update_request",
    "parse_whynot_request",
    "serve_batch",
    "serve_explain",
    "serve_session_request",
    "serve_whynot",
    "update_payload",
    "whynot_payload",
]
