"""The correctness oracle: a mirror session beside the served one.

Every run builds one :class:`Oracle` from the same ``repro-db/1``
snapshot text its servers boot from (before the first of them is
spawned, so that nothing runs beside a boot).  The oracle holds an in-process
``ExplanationSession`` with the server's own defaults and renders, for a
request body the benchmark sent, the exact bytes the server must answer:
``encode_body(explanation_payload(...))`` for a derived fact, the 404
``not_derived`` body for an absent one, ``batch_payload`` of per-query
outcomes for a batch, ``whynot_payload`` for a why-not.  Updates the
benchmark sends are applied to the mirror too, so reads after an
acknowledged update are held to the post-update state.

Checks run after the timed window on the bodies the clients kept (a
seeded 1-in-50 sample; every body in ``cold-start``), so the oracle
costs the load generator nothing while it measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.apps import company_control
from repro.core.service import BatchOutcome, ExplanationService
from repro.io import loads_database, parse_fact
from repro.serve import (
    batch_payload,
    encode_body,
    error_payload,
    explanation_payload,
    whynot_payload,
)

SAMPLE_ONE_IN = 50
DEEP_PROOF_STEPS = 12


@dataclass
class Kept:
    """One served response a client kept for the oracle."""

    path: bytes
    body: bytes            # request body
    status: int
    served: bytes          # response body


@dataclass
class Verdict:
    checked: int = 0
    misses: list[str] = field(default_factory=list)


class Oracle:
    """The mirror session, and what its chase says about the graph."""

    def __init__(self, snapshot: str):
        self.session = ExplanationService(max_workers=1).session(
            company_control.build(), loads_database(snapshot),
            strategy="planned",
        )
        index = self.session.result.index
        controls = [
            fact for fact in self.session.answers("Control")
            if fact.terms[0] != fact.terms[1]
        ]
        #: every non-reflexive derived Control fact, as the wire spells it
        self.derived = frozenset(str(fact) for fact in controls)
        self.proof_sizes = sorted(index.proof_size(fact) for fact in controls)
        self.deep = sum(
            1 for size in self.proof_sizes if size >= DEEP_PROOF_STEPS
        )

    # ------------------------------------------------------------------
    # Expected bytes
    # ------------------------------------------------------------------
    def explain(self, query: str, prefer_enhanced: bool = True):
        """(status, body) the server must answer ``POST /explain`` with."""
        fact = parse_fact(query)
        try:
            explanation = self.session.explain(
                fact, prefer_enhanced=prefer_enhanced
            )
        except KeyError as error:
            return 404, encode_body(error_payload(
                "not_derived", f"{fact} was not derived: {error}"
            ))
        return 200, encode_body(explanation_payload(explanation))

    def expected(self, path: bytes, body: bytes) -> tuple[int, bytes]:
        request = json.loads(body)
        enhanced = request.get("prefer_enhanced", True)
        if path == b"/explain":
            return self.explain(request["query"], enhanced)
        if path == b"/explain/batch":
            outcomes = [
                BatchOutcome.success(
                    fact,
                    self.session.explain(fact, prefer_enhanced=enhanced),
                )
                for fact in map(parse_fact, request["queries"])
            ]
            return 200, encode_body(batch_payload(outcomes))
        if path == b"/whynot":
            answer = self.session.why_not(parse_fact(request["query"]))
            return 200, encode_body(whynot_payload(answer))
        raise ValueError(f"no oracle for {path!r}")

    def update(self, adds=(), retracts=()) -> None:
        """Apply to the mirror the delta the server acknowledged."""
        self.session.update(
            adds=[parse_fact(text) for text in adds],
            retracts=[parse_fact(text) for text in retracts],
        )

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def verify(self, kept: list[Kept], flipped: frozenset[str]) -> Verdict:
        """Byte-compare kept responses with the mirror's current state.

        ``flipped`` are the facts the workload's updates add and remove.
        A kept read of one of them may have been answered in either
        state, so only its status is held to ``{200, 404}``; the writer
        checks those facts exactly, after each acknowledgement.
        """
        verdict = Verdict()
        for item in kept:
            verdict.checked += 1
            request = json.loads(item.body)
            if request.get("query") in flipped:
                if item.status not in (200, 404):
                    verdict.misses.append(
                        f"{item.path.decode()} {request['query']}: "
                        f"status {item.status}"
                    )
                continue
            status, body = self.expected(item.path, item.body)
            if (item.status, item.served) != (status, body):
                verdict.misses.append(
                    f"{item.path.decode()} {item.body.decode()}: "
                    f"served {item.status} {item.served[:120]!r}, "
                    f"expected {status} {body[:120]!r}"
                )
        return verdict
