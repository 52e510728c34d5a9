"""Template enhancement through an LLM, with the token-presence guard.

Deterministic explanation templates contain repetitions ("Since ..., then
...") that make the text redundant.  Section 4.2 of the paper enhances them
by prompting an LLM — *"Rephrase the following text:"* — once per template,
never on instance data, so no confidential fact ever leaves the system.

Every enhanced candidate is automatically double-checked for the presence
of all original tokens (Section 4.4); candidates that drop tokens are
rejected and the enhancement retried.  The step can be repeated to collect
several interchangeable enriched versions of the same template.

The LLM call is the pipeline's single external dependency, so it runs
under the resilience layer (:mod:`repro.resilience`): each completion is
retried per :class:`~repro.resilience.policy.RetryPolicy` behind the
client's shared :class:`~repro.resilience.breaker.CircuitBreaker`, and an
optional :class:`~repro.resilience.policy.Deadline` bounds a whole
``enhance_store`` run.  When resilience gives up — retries exhausted,
circuit open, deadline spent, permanent backend error — the template
*keeps its deterministic base text*, which the paper guarantees is always
correct and complete; the degradation is recorded in the
:class:`EnhancementReport` and the ``enhance.fallback_total`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .. import obs
from ..resilience.breaker import CircuitBreaker, breaker_for
from ..resilience.policy import (
    Deadline,
    ResilienceError,
    RetryPolicy,
    resilient_complete,
)
from .templates import ExplanationTemplate, TemplateStore
from .validation import missing_tokens

#: The paper's enhancement prompt (Section 4.2).
ENHANCEMENT_PROMPT = "Rephrase the following text: "


class SupportsComplete(Protocol):
    """Anything that looks like an LLM client (see :mod:`repro.llm`)."""

    def complete(self, prompt: str) -> str:  # pragma: no cover - protocol
        ...


@dataclass
class EnhancementReport:
    """Outcome of an enhancement run over a template store.

    ``rejected`` counts token-guard rejections (the model dropped a
    ``<token>``); ``fallbacks`` counts templates left on their base text
    because the *backend* failed (retries exhausted, circuit open,
    deadline exceeded, permanent error) — the two numbers separate "the
    model fought the guard" from "the backend was unavailable".
    """

    enhanced: int = 0
    rejected: int = 0
    fallbacks: int = 0
    failures: list[tuple[str, frozenset[str]]] = field(default_factory=list)
    fallback_errors: list[tuple[str, str]] = field(default_factory=list)

    def record_rejection(self, template_name: str, missing: frozenset[str]) -> None:
        self.rejected += 1
        self.failures.append((template_name, missing))

    def record_fallback(self, template_name: str, error: BaseException) -> None:
        self.fallbacks += 1
        self.fallback_errors.append(
            (template_name, f"{type(error).__name__}: {error}")
        )


class TemplateEnhancer:
    """Drives LLM enhancement of templates with automatic validation.

    Parameters
    ----------
    llm:
        The completion backend.
    max_attempts:
        Token-guard attempts per template (§4.4) — re-prompts after a
        candidate *returned successfully* but dropped tokens.
    retry_policy:
        Backend retry policy per completion (transient errors, backoff).
        Distinct from ``max_attempts``: the guard retries bad *answers*,
        the policy retries failed *calls*.
    breaker:
        Circuit breaker guarding the client; defaults to the shared
        per-client breaker from :func:`repro.resilience.breaker_for`.
        Pass ``False`` to disable breaking entirely.
    """

    def __init__(
        self,
        llm: SupportsComplete,
        max_attempts: int = 3,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | bool | None = None,
    ):
        self.llm = llm
        self.max_attempts = max_attempts
        self.retry_policy = retry_policy
        if breaker is False:
            self.breaker: CircuitBreaker | None = None
        elif breaker is None or breaker is True:
            self.breaker = breaker_for(llm)
        else:
            self.breaker = breaker

    def _complete(self, prompt: str, deadline: Deadline | None) -> str:
        return resilient_complete(
            self.llm, prompt,
            policy=self.retry_policy, breaker=self.breaker, deadline=deadline,
        )

    def enhance_template(
        self,
        template: ExplanationTemplate,
        report: EnhancementReport | None = None,
        deadline: Deadline | None = None,
    ) -> bool:
        """Try to add one enhanced version to ``template``.

        Returns ``True`` on success.  Candidates failing the token guard
        are rejected; after ``max_attempts`` rejections — or when the
        resilience layer gives up on the backend — the template keeps its
        deterministic text (always correct and complete).
        """
        original = template.deterministic_text
        name = template.path.name or str(template.path.labels)
        for _ in range(self.max_attempts):
            obs.incr("llm.enhance_attempts")
            try:
                candidate = self._complete(
                    ENHANCEMENT_PROMPT + original, deadline
                )
            except ResilienceError as error:
                # Backend-level degradation: keep the base template for
                # this path and record why.  The caller's store stays
                # complete — every path still has its deterministic text.
                obs.incr("enhance.fallback_total")
                if report is not None:
                    report.record_fallback(name, error)
                return False
            missing = missing_tokens(original, candidate)
            if not missing:
                template.add_enhanced(candidate)
                obs.incr("llm.enhanced_templates")
                if report is not None:
                    report.enhanced += 1
                return True
            # Token guard tripped (Section 4.4): count the retry so the
            # stats document shows how hard the model fought the guard.
            obs.incr("llm.enhance_rejections")
            if report is not None:
                report.record_rejection(name, missing)
        obs.incr("llm.enhance_gave_up")
        return False

    def enhance_store(
        self,
        store: TemplateStore,
        versions: int = 1,
        deadline: Deadline | float | None = None,
    ) -> EnhancementReport:
        """Enhance every template in the store, collecting ``versions``
        interchangeable enriched versions per template.

        Degradation is per template: a backend failure on one template
        falls back to its base text and moves on.  An open circuit or an
        expired deadline makes the remaining templates fall back fast —
        no further backend call is attempted for them.
        """
        chosen = Deadline.coerce(deadline)
        report = EnhancementReport()
        for template in store.templates():
            for _ in range(versions):
                self.enhance_template(template, report, deadline=chosen)
        return report
