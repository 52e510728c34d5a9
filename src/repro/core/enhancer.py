"""Template enhancement through an LLM, with the token-presence guard.

Deterministic explanation templates contain repetitions ("Since ..., then
...") that make the text redundant.  Section 4.2 of the paper enhances them
by prompting an LLM — *"Rephrase the following text:"* — once per template,
never on instance data, so no confidential fact ever leaves the system.

Every enhanced candidate is automatically double-checked for the presence
of all original tokens (Section 4.4); candidates that drop tokens are
rejected and the enhancement retried.  The step can be repeated to collect
several interchangeable enriched versions of the same template.

The LLM call is the pipeline's single external dependency and runs once
per template at compile time.  When it raises
:class:`~repro.llm.LLMError` the template *keeps its deterministic base
text*, which the paper guarantees is always correct and complete; the
degradation is recorded in the :class:`EnhancementReport` and the
``enhance.fallback_total`` counter.  Any other exception propagates: a
bug is not a degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .. import obs
from ..llm.client import LLMError
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
    because the *backend* raised :class:`~repro.llm.LLMError` — the two
    numbers separate "the model fought the guard" from "the backend was
    unavailable".
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
        candidate *returned successfully* but dropped tokens.  A call
        that raises :class:`~repro.llm.LLMError` is not re-prompted: the
        template keeps its base text.
    """

    def __init__(self, llm: SupportsComplete, max_attempts: int = 3):
        self.llm = llm
        self.max_attempts = max_attempts

    def enhance_template(
        self,
        template: ExplanationTemplate,
        report: EnhancementReport | None = None,
    ) -> bool:
        """Try to add one enhanced version to ``template``.

        Returns ``True`` on success.  Candidates failing the token guard
        are rejected; after ``max_attempts`` rejections — or as soon as
        the backend raises :class:`~repro.llm.LLMError` — the template
        keeps its deterministic text (always correct and complete).
        """
        original = template.deterministic_text
        name = template.path.name or str(template.path.labels)
        for _ in range(self.max_attempts):
            obs.incr("llm.enhance_attempts")
            try:
                candidate = self.llm.complete(ENHANCEMENT_PROMPT + original)
            except LLMError as error:
                # Backend failure: keep the base template for this path
                # and record why.  The caller's store stays complete —
                # every path still has its deterministic text.
                obs.incr("enhance.fallback_total")
                if report is not None:
                    report.record_fallback(name, error)
                return False
            missing = missing_tokens(original, candidate)
            if not missing:
                template.add_enhanced(candidate)
                if report is not None:
                    report.enhanced += 1
                return True
            # Token guard tripped (Section 4.4): the report keeps the
            # rejection so the artifact shows how hard the model fought it.
            if report is not None:
                report.record_rejection(name, missing)
        return False

    def enhance_store(
        self, store: TemplateStore, versions: int = 1
    ) -> EnhancementReport:
        """Enhance every template in the store, collecting ``versions``
        interchangeable enriched versions per template.

        Degradation is per template: a backend failure on one template
        falls back to its base text and moves on.
        """
        report = EnhancementReport()
        for template in store.templates():
            for _ in range(versions):
                self.enhance_template(template, report)
        return report
