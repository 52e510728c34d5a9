"""LLM client protocol and prompt taxonomy.

The paper uses ChatGPT through three prompts:

* ``"Rephrase the following text: ..."`` — template enhancement (§4.2);
* ``"Generate a paraphrased version of the following text: ..."`` — the
  pure-LLM paraphrase baseline (§6.2);
* ``"Generate a summarized version of the following text: ..."`` — the
  pure-LLM summarization baseline (§6.2).

Any object exposing ``complete(prompt) -> str`` can stand in for the
model; this repository ships :class:`repro.llm.simulated.SimulatedLLM`, an
offline deterministic simulator (see DESIGN.md for the substitution
rationale).

A client signals backend trouble by raising :class:`LLMError`.  The
model is called once per template at compile time, so there is nothing
to retry: the template whose call failed keeps its deterministic base
text (see :class:`repro.core.enhancer.TemplateEnhancer`).  Any other
exception is a bug and propagates.
"""

from __future__ import annotations

from enum import Enum
from typing import Protocol, runtime_checkable


class LLMError(Exception):
    """The completion backend failed (timeout, rate limit, bad request)."""


#: The paper's exact prompt strings.
REPHRASE_PROMPT = "Rephrase the following text: "
PARAPHRASE_PROMPT = "Generate a paraphrased version of the following text: "
SUMMARY_PROMPT = "Generate a summarized version of the following text: "


class PromptKind(Enum):
    """The text-manipulation task a prompt requests."""

    REPHRASE = "rephrase"
    PARAPHRASE = "paraphrase"
    SUMMARY = "summary"
    UNKNOWN = "unknown"


def classify_prompt(prompt: str) -> tuple[PromptKind, str]:
    """Split a prompt into its task kind and its payload text."""
    for prefix, kind in (
        (REPHRASE_PROMPT, PromptKind.REPHRASE),
        (PARAPHRASE_PROMPT, PromptKind.PARAPHRASE),
        (SUMMARY_PROMPT, PromptKind.SUMMARY),
    ):
        if prompt.startswith(prefix):
            return kind, prompt[len(prefix):]
    return PromptKind.UNKNOWN, prompt


@runtime_checkable
class LLMClient(Protocol):
    """Minimal LLM interface used throughout the repository."""

    def complete(self, prompt: str) -> str:  # pragma: no cover - protocol
        """Return the model's completion for ``prompt``."""
        ...
