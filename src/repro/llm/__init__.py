"""Simulated-LLM substrate.

Offline, deterministic stand-in for the ChatGPT usage of the paper: a
rule-based rewriting engine (paraphrase / summary / rephrase) plus a
calibrated omission model reproducing the length-dependent information
loss of Section 6.3.
"""

from .client import (
    LLMClient,
    LLMError,
    PARAPHRASE_PROMPT,
    PromptKind,
    REPHRASE_PROMPT,
    SUMMARY_PROMPT,
    classify_prompt,
)
from .omission import (
    OmissionModel,
    OmissionProfile,
    PARAPHRASE_PROFILE,
    REPHRASE_PROFILE,
    SUMMARY_PROFILE,
)
from .rewriting import ParsedSentence, RewritingEngine, parse_sentence, split_sentences
from .simulated import LLMUsage, SimulatedLLM

__all__ = [
    "LLMClient",
    "LLMError",
    "LLMUsage",
    "OmissionModel",
    "OmissionProfile",
    "PARAPHRASE_PROFILE",
    "PARAPHRASE_PROMPT",
    "ParsedSentence",
    "PromptKind",
    "REPHRASE_PROFILE",
    "REPHRASE_PROMPT",
    "RewritingEngine",
    "SUMMARY_PROFILE",
    "SUMMARY_PROMPT",
    "SimulatedLLM",
    "classify_prompt",
    "parse_sentence",
    "split_sentences",
]
