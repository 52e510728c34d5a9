"""Unit tests for LLM template enhancement and the token guard (§4.4)."""

import re

import pytest

from repro import obs
from repro.apps import company_control
from repro.core.compiler import compile_program
from repro.core.enhancer import (
    ENHANCEMENT_PROMPT,
    EnhancementReport,
    TemplateEnhancer,
)
from repro.core.templates import TemplateStore, extract_tokens
from repro.llm import LLMError, SimulatedLLM


class RecordingLLM:
    """Scripted fake: returns canned outputs and records prompts."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if self.outputs:
            return self.outputs.pop(0)
        return prompt[len(ENHANCEMENT_PROMPT):]


@pytest.fixture()
def store(stress_simple_analysis, stress_simple_app):
    return TemplateStore(stress_simple_analysis, stress_simple_app.glossary)


class TestGuard:
    def test_token_preserving_output_accepted(self, store):
        template = store.templates()[0]
        tokens = " ".join(f"<{t}>" for t in sorted(template.token_names))
        llm = RecordingLLM([f"fluent text with {tokens}"])
        enhancer = TemplateEnhancer(llm)
        assert enhancer.enhance_template(template)
        assert len(template.enhanced_texts) == 1
        template.enhanced_texts.clear()

    def test_token_dropping_output_rejected(self, store):
        template = store.templates()[0]
        llm = RecordingLLM(["no tokens at all"] * 3)
        enhancer = TemplateEnhancer(llm, max_attempts=3)
        assert not enhancer.enhance_template(template)
        assert template.enhanced_texts == []
        assert len(llm.prompts) == 3

    def test_retry_until_valid(self, store):
        template = store.templates()[0]
        tokens = " ".join(f"<{t}>" for t in sorted(template.token_names))
        llm = RecordingLLM(["broken", f"ok {tokens}"])
        enhancer = TemplateEnhancer(llm, max_attempts=3)
        assert enhancer.enhance_template(template)
        assert len(llm.prompts) == 2
        template.enhanced_texts.clear()

    def test_prompt_is_papers_rephrase_prompt(self, store):
        template = store.templates()[0]
        llm = RecordingLLM(["x"])
        TemplateEnhancer(llm, max_attempts=1).enhance_template(template)
        assert llm.prompts[0].startswith("Rephrase the following text: ")


class TestStoreEnhancement:
    def test_simulated_llm_enhances_all_templates(self, store, faithful_llm):
        report = TemplateEnhancer(faithful_llm).enhance_store(store)
        assert report.enhanced == len(store)
        assert report.rejected == 0
        for template in store.templates():
            assert len(template.enhanced_texts) == 1
            assert extract_tokens(template.enhanced_texts[0]) >= extract_tokens(
                template.deterministic_text
            )
            template.enhanced_texts.clear()

    def test_multiple_interchangeable_versions(self, store, faithful_llm):
        TemplateEnhancer(faithful_llm).enhance_store(store, versions=3)
        template = store.templates()[0]
        assert len(template.enhanced_texts) == 3
        # Versions differ (the simulator resamples deterministically).
        assert len(set(template.enhanced_texts)) >= 2
        for current in store.templates():
            current.enhanced_texts.clear()

    def test_report_records_rejections(self, store):
        llm = RecordingLLM(["bad"] * 100)
        report = TemplateEnhancer(llm, max_attempts=2).enhance_store(store)
        assert report.enhanced == 0
        assert report.rejected == 2 * len(store)
        assert report.failures

    def test_unreliable_llm_guard_catches_drops(self, store, lossy_llm):
        """With the lossy simulator, every stored enhanced text still
        carries all tokens — the guard filtered the drops."""
        TemplateEnhancer(lossy_llm, max_attempts=5).enhance_store(store)
        for template in store.templates():
            for text in template.enhanced_texts:
                assert extract_tokens(text) >= extract_tokens(
                    template.deterministic_text
                )
            template.enhanced_texts.clear()


class FailingLLM:
    """Echoes the template back (tokens kept), except that the chosen
    1-based calls raise ``error``."""

    def __init__(self, failing_calls=(), error=LLMError):
        self.failing_calls = set(failing_calls)
        self.error = error
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls in self.failing_calls:
            raise self.error(f"backend down (call #{self.calls})")
        return prompt[len(ENHANCEMENT_PROMPT):]


class TokenStrippingLLM:
    """Answers with the template minus every ``<token>`` (§4.4)."""

    def complete(self, prompt):
        return re.sub(r"<[^<>]+>", "", prompt[len(ENHANCEMENT_PROMPT):])


class TestResilientEnhancement:
    """The token guard re-prompts bad *answers*; a failed *call*
    (:class:`LLMError`) leaves the template on its base text."""

    def test_llm_error_falls_back_to_base_text(self, store):
        template = store.templates()[0]
        llm = FailingLLM(failing_calls={1})
        report = EnhancementReport()
        base_text = template.deterministic_text
        assert not TemplateEnhancer(llm).enhance_template(template, report)
        assert report.fallbacks == 1
        assert report.enhanced == 0
        assert report.fallback_errors[0][1].startswith("LLMError")
        # The path is degraded, never dropped: base text intact, no
        # partially enhanced version stored, and no re-prompt.
        assert template.deterministic_text == base_text
        assert template.enhanced_texts == []
        assert llm.calls == 1

    def test_guard_rejections_are_not_fallbacks(self, store):
        """Token-dropping *responses* trip the guard (§4.4), not the
        backend fallback path — the two counters stay separate."""
        template = store.templates()[0]
        enhancer = TemplateEnhancer(TokenStrippingLLM(), max_attempts=3)
        report = EnhancementReport()
        assert not enhancer.enhance_template(template, report)
        assert report.fallbacks == 0
        assert report.rejected == 3
        assert template.enhanced_texts == []

    def test_store_enhancement_degrades_per_template(self, store):
        """One template's call fails; the rest enhance."""
        report = TemplateEnhancer(FailingLLM({1})).enhance_store(store)
        assert report.fallbacks == 1
        assert report.enhanced == len(store) - 1
        for template in store.templates():
            assert template.deterministic_text
            template.enhanced_texts.clear()

    def test_compile_under_failing_calls_keeps_every_path(self):
        app = company_control.build()
        registry = obs.MetricsRegistry()
        with obs.observed(metrics=registry):
            compiled = compile_program(
                app.program, app.glossary, llm=FailingLLM({1, 3}),
            )
        report = compiled.enhancement_report
        templates = compiled.store.templates()
        assert len(templates) >= 3
        # One call per template, in store order: the first and third
        # keep only their base text, every other path is enhanced.
        for index, template in enumerate(templates):
            assert template.deterministic_text
            assert len(template.enhanced_texts) == (0 if index in (0, 2) else 1)
        assert report.fallbacks == 2
        assert report.enhanced == len(templates) - 2
        assert registry.counter_value("enhance.fallback_total") == report.fallbacks

    def test_healthy_backend_records_no_fallbacks(self):
        app = company_control.build()
        registry = obs.MetricsRegistry()
        with obs.observed(metrics=registry):
            compiled = compile_program(
                app.program, app.glossary,
                llm=SimulatedLLM(seed=0, faithful=True),
            )
        assert compiled.enhancement_report.fallbacks == 0
        assert registry.counter_value("enhance.fallback_total") == 0

    def test_non_llm_error_propagates_from_compile(self):
        """A bug in the client is not a degradation."""
        app = company_control.build()
        with pytest.raises(ZeroDivisionError):
            compile_program(
                app.program, app.glossary,
                llm=FailingLLM({1}, error=ZeroDivisionError),
            )
