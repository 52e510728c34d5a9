"""Ablation benches for the design choices called out in DESIGN.md.

* **Longest-prefix vs first-match** path selection (Section 4.3 picks the
  simple path covering the *most* chase steps; Example 4.7 explicitly
  prefers the three-rule path over the single-rule one) — first-match
  yields more, shorter segments and a longer, choppier explanation.
* **Aggregation variants on/off** — without the dashed paths, multi-input
  aggregations have no structurally matching template.
* **Token-presence guard on/off** — how many enhanced templates would
  silently lose tokens if the Section 4.4 preventive check were absent.
"""

from __future__ import annotations

from repro.apps import figures, generators
from repro.core import Explainer, StructuralAnalysis, TemplateStore, extract_tokens
from repro.core.enhancer import ENHANCEMENT_PROMPT, TemplateEnhancer
from repro.core.mapping import SegmentMatch, TemplateMapper
from repro.llm import SimulatedLLM

from _harness import emit, once


class FirstMatchMapper(TemplateMapper):
    """Ablated mapper: accepts the first full match instead of the
    longest-covering one."""

    @staticmethod
    def _prefer(challenger: SegmentMatch, incumbent: SegmentMatch) -> bool:
        return False  # keep whatever was found first


def test_ablation_longest_prefix_selection(benchmark):
    scenario = figures.figure8_instance()
    result = scenario.run()
    analysis = StructuralAnalysis(scenario.application.program)
    spine = result.spine(scenario.target)
    derivation = result.chase_result.derivation

    def run_both():
        greedy = TemplateMapper(analysis).map_spine(spine, derivation)
        first_match = FirstMatchMapper(analysis).map_spine(spine, derivation)
        return greedy, first_match

    greedy, first_match = once(benchmark, run_both)
    emit(
        "ablation_longest_prefix",
        "greedy (paper):      " + ", ".join(str(s) for s in greedy)
        + "\nfirst-match ablation: " + ", ".join(str(s) for s in first_match),
    )
    # The paper's greedy selection explains the same spine with fewer,
    # larger segments — the compactness the approach is designed around.
    assert len(greedy) <= len(first_match)
    assert greedy[0].coverage >= first_match[0].coverage
    # Example 4.7 specifically: greedy covers 3 steps with the first path.
    assert greedy[0].coverage == 3
    assert first_match[0].coverage == 1


def test_ablation_aggregation_variants(benchmark):
    """Disable the dashed variants: multi-input aggregation steps lose
    their structurally matching candidates and the mapper must fall back,
    mis-verbalizing the aggregation (or failing outright)."""
    scenario = figures.figure8_instance()
    result = scenario.run()
    analysis = StructuralAnalysis(scenario.application.program)

    class NoVariantAnalysis:
        """Proxy exposing only the base (plain) variants."""

        program = analysis.program
        critical_nodes = analysis.critical_nodes

        @staticmethod
        def simple_variants():
            return tuple(p.base_variant() for p in analysis.simple_paths)

        @staticmethod
        def cycle_variants():
            return tuple(c.base_variant() for c in analysis.cycles)

        all_variants = simple_variants() + cycle_variants()

    def map_without_variants():
        mapper = TemplateMapper(NoVariantAnalysis())  # type: ignore[arg-type]
        spine = result.spine(scenario.target)
        try:
            return mapper.map_spine(spine, result.chase_result.derivation)
        except Exception as error:  # noqa: BLE001 - ablation probes failure
            return error

    outcome = once(benchmark, map_without_variants)
    full = TemplateMapper(analysis).map_spine(
        result.spine(scenario.target), result.chase_result.derivation
    )
    multi_covered = any(segment.path.multi_rules for segment in full)
    emit(
        "ablation_aggregation_variants",
        f"with variants: {[str(s) for s in full]}\n"
        f"without variants: {outcome if isinstance(outcome, Exception) else [str(s) for s in outcome]}",
    )
    assert multi_covered, "the full system must use a dashed variant here"
    # Without variants the multi-input β step can no longer be matched by
    # a structurally faithful candidate.
    if not isinstance(outcome, Exception):
        assert all(not s.path.multi_rules for s in outcome)


def test_ablation_token_guard(benchmark):
    """Quantify what the Section 4.4 guard prevents: enhance every
    template of both production applications with the *lossy* LLM and
    count raw outputs that drop tokens."""
    from repro.apps import company_control, stress_test

    applications = [company_control.build(), stress_test.build()]
    lossy = SimulatedLLM(seed=23, faithful=False)

    def measure():
        attempts = 0
        silent_losses = 0
        for application in applications:
            store = TemplateStore(
                StructuralAnalysis(application.program), application.glossary
            )
            for template in store.templates():
                for _ in range(5):
                    attempts += 1
                    raw = lossy.complete(
                        ENHANCEMENT_PROMPT + template.deterministic_text
                    )
                    if not extract_tokens(raw) >= extract_tokens(
                        template.deterministic_text
                    ):
                        silent_losses += 1
        return attempts, silent_losses

    attempts, silent_losses = once(benchmark, measure)
    emit(
        "ablation_token_guard",
        f"raw enhancement outputs: {attempts}; outputs that silently lost "
        f"tokens (caught only by the guard): {silent_losses} "
        f"({silent_losses / attempts:.1%})",
    )
    # The guard exists because this is non-zero with a real(istic) LLM.
    assert silent_losses > 0

    # And with the guard in place, the stored templates never lose tokens.
    application = generators.control_chain(3, seed=0).application
    store = TemplateStore(
        StructuralAnalysis(application.program), application.glossary
    )
    TemplateEnhancer(lossy, max_attempts=6).enhance_store(store)
    for template in store.templates():
        for text in template.enhanced_texts:
            assert extract_tokens(text) >= extract_tokens(
                template.deterministic_text
            )
