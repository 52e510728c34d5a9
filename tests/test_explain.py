"""End-to-end tests for the Explainer facade — Examples 4.7/4.8, Section 5."""

import pytest

from repro.apps import figures, generators
from repro.core.explain import Explainer
from repro.core.validation import completeness_ratio
from repro.datalog.atoms import fact


class TestFigure8Explanation:
    def test_paths_used_match_example_47(self, figure8_explainer):
        explanation = figure8_explainer.explain(
            fact("Default", "C"), prefer_enhanced=False
        )
        assert explanation.paths_used() == ("Pi2", "Gamma1")

    def test_example_48_constants_all_present(self, figure8_explainer):
        explanation = figure8_explainer.explain(
            fact("Default", "C"), prefer_enhanced=False
        )
        for constant in ("A", "B", "C", "6", "5", "7", "2", "9", "11", "10"):
            assert constant in explanation.constants()

    def test_example_48_narrative_elements(self, figure8_explainer):
        text = figure8_explainer.explain(
            fact("Default", "C"), prefer_enhanced=False
        ).text
        assert "sum of 2 and 9" in text
        assert "A is in default" in text
        assert "C is in default" in text

    def test_no_leftover_tokens(self, figure8_explainer):
        text = figure8_explainer.explain(fact("Default", "C")).text
        assert "<" not in text and ">" not in text

    def test_intermediate_fact_explained(self, figure8_explainer):
        explanation = figure8_explainer.explain(fact("Default", "A"))
        assert explanation.paths_used() == ("Pi1",)

    def test_extensional_fact_rejected(self, figure8_explainer):
        with pytest.raises(KeyError):
            figure8_explainer.explain(fact("Shock", "A", 6))

    def test_full_completeness(self, figure8_explainer):
        explanation = figure8_explainer.explain(
            fact("Default", "C"), prefer_enhanced=False
        )
        constants = figure8_explainer.proof_constants(fact("Default", "C"))
        assert completeness_ratio(explanation.text, constants) == 1.0


class TestEnhancedExplanations:
    def test_enhanced_text_differs_but_keeps_constants(self, figure8, faithful_llm):
        scenario, result = figure8
        explainer = Explainer(result, scenario.application.glossary, llm=faithful_llm)
        enhanced = explainer.explain(fact("Default", "C"), prefer_enhanced=True)
        deterministic = explainer.explain(
            fact("Default", "C"), prefer_enhanced=False
        )
        assert enhanced.text != deterministic.text
        constants = explainer.proof_constants(fact("Default", "C"))
        assert completeness_ratio(enhanced.text, constants) == 1.0

    def test_interchangeable_versions(self, figure8, faithful_llm):
        scenario, result = figure8
        explainer = Explainer(
            result, scenario.application.glossary,
            llm=faithful_llm, enhanced_versions=2,
        )
        first = explainer.explain(fact("Default", "C"), variant_index=0).text
        second = explainer.explain(fact("Default", "C"), variant_index=1).text
        assert first != second

    def test_enhancement_report_available(self, figure8, faithful_llm):
        scenario, result = figure8
        explainer = Explainer(result, scenario.application.glossary, llm=faithful_llm)
        assert explainer.enhancement_report is not None
        assert explainer.enhancement_report.enhanced > 0


class TestDeterministicBaseline:
    def test_baseline_mentions_every_step(self, figure8_explainer):
        text = figure8_explainer.deterministic_explanation(fact("Default", "C"))
        assert text.count("Since ") == 5

    def test_baseline_is_complete(self, figure8_explainer):
        text = figure8_explainer.deterministic_explanation(fact("Default", "C"))
        constants = figure8_explainer.proof_constants(fact("Default", "C"))
        assert completeness_ratio(text, constants) == 1.0


class TestExplanationHash:
    def test_equal_explanations_hash_equal(self):
        # The derived hash hashed segments, whose matches hold dicts:
        # hash() of any explanation raised TypeError.
        explanations = []
        for _ in range(2):
            scenario = figures.figure15_instance()
            result = scenario.application.reason(scenario.database)
            explainer = Explainer(result, scenario.application.glossary)
            explanations.append(explainer.explain(scenario.target))
        first, second = explanations
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert second in {first}
        assert {first: "kept"}[second] == "kept"


class TestSideBranchRecursion:
    def test_independent_shock_explained_too(self):
        """Two independent shocks both feed C's default: the off-spine
        branch gets its own prepended story (extension, see explain.py)."""
        from repro.apps import stress_test
        from repro.engine import reason

        application = stress_test.build_simple()
        facts = [
            fact("Shock", "A", 9), fact("HasCapital", "A", 5),
            fact("Shock", "B", 9), fact("HasCapital", "B", 2),
            fact("Debts", "A", "C", 3), fact("Debts", "B", "C", 4),
            fact("HasCapital", "C", 6),
        ]
        result = reason(application.program, facts)
        explainer = Explainer(result, application.glossary)
        explanation = explainer.explain(fact("Default", "C"), prefer_enhanced=False)
        constants = explainer.proof_constants(fact("Default", "C"))
        assert completeness_ratio(explanation.text, constants) == 1.0
        # Both shocked entities appear in the narrative.
        assert "A" in explanation.constants()
        assert "B" in explanation.constants()

    def test_side_branches_can_be_disabled(self):
        from repro.apps import stress_test
        from repro.engine import reason

        application = stress_test.build_simple()
        facts = [
            fact("Shock", "A", 9), fact("HasCapital", "A", 5),
            fact("Shock", "B", 9), fact("HasCapital", "B", 2),
            fact("Debts", "A", "C", 3), fact("Debts", "B", "C", 4),
            fact("HasCapital", "C", 6),
        ]
        result = reason(application.program, facts)
        explainer = Explainer(result, application.glossary)
        with_sides = explainer.explain(fact("Default", "C"))
        without = explainer.explain(
            fact("Default", "C"), include_side_branches=False
        )
        assert len(without.text) <= len(with_sides.text)
        assert without.side_explanations == ()


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("steps", [1, 3, 5, 8, 13])
    def test_control_chains_fully_explained(self, steps):
        scenario = generators.control_with_steps(steps, seed=steps)
        result = scenario.run()
        explainer = Explainer(result, scenario.application.glossary)
        explanation = explainer.explain(scenario.target, prefer_enhanced=False)
        constants = explainer.proof_constants(scenario.target)
        assert completeness_ratio(explanation.text, constants) == 1.0

    @pytest.mark.parametrize("steps", [1, 3, 4, 7, 10])
    def test_stress_cascades_fully_explained(self, steps):
        scenario = generators.stress_with_steps(steps, seed=steps)
        result = scenario.run()
        explainer = Explainer(result, scenario.application.glossary)
        explanation = explainer.explain(scenario.target, prefer_enhanced=False)
        constants = explainer.proof_constants(scenario.target)
        assert completeness_ratio(explanation.text, constants) == 1.0

    def test_close_links_scenario_explained(self):
        scenario = generators.close_links_common_control(seed=4)
        result = scenario.run()
        explainer = Explainer(result, scenario.application.glossary)
        explanation = explainer.explain(scenario.target, prefer_enhanced=False)
        constants = explainer.proof_constants(scenario.target)
        assert completeness_ratio(explanation.text, constants) == 1.0
