"""Tests for the library extensions: caching, adjacency, report CLI."""

import pytest

from repro.apps import figures, generators
from repro.core import Explainer
from repro.datalog.atoms import fact


class TestExplanationCaching:
    def test_same_query_returns_cached_object(self, figure8):
        scenario, result = figure8
        explainer = Explainer(result, scenario.application.glossary)
        first = explainer.explain(scenario.target)
        second = explainer.explain(scenario.target)
        assert first is second

    def test_different_options_not_conflated(self, figure8):
        scenario, result = figure8
        explainer = Explainer(result, scenario.application.glossary)
        enhanced = explainer.explain(scenario.target, prefer_enhanced=True)
        deterministic = explainer.explain(scenario.target, prefer_enhanced=False)
        assert enhanced is not deterministic

    def test_different_queries_not_conflated(self, figure8):
        scenario, result = figure8
        explainer = Explainer(result, scenario.application.glossary)
        assert explainer.explain(fact("Default", "A")) is not explainer.explain(
            fact("Default", "B")
        )


class TestPathAdjacency:
    def test_simple_path_adjacent_to_cycle(self, stress_simple_analysis):
        """The Example 4.7 composition: the three-rule simple path is
        adjacent to the β/γ cycle (Default feeds β's body)."""
        simple = next(
            p for p in stress_simple_analysis.simple_paths if len(p.rules) == 3
        )
        cycle = stress_simple_analysis.cycles[0]
        assert simple.is_adjacent_to(cycle)

    def test_cycle_self_adjacent(self, stress_simple_analysis):
        cycle = stress_simple_analysis.cycles[0]
        assert cycle.is_adjacent_to(cycle)

    def test_control_paths_adjacent_to_control_cycle(self, control_analysis):
        cycle = control_analysis.cycles[0]
        for path in control_analysis.simple_paths:
            assert path.is_adjacent_to(cycle)

    def test_mapper_compositions_are_adjacent(self, figure12_stress):
        """Every consecutive pair of mapped segments satisfies the paper's
        adjacency definition."""
        scenario, result = figure12_stress
        explainer = Explainer(result, scenario.application.glossary)
        explanation = explainer.explain(scenario.target)
        segments = explanation.segments
        for first, second in zip(segments, segments[1:]):
            assert first.path.is_adjacent_to(second.path)

    def test_non_adjacent_paths(self):
        """A path ending in Alert cannot feed the control cycle."""
        from repro.apps import golden_powers
        from repro.core import StructuralAnalysis

        analysis = StructuralAnalysis(golden_powers.build().program)
        alert_path = next(
            p for p in analysis.simple_paths
            if p.rules[-1].head_predicate == "Alert"
        )
        control_cycle = next(
            c for c in analysis.cycles if c.anchor == "Control"
        )
        assert not alert_path.is_adjacent_to(control_cycle)


class TestReportCli:
    def test_report_flag(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "rules.vada"
        program.write_text(
            "% @goal Control\n"
            "sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).\n"
        )
        data = tmp_path / "data.facts"
        data.write_text("Own(A, B, 0.7).\n")
        glossary = tmp_path / "g.json"
        glossary.write_text(
            '{"Own": {"params": ["x","y","s"], "text": "<x> owns <s> of <y>"},'
            ' "Control": {"params": ["x","y"], "text": "<x> controls <y>"}}'
        )
        code = main([
            "explain", "--program", str(program), "--data", str(data),
            "--glossary", str(glossary), "--report", "--deterministic",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("# Reasoning report")
        assert "## Control(A, B)" in output


class TestGeneratorRichness:
    def test_debts_per_hop_multiplies_contributions(self):
        scenario = generators.stress_cascade(2, seed=1, debts_per_hop=3)
        result = scenario.run()
        risk_records = [
            r for r in result.chase_result.records
            if r.fact.predicate == "Risk"
        ]
        assert all(len(r.contributors) == 3 for r in risk_records)
        # proof length unchanged by splitting the loans
        assert result.proof_size(scenario.target) == scenario.expected_steps

    def test_debts_per_hop_validation(self):
        with pytest.raises(ValueError):
            generators.stress_cascade(2, debts_per_hop=0)

    def test_rich_cascade_explained_with_dashed_variants(self):
        from repro.core import completeness_ratio

        scenario = generators.stress_with_steps(7, seed=2, debts_per_hop=2)
        result = scenario.run()
        explainer = Explainer(result, scenario.application.glossary)
        explanation = explainer.explain(scenario.target, prefer_enhanced=False)
        assert any(segment.path.multi_rules for segment in explanation.segments)
        constants = explainer.proof_constants(scenario.target)
        assert completeness_ratio(explanation.text, constants) == 1.0
