"""Unit tests for the verbalizer — paper Section 4.2 and Figure 6."""

import pytest

from repro.core.structural import StructuralAnalysis
from repro.core.verbalizer import (
    PathTokenMap,
    Verbalizer,
    build_path_tokens,
    render_constant,
)
from repro.datalog.atoms import fact
from repro.datalog.terms import Constant


@pytest.fixture()
def verbalizer(stress_simple_app):
    return Verbalizer(stress_simple_app.glossary)


@pytest.fixture()
def paths(stress_simple_analysis):
    by_size = {}
    for path in stress_simple_analysis.simple_paths:
        by_size[len(path.rules)] = path
    return by_size


class TestRenderConstant:
    def test_integral_float(self):
        assert render_constant(Constant(7.0)) == "7"

    def test_string(self):
        assert render_constant(Constant("long")) == "long"


class TestRuleSentences:
    def test_alpha_sentence_shape(self, verbalizer, stress_simple_app):
        rule = stress_simple_app.program.rule("alpha")
        sentence = verbalizer.rule_sentence(rule)
        assert sentence.startswith("Since ")
        assert ", then <f> is in default." in sentence
        assert "<s> is higher than <p1>" in sentence

    def test_gamma_uses_is_lower_than(self, verbalizer, stress_simple_app):
        rule = stress_simple_app.program.rule("gamma")
        sentence = verbalizer.rule_sentence(rule)
        assert "<p2> is lower than <e>" in sentence

    def test_aggregate_truncated_in_single_mode(self, verbalizer, stress_simple_app):
        """Single-contributor aggregations read like plain rules (§4.2)."""
        rule = stress_simple_app.program.rule("beta")
        sentence = verbalizer.rule_sentence(rule, multi_contributors=False)
        assert "sum" not in sentence

    def test_aggregate_verbalized_in_multi_mode(self, verbalizer, stress_simple_app):
        rule = stress_simple_app.program.rule("beta")
        sentence = verbalizer.rule_sentence(rule, multi_contributors=True)
        assert "with <e> given by the sum of <v>" in sentence


class TestPathTokens:
    def test_contributor_variables_keep_their_own_tokens(self, paths):
        """β aggregates over its contributors, so its <d> stays distinct
        from α's <f> — exactly the paper's Figure 6 Π2 template, which
        writes "...then <f> is in default. Since <d> is in default, ..."."""
        path = paths[3]
        tokens = build_path_tokens(path)
        assert tokens.token("alpha", "f") != tokens.token("beta", "d")

    def test_group_variables_inherited_through_aggregates(self, paths):
        """γ consumes β's Risk(c, e): c is β's group variable, shared."""
        path = paths[3]
        tokens = build_path_tokens(path)
        assert tokens.token("beta", "c") == tokens.token("gamma", "c")

    def test_same_name_different_rules_distinct_when_not_unified(self):
        """In company control Π = {σ1, σ3}, σ1's y (the intermediary) and
        σ3's y (the target) are different entities: distinct tokens.  σ3's
        grouping variable x, however, is inherited from σ1's head."""
        from repro.apps import company_control

        application = company_control.build()
        analysis = StructuralAnalysis(application.program)
        path = next(
            p for p in analysis.simple_paths
            if frozenset(p.labels) == frozenset({"sigma1", "sigma3"})
        )
        tokens = build_path_tokens(path)
        assert tokens.token("sigma1", "y") != tokens.token("sigma3", "y")
        assert tokens.token("sigma3", "x") == tokens.token("sigma1", "x")
        # z runs over σ3's contributors: its own token, not σ1's y.
        assert tokens.token("sigma3", "z") != tokens.token("sigma1", "y")

    def test_all_rule_variables_tokenized(self, paths):
        path = paths[3]
        tokens = build_path_tokens(path)
        for rule in path.rules:
            for variable in rule.body_variables():
                assert tokens.token(rule.label, variable)


class TestPathText:
    def test_figure6_pi2_template(self, verbalizer, paths):
        """The deterministic template of the three-rule path mirrors the
        Figure 6 Π2 row."""
        text, tokens = verbalizer.path_text(paths[3].base_variant())
        assert text.count("Since ") == 3
        assert "a shock amounting to <s>" in text
        assert "sum" not in text  # single-contributor variant

    def test_figure6_pi3_template_has_aggregation(self, verbalizer, paths):
        multi = next(
            v for v in paths[3].variants() if v.multi_rules == frozenset({"beta"})
        )
        text, __ = verbalizer.path_text(multi)
        assert "given by the sum of <v>" in text

    def test_token_map_covers_text_tokens(self, verbalizer, paths):
        from repro.core.templates import extract_tokens

        text, tokens = verbalizer.path_text(paths[3])
        assert extract_tokens(text) <= tokens.tokens()


class TestInstanceVerbalization:
    def test_step_sentence_with_constants(self, figure8, verbalizer):
        __, result = figure8
        record = result.chase_result.record_for(fact("Default", "A"))
        sentence = verbalizer.step_sentence(record)
        assert "a shock amounting to 6" in sentence
        assert "then A is in default." in sentence
        assert "6 is higher than 5" in sentence

    def test_multi_aggregate_step_lists_contributions(self, figure8, verbalizer):
        __, result = figure8
        record = result.chase_result.record_for(fact("Risk", "C", 11))
        sentence = verbalizer.step_sentence(record)
        assert "11 is given by the sum of 2 and 9" in sentence

    def test_proof_text_one_sentence_per_step(self, figure8, verbalizer):
        __, result = figure8
        records = result.index.proof_records(fact("Default", "C"))
        text = verbalizer.proof_text(records)
        assert text.count("Since ") == 5
