"""Tests for why-not explanations (non-answers)."""

import pytest

from repro.apps import company_control, golden_powers, stress_test
from repro.core.whynot import WhyNotExplainer
from repro.datalog import fact


@pytest.fixture()
def surviving_creditor():
    """A defaults; B is exposed for less than its capital — no cascade."""
    application = stress_test.build()
    result = application.reason([
        stress_test.shock("A", 9), stress_test.has_capital("A", 5),
        stress_test.has_capital("B", 9),
        stress_test.long_term_debt("A", "B", 4),
    ])
    return WhyNotExplainer(result, application.glossary)


class TestConditions:
    def test_failing_threshold_verbalized_with_values(self, surviving_creditor):
        answer = surviving_creditor.explain_why_not(fact("Default", "B"))
        assert "4 is not such that it is higher than 9" in answer.text
        condition_obstacles = [
            o for o in answer.obstacles if o.kind == "condition"
        ]
        assert any(o.rule.label == "sigma7" for o in condition_obstacles)

    def test_shock_below_capital(self):
        application = stress_test.build()
        result = application.reason([
            stress_test.shock("A", 3), stress_test.has_capital("A", 5),
        ])
        explainer = WhyNotExplainer(result, application.glossary)
        answer = explainer.explain_why_not(fact("Default", "A"))
        assert "3 is not such that it is higher than 5" in answer.text


class TestMissingPremises:
    def test_missing_shock_reported(self, surviving_creditor):
        answer = surviving_creditor.explain_why_not(fact("Default", "C"))
        assert "no evidence" in answer.text

    def test_unbound_positions_rendered_as_something(self, surviving_creditor):
        answer = surviving_creditor.explain_why_not(fact("Default", "C"))
        assert "something" in answer.text

    def test_aggregation_below_majority(self):
        application = company_control.build()
        result = application.reason([
            company_control.own("H", "S1", 0.8),
            company_control.own("S1", "T", 0.3),
        ])
        explainer = WhyNotExplainer(result, application.glossary)
        answer = explainer.explain_why_not(fact("Control", "H", "T"))
        # σ3's aggregate over the single 0.3 contribution fails ts > 0.5.
        assert "0.3 is not such that it is higher than 0.5" in answer.text


class TestNegationBlockers:
    def test_exemption_blocks_alert(self):
        application = golden_powers.build()
        result = application.reason([
            golden_powers.own("F", "S", 0.9),
            golden_powers.foreign("F"), golden_powers.strategic("S"),
            golden_powers.exempt("F"),
        ])
        explainer = WhyNotExplainer(result, application.glossary)
        answer = explainer.explain_why_not(fact("Alert", "F", "S"))
        blockers = [o for o in answer.obstacles if o.kind == "negation"]
        assert blockers
        assert "F holds a golden-power exemption" in answer.text


class TestApiContract:
    def test_derived_fact_rejected(self, surviving_creditor):
        with pytest.raises(ValueError):
            surviving_creditor.explain_why_not(fact("Default", "A"))

    def test_edb_fact_rejected(self, surviving_creditor):
        with pytest.raises(ValueError):
            surviving_creditor.explain_why_not(fact("HasCapital", "A", 5))

    def test_underivable_predicate(self, surviving_creditor):
        answer = surviving_creditor.explain_why_not(
            fact("Shock", "Z", 1)
        )
        assert "could only hold as input data" in answer.text
        assert answer.obstacles == ()

    def test_every_candidate_rule_reported(self, surviving_creditor):
        answer = surviving_creditor.explain_why_not(fact("Default", "B"))
        labels = {o.rule.label for o in answer.obstacles}
        assert labels == {"sigma4", "sigma7"}


class TestGroupAggregates:
    def test_group_total_reported_not_single_contribution(self):
        """H holds 0.25 + 0.2 via two subsidiaries: the report must state
        the group total 0.45, not either individual stake."""
        application = company_control.build()
        result = application.reason([
            company_control.own("H", "S1", 0.8),
            company_control.own("H", "S2", 0.9),
            company_control.own("S1", "T", 0.25),
            company_control.own("S2", "T", 0.2),
        ])
        explainer = WhyNotExplainer(result, application.glossary)
        answer = explainer.explain_why_not(fact("Control", "H", "T"))
        assert "0.45 is not such that it is higher than 0.5" in answer.text


class TestExplainViolation:
    """Constraint-violation reports (Explainer.explain_violation)."""

    @staticmethod
    def _vetoed_takeover():
        """F (vetoed, foreign) takes 90% of strategic S: Alert(F, S) is
        derived and kappa1 (Alert + Vetoed -> false) is violated."""
        application = golden_powers.build()
        result = application.reason([
            golden_powers.own("F", "S", 0.9),
            golden_powers.foreign("F"), golden_powers.strategic("S"),
            golden_powers.vetoed("F"),
        ])
        return application.explainer(result), result

    def test_violation_found_and_reported(self):
        explainer, result = self._vetoed_takeover()
        assert result.violations
        violation = result.violations[0]
        report = explainer.explain_violation(violation)
        assert "violates constraint kappa1" in report
        assert "must not hold together" in report
        # The derived witness's own story precedes the verdict.
        assert "F" in report and "S" in report

    def test_no_violation_without_veto(self):
        application = golden_powers.build()
        result = application.reason([
            golden_powers.own("F", "S", 0.9),
            golden_powers.foreign("F"), golden_powers.strategic("S"),
        ])
        assert result.violations == ()

    def test_second_call_is_cached_and_identical(self):
        explainer, result = self._vetoed_takeover()
        violation = result.violations[0]
        first = explainer.explain_violation(violation)
        second = explainer.explain_violation(violation)
        assert first is second  # served from the violation region
        region = explainer._violation_region
        assert region.stats.misses == 1
        assert region.stats.hits == 1
        # A different option set is keyed apart, not served stale.
        bare = explainer.explain_violation(violation, prefer_enhanced=False)
        assert region.stats.misses == 2
        assert bare == explainer.explain_violation(
            violation, prefer_enhanced=False
        )


class TestValueMismatch:
    def test_actual_aggregate_total_reported(self):
        """Querying the wrong integrated stake reports the real total."""
        from repro.apps import integrated_ownership as io_app

        application = io_app.build()
        result = application.reason([io_app.own("Rival", "OperCo", 0.25)])
        explainer = WhyNotExplainer(result, application.glossary)
        answer = explainer.explain_why_not(
            fact("IntOwn", "Rival", "OperCo", 0.3)
        )
        assert "its aggregate totals 0.25, not 0.3" in answer.text
        assert any(o.kind == "value-mismatch" for o in answer.obstacles)
