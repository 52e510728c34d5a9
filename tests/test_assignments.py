"""Tests for computed body assignments (Vadalog body expressions)."""

import pytest

from repro.core import DomainGlossary, Explainer, completeness_ratio
from repro.datalog import SafetyError, fact, parse_program, parse_rule
from repro.engine import reason


class TestParsing:
    def test_fresh_variable_becomes_assignment(self):
        rule = parse_rule("P(x, a, b), r = a + b -> Q(x, r)")
        assert len(rule.assignments) == 1
        assert rule.conditions == ()

    def test_bound_variable_becomes_equality_condition(self):
        rule = parse_rule('Risk(c, e, t), t = "long" -> L(c)')
        assert rule.assignments == ()
        assert len(rule.conditions) == 1
        assert rule.conditions[0].op == "=="

    def test_chained_assignments(self):
        rule = parse_rule("P(x, a), r = a * 2, s = r + 1 -> Q(x, s)")
        assert len(rule.assignments) == 2

    def test_aggregate_still_wins_over_assignment(self):
        rule = parse_rule("P(x, v), t = sum(v) -> Q(x, t)")
        assert rule.has_aggregate
        assert rule.assignments == ()

    def test_assignment_target_in_head_is_bound(self):
        rule = parse_rule("P(x, a), r = a + 1 -> Q(x, r)")
        assert rule.existentials == frozenset()

    def test_str_roundtrip(self):
        rule = parse_rule("P(x, a), r = a + 1 -> Q(x, r)")
        assert str(parse_rule(str(rule))) == str(rule)


class TestSafety:
    def test_unbound_expression_variable_rejected(self):
        with pytest.raises(SafetyError):
            parse_rule("P(x), r = zz + 1 -> Q(x, r)")

    def test_reassignment_becomes_equality(self):
        """The parser resolves a second `r = ...` over an assigned variable
        into an equality condition (both expressions must agree)."""
        rule = parse_rule("P(x, a), r = a + 1, r = a + 2 -> Q(x, r)")
        assert len(rule.assignments) == 1
        assert len(rule.conditions) == 1

    def test_direct_reassignment_rejected(self):
        from repro.datalog import Atom, Rule, Variable
        from repro.datalog.conditions import BinaryOp

        x, a, r = Variable("x"), Variable("a"), Variable("r")
        with pytest.raises(SafetyError):
            Rule(
                label="bad",
                body=(Atom("P", (x, a)),),
                head=Atom("Q", (x, r)),
                assignments=(
                    (r, BinaryOp("+", a, a)),
                    (r, BinaryOp("*", a, a)),
                ),
            )

    def test_condition_may_use_assigned_variable(self):
        rule = parse_rule("P(x, a), r = a * 2, r > 10 -> Q(x, r)")
        assert len(rule.conditions) == 1


class TestEvaluation:
    def test_arithmetic_assignment(self):
        program = parse_program(
            "r1: Loan(x, p, rate), i = p * rate -> Interest(x, i).",
            name="loans", goal="Interest",
        )
        result = reason(program, [fact("Loan", "L1", 200, 0.05)])
        assert result.answers() == (fact("Interest", "L1", 10),)

    def test_assignment_feeds_condition(self):
        program = parse_program(
            "r1: Loan(x, p, rate), i = p * rate, i > 5 -> Costly(x).",
            name="loans", goal="Costly",
        )
        result = reason(program, [
            fact("Loan", "Big", 200, 0.05), fact("Loan", "Small", 40, 0.05),
        ])
        assert result.answers() == (fact("Costly", "Big"),)

    def test_chained_evaluation(self):
        program = parse_program(
            "r1: P(x, a), r = a * 2, s = r + 1 -> Q(x, s).",
            name="chain", goal="Q",
        )
        result = reason(program, [fact("P", "X", 5)])
        assert result.answers() == (fact("Q", "X", 11),)

    def test_float_noise_rounded(self):
        program = parse_program(
            "r1: P(x, a, b), s = a + b -> Q(x, s).", name="fp", goal="Q"
        )
        result = reason(program, [fact("P", "X", 0.275, 0.295)])
        assert str(result.answers()[0].terms[1]) == "0.57"

    def test_assignment_with_aggregate(self):
        """Assignment computed per contributor, aggregate over results."""
        program = parse_program(
            "r1: Exposure(c, v, w), x = v * w, t = sum(x) -> Weighted(c, t).",
            name="weights", goal="Weighted",
        )
        result = reason(program, [
            fact("Exposure", "C", 10, 2), fact("Exposure", "C", 5, 4),
        ])
        assert result.answers() == (fact("Weighted", "C", 40),)

    def test_oracle_agrees(self):
        program = parse_program(
            "r1: Loan(x, p, rate), i = p * rate -> Interest(x, i).",
            name="loans", goal="Interest",
        )
        data = [fact("Loan", "L1", 200, 0.05), fact("Loan", "L2", 100, 0.1)]
        planned = reason(program, data)
        naive = reason(program, data, strategy="naive")
        assert set(naive.answers()) == set(planned.answers())


class TestExplanation:
    def test_assignment_verbalized_and_complete(self):
        program = parse_program(
            "r1: Loan(x, p, rate), i = p * rate, i > 5 -> Costly(x, i).",
            name="loans", goal="Costly",
        )
        result = reason(program, [fact("Loan", "L1", 100, 0.08)])
        glossary = DomainGlossary()
        glossary.define("Loan", ["x", "p", "r"],
                        "loan <x> has principal <p> at rate <r>")
        glossary.define("Costly", ["x", "i"],
                        "loan <x> is costly with interest <i>")
        explainer = Explainer(result, glossary)
        explanation = explainer.explain(
            fact("Costly", "L1", 8), prefer_enhanced=False
        )
        assert "8 being 100 times 0.08" in explanation.text
        constants = explainer.proof_constants(fact("Costly", "L1", 8))
        assert completeness_ratio(explanation.text, constants) == 1.0
