"""Unit tests for the reasoning-task API."""

import pytest

from repro.datalog.atoms import Atom, fact
from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable
from repro.engine.reasoning import reason


@pytest.fixture()
def control_result():
    program = parse_program(
        """
        sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
        sigma2: Company(x) -> Control(x, x).
        sigma3: Control(x, z), Own(z, y, s), ts = sum(s), ts > 0.5 -> Control(x, y).
        """,
        name="cc",
        goal="Control",
    )
    facts = [
        fact("Own", "A", "B", 0.6),
        fact("Own", "B", "C", 0.55),
        fact("Company", "A"),
    ]
    return reason(program, facts)


class TestAnswers:
    def test_goal_answers(self, control_result):
        answers = set(control_result.answers())
        assert fact("Control", "A", "B") in answers
        assert fact("Control", "A", "C") in answers
        assert fact("Control", "A", "A") in answers  # auto-control (σ2)

    def test_answers_for_other_predicate(self, control_result):
        assert control_result.answers("Company") == (fact("Company", "A"),)

    def test_answers_requires_goal(self):
        program = parse_program("P(x) -> Q(x).", name="p")
        result = reason(program, [fact("P", "A")])
        with pytest.raises(ValueError):
            result.answers()

    def test_accepts_iterable_of_facts(self):
        program = parse_program("P(x) -> Q(x).", name="p", goal="Q")
        result = reason(program, [fact("P", "A")])
        assert result.answers() == (fact("Q", "A"),)


class TestQuery:
    def test_pattern_query(self, control_result):
        from repro.datalog.terms import Constant

        # Control(x, "C"): B directly (0.55 > 0.5) and A through B.
        matches = control_result.query(
            Atom("Control", (Variable("x"), Constant("C")))
        )
        assert set(matches) == {
            fact("Control", "B", "C"), fact("Control", "A", "C"),
        }

    def test_derived_listing(self, control_result):
        derived = control_result.derived()
        assert fact("Control", "A", "C") in derived

    def test_spine_accessor(self, control_result):
        spine = control_result.spine(fact("Control", "A", "C"))
        assert spine.rule_sequence == ("sigma1", "sigma3")

    def test_proof_size_accessor(self, control_result):
        assert control_result.proof_size(fact("Control", "A", "C")) == 2

    def test_describe_counts(self, control_result):
        assert "derived facts" in control_result.describe()


class TestCachedViews:
    def test_graph_is_cached(self, control_result):
        assert control_result.graph is control_result.graph

    def test_provenance_is_cached(self, control_result):
        assert control_result.index is control_result.index
