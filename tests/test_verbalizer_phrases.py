"""Full phrase coverage: every operator and aggregate verbalization, the
console entry point, and remaining rendering corners."""

import subprocess
import sys

import pytest

from repro.core import DomainGlossary, Explainer, Verbalizer
from repro.datalog import fact, parse_program, parse_rule
from repro.engine import reason


@pytest.fixture()
def plain_glossary():
    glossary = DomainGlossary()
    glossary.define("P", ["x", "a"], "<x> has value <a>")
    glossary.define("Q", ["x"], "<x> qualifies")
    glossary.define("R", ["x", "t"], "<x> totals <t>")
    return glossary


class TestOperatorPhrases:
    @pytest.mark.parametrize("operator,phrase", [
        (">", "is higher than"),
        ("<", "is lower than"),
        (">=", "is at least"),
        ("<=", "is at most"),
        ("==", "is equal to"),
        ("!=", "is different from"),
    ])
    def test_each_operator_verbalized(self, plain_glossary, operator, phrase):
        rule = parse_rule(f"P(x, a), a {operator} 5 -> Q(x)")
        sentence = Verbalizer(plain_glossary).rule_sentence(rule)
        assert f"<a> {phrase} 5" in sentence


class TestAggregatePhrases:
    @pytest.mark.parametrize("function,phrase", [
        ("sum", "the sum of"),
        ("prod", "the product of"),
        ("min", "the minimum of"),
        ("max", "the maximum of"),
        ("count", "the count of"),
    ])
    def test_each_aggregate_verbalized(self, plain_glossary, function, phrase):
        rule = parse_rule(f"P(x, a), t = {function}(a) -> R(x, t)")
        sentence = Verbalizer(plain_glossary).rule_sentence(
            rule, multi_contributors=True
        )
        assert f"with <t> given by {phrase} <a>" in sentence

    def test_min_aggregate_end_to_end(self, plain_glossary):
        program = parse_program(
            "r1: P(x, a), t = min(a) -> R(x, t).", name="m", goal="R"
        )
        result = reason(program, [fact("P", "X", 4), fact("P", "X", 9)])
        explainer = Explainer(result, plain_glossary)
        text = explainer.explain(fact("R", "X", 4), prefer_enhanced=False).text
        assert "with 4 given by the minimum of 4 and 9" in text


class TestArithmeticPhrases:
    def test_all_operators_in_conditions(self, plain_glossary):
        rule = parse_rule("P(x, a), a + 1 > a - 1, a * 2 >= a / 2 -> Q(x)")
        sentence = Verbalizer(plain_glossary).rule_sentence(rule)
        assert "<a> plus 1" in sentence
        assert "<a> minus 1" in sentence
        assert "<a> times 2" in sentence
        assert "<a> divided by 2" in sentence


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        # The console script only exists after `pip install -e .`; a plain
        # PYTHONPATH=src checkout falls back to the module entry point,
        # which runs the identical main().
        try:
            completed = subprocess.run(
                ["repro-explain", "analyse", "company_control"],
                capture_output=True, text=True, timeout=120,
            )
        except FileNotFoundError:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli",
                 "analyse", "company_control"],
                capture_output=True, text=True, timeout=120,
            )
        assert completed.returncode == 0
        assert "simple reasoning paths" in completed.stdout

    def test_module_invocation_runs(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "explain", "--app", "figure8",
             "--deterministic"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert "Q_e = {Default(C)}" in completed.stdout
