"""Unit tests for repro.datalog.terms."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    is_ground,
    make_term,
    term_syntax,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(5) == Constant(5)
        assert Constant("A") != Constant("B")

    def test_hashable(self):
        assert len({Constant(1), Constant(1), Constant(2)}) == 2

    def test_str_of_string_constant(self):
        assert str(Constant("IrishBank")) == "IrishBank"

    def test_str_of_integral_float_drops_decimal(self):
        assert str(Constant(7.0)) == "7"

    def test_str_of_fractional_float(self):
        assert str(Constant(0.55)) == "0.55"

    def test_is_numeric_for_numbers(self):
        assert Constant(3).is_numeric
        assert Constant(0.5).is_numeric

    def test_is_numeric_false_for_strings_and_bools(self):
        assert not Constant("x").is_numeric
        assert not Constant(True).is_numeric

    def test_int_and_float_constants_distinct_when_unequal(self):
        # Python equality: 5 == 5.0, so the dataclass treats them equal.
        assert Constant(5) == Constant(5.0)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_str(self):
        assert str(Variable("ts")) == "ts"


class TestNull:
    def test_equality_by_label(self):
        assert Null(3) == Null(3)
        assert Null(3) != Null(4)

    def test_str_format(self):
        assert str(Null(7)) == "_N7"


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        produced = {factory.fresh() for _ in range(100)}
        assert len(produced) == 100

    def test_start_offset(self):
        factory = NullFactory(start=10)
        assert factory.fresh() == Null(10)

    def test_two_factories_independent(self):
        first, second = NullFactory(), NullFactory()
        assert first.fresh() == second.fresh()


class TestGroundness:
    def test_constants_and_nulls_are_ground(self):
        assert is_ground(Constant(1))
        assert is_ground(Null(0))

    def test_variables_are_not_ground(self):
        assert not is_ground(Variable("x"))


class TestMakeTerm:
    def test_wraps_raw_values(self):
        assert make_term("A") == Constant("A")
        assert make_term(3) == Constant(3)
        assert make_term(0.5) == Constant(0.5)

    def test_passes_terms_through(self):
        variable = Variable("x")
        assert make_term(variable) is variable

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            make_term([1, 2])


class TestTermSyntaxDecision:
    """A string constant renders bare exactly when the parser reads the
    bare spelling back as that constant: ``[A-Z][A-Za-z0-9_]*``, ASCII
    only (the classes are code-point ranges)."""

    @settings(max_examples=300)
    @given(st.text())
    @example("")
    @example("_")
    @example("_Bank")
    @example("9Lives")
    @example("Ärzte")         # a non-ASCII capital
    @example("Bankß")         # a non-ASCII letter after an ASCII capital
    @example("B٣")            # a non-ASCII digit
    @example("IrishBank")
    @example("Bank\n")        # fullmatch, not match-up-to-newline
    def test_bare_exactly_when_the_pattern_matches(self, value):
        bare = term_syntax(Constant(value)) == value
        assert bare == bool(re.fullmatch(r"[A-Z][A-Za-z0-9_]*", value))
        if not bare:
            assert term_syntax(Constant(value)) == f'"{value}"'
