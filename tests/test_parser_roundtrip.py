"""Property-based parser fuzzing: render → parse → render is a fixpoint.

Random rules are assembled from the full feature surface (conditions,
arithmetic, aggregates, negation, assignments, constants of every kind),
rendered with ``str()`` and re-parsed; the round trip must be exact.
``parse_fact``'s one-scan path must agree with the tokenizer path on
any text at all.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Constraint, parse_constraint, parse_rule
from repro.datalog import parser
from repro.datalog.errors import ParseError
from repro.io import parse_fact
from repro.datalog.aggregates import AggregateSpec
from repro.datalog.conditions import BinaryOp, Comparison
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable

predicates = st.sampled_from(["Own", "Risk", "Debts", "HasCapital", "P", "Q"])
variable_names = st.sampled_from(["x", "y", "z", "s", "v", "c", "d", "p1"])
entity_constants = st.sampled_from(["A", "B", "IrishBank", "GridCo"])
string_constants = st.sampled_from(["long", "short", "ch1"])
number_constants = st.one_of(
    st.integers(min_value=0, max_value=999),
    st.sampled_from([0.5, 0.25, 3.75, 11.0]),
)

terms = st.one_of(
    variable_names.map(Variable),
    entity_constants.map(Constant),
    string_constants.map(Constant),
    number_constants.map(Constant),
)


@st.composite
def atoms(draw, min_vars: int = 0):
    predicate = draw(predicates)
    arity = draw(st.integers(min_value=max(1, min_vars), max_value=4))
    chosen = [draw(terms) for _ in range(arity)]
    for index in range(min_vars):
        chosen[index] = Variable(draw(variable_names))
    return Atom(predicate, tuple(chosen))


@st.composite
def expressions(draw, variables):
    depth = draw(st.integers(min_value=0, max_value=2))
    if depth == 0 or not variables:
        if variables and draw(st.booleans()):
            return draw(st.sampled_from(sorted(variables, key=str)))
        return Constant(draw(number_constants))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(expressions(variables))
    right = Constant(draw(st.integers(min_value=1, max_value=9)))
    return BinaryOp(op, left, right)


@st.composite
def rules(draw):
    body = tuple(
        draw(atoms(min_vars=1))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    body_vars = {v for atom in body for v in atom.variable_set()}
    conditions = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from([">", "<", ">=", "<=", "!="]))
        conditions.append(Comparison(
            op,
            draw(expressions(body_vars)),
            draw(expressions(body_vars)),
        ))
    negated = ()
    if body_vars and draw(st.booleans()):
        some = draw(st.sampled_from(sorted(body_vars, key=str)))
        negated = (Atom("Blocked", (some,)),)
    aggregate = None
    head_terms = tuple(
        draw(st.sampled_from(sorted(body_vars, key=str)))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ) if body_vars else (Constant("K"),)
    if body_vars and draw(st.booleans()):
        result = Variable("agg_out")
        argument = draw(st.sampled_from(sorted(body_vars, key=str)))
        aggregate = AggregateSpec(
            result, draw(st.sampled_from(["sum", "min", "max", "count"])),
            argument,
        )
        head_terms = head_terms + (result,)
    head = Atom("Head", head_terms)
    return Rule(
        label="fz",
        body=body,
        head=head,
        conditions=tuple(conditions),
        aggregate=aggregate,
        negated=negated,
    )


class TestRoundTrip:
    @settings(deadline=None, max_examples=150)
    @given(rules())
    def test_render_parse_render_fixpoint(self, rule):
        text = str(rule)
        reparsed = parse_rule(text, label="fz")
        assert str(reparsed) == text

    @settings(deadline=None, max_examples=100)
    @given(rules())
    def test_reparsed_rule_structurally_equal(self, rule):
        reparsed = parse_rule(str(rule), label="fz")
        assert reparsed.body == rule.body
        assert reparsed.head == rule.head
        assert reparsed.negated == rule.negated
        assert (reparsed.aggregate is None) == (rule.aggregate is None)
        if rule.aggregate is not None:
            assert reparsed.aggregate.function == rule.aggregate.function
            assert reparsed.aggregate.result == rule.aggregate.result

    @settings(deadline=None, max_examples=60)
    @given(rules())
    def test_constraint_roundtrip(self, rule):
        constraint = Constraint(
            label="cz", body=rule.body, conditions=(), negated=rule.negated
        )
        reparsed = parse_constraint(str(constraint), label="cz")
        assert str(reparsed) == str(constraint)


# ----------------------------------------------------------------------
# parse_fact: the one-scan path equals the tokenizer path
# ----------------------------------------------------------------------

def _outcome(parse, text: str) -> tuple:
    """What parsing ``text`` gives: the fact with every constant's type
    and exact value (``1`` vs ``1.0`` vs ``"1"``, ``0.0`` vs ``-0.0``),
    or the error message."""
    try:
        fact = parse(text)
    except ParseError as error:
        return ("error", str(error))
    return ("fact", fact, tuple(
        (type(term.value), repr(term.value)) for term in fact.terms
    ))


_term_texts = st.sampled_from([
    "A", "IrishBank", "C001x00467", "x", "_y", "0", "7", "007", "-5",
    "- 5", "-\n5", "--5", "-x", "0.5", "00.50", "-0", "-0.0", "1.",
    ".5", "1.2.3", "1e5", '"a, (b)"', '")"', '""', '"%"', '"#"',
    "9" * 5000, "-" + "9" * 5000, "9" * 5000 + ".5",
])
_gaps = st.sampled_from(["", " ", "\t", "\n", " % note\n", "#\n"])
_tails = st.sampled_from(["", ".", " . ", "..", ". % note", " # note", " x"])


@st.composite
def fact_like_texts(draw) -> str:
    """Texts near the ground-atom shape: any mix of terms, gaps, tails."""
    arguments = draw(st.lists(_term_texts, max_size=4))
    separator = draw(_gaps) + "," + draw(_gaps)
    return "{}{}{}({}){}".format(
        draw(_gaps), draw(st.sampled_from(["Own", "own", "P", "_Q"])),
        draw(_gaps), separator.join(arguments), draw(_tails),
    )


@st.composite
def ground_atoms(draw) -> Atom:
    predicate = draw(predicates)
    constants = st.one_of(
        entity_constants.map(Constant),
        string_constants.map(Constant),
        st.sampled_from(["a, (b)", "(", ")", ",", "x y"]).map(Constant),
        st.integers().map(Constant),
        st.floats(allow_nan=False, allow_infinity=False).map(Constant),
    )
    arity = draw(st.integers(min_value=1, max_value=4))
    return Atom(predicate, tuple(draw(constants) for _ in range(arity)))


class TestParseFactScanner:
    @settings(deadline=None, max_examples=400)
    @given(st.one_of(
        st.text(max_size=40),
        st.text(alphabet="Own(A, x1_)-.\"%#\n\t9", max_size=40),
        fact_like_texts(),
    ))
    @example('Control(A, "a, (b)", ")")')
    @example("Own(A, B, -5)")
    @example("Own(A, B, - 5)")
    @example("Own(A, B, 007)")
    @example("Own(A, B, " + "9" * 5000 + ")")
    @example("Own(A, B, 0.5).")
    @example("Own(A, B, 0.5) % a comment")
    @example("# a comment\nOwn(A, B, 0.5)")
    @example("Own(x, B, 0.5)")
    @example("Own(_x, B, 0.5)")
    @example("")
    def test_any_text_parses_as_the_tokenizer_path_says(self, text):
        assert _outcome(parse_fact, text) == _outcome(
            parser._parse_fact_tokens, text
        )

    @settings(deadline=None, max_examples=300)
    @given(ground_atoms())
    def test_a_rendered_fact_parses_as_the_tokenizer_path_says(self, fact):
        text = str(fact)
        assert _outcome(parse_fact, text) == _outcome(
            parser._parse_fact_tokens, text
        )

    @settings(deadline=None, max_examples=100)
    @given(ground_atoms().filter(
        lambda fact: all(isinstance(t.value, str) for t in fact.terms)
    ))
    def test_a_rendered_entity_fact_takes_the_scan(self, fact):
        # What a client sends as a query: str() of a derived fact.
        assert parser._scan_fact(str(fact)) == fact
