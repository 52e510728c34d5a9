"""Parser for the Vadalog-like textual rule syntax.

The grammar covers exactly the language fragment used by the paper's
knowledge-graph applications:

.. code-block:: text

    program   := (rule ".")* | rule ("\\n" rule)*
    rule      := [label ":"] body "->" (atom | "false")
    body      := item ("," item)*
    item      := ["not"] atom | comparison | aggregate
    atom      := PREDICATE "(" term ("," term)* ")"
    aggregate := VARIABLE "=" FUNC "(" expr ")"
    comparison:= expr OP expr          with OP in  > < >= <= == != =
    expr      := sum of products over terms, with ( ) grouping
    term      := VARIABLE | NUMBER | STRING | SYMBOL

Lexical conventions (matching the paper's notation):

* identifiers starting with a lowercase letter are **variables**;
* identifiers starting with an uppercase letter inside an atom's argument
  list or in expressions are **symbolic constants** (entity names);
* numbers are ints or floats; strings use double quotes;
* ``not Atom(...)`` negates a body atom (stratified semantics) and a
  ``false`` head turns the rule into a negative constraint φ → ⊥;
* ``%`` and ``#`` start a comment running to end of line;
* a rule may be prefixed with ``label:`` to name it (``sigma1: ...``);
  unlabelled rules receive ``r1``, ``r2``, … in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .aggregates import AGGREGATE_FUNCTIONS, AggregateSpec
from .atoms import Atom
from .conditions import BinaryOp, Comparison, Expression
from .errors import ParseError
from .program import Program
from .rules import Constraint, Rule
from .terms import Term, Variable, intern_constant

# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

_TOKEN_SPEC = [
    ("ARROW", r"->"),
    ("NUMBER", r"\d+\.\d+|\d+"),
    ("STRING", r'"[^"]*"'),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r">=|<=|==|!=|>|<|="),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("STAR", r"\*"),
    ("SLASH", r"/"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("COLON", r":"),
    ("DOT", r"\."),
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"[%#][^\n]*"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError("unexpected character", text, position)
        kind = match.lastgroup or ""
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _TokenStream:
    """Cursor over the token list with one-token lookahead."""

    def __init__(self, tokens: list[_Token], text: str):
        self._tokens = tokens
        self._text = text
        self._index = 0

    def peek(self, offset: int = 0) -> _Token | None:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self._text, len(self._text))
        self._index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.kind} ({token.text!r})",
                self._text,
                token.position,
            )
        return token

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    def error(self, message: str) -> ParseError:
        token = self.peek()
        position = token.position if token else len(self._text)
        return ParseError(message, self._text, position)


# ----------------------------------------------------------------------
# Recursive-descent parser
# ----------------------------------------------------------------------


def _number(token: _Token, stream: _TokenStream) -> int | float:
    try:
        return float(token.text) if "." in token.text else int(token.text)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            f"number literal of {len(token.text)} characters is too long",
            stream._text, token.position,
        )


def _parse_term(stream: _TokenStream) -> Term:
    # Constants are pooled (terms.intern_constant): repeated literals in
    # programs and fact files share one object per (type, value).
    token = stream.next()
    if token.kind == "NUMBER":
        return intern_constant(_number(token, stream))
    if token.kind == "STRING":
        return intern_constant(token.text[1:-1])
    if token.kind == "IDENT":
        if token.text[0].islower() or token.text[0] == "_":
            return Variable(token.text)
        return intern_constant(token.text)
    if token.kind == "MINUS":
        return intern_constant(-_number(stream.expect("NUMBER"), stream))
    raise ParseError(f"expected a term, found {token.text!r}", stream._text, token.position)


def _parse_primary(stream: _TokenStream) -> Expression:
    token = stream.peek()
    if token is not None and token.kind == "LPAREN":
        stream.next()
        inner = _parse_expression(stream)
        stream.expect("RPAREN")
        return inner
    return _parse_term(stream)


def _parse_product(stream: _TokenStream) -> Expression:
    left = _parse_primary(stream)
    while True:
        token = stream.peek()
        if token is None or token.kind not in ("STAR", "SLASH"):
            return left
        stream.next()
        right = _parse_primary(stream)
        left = BinaryOp("*" if token.kind == "STAR" else "/", left, right)


def _parse_expression(stream: _TokenStream) -> Expression:
    left = _parse_product(stream)
    while True:
        token = stream.peek()
        if token is None or token.kind not in ("PLUS", "MINUS"):
            return left
        stream.next()
        right = _parse_product(stream)
        left = BinaryOp("+" if token.kind == "PLUS" else "-", left, right)


def _parse_atom(stream: _TokenStream) -> Atom:
    name = stream.expect("IDENT")
    stream.expect("LPAREN")
    terms: list[Term] = [_parse_term(stream)]
    while stream.peek() is not None and stream.peek().kind == "COMMA":  # type: ignore[union-attr]
        stream.next()
        terms.append(_parse_term(stream))
    stream.expect("RPAREN")
    return Atom(name.text, tuple(terms))


def _looks_like_atom(stream: _TokenStream) -> bool:
    first, second = stream.peek(), stream.peek(1)
    return (
        first is not None
        and first.kind == "IDENT"
        and first.text[0].isupper()
        and second is not None
        and second.kind == "LPAREN"
    )


def _looks_like_negated_atom(stream: _TokenStream) -> bool:
    first, second, third = (stream.peek(i) for i in range(3))
    return (
        first is not None and first.kind == "IDENT" and first.text == "not"
        and second is not None and second.kind == "IDENT"
        and second.text[0].isupper()
        and third is not None and third.kind == "LPAREN"
    )


def _looks_like_aggregate(stream: _TokenStream) -> bool:
    first, second, third, fourth = (stream.peek(i) for i in range(4))
    return (
        first is not None and first.kind == "IDENT"
        and second is not None and second.kind == "OP" and second.text == "="
        and third is not None and third.kind == "IDENT"
        and third.text in AGGREGATE_FUNCTIONS
        and fourth is not None and fourth.kind == "LPAREN"
    )


def _parse_aggregate(stream: _TokenStream) -> AggregateSpec:
    result = stream.expect("IDENT")
    stream.expect("OP")  # '='
    function = stream.expect("IDENT")
    stream.expect("LPAREN")
    argument = _parse_expression(stream)
    stream.expect("RPAREN")
    return AggregateSpec(Variable(result.text), function.text, argument)


def _parse_comparison(stream: _TokenStream) -> Comparison:
    left = _parse_expression(stream)
    op_token = stream.expect("OP")
    op = "==" if op_token.text == "=" else op_token.text
    right = _parse_expression(stream)
    return Comparison(op, left, right)


class _NegatedAtom:
    """Parser-internal wrapper marking a 'not P(...)' body item."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom


class _Equality:
    """Parser-internal ``var = expr`` item: resolved at rule assembly into
    either an equality condition (var bound by the body) or a computed
    assignment (var fresh)."""

    __slots__ = ("variable", "expression")

    def __init__(self, variable: Variable, expression):
        self.variable = variable
        self.expression = expression


def _looks_like_equality(stream: _TokenStream) -> bool:
    first, second = stream.peek(), stream.peek(1)
    return (
        first is not None and first.kind == "IDENT"
        and (first.text[0].islower() or first.text[0] == "_")
        and second is not None and second.kind == "OP" and second.text == "="
    )


def _parse_body_item(
    stream: _TokenStream,
) -> Atom | _NegatedAtom | Comparison | AggregateSpec | _Equality:
    if _looks_like_negated_atom(stream):
        stream.next()  # consume 'not'
        return _NegatedAtom(_parse_atom(stream))
    if _looks_like_aggregate(stream):
        return _parse_aggregate(stream)
    if _looks_like_atom(stream):
        return _parse_atom(stream)
    if _looks_like_equality(stream):
        variable = Variable(stream.next().text)
        stream.next()  # consume '='
        return _Equality(variable, _parse_expression(stream))
    return _parse_comparison(stream)


def _parse_rule_tokens(
    stream: _TokenStream, default_label: str
) -> Rule | Constraint:
    label = default_label
    first, second = stream.peek(), stream.peek(1)
    if (
        first is not None and first.kind == "IDENT"
        and second is not None and second.kind == "COLON"
    ):
        label = first.text
        stream.next()
        stream.next()

    body: list[Atom] = []
    negated: list[Atom] = []
    conditions: list[Comparison] = []
    equalities: list[_Equality] = []
    aggregate: AggregateSpec | None = None
    while True:
        item = _parse_body_item(stream)
        if isinstance(item, _NegatedAtom):
            negated.append(item.atom)
        elif isinstance(item, Atom):
            body.append(item)
        elif isinstance(item, Comparison):
            conditions.append(item)
        elif isinstance(item, _Equality):
            equalities.append(item)
        else:
            if aggregate is not None:
                raise stream.error("at most one aggregate per rule is supported")
            aggregate = item
        token = stream.next()
        if token.kind == "ARROW":
            break
        if token.kind != "COMMA":
            raise ParseError(
                f"expected ',' or '->' but found {token.text!r}",
                stream._text,
                token.position,
            )
    head_token = stream.peek()
    is_constraint = (
        head_token is not None
        and head_token.kind == "IDENT"
        and head_token.text in ("false", "False")
        and (stream.peek(1) is None or stream.peek(1).kind != "LPAREN")  # type: ignore[union-attr]
    )
    # Resolve var = expr items: an equality over a body-bound variable is
    # a comparison; over a fresh variable it is a computed assignment.
    body_variables = {v for atom in body for v in atom.variable_set()}
    assignments: list[tuple[Variable, object]] = []
    assigned: set[Variable] = set()
    for equality in equalities:
        if equality.variable in body_variables or equality.variable in assigned:
            conditions.append(
                Comparison("==", equality.variable, equality.expression)
            )
        else:
            assignments.append((equality.variable, equality.expression))
            assigned.add(equality.variable)
    if is_constraint:
        stream.next()
        if stream.peek() is not None and stream.peek().kind == "DOT":  # type: ignore[union-attr]
            stream.next()
        if aggregate is not None:
            raise stream.error("constraints cannot carry aggregates")
        if assignments:
            raise stream.error("constraints cannot carry assignments")
        return Constraint(
            label=label,
            body=tuple(body),
            conditions=tuple(conditions),
            negated=tuple(negated),
        )
    head = _parse_atom(stream)
    if stream.peek() is not None and stream.peek().kind == "DOT":  # type: ignore[union-attr]
        stream.next()
    return Rule(
        label=label,
        body=tuple(body),
        head=head,
        conditions=tuple(conditions),
        aggregate=aggregate,
        negated=tuple(negated),
        assignments=tuple(assignments),
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def parse_rule(text: str, label: str = "r1") -> Rule:
    """Parse a single rule, e.g.::

        parse_rule("Own(x,y,s), s > 0.5 -> Control(x,y)", label="sigma1")
    """
    stream = _TokenStream(_tokenize(text), text)
    rule = _parse_rule_tokens(stream, label)
    if not stream.at_end():
        raise stream.error("trailing input after rule")
    if isinstance(rule, Constraint):
        raise ParseError("expected a rule, found a constraint", text, 0)
    return rule


def parse_constraint(text: str, label: str = "c1") -> Constraint:
    """Parse a single negative constraint, e.g.::

        parse_constraint("Control(x, y), Control(y, x), x != y -> false")
    """
    stream = _TokenStream(_tokenize(text), text)
    constraint = _parse_rule_tokens(stream, label)
    if not stream.at_end():
        raise stream.error("trailing input after constraint")
    if not isinstance(constraint, Constraint):
        raise ParseError("expected a constraint (head 'false')", text, 0)
    return constraint


# ----------------------------------------------------------------------
# Ground atoms: one regex scan, the token path as its fallback
# ----------------------------------------------------------------------

# The common shape of a served query or fact-file line — a predicate and
# its comma-separated constants, optional whitespace and trailing dot —
# recognised in one scan.  Built from the tokenizer's own patterns, so
# every text the scan accepts splits into exactly the tokens _tokenize
# would give it.  Anything else (comments, variables, malformed input)
# takes the token path, which owns every error message.
_SPEC = dict(_TOKEN_SPEC)
_WS = f"(?:{_SPEC['WS']})?"
_GROUND_TERM = (
    f"(-{_WS})?({_SPEC['NUMBER']})|({_SPEC['STRING']})|({_SPEC['IDENT']})"
)
_GROUND_TERM_RE = re.compile(_GROUND_TERM)
_GROUND_ATOM_RE = re.compile(
    rf"{_WS}({_SPEC['IDENT']}){_WS}\({_WS}"
    rf"((?:{_GROUND_TERM})(?:{_WS},{_WS}(?:{_GROUND_TERM}))*)"
    rf"{_WS}\){_WS}(?:\.{_WS})?"
)


def _scan_fact(text: str) -> Atom | None:
    """The fact ``text`` spells, or ``None`` when the scan does not
    apply and the token path must decide."""
    match = _GROUND_ATOM_RE.fullmatch(text)
    if match is None:
        return None
    terms: list[Term] = []
    for minus, number, string, ident in _GROUND_TERM_RE.findall(match[2]):
        if number:
            try:
                value = float(number) if "." in number else int(number)
            except ValueError:  # too long for int(): the token path says so
                return None
            terms.append(intern_constant(-value if minus else value))
        elif string:
            terms.append(intern_constant(string[1:-1]))
        elif ident[0].isupper():
            terms.append(intern_constant(ident))
        else:  # a variable: the token path rejects it
            return None
    return Atom(match[1], tuple(terms))


def _parse_fact_tokens(text: str) -> Atom:
    """:func:`parse_fact` through the tokenizer and the atom parser."""
    stream = _TokenStream(_tokenize(text), text)
    atom = _parse_atom(stream)
    if stream.peek() is not None and stream.peek().kind == "DOT":  # type: ignore[union-attr]
        stream.next()
    if not stream.at_end():
        raise ParseError("trailing input after fact", text, 0)
    if not atom.is_fact():
        raise ParseError(f"fact {atom} contains variables", text, 0)
    return atom


def parse_fact(text: str) -> Atom:
    """Parse one ground atom, e.g. ``Own(A, B, 0.6)`` (trailing dot ok).

    Equal to the token path on every input — the same fact, the same
    constant types, the same :class:`ParseError` — but a plain ground
    atom costs one regex scan instead of a tokenizer pass.
    """
    atom = _scan_fact(text)
    return atom if atom is not None else _parse_fact_tokens(text)


def _iter_statements(text: str) -> Iterator[Rule | Constraint]:
    stream = _TokenStream(_tokenize(text), text)
    counter = 0
    while not stream.at_end():
        counter += 1
        yield _parse_rule_tokens(stream, f"r{counter}")


def iter_rules(text: str) -> Iterator[Rule]:
    """Parse a multi-rule program text, yielding the rules in order
    (constraints are skipped; use parse_program to collect them)."""
    for statement in _iter_statements(text):
        if isinstance(statement, Rule):
            yield statement


def parse_program(text: str, name: str = "program", goal: str | None = None) -> Program:
    """Parse a full program; rules may carry ``label:`` prefixes and a
    ``false`` head turns a statement into a negative constraint.

    >>> program = parse_program('''
    ...     sigma1: Own(x,y,s), s > 0.5 -> Control(x,y).
    ...     sigma2: Company(x) -> Control(x,x).
    ... ''', name="control", goal="Control")
    >>> len(program)
    2
    """
    rules: list[Rule] = []
    constraints: list[Constraint] = []
    for statement in _iter_statements(text):
        if isinstance(statement, Rule):
            rules.append(statement)
        else:
            constraints.append(statement)
    if not rules:
        raise ParseError("program text contains no rules", text, 0)
    return Program(name, tuple(rules), goal, tuple(constraints))
