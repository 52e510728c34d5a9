"""The verbalizer: deterministic Vadalog-to-natural-language conversion.

Implements the module described in Section 4.2 of the paper: each rule is
algorithmically translated into a sentence of the form *"Since ⟨body⟩, then
⟨head⟩."*, where atoms are rendered through the domain glossary, "and"
joins conjuncts, built-in comparison operators become phrases such as "is
higher than", and aggregations become *"with ⟨result⟩ given by the sum of
⟨contributors⟩"*.

The verbalizer serves two distinct callers:

* **template generation** — rules of a reasoning path are verbalized with
  *tokens* (``<x>``) in place of variables; token names are unified across
  the rule interfaces of the path (the head of a producing rule shares
  tokens with the consuming body atom) so the story reads coherently;
* **instance verbalization** — the chase steps of a concrete proof are
  verbalized with the actual constants, producing the long deterministic
  explanation the LLM baselines paraphrase or summarize (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.conditions import BinaryOp, Comparison, Expression
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Null, Term, Variable
from ..datalog.unify import apply_substitution as apply_substitution_for_display
from ..engine.chase import ChaseStepRecord
from .glossary import DomainGlossary
from .paths import ReasoningPath

#: NL phrasing of the comparison operators (paper, Section 4.2).
OPERATOR_PHRASES = {
    ">": "is higher than",
    "<": "is lower than",
    ">=": "is at least",
    "<=": "is at most",
    "==": "is equal to",
    "!=": "is different from",
}

#: NL names of the aggregation functions.
AGGREGATE_PHRASES = {
    "sum": "the sum of",
    "prod": "the product of",
    "min": "the minimum of",
    "max": "the maximum of",
    "count": "the count of",
}

_ARITHMETIC_PHRASES = {"+": "plus", "-": "minus", "*": "times", "/": "divided by"}


def render_constant(constant: Constant) -> str:
    """Render a constant for inclusion in text (ints without trailing .0)."""
    return str(constant)


@dataclass(frozen=True)
class PathTokenMap:
    """Token assignment for a reasoning path.

    Maps ``(rule_label, variable_name)`` to a token name.  Tokens are
    shared across rules exactly when the path's topology unifies the
    variables (a producing rule's head variable with the consuming body
    atom's variable); otherwise same-named variables of different rules
    receive distinct tokens (``y``, ``y2``, …).
    """

    mapping: Mapping[tuple[str, str], str]

    def token(self, rule_label: str, variable: Variable | str) -> str:
        name = variable.name if isinstance(variable, Variable) else variable
        return self.mapping[(rule_label, name)]

    def tokens(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    def items(self):
        return self.mapping.items()


def build_path_tokens(path: ReasoningPath) -> PathTokenMap:
    """Assign unified tokens to every variable of every rule in the path.

    Processing rules in firing order, the body atoms whose predicate is
    produced by an earlier rule of the path inherit that rule's head tokens
    positionally; every other variable receives a fresh token derived from
    its name.
    """
    mapping: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    head_tokens: dict[str, tuple[str, Rule]] = {}  # predicate -> (label, rule)

    def fresh(name: str) -> str:
        if name not in taken:
            taken.add(name)
            return name
        suffix = 2
        while f"{name}{suffix}" in taken:
            suffix += 1
        token = f"{name}{suffix}"
        taken.add(token)
        return token

    for rule in path.rules:
        # Variables eligible for token inheritance from producing rules.
        # An aggregate rule combines *several* facts of its input
        # predicate, so only its grouping variables stay tied to any one
        # producer; contributor-side variables get fresh tokens whose
        # values are collected per contributor at instantiation time
        # (keeping parallel enumerations like "short and long ... 8 and 2"
        # aligned).
        if rule.aggregate is not None:
            inheritable = set(rule.aggregate.group_by)
        else:
            inheritable = None  # every variable
        # A predicate consumed twice in one body (e.g. Control(z, x),
        # Control(z, y) in the close-links λ3) makes positional
        # inheritance ambiguous: those atoms keep fresh tokens.
        body_predicate_counts: dict[str, int] = {}
        for atom in rule.body:
            body_predicate_counts[atom.predicate] = (
                body_predicate_counts.get(atom.predicate, 0) + 1
            )
        # Inherit tokens through produced body atoms.
        for atom in rule.body:
            if body_predicate_counts[atom.predicate] > 1:
                continue
            producer = head_tokens.get(atom.predicate)
            if producer is None:
                continue
            producer_label, producer_rule = producer
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                if inheritable is not None and term not in inheritable:
                    continue
                key = (rule.label, term.name)
                if key in mapping:
                    continue
                head_term = producer_rule.head.terms[position]
                if isinstance(head_term, Variable):
                    inherited = mapping.get((producer_label, head_term.name))
                    if inherited is not None:
                        mapping[key] = inherited
        # Fresh tokens for everything still unassigned.
        seen_vars: list[Variable] = []
        for atom in (*rule.body, rule.head):
            for variable in atom.variables():
                if variable not in seen_vars:
                    seen_vars.append(variable)
        if rule.aggregate is not None and rule.aggregate.result not in seen_vars:
            seen_vars.append(rule.aggregate.result)
        for variable, __ in rule.assignments:
            if variable not in seen_vars:
                seen_vars.append(variable)
        for variable in seen_vars:
            key = (rule.label, variable.name)
            if key not in mapping:
                mapping[key] = fresh(variable.name)
        # Register this rule as the producer of its head predicate.  The
        # *latest* producer wins: in a chained path the consumer reads
        # the most recent rule's output (e.g. delta4 consumes the AtRisk
        # fact delta3 derived, not the one delta2 derived earlier).
        head_tokens[rule.head_predicate] = (rule.label, rule)
    return PathTokenMap(mapping)


class Verbalizer:
    """Deterministic rule/step/path verbalization through a glossary."""

    def __init__(self, glossary: DomainGlossary):
        self.glossary = glossary

    # ------------------------------------------------------------------
    # Term/expression rendering
    # ------------------------------------------------------------------
    def _term_text(
        self, term: Term, rule_label: str, tokens: PathTokenMap | None
    ) -> str:
        if isinstance(term, Constant):
            return render_constant(term)
        if isinstance(term, Null):
            return "some entity"
        if tokens is None:
            return f"<{term.name}>"
        return f"<{tokens.token(rule_label, term)}>"

    def _expression_text(
        self, expr: Expression, rule_label: str, tokens: PathTokenMap | None
    ) -> str:
        if isinstance(expr, BinaryOp):
            left = self._expression_text(expr.left, rule_label, tokens)
            right = self._expression_text(expr.right, rule_label, tokens)
            return f"{left} {_ARITHMETIC_PHRASES[expr.op]} {right}"
        return self._term_text(expr, rule_label, tokens)

    # ------------------------------------------------------------------
    # Atom / condition / aggregate rendering
    # ------------------------------------------------------------------
    def atom_text(
        self, atom: Atom, rule_label: str, tokens: PathTokenMap | None = None
    ) -> str:
        entry = self.glossary.entry(atom.predicate)
        token_of = {
            position: self._term_text(term, rule_label, tokens)
            for position, term in enumerate(atom.terms)
        }
        return entry.render_atom(atom, token_of).rstrip(".")

    def condition_text(
        self, condition: Comparison, rule_label: str, tokens: PathTokenMap | None
    ) -> str:
        left = self._expression_text(condition.left, rule_label, tokens)
        right = self._expression_text(condition.right, rule_label, tokens)
        return f"{left} {OPERATOR_PHRASES[condition.op]} {right}"

    # ------------------------------------------------------------------
    # Rule rendering (template mode)
    # ------------------------------------------------------------------
    def rule_sentence(
        self,
        rule: Rule,
        tokens: PathTokenMap | None = None,
        multi_contributors: bool = False,
    ) -> str:
        """One *"Since ..., then ..."* sentence for a rule.

        ``multi_contributors`` selects the aggregation phrasing: when
        ``False`` the aggregate is truncated — the rule reads like a plain
        rule (paper, Section 4.2); when ``True`` the *"with <r> given by
        the sum of <v>"* clause is emitted and the contributor tokens may
        be substituted by several values at instantiation time.
        """
        aggregate = rule.aggregate
        pre, post = [], []
        for condition in rule.conditions:
            if aggregate is not None and aggregate.result in condition.variables():
                post.append(condition)
            else:
                pre.append(condition)

        clauses = [self.atom_text(atom, rule.label, tokens) for atom in rule.body]
        clauses.extend(
            "it is not the case that "
            + self.atom_text(atom, rule.label, tokens)
            for atom in rule.negated
        )
        clauses.extend(
            f"{self._term_text(variable, rule.label, tokens)} being "
            f"{self._expression_text(expression, rule.label, tokens)}"
            for variable, expression in rule.assignments
        )
        clauses.extend(self.condition_text(c, rule.label, tokens) for c in pre)
        body_text = ", and ".join(clauses)
        if aggregate is not None and multi_contributors:
            result = self._term_text(aggregate.result, rule.label, tokens)
            argument = self._expression_text(aggregate.argument, rule.label, tokens)
            phrase = AGGREGATE_PHRASES[aggregate.function]
            body_text += f", with {result} given by {phrase} {argument}"
        if post:
            post_text = ", and ".join(
                self.condition_text(c, rule.label, tokens) for c in post
            )
            body_text += f", and {post_text}"
        head_text = self.atom_text(rule.head, rule.label, tokens)
        return f"Since {body_text}, then {head_text}."

    def path_text(self, path: ReasoningPath) -> tuple[str, PathTokenMap]:
        """Verbalize a whole reasoning path into a deterministic
        explanation template (Section 4.2), returning the text and the
        token map needed to instantiate it."""
        tokens = build_path_tokens(path)
        sentences = [
            self.rule_sentence(rule, tokens, multi_contributors=path.is_multi(rule.label))
            for rule in path.rules
        ]
        return " ".join(sentences), tokens

    # ------------------------------------------------------------------
    # Instance rendering (deterministic proof explanation)
    # ------------------------------------------------------------------
    def ground_atom_text(self, atom: Atom) -> str:
        """Render one ground atom through its glossary entry, constants
        substituted — the sentence fragment every instance-level
        verbalization (steps, proofs, violations, why-not obstacles)
        builds on."""
        entry = self.glossary.entry(atom.predicate)
        token_of = {
            position: (
                render_constant(term) if isinstance(term, Constant)
                else str(term)
            )
            for position, term in enumerate(atom.terms)
        }
        return entry.render_atom(atom, token_of).rstrip(".")

    def _ground_condition_text(
        self, condition: Comparison, record: ChaseStepRecord
    ) -> str | None:
        """Render a condition with the step's actual values, when every
        variable it mentions is bound in the record (group bindings of
        aggregate steps omit per-contributor variables)."""
        binding = record.binding
        if any(v not in binding for v in condition.variables()):
            return None
        left = self._grounded_expression(condition.left, binding)
        right = self._grounded_expression(condition.right, binding)
        return f"{left} {OPERATOR_PHRASES[condition.op]} {right}"

    def _grounded_expression(self, expr: Expression, binding) -> str:
        if isinstance(expr, BinaryOp):
            left = self._grounded_expression(expr.left, binding)
            right = self._grounded_expression(expr.right, binding)
            return f"{left} {_ARITHMETIC_PHRASES[expr.op]} {right}"
        if isinstance(expr, Variable):
            bound = binding.get(expr, expr)
            if isinstance(bound, Constant):
                return render_constant(bound)
            return str(bound)
        if isinstance(expr, Constant):
            return render_constant(expr)
        return str(expr)

    def step_sentence(self, record: ChaseStepRecord) -> str:
        """Verbalize one concrete chase step with its actual constants.

        This is the building block of the deterministic instance
        explanation used as the LLM baselines' input (Section 6.2).
        """
        clauses = [self.ground_atom_text(parent) for parent in record.parents]
        for negated in record.rule.negated:
            grounded = apply_substitution_for_display(negated, record.binding)
            clauses.append(
                "there is no record that " + self.ground_atom_text(grounded)
            )
        for variable, expression in record.rule.assignments:
            if variable in record.binding:
                value = self._grounded_expression(variable, record.binding)
                clauses.append(
                    f"{value} being "
                    f"{self._grounded_expression(expression, record.binding)}"
                )
        for condition in record.rule.conditions:
            rendered = self._ground_condition_text(condition, record)
            if rendered is not None:
                clauses.append(rendered)
        if record.is_aggregate and record.multi_contributor:
            values = " and ".join(
                render_constant(Constant(c.value))  # type: ignore[arg-type]
                if not isinstance(c.value, Constant) else str(c.value)
                for c in record.contributors
            )
            aggregate = record.rule.aggregate
            assert aggregate is not None
            phrase = AGGREGATE_PHRASES[aggregate.function]
            total = render_constant(Constant(record.aggregate_value))  # type: ignore[arg-type]
            clauses.append(f"{total} is given by {phrase} {values}")
        body_text = ", and ".join(clauses)
        head_text = self.ground_atom_text(record.fact)
        return f"Since {body_text}, then {head_text}."

    def proof_text(self, records: Iterable[ChaseStepRecord]) -> str:
        """The full deterministic explanation of a proof: every chase step
        verbalized one by one, in derivation order."""
        return " ".join(self.step_sentence(record) for record in records)
