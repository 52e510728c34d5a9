"""Why-not explanations: why was a fact *not* derived?

The provenance literature the paper builds on treats answers and
non-answers symmetrically (cf. its reference [48], "Provenance Summaries
for Answers and Non-Answers"); an analyst who asks "why is C in default?"
will next ask "why is D *not* in default?".  This module answers the
second question:

for every rule that could produce the queried fact, it finds the body
match that gets *closest* (most atoms satisfied) and verbalizes the first
obstacle — a missing premise, a failing comparison (with the actual
values), a blocking negated atom, or an aggregate that did not clear its
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, Fact
from ..datalog.conditions import Comparison, evaluate_expression
from ..datalog.errors import EvaluationError, UserError
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..datalog.unify import MutableSubstitution, apply_substitution, match_atom
from ..engine.reasoning import ReasoningResult
from ..engine.reference import match_conjunction
from .glossary import DomainGlossary
from .verbalizer import OPERATOR_PHRASES, Verbalizer


@dataclass(frozen=True)
class Obstacle:
    """Why one rule failed to derive the queried fact."""

    rule: Rule
    kind: str                  # "missing-premise" | "condition" | "negation" | "head-mismatch"
    detail: str
    satisfied: int             # body atoms the best attempt did satisfy

    def __str__(self) -> str:
        return f"[{self.rule.label}] {self.detail}"


@dataclass(frozen=True)
class WhyNotAnswer:
    """The full non-derivation report for a fact."""

    query: Fact
    obstacles: tuple[Obstacle, ...]
    text: str

    def __str__(self) -> str:
        return self.text


class WhyNotExplainer:
    """Explains non-answers against a materialized reasoning result.

    Probing replays rule bodies against the *active* (non-superseded)
    instance through the chase database's position indexes, with the
    binding so far restricting each candidate list; candidates arrive in
    insertion order, as a scan of the whole instance would meet them.
    """

    def __init__(self, result: ReasoningResult, glossary: DomainGlossary):
        self.result = result
        self.glossary = glossary
        self.verbalizer = Verbalizer(glossary)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def explain_why_not(self, query: Fact) -> WhyNotAnswer:
        """Why ``query`` is not in the materialized instance.

        Raises :class:`UserError` when the fact holds (ask the regular
        explainer instead).
        """
        if query in self.result.database and query not in \
                self.result.chase_result.superseded:
            raise UserError(f"{query} holds — ask for its explanation instead")
        candidates = self.result.program.rules_deriving(query.predicate)
        obstacles = []
        for rule in candidates:
            obstacles.append(self._probe_rule(rule, query))
        if not candidates:
            text = (
                f"No rule derives {query.predicate} facts: "
                f"{self._atom_text(query)} could only hold as input data."
            )
            return WhyNotAnswer(query=query, obstacles=(), text=text)
        statement = self._atom_text(query)
        if statement and statement[0].islower():
            statement = statement[0].upper() + statement[1:]
        sentences = [f"{statement} does not hold."]
        for obstacle in obstacles:
            sentences.append(obstacle.detail)
        return WhyNotAnswer(
            query=query, obstacles=tuple(obstacles), text=" ".join(sentences)
        )

    # ------------------------------------------------------------------
    # Per-rule probing
    # ------------------------------------------------------------------
    def _probe_rule(self, rule: Rule, query: Fact) -> Obstacle:
        head_binding = match_atom(rule.head, query)
        if head_binding is None:
            return Obstacle(
                rule=rule, kind="head-mismatch", satisfied=0,
                detail=(
                    f"Rule {rule.label} cannot produce it: the conclusion "
                    "pattern does not match."
                ),
            )
        best = self._best_attempt(rule, head_binding)
        return self._verbalize_attempt(rule, best)

    def _best_attempt(
        self, rule: Rule, head_binding: MutableSubstitution
    ) -> tuple[int, MutableSubstitution, int | None, Comparison | None, Atom | None]:
        """DFS for the body match satisfying the most atoms.

        Returns (atoms satisfied, binding, failing atom index, failing
        condition, blocking negated atom) for the best attempt.
        """
        database = self.result.database
        superseded = self.result.chase_result.superseded
        best: tuple = (-1, dict(head_binding), 0, None, None)

        def consider(candidate: tuple) -> None:
            nonlocal best
            if candidate[0] > best[0]:
                best = candidate

        def recurse(index: int, binding: MutableSubstitution) -> None:
            if index == len(rule.body):
                # All atoms satisfied: check negation, then conditions.
                for negated in rule.negated:
                    blocker = next(database.match(negated, binding, superseded), None)
                    if blocker is not None:
                        grounded = apply_substitution(negated, binding)
                        consider((index, dict(binding), None, None, grounded))
                        return
                failing, augmented = self._failing_condition(rule, binding)
                consider((index, augmented, None, failing, None))
                return
            matched_any = False
            for _, extended in database.match(rule.body[index], binding, superseded):
                matched_any = True
                recurse(index + 1, extended)
            if not matched_any:
                consider((index, dict(binding), index, None, None))

        recurse(0, dict(head_binding))
        return best  # type: ignore[return-value]

    def _failing_condition(
        self, rule: Rule, binding: MutableSubstitution
    ) -> tuple[Comparison | None, MutableSubstitution]:
        """The first condition this complete body match violates, with the
        aggregate evaluated over the match's group when needed.  Returns
        the condition (or None) and the binding augmented with assignment
        and aggregate values, for value-accurate verbalization."""
        working = dict(binding)
        for variable, expression in rule.assignments:
            try:
                working[variable] = Constant(
                    evaluate_expression(expression, working)
                )
            except EvaluationError:
                return None, working
        aggregate = rule.aggregate
        if aggregate is not None and aggregate.result not in working:
            try:
                values = self._group_values(rule, working)
                working[aggregate.result] = Constant(
                    aggregate.evaluate(values)
                )
            except EvaluationError:
                return None, working
        for condition in rule.conditions:
            try:
                if not condition.holds(working):
                    return condition, working
            except EvaluationError:
                return None, working
        return None, working

    def _group_values(
        self, rule: Rule, binding: MutableSubstitution
    ) -> list[object]:
        """All aggregate contributions of the match's group — the value an
        analyst is told must be compared against the full group total, not
        a single contribution."""
        aggregate = rule.aggregate
        assert aggregate is not None
        group_binding = {
            variable: binding[variable]
            for variable in aggregate.group_by
            if variable in binding
        }
        values = []
        for match, _ in match_conjunction(
            self.result.database, rule.body, (), (),
            self.result.chase_result.superseded, seed=group_binding,
        ):
            values.append(evaluate_expression(aggregate.argument, match))
        if not values:
            values.append(evaluate_expression(aggregate.argument, binding))
        return values

    # ------------------------------------------------------------------
    # Verbalization
    # ------------------------------------------------------------------
    def _atom_text(self, atom: Atom) -> str:
        return self.verbalizer.ground_atom_text(atom)

    def _verbalize_attempt(self, rule: Rule, best: tuple) -> Obstacle:
        satisfied, binding, failing_index, failing_condition, blocker = best
        if failing_index is not None:
            pattern = apply_substitution(rule.body[failing_index], binding)
            missing = self._pattern_text(pattern)
            return Obstacle(
                rule=rule, kind="missing-premise", satisfied=satisfied,
                detail=(
                    f"Rule {rule.label} does not apply: there is no evidence "
                    f"that {missing}."
                ),
            )
        if blocker is not None:
            return Obstacle(
                rule=rule, kind="negation", satisfied=satisfied,
                detail=(
                    f"Rule {rule.label} is blocked: it requires that it is "
                    f"not the case that {self._pattern_text(blocker)}, but "
                    "it is."
                ),
            )
        if failing_condition is not None:
            left = self._value_text(failing_condition.left, binding)
            right = self._value_text(failing_condition.right, binding)
            phrase = OPERATOR_PHRASES[failing_condition.op]
            return Obstacle(
                rule=rule, kind="condition", satisfied=satisfied,
                detail=(
                    f"Rule {rule.label} came closest but its condition "
                    f"fails: {left} is not such that it {phrase} {right}."
                ),
            )
        aggregate = rule.aggregate
        if aggregate is not None and aggregate.result in binding:
            # The body is satisfiable but the queried aggregate value is
            # not the one the group actually totals.
            try:
                probe = dict(binding)
                del probe[aggregate.result]
                actual = aggregate.evaluate(self._group_values(rule, probe))
                queried = binding[aggregate.result]
                if Constant(actual) != queried:
                    return Obstacle(
                        rule=rule, kind="value-mismatch", satisfied=satisfied,
                        detail=(
                            f"Rule {rule.label} does derive a conclusion "
                            f"here, but its aggregate totals {actual}, not "
                            f"{queried}."
                        ),
                    )
            except EvaluationError:
                pass
        return Obstacle(
            rule=rule, kind="condition", satisfied=satisfied,
            detail=(
                f"Rule {rule.label} has a satisfiable body, but its "
                "conclusion instantiates differently than the queried fact."
            ),
        )

    def _pattern_text(self, pattern: Atom) -> str:
        """Glossary rendering with unbound variables as 'some …'."""
        entry = self.glossary.entry(pattern.predicate)
        token_of = {}
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                token_of[position] = "something"
            else:
                token_of[position] = str(term)
        return entry.render_atom(pattern, token_of).rstrip(".")

    def _value_text(self, expression, binding) -> str:
        try:
            value = evaluate_expression(expression, binding)
            if isinstance(value, float) and value.is_integer():
                return str(int(value))
            return str(value)
        except EvaluationError:
            return str(expression)
