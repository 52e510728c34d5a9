"""Rules (tuple-generating dependencies) of a Vadalog program.

A rule is a function-free Horn clause

    body_atom_1, ..., body_atom_k, cond_1, ..., cond_m [, r = agg(v)] -> head

where the body is a conjunction of atoms over the schema, conditions are
comparisons over body variables, the optional aggregate assignment binds a
fresh result variable, and the head is a single atom.  Head variables that
appear neither in the body nor as the aggregate result are existentially
quantified: a chase step invents a fresh labelled null for each.

Every rule carries a short ``label`` (such as ``alpha`` or ``sigma3``) used
throughout the structural analysis, the reasoning-path notation
(Π = {σ1, σ3}) and the explanation templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .aggregates import AggregateSpec
from .atoms import Atom
from .conditions import Comparison, Expression, expression_variables
from .errors import SafetyError
from .terms import Variable

#: Greek-letter rendering for common rule labels, used in reports.
GREEK_LABELS = {
    "alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ",
    "sigma1": "σ1", "sigma2": "σ2", "sigma3": "σ3", "sigma4": "σ4",
    "sigma5": "σ5", "sigma6": "σ6", "sigma7": "σ7", "sigma8": "σ8",
    "sigma9": "σ9",
}


def pretty_label(label: str) -> str:
    """Render a rule label with its Greek glyph when one is conventional."""
    return GREEK_LABELS.get(label, label)


@dataclass(frozen=True)
class Rule:
    """A single-head TGD with optional conditions and aggregate.

    Use :func:`repro.datalog.parser.parse_rule` for the textual syntax; this
    constructor validates safety and normalizes the aggregate grouping.
    """

    label: str
    body: tuple[Atom, ...]
    head: Atom
    conditions: tuple[Comparison, ...] = ()
    aggregate: AggregateSpec | None = None
    #: Negated body atoms: ``not P(...)`` holds when no matching fact
    #: exists (stratified semantics, see datalog.stratification).
    negated: tuple[Atom, ...] = ()
    #: Computed assignments ``r = <expression>`` (Vadalog's body
    #: expressions): evaluated per homomorphism, binding fresh variables.
    assignments: tuple[tuple[Variable, Expression], ...] = ()
    #: Existential head variables (computed, do not pass explicitly).
    existentials: frozenset[Variable] = field(default=frozenset())

    def __post_init__(self) -> None:
        if not self.body:
            raise SafetyError(f"rule {self.label}: body must be non-empty")
        body_vars = self.body_variables()
        for atom in self.negated:
            unsafe = atom.variable_set() - body_vars
            if unsafe:
                raise SafetyError(
                    f"rule {self.label}: negated atom {atom} uses variables "
                    f"{sorted(v.name for v in unsafe)} not bound by a "
                    "positive body atom"
                )
        assigned: set[Variable] = set()
        for variable, expression in self.assignments:
            expression_vars = set(expression_variables(expression))
            unsafe = expression_vars - body_vars - assigned
            if unsafe:
                raise SafetyError(
                    f"rule {self.label}: assignment to {variable} uses "
                    f"unbound variables {sorted(v.name for v in unsafe)}"
                )
            if variable in body_vars or variable in assigned:
                raise SafetyError(
                    f"rule {self.label}: assignment target {variable} is "
                    "already bound"
                )
            assigned.add(variable)
        aggregate = self.aggregate
        if aggregate is not None:
            missing = aggregate.argument_variables() - body_vars - assigned
            if missing:
                raise SafetyError(
                    f"rule {self.label}: aggregate argument uses variables "
                    f"{sorted(v.name for v in missing)} not bound in the body"
                )
            if aggregate.result in body_vars or aggregate.result in assigned:
                raise SafetyError(
                    f"rule {self.label}: aggregate result {aggregate.result} "
                    "must be a fresh variable"
                )
            if not aggregate.group_by:
                default_group = tuple(
                    v for v in self._ordered_head_variables()
                    if v != aggregate.result and v in body_vars
                )
                object.__setattr__(
                    self, "aggregate", aggregate.with_group_by(default_group)
                )
        bound = body_vars | assigned | (
            {self.aggregate.result} if self.aggregate is not None else set()
        )
        for condition in self.conditions:
            unsafe = condition.variables() - bound
            if unsafe:
                raise SafetyError(
                    f"rule {self.label}: condition '{condition}' uses unbound "
                    f"variables {sorted(v.name for v in unsafe)}"
                )
        existentials = frozenset(
            v for v in self.head.variable_set() if v not in bound
        )
        object.__setattr__(self, "existentials", existentials)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def body_variables(self) -> frozenset[Variable]:
        variables: set[Variable] = set()
        for atom in self.body:
            variables.update(atom.variables())
        return frozenset(variables)

    def _ordered_head_variables(self) -> Iterator[Variable]:
        seen: set[Variable] = set()
        for term in self.head.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.add(term)
                yield term

    def body_predicates(self) -> tuple[str, ...]:
        """Body predicate names, left to right, with duplicates removed."""
        seen: list[str] = []
        for atom in self.body:
            if atom.predicate not in seen:
                seen.append(atom.predicate)
        return tuple(seen)

    @cached_property
    def aggregate_split(
        self,
    ) -> tuple[
        tuple[Comparison, ...], tuple[Comparison, ...], tuple[Variable, ...]
    ]:
        """``(pre, post, key_vars)``: how an aggregate rule is evaluated.

        ``pre`` conditions filter body matches; ``post`` conditions read
        the aggregate result and filter whole groups.  Groups are keyed
        by the head variables plus any body variable a post-aggregation
        condition needs (e.g. the creditor's capital p2 in σ7's
        "l > p2") — those must be fixed within a group for the condition
        to be evaluable.  A plain rule has only ``pre`` conditions.
        """
        aggregate = self.aggregate
        if aggregate is None:
            return self.conditions, (), ()
        pre = tuple(
            c for c in self.conditions if aggregate.result not in c.variables()
        )
        post = tuple(
            c for c in self.conditions if aggregate.result in c.variables()
        )
        key_vars = list(aggregate.group_by)
        for condition in post:
            for variable in sorted(condition.variables(), key=lambda v: v.name):
                if variable != aggregate.result and variable not in key_vars:
                    key_vars.append(variable)
        return pre, post, tuple(key_vars)

    @property
    def head_predicate(self) -> str:
        return self.head.predicate

    @property
    def has_aggregate(self) -> bool:
        return self.aggregate is not None

    @property
    def has_negation(self) -> bool:
        return bool(self.negated)

    @property
    def is_existential(self) -> bool:
        return bool(self.existentials)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts.extend(f"not {atom}" for atom in self.negated)
        parts.extend(
            f"{variable} = {expression}"
            for variable, expression in self.assignments
        )
        parts.extend(str(cond) for cond in self.conditions)
        if self.aggregate is not None:
            parts.append(str(self.aggregate))
        return f"{', '.join(parts)} -> {self.head}"

    def pretty(self) -> str:
        """Render with the Greek label prefix, e.g. ``(σ3) Control(...) ...``."""
        return f"({pretty_label(self.label)}) {self}"


@dataclass(frozen=True)
class Constraint:
    """A negative constraint φ(x̄, ȳ) → ⊥ (paper, Section 3).

    When the body (plus conditions, minus negated atoms) becomes
    satisfiable in the materialized instance, the constraint is violated;
    the engine reports violations rather than deriving anything.
    """

    label: str
    body: tuple[Atom, ...]
    conditions: tuple[Comparison, ...] = ()
    negated: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if not self.body:
            raise SafetyError(f"constraint {self.label}: body must be non-empty")
        body_vars: set[Variable] = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        for atom in self.negated:
            unsafe = atom.variable_set() - body_vars
            if unsafe:
                raise SafetyError(
                    f"constraint {self.label}: negated atom {atom} uses "
                    f"unbound variables {sorted(v.name for v in unsafe)}"
                )
        for condition in self.conditions:
            unsafe = condition.variables() - body_vars
            if unsafe:
                raise SafetyError(
                    f"constraint {self.label}: condition '{condition}' uses "
                    f"unbound variables {sorted(v.name for v in unsafe)}"
                )

    def body_predicates(self) -> tuple[str, ...]:
        seen: list[str] = []
        for atom in (*self.body, *self.negated):
            if atom.predicate not in seen:
                seen.append(atom.predicate)
        return tuple(seen)

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts.extend(f"not {atom}" for atom in self.negated)
        parts.extend(str(cond) for cond in self.conditions)
        return f"{', '.join(parts)} -> false"
