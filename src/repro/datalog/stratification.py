"""Stratification for programs with negation.

Vadalog supports negation and negative constraints (paper, Section 3,
"Vadalog Extensions").  We implement the standard *stratified* semantics:
a program is evaluable iff no predicate depends on itself through a
negated edge; evaluation then proceeds stratum by stratum, so that by the
time a negated atom is checked, its predicate's extension is complete.

:func:`stratify` computes the strata (lists of rule groups, in evaluation
order) or raises :class:`StratificationError` when the program is not
stratifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DatalogError, UserError
from .program import Program
from .rules import Rule


class StratificationError(DatalogError, UserError):
    """Raised when a program has recursion through negation."""


@dataclass(frozen=True)
class Stratification:
    """The evaluation plan: predicates and rules per stratum, in order."""

    strata: tuple[tuple[Rule, ...], ...]
    stratum_of: dict[str, int]

    @property
    def count(self) -> int:
        return len(self.strata)

    def describe(self) -> str:
        lines = [f"Stratification in {self.count} strata:"]
        for index, rules in enumerate(self.strata):
            labels = ", ".join(rule.label for rule in rules)
            lines.append(f"  stratum {index}: {labels or '(no rules)'}")
        return "\n".join(lines)


def stratify(program: Program) -> Stratification:
    """Assign every intensional predicate (and its rules) to a stratum.

    Uses the classical fixpoint characterization: ``stratum(P) >=
    stratum(Q)`` for every positive edge Q → P and ``stratum(P) >
    stratum(Q)`` for every negated edge; non-termination of the fixpoint
    (a value exceeding the predicate count) means recursion through
    negation.
    """
    intensional = program.intensional_predicates()
    stratum: dict[str, int] = {predicate: 0 for predicate in intensional}
    limit = len(intensional) + 1

    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            head = rule.head_predicate
            for atom in rule.body:
                if atom.predicate not in intensional:
                    continue
                required = stratum[atom.predicate]
                if stratum[head] < required:
                    stratum[head] = required
                    changed = True
            for atom in rule.negated:
                if atom.predicate not in intensional:
                    continue
                required = stratum[atom.predicate] + 1
                if stratum[head] < required:
                    stratum[head] = required
                    changed = True
            if stratum[head] >= limit:
                raise StratificationError(
                    f"program {program.name!r} is not stratifiable: "
                    f"{head!r} depends on itself through negation"
                )

    count = max(stratum.values(), default=0) + 1
    buckets: list[list[Rule]] = [[] for _ in range(count)]
    for rule in program.rules:
        buckets[stratum[rule.head_predicate]].append(rule)
    return Stratification(
        strata=tuple(tuple(bucket) for bucket in buckets),
        stratum_of=stratum,
    )
