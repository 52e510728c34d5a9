"""Per-rule join planning for the chase.

The reference walk (:mod:`repro.engine.reference`) matches body atoms in
written order, re-probing single-constant indexes per candidate.  This
module compiles each rule body into a :class:`JoinPlan` instead:

* **atom ordering** — atoms are reordered greedily by estimated
  selectivity: at each step the planner picks the remaining atom with the
  highest bound-position score (constants count double, already-bound
  variables once — constants > bound variables > free atoms), breaking
  ties by the predicate's current cardinality and then by the original
  body position (determinism);
* **condition / assignment / negation hoisting** — every comparison,
  body assignment and negated-atom check is attached to the earliest step
  at which its variables are bound, so non-matching partial bindings are
  pruned before further joins instead of after the full cartesian walk;
* **probe compilation** — each step pre-computes which argument positions
  form the hash-join key (constants plus bound variables), which
  positions bind new variables, and which repeat a variable bound earlier
  in the same atom (equality checks), so the executor
  (:mod:`repro.engine.kernels`) never calls the generic matcher.

Plans are compiled at stratum entry (cardinalities are read from the live
:class:`~repro.engine.database.Database`) and each rule also gets one
**delta variant** per body atom for delta-driven evaluation: the pivot
atom is forced to the front of the order (the delta is small) and
restricted to delta facts at execution time.

Planning is pure computation over the rule structure — execution,
ordering guarantees and provenance parity live in
:mod:`repro.engine.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.analysis import atom_binding_profile, canonical_binding_order
from ..datalog.atoms import Atom
from ..datalog.conditions import Comparison, Expression, expression_variables
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable
from .database import Database


@dataclass(frozen=True, slots=True)
class JoinStep:
    """One hash-join step of a compiled plan.

    ``probe_positions``/``probe_terms`` describe the composite-index key:
    the term is either a :class:`Constant` (fixed for the whole run) or a
    :class:`Variable` already bound by earlier steps (looked up per
    partial binding).  ``bind_positions`` are first occurrences of new
    variables; ``check_positions`` are repeated occurrences of variables
    first bound *within this atom*, verified by equality after binding.
    """

    atom_index: int
    atom: Atom
    probe_positions: tuple[int, ...]
    probe_terms: tuple[Term, ...]
    bind_positions: tuple[tuple[int, Variable], ...]
    check_positions: tuple[tuple[int, Variable], ...]
    assignments: tuple[tuple[Variable, Expression], ...]
    conditions: tuple[Comparison, ...]
    negated: tuple[Atom, ...]
    #: Predicate cardinality observed at planning time (observability).
    estimated_cardinality: int = 0


@dataclass(frozen=True, slots=True)
class JoinPlan:
    """A fully ordered execution plan for one rule body conjunction."""

    rule_label: str
    steps: tuple[JoinStep, ...]
    #: Original body index of the atom executed at each step.
    order: tuple[int, ...]
    #: ``step_of_atom[original_index]`` = step executing that atom, used
    #: to restore the body-order parents tuple the provenance expects.
    step_of_atom: tuple[int, ...]
    #: Naive first-binding order of all rule variables (see
    #: :func:`repro.datalog.analysis.canonical_binding_order`).
    canonical_variables: tuple[Variable, ...]
    #: Body index of the delta-restricted atom, or ``None`` for the full plan.
    pivot: int | None = None

    @property
    def hoisted_conditions(self) -> int:
        """Conditions evaluated before the final step."""
        return sum(len(step.conditions) for step in self.steps[:-1])

    @property
    def hoisted_assignments(self) -> int:
        return sum(len(step.assignments) for step in self.steps[:-1])

    def describe(self) -> str:
        parts = []
        for step in self.steps:
            probe = ",".join(str(p) for p in step.probe_positions)
            extras = []
            if step.assignments:
                extras.append(f"{len(step.assignments)} assign")
            if step.conditions:
                extras.append(f"{len(step.conditions)} cond")
            if step.negated:
                extras.append(f"{len(step.negated)} neg")
            suffix = f" [{', '.join(extras)}]" if extras else ""
            parts.append(f"{step.atom.predicate}({probe}){suffix}")
        pivot = f" pivot={self.pivot}" if self.pivot is not None else ""
        return f"{self.rule_label}: " + " ⋈ ".join(parts) + pivot


@dataclass(frozen=True)
class RulePlan:
    """A rule's full plan plus its per-pivot delta variants."""

    rule: Rule
    full: JoinPlan
    #: One variant per body atom (same length as the body).
    delta_variants: tuple[JoinPlan, ...] = ()

    def snapshot(self) -> dict:
        """Static plan facts for the ``repro-stats/1`` document."""
        return {
            "order": list(self.full.order),
            "steps": len(self.full.steps),
            "hoisted_conditions": self.full.hoisted_conditions,
            "hoisted_assignments": self.full.hoisted_assignments,
            "delta_variants": len(self.delta_variants),
            "plan": self.full.describe(),
        }


def _choose_order(
    atoms: tuple[Atom, ...], database: Database, pivot: int | None
) -> tuple[int, ...]:
    """Greedy selectivity ordering of the body atoms.

    Rank at each step: bound-position score descending (constants weighted
    2, bound variables 1), predicate cardinality ascending, original body
    position ascending.  A ``pivot`` atom is forced to the front: under
    delta-driven evaluation it enumerates only the (small) delta.
    """
    remaining = list(range(len(atoms)))
    order: list[int] = []
    bound: set[Variable] = set()
    if pivot is not None:
        remaining.remove(pivot)
        order.append(pivot)
        bound.update(atoms[pivot].variables())

    def rank(index: int) -> tuple[int, int, int]:
        constants, bound_positions, _free = atom_binding_profile(
            atoms[index], bound
        )
        score = 2 * constants + bound_positions
        return (-score, database.count(atoms[index].predicate), index)

    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        order.append(best)
        bound.update(atoms[best].variables())
    return tuple(order)


def _compile_steps(
    rule: Rule,
    conditions: tuple[Comparison, ...],
    order: tuple[int, ...],
    database: Database,
) -> tuple[JoinStep, ...]:
    """Attach probes, hoisted conditions/assignments/negations to each step."""
    bound: set[Variable] = set()
    pending_assignments = list(rule.assignments)
    pending_conditions = list(conditions)
    pending_negated = list(rule.negated)
    steps: list[JoinStep] = []
    for atom_index in order:
        atom = rule.body[atom_index]
        probe_positions: list[int] = []
        probe_terms: list[Term] = []
        bind_positions: list[tuple[int, Variable]] = []
        check_positions: list[tuple[int, Variable]] = []
        new_here: set[Variable] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term in bound:
                    probe_positions.append(position)
                    probe_terms.append(term)
                elif term in new_here:
                    check_positions.append((position, term))
                else:
                    new_here.add(term)
                    bind_positions.append((position, term))
            else:
                probe_positions.append(position)
                probe_terms.append(term)
        bound.update(new_here)

        # Assignments hoist prefix-greedily (later ones may read earlier
        # targets); each hoisted target may unlock further assignments
        # and conditions at this same step.
        step_assignments: list[tuple[Variable, Expression]] = []
        while pending_assignments:
            variable, expression = pending_assignments[0]
            if not set(expression_variables(expression)) <= bound:
                break
            pending_assignments.pop(0)
            step_assignments.append((variable, expression))
            bound.add(variable)

        step_conditions = [
            c for c in pending_conditions if c.variables() <= bound
        ]
        for condition in step_conditions:
            pending_conditions.remove(condition)
        step_negated = [
            a for a in pending_negated if a.variable_set() <= bound
        ]
        for negated_atom in step_negated:
            pending_negated.remove(negated_atom)

        steps.append(
            JoinStep(
                atom_index=atom_index,
                atom=atom,
                probe_positions=tuple(probe_positions),
                probe_terms=tuple(probe_terms),
                bind_positions=tuple(bind_positions),
                check_positions=tuple(check_positions),
                assignments=tuple(step_assignments),
                conditions=tuple(step_conditions),
                negated=tuple(step_negated),
                estimated_cardinality=database.count(atom.predicate),
            )
        )
    # Safety (rules.Rule) guarantees every variable is body-bound, so
    # nothing can remain pending after the last step.
    assert not pending_assignments and not pending_conditions, (
        f"rule {rule.label}: unplaceable conditions/assignments"
    )
    return tuple(steps)


def plan_conjunction(
    rule: Rule,
    database: Database,
    conditions: tuple[Comparison, ...],
    pivot: int | None = None,
) -> JoinPlan:
    """Compile one ordered plan for the rule body (optionally delta-pivoted)."""
    order = _choose_order(rule.body, database, pivot)
    steps = _compile_steps(rule, conditions, order, database)
    step_of_atom = [0] * len(order)
    for step_index, atom_index in enumerate(order):
        step_of_atom[atom_index] = step_index
    return JoinPlan(
        rule_label=rule.label,
        steps=steps,
        order=order,
        step_of_atom=tuple(step_of_atom),
        canonical_variables=canonical_binding_order(rule),
        pivot=pivot,
    )


def plan_rule(rule: Rule, database: Database) -> RulePlan:
    """Compile a rule's full plan and its delta variants.

    Aggregate plans, variants included, are built over the
    *pre-aggregation* conditions only; post-aggregation conditions need
    the aggregate result and stay with the engine's group evaluation.
    """
    conditions = rule.aggregate_split[0]
    full = plan_conjunction(rule, database, conditions)
    variants = tuple(
        plan_conjunction(rule, database, conditions, pivot=index)
        for index in range(len(rule.body))
    )
    return RulePlan(rule=rule, full=full, delta_variants=variants)
