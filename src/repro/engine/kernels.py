"""Compiled rule kernels: specialized closures over the columnar store.

The interpreted executor that preceded this module walked a
:class:`~repro.engine.planner.JoinPlan` step list per candidate tuple,
re-deciding per fact which positions to probe, bind, and check, and
re-dispatching every hoisted condition through the generic expression
evaluator.  A :class:`RuleKernel` does all of that deciding **once, at
compile time**:

* each :class:`JoinStep` becomes a :class:`_StepKernel` holding a
  pre-built probe-key closure (bare interned id for one position, id
  tuple otherwise), the ``(position, slot)`` pairs to bind and to check,
  and the step's hoisted assignments, comparisons and negation probes
  compiled to closures over a flat register file;
* the register file is a plain ``list[int]`` of interned ids indexed by
  *slot* — the variable's index in the plan's canonical binding order —
  so the join inner loop moves only ints: probe keys are ints, equality
  checks are int comparisons, and no term object is touched until a full
  match materializes;
* conditions and arithmetic compile into nested closures that decode ids
  through the symbol table's live term list (one list index per leaf)
  and reproduce the generic evaluator's semantics exactly — including
  which inputs raise :class:`EvaluationError`, since the planned
  strategy counts those as pruned partials;
* negation checks compile to full-arity index probes: every variable of
  a negated atom is bound by the time the check is hoisted in, so one
  bucket lookup decides it.

**Parity.**  Register values are *canonical* ids — value-equal terms
(``1``, ``1.0``, ``True``) share one id — which is sound for pruning
(value-equal operands give equal comparison truth, equal arithmetic
results and identical error behaviour) but not for rendering.  Final
bindings are therefore reconstructed from the matched facts' **actual
stored terms** (each variable from its first occurrence in written body
order, exactly where naive matching binds it) and assignment targets are
recomputed with :func:`evaluate_assignment` on those terms, then
serialized in canonical binding order.  The reference walk
(:func:`repro.engine.reference.match_conjunction`) enumerates
homomorphisms depth-first over body atoms in written order with
candidates in fact insertion order — i.e. in lexicographic order of the
matched facts' insertion-sequence tuple — so kernel output is re-sorted
by exactly that key.  Together the two steps make kernel output
byte-identical to naive enumeration: same facts, same nulls, same
:class:`ChaseStepRecord` bytes.

**Hoisting and evaluation errors.**  A hoisted condition or assignment
may be evaluated on a partial binding that naive evaluation would have
discarded before ever evaluating it.  When such an evaluation raises
:class:`EvaluationError` the partial is pruned (and counted in the plan
stats): on any program where naive evaluation succeeds, a partial that
errors can never extend to a full match — otherwise naive evaluation
would have raised on that same match.
"""

from __future__ import annotations

import operator
import time
from typing import Callable, Mapping, Sequence

from .. import obs
from ..datalog.atoms import Atom, Fact
from ..datalog.conditions import (
    BinaryOp,
    Comparison,
    Expression,
    evaluate_assignment,
)
from ..datalog.errors import EvaluationError
from ..datalog.terms import Constant, Term, Variable
from ..datalog.unify import MutableSubstitution
from .database import Database
from .planner import JoinPlan, RulePlan
from .symbols import SymbolTable

#: A full body match: (binding, matched facts in original body order).
Match = tuple[MutableSubstitution, tuple[Fact, ...]]

#: A matched body: (parent sequence numbers, parent facts), body order.
_Entry = tuple[tuple[int, ...], tuple[Fact, ...]]

_EMPTY_ROWS: tuple[int, ...] = ()

_ARITHMETIC: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_COMPARATORS: dict[str, Callable] = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


# ----------------------------------------------------------------------
# Expression / condition / assignment compilation
# ----------------------------------------------------------------------

def _compile_expression(
    expr: Expression,
    slot_of: Mapping[Variable, int],
    values: list[Term],
) -> Callable[[list[int]], object]:
    """Compile an expression to ``regs -> raw value``.

    Mirrors :func:`~repro.datalog.conditions.evaluate_expression` exactly,
    with variable leaves reading ``values[regs[slot]]`` instead of a
    substitution dict.  ``values`` is the symbol table's live term list.
    """
    if isinstance(expr, Constant):
        constant_value = expr.value
        return lambda regs: constant_value
    if isinstance(expr, Variable):
        slot = slot_of[expr]

        def read(regs: list[int], _slot: int = slot) -> object:
            term = values[regs[_slot]]
            if not isinstance(term, Constant):
                raise EvaluationError(
                    f"variable {expr} bound to non-constant {term}"
                )
            return term.value

        return read
    if isinstance(expr, BinaryOp):
        left = _compile_expression(expr.left, slot_of, values)
        right = _compile_expression(expr.right, slot_of, values)
        op = expr.op
        operation = _ARITHMETIC.get(op)

        def node(regs: list[int]) -> object:
            a = left(regs)
            b = right(regs)
            if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                raise EvaluationError(
                    f"arithmetic on non-numeric operands: {a!r} {op} {b!r}"
                )
            if op == "/" and b == 0:
                raise EvaluationError("division by zero in rule expression")
            if operation is None:
                raise EvaluationError(f"unknown arithmetic operator {op!r}")
            return operation(a, b)

        return node

    # Nulls and anything else cannot be evaluated arithmetically.
    def unevaluable(regs: list[int]) -> object:
        raise EvaluationError(f"cannot evaluate expression leaf {expr!r}")

    return unevaluable


def _compile_condition(
    condition: Comparison,
    slot_of: Mapping[Variable, int],
    values: list[Term],
) -> Callable[[list[int]], bool]:
    """Compile a comparison to ``regs -> bool`` (EvaluationError on type
    mismatch, like :meth:`Comparison.holds`)."""
    left = _compile_expression(condition.left, slot_of, values)
    right = _compile_expression(condition.right, slot_of, values)
    comparator = _COMPARATORS[condition.op]
    op = condition.op

    def check(regs: list[int]) -> bool:
        a = left(regs)
        b = right(regs)
        try:
            return comparator(a, b)
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {a!r} {op} {b!r}: {exc}"
            ) from exc

    return check


def _compile_assignment(
    expression: Expression,
    slot_of: Mapping[Variable, int],
    symbols: SymbolTable,
) -> Callable[[list[int]], int]:
    """Compile a body assignment to ``regs -> interned result id``.

    Applies the same rounding normalization as
    :func:`~repro.datalog.conditions.evaluate_assignment`, so the interned
    result is value-equal to what naive evaluation stores — sufficient for
    pruning and joining; the rendered value is recomputed from actual
    terms at match-materialization time.
    """
    compiled = _compile_expression(expression, slot_of, symbols.terms_view())
    intern = symbols.intern

    def compute(regs: list[int]) -> int:
        value = compiled(regs)
        if isinstance(value, float):
            value = round(value, 9)
            if value.is_integer():
                value = int(value)
        return intern(Constant(value))

    return compute


def _compile_key(
    parts: Sequence[tuple[bool, int]],
) -> Callable[[list[int]], object]:
    """Compile probe-key construction from (is_constant, id-or-slot) parts.

    Single-part keys are bare ids, matching the composite-index contract
    of :meth:`Database.index_on`.
    """
    if len(parts) == 1:
        is_constant, value = parts[0]
        if is_constant:
            return lambda regs: value
        return lambda regs, _slot=value: regs[_slot]
    fixed = tuple(parts)

    def make_key(regs: list[int]) -> object:
        return tuple(
            value if is_constant else regs[value]
            for is_constant, value in fixed
        )

    return make_key


# ----------------------------------------------------------------------
# Step and plan kernels
# ----------------------------------------------------------------------

class _NegationKernel:
    """A hoisted negated-atom check: one full-arity index probe."""

    __slots__ = ("predicate", "positions", "make_key")

    def __init__(
        self,
        atom: Atom,
        slot_of: Mapping[Variable, int],
        symbols: SymbolTable,
    ):
        self.predicate = atom.predicate
        self.positions = tuple(range(atom.arity))
        parts = []
        for term in atom.terms:
            if isinstance(term, Variable):
                parts.append((False, slot_of[term]))
            else:
                parts.append((True, symbols.intern(term)))
        self.make_key = _compile_key(parts)


class _StepKernel:
    """One :class:`JoinStep` compiled: probe, bind, check, prune, negate."""

    __slots__ = (
        "predicate",
        "is_pivot",
        "probe_positions",
        "make_key",
        "verify",
        "binds",
        "checks",
        "assignments",
        "conditions",
        "negations",
    )

    def __init__(
        self,
        plan: JoinPlan,
        step_index: int,
        slot_of: Mapping[Variable, int],
        symbols: SymbolTable,
    ):
        step = plan.steps[step_index]
        values = symbols.terms_view()
        self.predicate = step.atom.predicate
        self.is_pivot = plan.pivot is not None and step_index == 0
        self.probe_positions = step.probe_positions
        # At a pivot step (always step 0) probe terms can only be
        # constants — no variable is bound before the first step — so the
        # delta scan verifies them against the id columns directly.
        parts: list[tuple[bool, int]] = []
        verify: list[tuple[int, int]] = []
        for position, term in zip(step.probe_positions, step.probe_terms):
            if isinstance(term, Variable):
                parts.append((False, slot_of[term]))
            else:
                constant_id = symbols.intern(term)
                parts.append((True, constant_id))
                verify.append((position, constant_id))
        self.make_key = (
            _compile_key(parts) if parts and not self.is_pivot else None
        )
        self.verify = tuple(verify) if self.is_pivot else ()
        self.binds = tuple(
            (position, slot_of[variable])
            for position, variable in step.bind_positions
        )
        self.checks = tuple(
            (position, slot_of[variable])
            for position, variable in step.check_positions
        )
        self.assignments = tuple(
            (slot_of[variable], _compile_assignment(expression, slot_of, symbols))
            for variable, expression in step.assignments
        )
        self.conditions = tuple(
            _compile_condition(condition, slot_of, values)
            for condition in step.conditions
        )
        self.negations = tuple(
            _NegationKernel(atom, slot_of, symbols) for atom in step.negated
        )


class PlanKernel:
    """A :class:`JoinPlan` compiled to an int-register join pipeline."""

    __slots__ = ("plan", "steps", "slots")

    def __init__(
        self,
        plan: JoinPlan,
        slot_of: Mapping[Variable, int],
        symbols: SymbolTable,
    ):
        self.plan = plan
        self.slots = len(slot_of)
        self.steps = tuple(
            _StepKernel(plan, index, slot_of, symbols)
            for index in range(len(plan.steps))
        )

    @property
    def pivot_predicate(self) -> str | None:
        pivot = self.plan.pivot
        if pivot is None:
            return None
        return self.plan.steps[0].atom.predicate

    def execute(
        self,
        database: Database,
        exclude: frozenset[Fact],
        delta_rows: Sequence[int] | None,
        counters: list[int],
    ) -> list[_Entry]:
        """All full matches as (sequence, fact) tuples in body order.

        ``counters`` is ``[probes, scanned, pruned, matches]``, updated in
        place with the same semantics as the interpreted executor had.
        """
        probes = 0
        scanned = 0
        pruned = 0
        # A partial is (registers, matched rows in step order).
        partials: list[tuple[list[int], tuple[int, ...]]] = [
            ([-1] * self.slots, _EMPTY_ROWS)
        ]
        for step in self.steps:
            predicate = step.predicate
            columns = database.columns(predicate)
            facts_list = database.rows(predicate)
            buckets: dict | None = None
            source: Sequence[int] = _EMPTY_ROWS
            if step.is_pivot:
                if delta_rows is not None:
                    source = delta_rows
            elif step.make_key is not None:
                buckets = database.index_on(predicate, step.probe_positions)
            else:
                source = range(len(facts_list))
            make_key = step.make_key
            verify = step.verify
            binds = step.binds
            checks = step.checks
            assignments = step.assignments
            conditions = step.conditions
            negations = (
                tuple(
                    (
                        negation.make_key,
                        database.index_on(negation.predicate, negation.positions),
                        database.rows(negation.predicate),
                    )
                    for negation in step.negations
                )
                if step.negations
                else ()
            )
            next_partials: list[tuple[list[int], tuple[int, ...]]] = []
            for regs, used in partials:
                probes += 1
                if buckets is not None:
                    candidates = buckets.get(make_key(regs), _EMPTY_ROWS)
                else:
                    candidates = source
                for row in candidates:
                    scanned += 1
                    if exclude and facts_list[row] in exclude:
                        continue
                    if verify and any(
                        columns[position][row] != constant_id
                        for position, constant_id in verify
                    ):
                        continue
                    extended = regs.copy()
                    for position, slot in binds:
                        extended[slot] = columns[position][row]
                    if checks and any(
                        extended[slot] != columns[position][row]
                        for position, slot in checks
                    ):
                        continue
                    ok = True
                    for slot, compute in assignments:
                        try:
                            extended[slot] = compute(extended)
                        except EvaluationError:
                            ok = False
                            break
                    if ok:
                        try:
                            ok = all(
                                condition(extended) for condition in conditions
                            )
                        except EvaluationError:
                            ok = False
                    if not ok:
                        pruned += 1
                        continue
                    if negations:
                        blocked = False
                        for make_negation_key, neg_buckets, neg_facts in negations:
                            hits = neg_buckets.get(make_negation_key(extended))
                            if not hits:
                                continue
                            if exclude and all(
                                neg_facts[hit] in exclude for hit in hits
                            ):
                                continue
                            blocked = True
                            break
                        if blocked:
                            continue
                    next_partials.append((extended, used + (row,)))
            partials = next_partials
            if not partials:
                break
        counters[0] += probes
        counters[1] += scanned
        counters[2] += pruned
        counters[3] += len(partials)
        if not partials:
            return []
        restore = self.plan.step_of_atom
        rows_by_step = [database.rows(s.predicate) for s in self.steps]
        seqs_by_step = [database.row_sequences(s.predicate) for s in self.steps]
        body = range(len(restore))
        entries: list[_Entry] = []
        for _regs, used in partials:
            steps_of_body = [restore[index] for index in body]
            entries.append(
                (
                    tuple(seqs_by_step[s][used[s]] for s in steps_of_body),
                    tuple(rows_by_step[s][used[s]] for s in steps_of_body),
                )
            )
        return entries


class RuleKernel:
    """A rule's full plan plus delta variants, compiled and reusable.

    Compiled once per stratum (ids and closures stay valid as the
    database grows — columns and the symbol table are live views) and
    executed every round; :attr:`execs` counts executions for the
    ``kernel_execs`` plan stat.
    """

    __slots__ = (
        "rule_plan",
        "symbols",
        "canonical",
        "full",
        "variants",
        "body_sources",
        "assignments",
        "execs",
    )

    def __init__(self, rule_plan: RulePlan, symbols: SymbolTable):
        self.rule_plan = rule_plan
        self.symbols = symbols
        self.canonical = rule_plan.full.canonical_variables
        slot_of = {
            variable: slot for slot, variable in enumerate(self.canonical)
        }
        self.full = PlanKernel(rule_plan.full, slot_of, symbols)
        self.variants = tuple(
            PlanKernel(variant, slot_of, symbols)
            for variant in rule_plan.delta_variants
        )
        # Where naive matching binds each body variable: its first
        # occurrence scanning body atoms in written order.  Final bindings
        # take the *actual* term stored at that occurrence, so rendered
        # output never sees canonical ids.
        sources: list[tuple[Variable, int, int]] = []
        placed: set[Variable] = set()
        for atom_index, atom in enumerate(rule_plan.rule.body):
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term not in placed:
                    placed.add(term)
                    sources.append((term, atom_index, position))
        self.body_sources = tuple(sources)
        self.assignments = tuple(rule_plan.rule.assignments)
        self.execs = 0

    def execute(
        self,
        database: Database,
        exclude: frozenset[Fact],
        delta_by_predicate: Mapping[str, list[Fact]] | None = None,
        stats: dict | None = None,
    ) -> list[Match]:
        """The rule's full matches in naive enumeration order.

        Without a delta the full plan runs; with one (grouped by
        predicate), every delta variant whose pivot predicate intersects
        the delta runs and the union is deduplicated by parent sequence
        tuple (a homomorphism touching two delta facts is found once per
        pivot).  Either way the entries are sorted by that tuple and each
        binding is rebuilt from the matched facts (see module docstring).
        The execution's counters and wall time add to ``stats`` (the
        rule's ``ChaseStats.plans`` entry) and to the open flight record.
        """
        if database.symbols is not self.symbols:
            raise ValueError(
                "kernel compiled against a different symbol table than "
                "the database it is executed on"
            )
        # The clock is read only when a sink takes the time, so an
        # un-observed incremental update pays one attribute check.
        flight = obs.current_flight()
        timed = stats is not None or flight is not None
        started = time.perf_counter() if timed else 0.0
        counters = [0, 0, 0, 0]
        if delta_by_predicate is None:
            entries = self.full.execute(database, exclude, None, counters)
        else:
            entries = []
            seen: set[tuple[int, ...]] = set()
            locate = database.location
            for variant in self.variants:
                delta_facts = delta_by_predicate.get(variant.pivot_predicate)
                if not delta_facts:
                    continue
                delta_rows = [locate(fact)[1] for fact in delta_facts]
                for entry in variant.execute(
                    database, exclude, delta_rows, counters
                ):
                    if entry[0] in seen:
                        continue
                    seen.add(entry[0])
                    entries.append(entry)
        entries.sort(key=lambda entry: entry[0])
        self.execs += 1
        elapsed = time.perf_counter() - started if timed else 0.0
        if flight is not None:
            flight.count("kernel_execs")
            flight.count("kernel_index_probes", counters[0])
            flight.count("kernel_rows_scanned", counters[1])
            flight.count("kernel_rows_emitted", counters[3])
            flight.add_phase("kernel_execute", elapsed)
        if stats is not None:
            stats["probes"] = stats.get("probes", 0) + counters[0]
            stats["scanned"] = stats.get("scanned", 0) + counters[1]
            stats["pruned"] = stats.get("pruned", 0) + counters[2]
            stats["matches"] = stats.get("matches", 0) + counters[3]
            stats["kernel_execs"] = stats.get("kernel_execs", 0) + 1
            stats["wall_s"] = stats.get("wall_s", 0.0) + elapsed
        return [(self.binding(facts), facts) for _seqs, facts in entries]

    def binding(self, facts: tuple[Fact, ...]) -> MutableSubstitution:
        """The binding of the match ``facts`` (body order) exactly as
        naive matching builds it (see module docstring)."""
        binding: MutableSubstitution = {
            variable: facts[atom_index].terms[position]
            for variable, atom_index, position in self.body_sources
        }
        for variable, expression in self.assignments:
            binding[variable] = evaluate_assignment(expression, binding)
        return binding


def compile_rule_kernel(rule_plan: RulePlan, database: Database) -> RuleKernel:
    """Compile ``rule_plan`` into a kernel bound to ``database``'s symbols."""
    return RuleKernel(rule_plan, database.symbols)
