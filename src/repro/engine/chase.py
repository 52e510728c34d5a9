"""The chase procedure with provenance recording.

The chase enforces a rule set Σ over a database D, incrementally adding the
facts entailed by rule applications until fixpoint (paper, Section 3).  Our
implementation:

* evaluates rules round-by-round in program order over compiled join
  kernels (:mod:`repro.engine.planner`, :mod:`repro.engine.kernels`), each
  rule re-joining only the facts added since its own last turn; matches
  fire in insertion-sequence order, which makes runs fully deterministic
  and byte-identical to the naive oracle (:mod:`repro.engine.reference`).
  That order is canonical: an EDB fact ranks by its EDB position, a
  derived fact by (round, rule position, its parents' ranks), which is
  what lets :meth:`ChaseEngine.update` maintain a result that agrees
  with a fresh run by construction;
* supports **monotonic aggregations**: an aggregate rule is evaluated
  set-at-a-time per group; when recursion lets a group's aggregate grow, a
  new fact with the larger value is derived and the previous fact from the
  same rule and group is *superseded* — it remains part of the chase graph
  (monotonicity: derived knowledge is never retracted) but no longer feeds
  further rule applications, mirroring the final-value semantics of
  Vadalog's monotonic aggregations.  Evaluation is incremental as
  Vadalog's is: a rule's contributions stand in a :class:`GroupTable`
  for its stratum, a turn joins only the rule's delta window, and only
  groups that gained or lost a contribution are evaluated again — the
  rest are those whole re-evaluation (the oracle) finds unchanged;
* handles existential head variables with fresh labelled nulls under the
  **restricted chase**: a rule is not fired when its head is already
  satisfied by a homomorphism extending the body match, which guarantees
  termination for the (warded) programs considered in the paper;
* records one :class:`ChaseStepRecord` per derived fact — rule, matched
  body facts, variable binding and, for aggregates, the individual
  contributors — from which the chase graph and all proofs are built.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .. import obs
from ..datalog.atoms import Fact
from ..datalog.conditions import evaluate_expression
from ..datalog.errors import DatalogError, EvaluationError, NotDerived
from ..datalog.program import Program
from ..datalog.rules import Constraint, Rule
from ..datalog.stratification import stratify
from ..datalog.terms import Constant, NullFactory, Term, Variable
from ..datalog.unify import MutableSubstitution, apply_substitution
from .database import Database
from .kernels import Match, RuleKernel, compile_rule_kernel
from .planner import plan_rule
from .reference import match_conjunction, naive_stratum


class ChaseError(DatalogError):
    """Raised when the chase cannot proceed (e.g. round limit exceeded)."""


@dataclass(frozen=True, slots=True)
class Contribution:
    """One body homomorphism feeding an aggregate application.

    ``facts`` are the matched body facts for this homomorphism and ``value``
    is the evaluated aggregate argument (e.g. one loan amount feeding a
    ``sum``).
    """

    facts: tuple[Fact, ...]
    value: object
    binding: Mapping[Variable, Term]


#: An aggregate group as :func:`fire_groups` takes it: its key (the
#: terms of the group-by variables) and its contributions, in order.
Group = tuple[tuple[Term, ...], tuple[Contribution, ...]]


@dataclass(frozen=True)
class ConstraintViolation:
    """A satisfied negative constraint body: φ(x̄, ȳ) → ⊥ fired.

    The engine reports violations instead of aborting: supervisory
    applications want the full list, each explainable from its witnesses.
    """

    constraint: Constraint
    binding: Mapping[Variable, Term]
    witnesses: tuple[Fact, ...]

    def __str__(self) -> str:
        facts = ", ".join(str(w) for w in self.witnesses)
        return f"constraint {self.constraint.label} violated by {facts}"


@dataclass(frozen=True)
class ChaseStepRecord:
    """Provenance of a single chase step.

    ``parents`` lists every body fact the step consumed (for aggregates:
    the union over all contributors).  ``contributors`` is non-empty exactly
    for aggregate rules; its length is the number of inputs the aggregation
    combined — the signal that drives the selection between plain and
    "dashed" reasoning paths (paper, Sections 4.1 and 4.3).
    """

    index: int
    round: int
    rule: Rule
    fact: Fact
    parents: tuple[Fact, ...]
    binding: Mapping[Variable, Term]
    contributors: tuple[Contribution, ...] = ()
    aggregate_value: object | None = None

    @property
    def rule_label(self) -> str:
        return self.rule.label

    @property
    def is_aggregate(self) -> bool:
        return bool(self.contributors)

    @property
    def multi_contributor(self) -> bool:
        """Whether the aggregation combined more than one input fact."""
        return len(self.contributors) > 1

    def __str__(self) -> str:
        parents = ", ".join(str(p) for p in self.parents)
        return f"[{self.rule_label}] {parents} => {self.fact}"


@dataclass
class ChaseStats:
    """Aggregated behaviour of one chase run, for reports and tests.

    Reports and regression tests assert on chase behaviour (how many
    rounds, which rules fired how often, what got deduplicated) here,
    and ``plans`` is the one per-kernel ledger the kernel profile
    (:func:`repro.obs.kernel_profile`) is read from.  Maintained inline
    by the engine — plain dict updates, cheap enough for the hot loop.
    """

    rounds: int = 0
    strata: int = 0
    rule_firings: dict[str, int] = field(default_factory=dict)
    facts_by_predicate: dict[str, int] = field(default_factory=dict)
    facts_derived: int = 0
    facts_deduplicated: int = 0
    constraint_checks: int = 0
    violations: int = 0
    rounds_per_stratum: list[int] = field(default_factory=list)
    delta_sizes: list[int] = field(default_factory=list)
    #: Per-rule join-plan facts and runtime counters (planned strategy
    #: only): atom order, hoisted conditions, probes/scanned/matches,
    #: pruned, kernel_execs, the kernels' summed wall_s, and for
    #: aggregate rules groups_evaluated (summed over turns) and
    #: groups_standing (in the table at stratum end).
    plans: dict[str, dict] = field(default_factory=dict)
    plans_compiled: int = 0
    #: Compiled rule kernels (planned strategy): how many closures were
    #: built and how long compilation took, for the stats document.
    kernels_compiled: int = 0
    kernel_compile_s: float = 0.0
    #: Symbol-table size at end of run (distinct interned terms).
    symbols: int = 0

    def record_firing(self, rule_label: str, predicate: str) -> None:
        self.rule_firings[rule_label] = self.rule_firings.get(rule_label, 0) + 1
        self.facts_by_predicate[predicate] = (
            self.facts_by_predicate.get(predicate, 0) + 1
        )
        self.facts_derived += 1

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "strata": self.strata,
            "rule_firings": dict(sorted(self.rule_firings.items())),
            "facts_by_predicate": dict(sorted(self.facts_by_predicate.items())),
            "facts_derived": self.facts_derived,
            "facts_deduplicated": self.facts_deduplicated,
            "constraint_checks": self.constraint_checks,
            "violations": self.violations,
            "rounds_per_stratum": list(self.rounds_per_stratum),
            "delta_sizes": list(self.delta_sizes),
            "plans_compiled": self.plans_compiled,
            "kernels_compiled": self.kernels_compiled,
            "kernel_compile_s": self.kernel_compile_s,
            "symbols": self.symbols,
            "plans": {
                label: dict(entry)
                for label, entry in sorted(self.plans.items())
            },
        }


@dataclass
class ChaseResult:
    """Outcome of a chase run: the materialized instance plus provenance.

    ``records`` are in canonical order.  A record's ``index`` is an id,
    unique within the result: a fresh run numbers records in order, an
    update numbers the ones it writes from ``next_index`` on.
    """

    program: Program
    database: Database
    records: list[ChaseStepRecord] = field(default_factory=list)
    derivation: dict[Fact, ChaseStepRecord] = field(default_factory=dict)
    superseded: set[Fact] = field(default_factory=set)
    violations: list[ConstraintViolation] = field(default_factory=list)
    rounds: int = 0
    stats: ChaseStats = field(default_factory=ChaseStats)
    next_index: int = 0
    _children: dict[Fact, list[ChaseStepRecord]] | None = field(
        default=None, repr=False, compare=False
    )

    def children(self) -> dict[Fact, list[ChaseStepRecord]]:
        """Fact -> the records that consumed it, in canonical order (built
        on first use; an update patches a copy).  Read-only."""
        children = self._children
        if children is None:
            children = {}
            for record in self.records:
                for parent in record.parents:
                    children.setdefault(parent, []).append(record)
            self._children = children
        return children

    # ------------------------------------------------------------------
    # Queries over the materialized instance
    # ------------------------------------------------------------------
    def facts(self, predicate: str, include_superseded: bool = False) -> tuple[Fact, ...]:
        """The (active) facts of a predicate in the final instance."""
        all_facts = self.database.facts(predicate)
        if include_superseded:
            return all_facts
        return tuple(f for f in all_facts if f not in self.superseded)

    def is_derived(self, current: Fact) -> bool:
        """Whether the fact was produced by a chase step (vs. extensional)."""
        return current in self.derivation

    def record_for(self, current: Fact) -> ChaseStepRecord:
        """The chase step that derived ``current``; raises for EDB facts."""
        record = self.derivation.get(current)
        if record is None:
            raise NotDerived(current)
        return record

    def derived_facts(self) -> tuple[Fact, ...]:
        return tuple(record.fact for record in self.records)

    def step_count(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ChaseStepRecord]:
        return iter(self.records)


class ChaseEngine:
    """Runs the chase for a program over a database.

    The engine is stateless between runs; construct once and reuse.

    Parameters
    ----------
    max_rounds:
        Safety valve against non-terminating programs; the paper only
        considers programs whose termination is guaranteed, so hitting the
        limit raises :class:`ChaseError` rather than truncating silently.
    strategy:
        ``"planned"`` (the engine) compiles each rule body into a
        selectivity-ordered hash-join plan at stratum entry
        (:mod:`repro.engine.planner`), lowers the plan to a specialized
        closure kernel (:mod:`repro.engine.kernels`) that joins over the
        database's interned-id columns, and fires matches in naive
        enumeration order.  ``"naive"`` (the oracle,
        :mod:`repro.engine.reference`) re-evaluates every rule against the
        whole instance in every round with a generic conjunction walk; it
        exists so tests and parity benchmarks have ground truth, and must
        produce byte-identical facts and provenance.
    """

    #: Supported evaluation strategies: the engine, then its oracle.
    STRATEGIES = ("planned", "naive")

    def __init__(self, max_rounds: int = 10_000, strategy: str = "planned"):
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown chase strategy {strategy!r}; "
                f"choose from {self.STRATEGIES}"
            )
        self.max_rounds = max_rounds
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, program: Program, database: Database) -> ChaseResult:
        """Chase ``database`` with ``program`` until fixpoint.

        The input database is not modified; the result holds a copy that
        includes all derived facts.  Programs with negation are evaluated
        stratum by stratum (stratified semantics); negative constraints
        are checked against the final instance and reported as
        ``result.violations``.
        """
        working = database.copy()
        result = ChaseResult(program=program, database=working)
        nulls = NullFactory()
        # Latest fact per (aggregate rule, group key), for supersession.
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact] = {}

        if program.has_negation:
            rule_groups = stratify(program).strata
        else:
            rule_groups = (program.rules,)

        stats = result.stats
        with obs.phase("chase.run"):
            total_rounds = 0
            for rules in rule_groups:
                with obs.phase("chase.stratum"):
                    stratum_rounds = self._run_stratum(
                        rules, result, nulls, aggregate_state, total_rounds
                    )
                stats.rounds_per_stratum.append(stratum_rounds)
                total_rounds += stratum_rounds
            result.rounds = total_rounds
            stats.rounds = total_rounds
            stats.strata = len(rule_groups)
            with obs.phase("chase.constraints"):
                check_constraints(program, result)
        stats.violations = len(result.violations)
        stats.symbols = len(working.symbols)
        flight = obs.current_flight()
        if flight is not None:
            flight.count("chase_runs")
            flight.count("chase_rounds", stats.rounds)
            flight.count("chase_facts_derived", stats.facts_derived)
            if stats.violations:
                flight.event(
                    "constraint_violations",
                    program=program.name,
                    violations=stats.violations,
                )
        self._flush_metrics(stats)
        return result

    def update(
        self,
        program: Program,
        previous: ChaseResult,
        adds: tuple[Fact, ...] | list[Fact] = (),
        retracts: tuple[Fact, ...] | list[Fact] = (),
    ):
        """Apply an extensional add/retract delta to a previous result.

        Returns an :class:`repro.engine.incremental.UpdateOutcome` whose
        ``result`` equals a fresh :meth:`run` over the post-delta EDB
        (DESIGN §13 states the parity contract; only record ids differ).
        The result is maintained in time proportional to the delta's
        forward closure (:mod:`repro.engine.incremental`): records outside
        it are never visited, and ``previous`` is left whole for readers.
        Programs outside the maintained fragment (existential rules,
        aggregates that supersede their own values) fall back to a full
        chase transparently.
        """
        from . import incremental

        try:
            return incremental.incremental_update(
                program, previous, adds, retracts, max_rounds=self.max_rounds
            )
        except incremental.IncrementalFallback:
            # Raised only after the delta resolved to a change.
            started = time.perf_counter()
            new_edb, added, retracted = incremental.resolve_delta(
                previous, adds, retracts
            )
            outcome = incremental.UpdateOutcome(
                result=self.run(program, Database(new_edb)), mode="full",
                added=added, retracted=retracted,
                elapsed_s=time.perf_counter() - started,
            )
            incremental.flush_update_metrics(outcome)
            return outcome

    @staticmethod
    def _flush_metrics(stats: ChaseStats) -> None:
        """Publish one run's aggregate counts to the ambient registry.

        Flushed once per run (not per fact) so the hot loop only touches
        the lock-free :class:`ChaseStats` dicts.
        """
        obs.incr("chase.runs")
        for label, firings in stats.rule_firings.items():
            obs.incr(f"chase.firings.{label}", firings)
        obs.observe("chase.rounds", stats.rounds)
        obs.set_gauge("chase.symbols", stats.symbols)
        if stats.kernels_compiled:
            obs.incr("chase.kernels_compiled", stats.kernels_compiled)
            obs.observe("chase.kernel_compile_s", stats.kernel_compile_s)
            obs.incr(
                "chase.kernel_execs",
                sum(
                    entry.get("kernel_execs", 0)
                    for entry in stats.plans.values()
                ),
            )
        if stats.plans_compiled:
            obs.incr("chase.plan_compiled", stats.plans_compiled)
            for key in ("probes", "scanned", "matches", "pruned"):
                total = sum(
                    entry.get(key, 0) for entry in stats.plans.values()
                )
                obs.incr(f"chase.plan_{key}", total)
            obs.incr(
                "chase.plan_hoisted_conditions",
                sum(
                    entry.get("hoisted_conditions", 0)
                    for entry in stats.plans.values()
                ),
            )
            obs.incr(
                "chase.aggregate_groups_evaluated",
                sum(
                    entry.get("groups_evaluated", 0)
                    for entry in stats.plans.values()
                ),
            )

    def _run_stratum(
        self,
        rules,
        result: ChaseResult,
        nulls: NullFactory,
        aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
        rounds_so_far: int,
    ) -> int:
        """Delta-driven evaluation over compiled join plans.

        Each rule body is compiled once at stratum entry
        (:func:`repro.engine.planner.plan_rule`, cardinalities read from
        the live instance), then lowered to a closure kernel
        (:func:`repro.engine.kernels.compile_rule_kernel`) that is reused
        every round — kernels close over live column and symbol-table
        views, so database growth never invalidates them.  Unlike the
        classic semi-naive round delta, each rule keeps a **rolling
        window**: the facts added since that rule's own last match
        materialization.  Naive evaluation lets a rule see facts fired by
        earlier rules *within the same round*, so a per-round delta would
        discover some derivations one round late; the rolling window
        reproduces naive's visibility — and hence round numbers, firing
        order and provenance — exactly, while still never re-joining old
        facts against old facts.

        Aggregate rules run off the same window.  Their matches are
        contributions, kept in a :class:`GroupTable` for the stratum:
        round 1 fills it from the full kernel, every later turn adds the
        delta matches, drops the contributions of facts superseded since
        the rule's last turn, and evaluates only the groups touched
        either way (:func:`fire_groups`).

        ``strategy="naive"`` hands the stratum to the oracle's round loop
        (:func:`repro.engine.reference.naive_stratum`) instead.
        """
        if self.strategy == "naive":
            return naive_stratum(
                rules, result, nulls, aggregate_state, rounds_so_far,
                self.max_rounds,
            )
        stats = result.stats
        database = result.database
        kernels: list[RuleKernel] = []
        with obs.phase("chase.plan"):
            for rule in rules:
                compiled = plan_rule(rule, database)
                stats.plans_compiled += 1
                entry = stats.plans.setdefault(rule.label, {})
                entry.update(compiled.snapshot())
                started = time.perf_counter()
                kernels.append(compile_rule_kernel(compiled, database))
                stats.kernel_compile_s += time.perf_counter() - started
                stats.kernels_compiled += 1
        # Insertion-ordered view of the instance; windows are slices of it.
        timeline: list[Fact] = list(database.facts())
        last_seen = [0] * len(rules)
        body_predicates = [frozenset(rule.body_predicates()) for rule in rules]
        tables = [
            GroupTable(rule) if rule.has_aggregate else None for rule in rules
        ]
        # What this stratum superseded, in order: a table reads the tail
        # it has not seen, and the exclude set is rebuilt only on growth.
        superseded_log: list[Fact] = []
        exclude = frozenset(result.superseded)
        for round_number in range(1, self.max_rounds + 1):
            before_round = len(result.records)
            for index, (rule, kernel) in enumerate(zip(rules, kernels)):
                seen_at_start = len(timeline)
                window = timeline[last_seen[index]:]
                last_seen[index] = seen_at_start
                delta_map: dict[str, list[Fact]] | None = None
                if round_number > 1:
                    if not window:
                        continue
                    delta_map = group_by_predicate(window)
                    if not any(
                        predicate in delta_map
                        for predicate in body_predicates[index]
                    ):
                        continue
                before_rule = len(result.records)
                if len(exclude) != len(result.superseded):
                    exclude = frozenset(result.superseded)
                plan_stats = stats.plans[rule.label]
                # Materialized before firing (firing must not see this
                # turn's output).
                matches = kernel.execute(
                    database, exclude, delta_map, plan_stats
                )
                table = tables[index]
                if table is None:
                    fire_plain(
                        rule, matches, result, nulls,
                        rounds_so_far + round_number,
                    )
                else:
                    touched = table.update(
                        matches, superseded_log, database.sequence
                    )
                    fired = fire_groups(
                        rule, touched, result, aggregate_state,
                        rounds_so_far + round_number,
                    )
                    superseded_log.extend(
                        old for _, _, old in fired if old is not None
                    )
                    plan_stats["groups_evaluated"] = (
                        plan_stats.get("groups_evaluated", 0) + len(touched)
                    )
                    plan_stats["groups_standing"] = len(table.groups)
                timeline.extend(
                    record.fact for record in result.records[before_rule:]
                )
            new_this_round = len(result.records) - before_round
            stats.delta_sizes.append(new_this_round)
            if not new_this_round:
                return round_number
        raise ChaseError(
            f"chase did not reach fixpoint within {self.max_rounds} rounds "
            f"for program {result.program.name!r}"
        )


def group_by_predicate(facts: Iterable[Fact]) -> dict[str, list[Fact]]:
    """Group a delta by predicate, the form :meth:`RuleKernel.execute`
    takes it in (one pass per rule turn)."""
    grouped: dict[str, list[Fact]] = {}
    for current in facts:
        grouped.setdefault(current.predicate, []).append(current)
    return grouped


# ----------------------------------------------------------------------
# Negative constraints
# ----------------------------------------------------------------------
def check_constraints(program: Program, result: ChaseResult) -> None:
    """Append one violation per match of a constraint body in the final
    instance (superseded aggregate values excluded)."""
    exclude = frozenset(result.superseded)
    for constraint in program.constraints:
        result.stats.constraint_checks += 1
        for binding, used in match_conjunction(
            result.database, constraint.body, constraint.conditions,
            constraint.negated, exclude,
        ):
            result.violations.append(
                ConstraintViolation(
                    constraint=constraint,
                    binding=dict(binding),
                    witnesses=used,
                )
            )


# ----------------------------------------------------------------------
# Firing: body matches in, facts and provenance records out
# ----------------------------------------------------------------------
def fire_plain(
    rule: Rule,
    matches: Iterable[Match],
    result: ChaseResult,
    nulls: NullFactory,
    round_number: int,
) -> bool:
    """Fire a plain rule on already-materialized body matches."""
    changed = False
    for binding, used in matches:
        if rule.is_existential:
            # Restricted chase: skip when the head is already satisfied
            # (indexed lookup; pattern variables are the existentials).
            head_pattern = apply_substitution(rule.head, binding)
            if next(result.database.match(head_pattern), None) is not None:
                continue
            for variable in rule.existentials:
                binding[variable] = nulls.fresh()
        derived = apply_substitution(rule.head, binding)
        if not derived.is_fact():
            raise EvaluationError(
                f"rule {rule.label} produced non-ground head {derived}"
            )
        if result.database.add(derived):
            changed = True
            record = ChaseStepRecord(
                index=len(result.records),
                round=round_number,
                rule=rule,
                fact=derived,
                parents=used,
                binding=dict(binding),
            )
            result.records.append(record)
            result.derivation[derived] = record
            result.stats.record_firing(rule.label, derived.predicate)
        else:
            result.stats.facts_deduplicated += 1
    return changed


def aggregate_group_head(
    rule: Rule, key: tuple[Term, ...], contributions: Iterable[Contribution]
) -> tuple[Fact, object, MutableSubstitution] | None:
    """Evaluate one aggregate group set-at-a-time.

    Returns ``(derived fact, aggregate value, group binding)``, or
    ``None`` when a post-aggregation condition rejects the group.
    """
    aggregate = rule.aggregate
    assert aggregate is not None
    _pre, post, key_vars = rule.aggregate_split
    value = aggregate.evaluate(c.value for c in contributions)
    group_binding: MutableSubstitution = dict(zip(key_vars, key))
    group_binding[aggregate.result] = Constant(value)
    if not all(condition.holds(group_binding) for condition in post):
        return None
    derived = apply_substitution(rule.head, group_binding)
    if not derived.is_fact():
        raise EvaluationError(
            f"aggregate rule {rule.label} produced non-ground head "
            f"{derived}; check that all head variables are grouped"
        )
    return derived, value, group_binding


def group_contribution(
    rule: Rule, binding: MutableSubstitution, used: tuple[Fact, ...]
) -> tuple[tuple[Term, ...], Contribution]:
    """One body match of an aggregate rule as ``(group key, contribution)``.
    The binding is kept, not copied: every matcher builds one per match."""
    aggregate = rule.aggregate
    assert aggregate is not None
    key = tuple(binding[v] for v in rule.aggregate_split[2])
    value = evaluate_expression(aggregate.argument, binding)
    return key, Contribution(facts=used, value=value, binding=binding)


class GroupTable:
    """An aggregate rule's standing contributions, for one stratum.

    ``groups`` maps a group key to the group's contributions in ascending
    parent-sequence order — the order whole re-evaluation lists them in —
    each paired with that sequence tuple.  ``groups_of`` maps a body fact
    to the keys of the groups it feeds, so dropping a superseded fact's
    contributions never scans the table.
    """

    __slots__ = ("rule", "groups", "groups_of", "superseded_seen")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.groups: dict[
            tuple[Term, ...], list[tuple[tuple[int, ...], Contribution]]
        ] = {}
        self.groups_of: dict[Fact, set[tuple[Term, ...]]] = {}
        #: How much of the stratum's supersession log is accounted for.
        self.superseded_seen = 0

    def update(
        self,
        matches: Iterable[Match],
        superseded_log: list[Fact],
        sequence: Callable[[Fact], int],
    ) -> list[Group]:
        """Drop the contributions of facts superseded since the last
        call, insert the new ``matches``, and return the groups touched
        either way in first-contribution order — the order whole
        re-evaluation meets them in."""
        groups = self.groups
        touched: set[tuple[Term, ...]] = set()
        for stale in superseded_log[self.superseded_seen:]:
            for key in self.groups_of.pop(stale, ()):
                # A group emptied earlier is gone while the reverse map
                # of its other parents still names it.
                entries = groups.get(key, ())
                kept = [e for e in entries if stale not in e[1].facts]
                if len(kept) != len(entries):
                    touched.add(key)
                    if kept:
                        groups[key] = kept
                    else:
                        del groups[key]
        self.superseded_seen = len(superseded_log)
        for binding, used in matches:
            key, contribution = group_contribution(self.rule, binding, used)
            entry = (tuple(map(sequence, used)), contribution)
            entries = groups.setdefault(key, [])
            if entries and entry[0] < entries[-1][0]:
                # A body atom derived late in the stratum sorts its new
                # matches before standing ones.
                insort(entries, entry)
            else:
                entries.append(entry)
            for parent in used:
                self.groups_of.setdefault(parent, set()).add(key)
            touched.add(key)
        return [
            (key, tuple(contribution for _, contribution in groups[key]))
            for key in sorted(
                touched & groups.keys(), key=lambda key: groups[key][0][0]
            )
        ]


def fire_groups(
    rule: Rule,
    groups: Iterable[Group],
    result: ChaseResult,
    aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
    round_number: int,
) -> list[tuple[tuple[Term, ...], Fact, Fact | None]]:
    """Evaluate aggregate groups, given in first-contribution order, and
    fire those whose head changed: the one emission step of the engine
    and the oracle.

    Returns, per fired group, its key, the derived fact and the fact it
    superseded (``None`` for a first value).  A group whose head is in
    the instance already neither updates the group state nor supersedes.
    """
    label = rule.label
    fired: list[tuple[tuple[Term, ...], Fact, Fact | None]] = []
    for key, contributions in groups:
        previous = aggregate_state.get((label, key))
        evaluated = aggregate_group_head(rule, key, contributions)
        if evaluated is None:
            continue
        derived, value, group_binding = evaluated
        if derived == previous:
            continue
        if not result.database.add(derived):
            result.stats.facts_deduplicated += 1
            continue
        record = ChaseStepRecord(
            index=len(result.records),
            round=round_number,
            rule=rule,
            fact=derived,
            parents=dedupe_parents(contributions),
            binding=group_binding,
            contributors=contributions,
            aggregate_value=value,
        )
        result.records.append(record)
        result.derivation[derived] = record
        result.stats.record_firing(label, derived.predicate)
        # Monotonic supersession: the refreshed aggregate replaces the
        # stale value for future rule applications.
        if previous is not None:
            result.superseded.add(previous)
        aggregate_state[(label, key)] = derived
        fired.append((key, derived, previous))
    return fired


def dedupe_parents(contributions: Iterable[Contribution]) -> tuple[Fact, ...]:
    """The union of the contributions' body facts, first occurrence first."""
    seen: dict[Fact, None] = {}
    for contribution in contributions:
        for parent in contribution.facts:
            seen.setdefault(parent, None)
    return tuple(seen)


def chase(
    program: Program,
    database: Database,
    max_rounds: int = 10_000,
    strategy: str = "planned",
) -> ChaseResult:
    """Convenience wrapper: run the chase with a fresh engine."""
    return ChaseEngine(max_rounds=max_rounds, strategy=strategy).run(
        program, database
    )
