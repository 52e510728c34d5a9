"""Incremental chase maintenance: an update costs its forward closure.

This module maintains a :class:`~repro.engine.chase.ChaseResult` under
extensional add/retract deltas in time proportional to the delta's
*forward closure*, the facts whose derivation can change; records
outside it are never visited.

**Why a closure suffices.**  The chase is deterministic, and its order
is canonical (:mod:`repro.engine.chase`): a derived fact ranks by the
turn that first derived it — (round, rule position) — then by its
parents' ranks.  A body match of rule R is discovered at the first turn
of R at which all its parents are visible, a pure function of the
parents' turns (:meth:`_Maintenance._discovery`).  A fact's record is
therefore the least (turn, parents) over its matches, and an aggregate
group fires at the first turn that adds a contribution and passes the
group's conditions.  Nothing depends on how the result was computed, so
a maintained result and a fresh chase agree by construction, record by
record (DESIGN §13 states the contract).

**Algorithm.**  A sweep over turns in order, seeded with Δ:

* *Retract* walks the old chase graph's ``children`` from each retracted
  fact and withdraws the closure: those facts leave the join inputs and
  are re-derived only from head-bound probes — the DRed rederive step,
  run inside the closure (the provenance-graph framing of Lee et al.).
* *Add* puts the new facts into the instance and runs the compiled delta
  kernels with each as the pivot.  A match whose head has a later (or,
  at the same turn, a larger) record replaces that record, and the
  head's old children are withdrawn in turn.
* An aggregate re-evaluates only the groups a changed fact feeds, as in
  the Vadalog system's monotonic aggregation.
* Strata run in order.  A fact that vanished (or appeared) seeds the
  negated rules of the strata above it.

Every settled fact is itself a pivot, so the sweep stops where the
changes stop.  The instance is then renumbered into canonical order
(:meth:`~repro.engine.database.Database.reorder`); the result is built
from shallow copies, so no reader of the previous one sees a change.

Two fragments fall back to a full chase (``mode="full"``): existential
rules, whose restricted-chase check reads the whole instance, and
aggregates whose head carries the aggregate value, whose supersession
chains are not maintained.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cmp_to_key
from typing import NamedTuple

from .. import obs
from ..datalog.atoms import Fact
from ..datalog.errors import ArityError, UserError
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.stratification import stratify
from ..datalog.terms import Term
from ..datalog.unify import MutableSubstitution, apply_substitution, match_atom
from .chase import (
    ChaseError,
    ChaseResult,
    ChaseStepRecord,
    Contribution,
    aggregate_group_head,
    check_constraints,
    dedupe_parents,
    group_contribution,
)
from .kernels import RuleKernel, compile_rule_kernel
from .planner import plan_rule
from .reference import match_conjunction

#: (stratum, round within the stratum, rule position): one rule's turn.
Turn = tuple[int, int, int]
#: Where extensional facts sit: before every turn.
_EDB: Turn = (-1, 0, 0)


class IncrementalFallback(Exception):
    """The delta cannot be maintained; the caller should re-chase instead."""


@dataclass(frozen=True)
class UpdateOutcome:
    """What an :func:`incremental_update` (or its fallback) produced.

    ``mode`` is ``"incremental"`` (maintained), ``"full"`` (fell back to
    a fresh chase) or ``"noop"`` (the delta changed nothing).  ``added``
    and ``retracted`` are the *effective* extensional changes.
    ``replayed`` counts the records the update visited, ``recomputed``
    the records it wrote and ``rederived`` the withdrawn facts it
    derived again.  ``touched`` names the facts whose record changed,
    appeared or went (``None`` after a full chase).
    """

    result: ChaseResult
    mode: str
    added: tuple[Fact, ...]
    retracted: tuple[Fact, ...]
    replayed: int = 0
    recomputed: int = 0
    rederived: int = 0
    elapsed_s: float = 0.0
    touched: frozenset[Fact] | None = None


def extensional_facts(result: ChaseResult) -> tuple[Fact, ...]:
    """The EDB of a chase result, in original insertion order."""
    derivation = result.derivation
    return tuple(f for f in result.database.facts() if f not in derivation)


def _effective_delta(
    result: ChaseResult,
    adds: tuple[Fact, ...] | list[Fact],
    retracts: tuple[Fact, ...] | list[Fact],
) -> tuple[tuple[Fact, ...], tuple[Fact, ...]]:
    """:func:`resolve_delta` without ``new_edb``: no pass over the EDB."""
    database, derivation = result.database, result.derivation
    program = result.program
    for fact in (*adds, *retracts):
        # Data the program never reads (a Company fact beside a program
        # of ownership paths) keeps the arity the instance stores it at.
        arity = program.schema.get(
            fact.predicate, database.arity(fact.predicate)
        )
        if arity is None:
            raise ArityError(
                f"predicate {fact.predicate!r} occurs neither in program "
                f"{program.name!r} nor in its instance"
            )
        if arity != fact.arity:
            raise ArityError(
                f"predicate {fact.predicate} used with arity {fact.arity}, "
                f"expected {arity}"
            )
    for fact in retracts:
        if fact in derivation:
            raise UserError(
                f"cannot retract derived fact {fact}; "
                "retract its extensional support instead"
            )
    retracted = {f for f in retracts if f in database}
    added: dict[Fact, None] = {}
    for fact in adds:
        if not fact.is_fact():
            raise UserError(f"can only add ground facts, got {fact}")
        if fact in retracted or fact not in database or fact in derivation:
            added.setdefault(fact, None)
    return tuple(added), tuple(sorted(retracted, key=database.sequence))


def resolve_delta(
    result: ChaseResult,
    adds: tuple[Fact, ...] | list[Fact],
    retracts: tuple[Fact, ...] | list[Fact],
) -> tuple[tuple[Fact, ...], tuple[Fact, ...], tuple[Fact, ...]]:
    """Normalize a requested delta against the current EDB.

    Returns ``(new_edb, effective_adds, effective_retracts)``.  The new
    EDB preserves the relative order of retained facts and appends the
    effective adds, the order a maintained result ranks them in.
    A fact whose predicate neither the program nor the instance has, or
    has at another arity, is an :class:`ArityError`; retracting a
    *derived* fact is a :class:`UserError` — retract its extensional
    support instead; retracting an absent fact is a no-op, as is adding
    a fact that is already extensional.
    """
    added, retracted = _effective_delta(result, adds, retracts)
    gone = set(retracted)
    new_edb = tuple(f for f in extensional_facts(result) if f not in gone)
    return new_edb + added, added, retracted


def incremental_update(
    program: Program,
    previous: ChaseResult,
    adds: tuple[Fact, ...] | list[Fact] = (),
    retracts: tuple[Fact, ...] | list[Fact] = (),
    max_rounds: int = 10_000,
) -> UpdateOutcome:
    """Apply an extensional delta to ``previous``, maintaining it.

    Raises :class:`IncrementalFallback` when the program is outside the
    maintained fragment (see the module docstring); the caller is
    expected to fall back to a full chase.  ``previous`` is not modified.
    """
    started = time.perf_counter()
    added, retracted = _effective_delta(previous, adds, retracts)
    if not added and not retracted:
        return UpdateOutcome(
            result=previous, mode="noop", added=(), retracted=()
        )
    for rule in program.rules:
        # An existential rule's restricted-chase check reads the whole
        # instance; an aggregate value in the head supersedes its own.
        if rule.is_existential or (
            rule.has_aggregate and rule.aggregate.result in rule.head.variables()
        ):
            raise IncrementalFallback(f"rule {rule.label} is not maintained")
    with obs.phase("chase.update"):
        maintenance = _Maintenance(program, previous, max_rounds)
        result, touched = maintenance.run(added, retracted)
    outcome = UpdateOutcome(
        result=result, mode="incremental", added=added, retracted=retracted,
        elapsed_s=time.perf_counter() - started, touched=touched,
        replayed=maintenance.visited, recomputed=maintenance.recomputed,
        rederived=maintenance.rederived,
    )
    flush_update_metrics(outcome)
    return outcome


def flush_update_metrics(outcome: UpdateOutcome) -> None:
    """Publish one update's counters to the ambient metrics registry."""
    obs.incr("incremental.updates")
    obs.incr("chase.delta_adds", len(outcome.added))
    obs.incr("chase.delta_retracts", len(outcome.retracted))
    obs.incr("chase.delta_records_replayed", outcome.replayed)
    obs.incr("chase.delta_records_recomputed", outcome.recomputed)
    obs.incr("incremental.rederived_total", outcome.rederived)
    obs.observe("chase.delta_update_s", outcome.elapsed_s)


def _offsets(rounds_per_stratum: list[int]) -> list[int]:
    return list(itertools.accumulate(rounds_per_stratum[:-1], initial=0))


def _ranked_by(record: ChaseStepRecord) -> tuple[Fact, ...]:
    """The facts a record ranks by within its turn: the first
    contribution's for an aggregate, the parents otherwise."""
    return record.contributors[0].facts if record.contributors else record.parents


class _Settled(NamedTuple):
    """A fact the sweep derived: its turn and its record, whose round is
    the stratum-local one until the result is assembled."""

    turn: Turn
    record: ChaseStepRecord


class _Maintenance:
    """One update: a sweep over the turns the delta reaches."""

    def __init__(self, program: Program, old: ChaseResult, max_rounds: int):
        self.program, self.old, self.max_rounds = program, old, max_rounds
        self.strata = (
            stratify(program).strata if program.has_negation
            else (program.rules,)
        )
        if len(old.stats.rounds_per_stratum) != len(self.strata):
            raise IncrementalFallback(
                "previous result lacks per-stratum round bookkeeping"
            )
        self.place: dict[str, tuple[int, int]] = {}
        #: predicate -> rules deriving it / rules reading it positively.
        self.derivers: dict[str, list[Rule]] = {}
        self.readers: dict[str, list[Rule]] = {}
        for stratum, rules in enumerate(self.strata):
            for position, rule in enumerate(rules):
                self.place[rule.label] = (stratum, position)
                self.derivers.setdefault(rule.head.predicate, []).append(rule)
                for predicate in rule.body_predicates():
                    self.readers.setdefault(predicate, []).append(rule)
        #: The global round before each stratum's first.
        self.offsets = _offsets(old.stats.rounds_per_stratum)
        self.db = old.database.copy(indexes=True)
        self.rank = old.database.sequence
        self.edb_count = len(old.database) - len(old.derivation)
        self.children = old.children()
        self.kernels: dict[str, RuleKernel] = {}
        self.final: dict[Fact, _Settled] = {}
        #: Withdrawn derived facts awaiting a derivation, and every fact
        #: no join may read (pending, dead or retracted).
        self.pending: set[Fact] = set()
        self.unavailable: set[Fact] = set()
        self.dead: set[Fact] = set()
        #: Added extensional facts -> their place after the retained EDB;
        #: those the old result derived are ``demoted``.
        self.added_edb: dict[Fact, int] = {}
        self.demoted: set[Fact] = set()
        #: Presence changes, for the negated rules of later strata.
        self.appeared: list[Fact] = []
        self.vanished: list[Fact] = []
        self.heap: list = []
        self.counter = itertools.count()
        self.now: Turn = _EDB
        self.visited = self.recomputed = self.rederived = 0
        self.fact_key = cmp_to_key(self._compare)
        self.facts_key = cmp_to_key(self._compare_facts)

    def run(
        self, added: tuple[Fact, ...], retracted: tuple[Fact, ...]
    ) -> tuple[ChaseResult, frozenset[Fact]]:
        self._withdraw(retracted)
        for fact in added:
            if fact in self.old.derivation:
                self._withdraw((fact,))
                self.pending.discard(fact)
                self.demoted.add(fact)
        for position, fact in enumerate(added):
            self.added_edb[fact] = position
            self.unavailable.discard(fact)
            if self.db.add(fact):
                self.appeared.append(fact)
        self.vanished.extend(f for f in retracted if f not in self.added_edb)
        for fact in added:
            self._pivot(fact)
        for stratum in range(len(self.strata)):
            self.now = (stratum, 0, 0)
            self._enter(stratum)
            heap = self.heap
            while heap and heap[0][0][0] == stratum:
                self.now = turn = heap[0][0]
                rule = heap[0][2]
                payloads = []
                while heap and heap[0][0] == turn:
                    payloads.append(heapq.heappop(heap)[3])
                if rule.has_aggregate:
                    self._group_turn(rule, turn, payloads)
                else:
                    self._plain_turn(rule, turn, payloads)
            for fact in [
                f for f in self.pending
                if self.place[self.old.derivation[f].rule.label][0] == stratum
            ]:
                self.pending.discard(fact)
                self.dead.add(fact)
                self.vanished.append(fact)
        return self._assemble(retracted)

    def _push(self, turn: Turn, rule: Rule, payload: object) -> None:
        if turn <= self.now:
            raise IncrementalFallback(
                f"a change reached turn {turn} after the sweep passed it"
            )
        heapq.heappush(self.heap, (turn, next(self.counter), rule, payload))

    # ------------------------------------------------------------------
    # Turns and canonical order
    # ------------------------------------------------------------------
    def _old_turn(self, record: ChaseStepRecord) -> Turn:
        stratum, position = self.place[record.rule.label]
        return (stratum, record.round - self.offsets[stratum], position)

    def _time(self, fact: Fact) -> Turn | None:
        """The turn that derives ``fact`` now (``None``: unavailable)."""
        settled = self.final.get(fact)
        if settled is not None:
            return settled.turn
        if fact in self.unavailable:
            return None
        record = self.old.derivation.get(fact)
        if record is None or fact in self.demoted:
            return _EDB if fact in self.db else None
        return self._old_turn(record)

    def _discovery(self, rule: Rule, used: tuple[Fact, ...]) -> Turn | None:
        """The first turn of ``rule`` that sees every fact of ``used``: the
        turn a fresh chase discovers this match in."""
        stratum, position = self.place[rule.label]
        round_number = 1
        for parent in used:
            seen = self._time(parent)
            if seen is None:
                return None
            if seen[0] == stratum:
                round_number = max(
                    round_number, seen[1] + (seen[2] >= position)
                )
        return (stratum, round_number, position)

    def _struct(self, fact: Fact) -> tuple:
        settled = self.final.get(fact)
        if settled is not None:
            return (1, settled.turn, _ranked_by(settled.record))
        if fact in self.added_edb:
            return (0, self.edb_count + self.added_edb[fact])
        record = self.old.derivation.get(fact)
        if record is None:
            return (0, self.rank(fact))
        return (1, self._old_turn(record), _ranked_by(record))

    def _compare(self, left: Fact, right: Fact) -> int:
        """Canonical order: extensional facts by EDB position, derived
        ones by (turn, the ranks of the facts they rank by)."""
        if left == right:
            return 0
        final, added = self.final, self.added_edb
        if not (left in final or left in added or right in final
                or right in added):
            return -1 if self.rank(left) < self.rank(right) else 1
        return self._compare_struct(self._struct(left), self._struct(right))

    def _compare_struct(self, left: tuple, right: tuple) -> int:
        if left[:2] != right[:2]:
            return -1 if left[:2] < right[:2] else 1
        return self._compare_facts(left[2], right[2]) if left[0] else 0

    def _compare_facts(
        self, left: tuple[Fact, ...], right: tuple[Fact, ...]
    ) -> int:
        for mine, theirs in zip(left, right):
            order = self._compare(mine, theirs)
            if order:
                return order
        return (len(left) > len(right)) - (len(left) < len(right))

    # ------------------------------------------------------------------
    # Withdrawal and rederivation
    # ------------------------------------------------------------------
    def _withdraw(self, roots) -> None:
        """Take ``roots`` and their forward closure in the old chase graph
        out of the join inputs; what a rule may derive awaits a new
        derivation."""
        stack = list(roots)
        withdrawn: list[Fact] = []
        while stack:
            fact = stack.pop()
            # An added fact is extensional now, whatever derived it before.
            if fact in self.unavailable or fact in self.final or (
                fact in self.added_edb
            ):
                continue
            self.visited += 1
            self._losing_contributions(fact)
            self.unavailable.add(fact)
            if fact in self.old.derivation and fact not in self.demoted:
                self.pending.add(fact)
                withdrawn.append(fact)
            elif fact.predicate in self.derivers:
                withdrawn.append(fact)
            stack.extend(record.fact for record in self.children.get(fact, ()))
        for fact in withdrawn:
            self._rederive(fact)

    def _probe(self, rule: Rule, seed: MutableSubstitution, negated=True):
        """Body matches of ``rule`` extending ``seed`` over what is
        available now (a seeded assignment target is recomputed)."""
        return match_conjunction(
            self.db, rule.body, rule.aggregate_split[0],
            rule.negated if negated else (), self.unavailable,
            rule.assignments, dict(seed),
        )

    def _rederive(self, fact: Fact) -> None:
        """Queue every derivation of a withdrawn fact from what is still
        available; the closure's own facts add theirs as they settle."""
        for rule in self.derivers.get(fact.predicate, ()):
            seed = match_atom(rule.head, fact)
            if seed is None:
                continue
            groups: dict[tuple[Term, ...], Turn] = {}
            for binding, used in self._probe(rule, seed):
                turn = self._discovery(rule, used)
                if turn is None or apply_substitution(rule.head, binding) != fact:
                    continue
                if not rule.has_aggregate:
                    self._push(turn, rule, used)
                elif turn > self.now:
                    # The group's evaluations the sweep has passed did not
                    # fire it (the fact came later), and they still do
                    # not: it resumes at its next contribution.
                    key = tuple(binding[v] for v in rule.aggregate_split[2])
                    groups[key] = min(turn, groups.get(key, turn))
            for key, turn in groups.items():
                self._push(turn, rule, key)

    def _losing_contributions(self, fact: Fact) -> None:
        """Re-evaluate the groups ``fact`` leaves or moves in: a group
        that did not fire may fire without it (the closure walk reaches
        only the groups that did)."""
        for rule in self.readers.get(fact.predicate, ()):
            if rule.has_aggregate:
                for binding, used in self._matches_through(rule, fact):
                    self._touch_group(rule, binding, used)

    def _touch_group(self, rule: Rule, binding, used) -> None:
        """The group of a match gains or loses it from its turn on."""
        turn = self._discovery(rule, used)
        head = apply_substitution(rule.head, binding)
        if turn is None or head in self.final:
            return
        if head in self.unavailable or head not in self.db:
            key = tuple(binding[v] for v in rule.aggregate_split[2])
            self._push(turn, rule, key)
        elif head in self.old.derivation and head not in self.demoted:
            if turn <= self._time(head):
                self._withdraw((head,))

    # ------------------------------------------------------------------
    # New facts: pivots, offers, negation
    # ------------------------------------------------------------------
    def _kernel(self, rule: Rule) -> RuleKernel:
        kernel = self.kernels.get(rule.label)
        if kernel is None:
            kernel = compile_rule_kernel(plan_rule(rule, self.db), self.db)
            self.kernels[rule.label] = kernel
        return kernel

    def _matches_through(self, rule: Rule, fact: Fact):
        return self._kernel(rule).execute(
            self.db, self.unavailable, {fact.predicate: [fact]}
        )

    def _live_before(self, head: Fact, turn: Turn) -> bool:
        """Whether ``head`` stands already, derived before ``turn``."""
        if head in self.final or head in self.added_edb:
            return True
        seen = self._time(head)
        return seen is not None and seen < turn

    def _pivot(self, fact: Fact) -> None:
        """Queue the matches a newly available fact takes part in."""
        for rule in self.readers.get(fact.predicate, ()):
            for binding, used in self._matches_through(rule, fact):
                if rule.has_aggregate:
                    self._touch_group(rule, binding, used)
                    continue
                turn = self._discovery(rule, used)
                head = apply_substitution(rule.head, binding)
                if turn is not None and not self._live_before(head, turn):
                    self._push(turn, rule, used)

    def _offer(self, head: Fact, settled: _Settled) -> None:
        """A derivation of ``head`` in canonical order: the first one
        offered, or one preceding the old record, settles it."""
        self.visited += 1
        if head in self.final or head in self.added_edb:
            return
        if head in self.db and head not in self.unavailable:
            if head not in self.old.derivation or self._compare_struct(
                (1, settled.turn, _ranked_by(settled.record)),
                self._struct(head),
            ) >= 0:
                return
            # The head moves: what read its old record moves with it.
            self._losing_contributions(head)
            self._withdraw([r.fact for r in self.children.get(head, ())])
        elif head not in self.db:
            self.db.add(head)
            self.appeared.append(head)
        if settled.turn[1] >= self.max_rounds:
            raise ChaseError(
                f"incremental chase did not reach fixpoint within "
                f"{self.max_rounds} rounds for program {self.program.name!r}"
            )
        self.final[head] = settled
        if head in self.pending:
            self.pending.discard(head)
            self.rederived += 1
        self.unavailable.discard(head)
        self._pivot(head)

    def _plain_turn(self, rule: Rule, turn: Turn, payloads: list) -> None:
        for used in sorted(set(payloads), key=self.facts_key):
            if self._discovery(rule, used) != turn:
                continue
            binding = self._kernel(rule).binding(used)
            if all(
                next(self.db.match(atom, binding, self.unavailable), None)
                is None
                for atom in rule.negated
            ):
                head = apply_substitution(rule.head, binding)
                self._offer(head, _Settled(turn, ChaseStepRecord(
                    -1, turn[1], rule, head, used, binding,
                )))

    def _group_turn(self, rule: Rule, turn: Turn, keys: list) -> None:
        fired = [
            settled for key in dict.fromkeys(keys)
            if (settled := self._evaluate_group(rule, key, turn))
        ]
        fired.sort(key=lambda settled: self.facts_key(
            _ranked_by(settled.record)
        ))
        for settled in fired:
            self._offer(settled.record.fact, settled)

    def _evaluate_group(
        self, rule: Rule, key: tuple[Term, ...], turn: Turn
    ) -> _Settled | None:
        """The group as the fresh chase evaluates it at ``turn`` — if a
        contribution arrives then; otherwise at its next arrival."""
        seed = dict(zip(rule.aggregate_split[2], key))
        if self._live_before(apply_substitution(rule.head, seed), turn):
            return None
        members: list[Contribution] = []
        arrives = False
        later: Turn | None = None
        for _, used in self._probe(rule, seed):
            found, contribution = group_contribution(
                rule, self._kernel(rule).binding(used), used
            )
            seen = self._discovery(rule, used)
            if found != key or seen is None:
                continue
            if seen <= turn:
                members.append(contribution)
                arrives = arrives or seen == turn
            elif later is None or seen < later:
                later = seen
        if members and arrives:
            members.sort(key=lambda member: self.facts_key(member.facts))
            evaluated = aggregate_group_head(rule, key, members)
            if evaluated is not None:
                head, value, binding = evaluated
                return _Settled(turn, ChaseStepRecord(
                    -1, turn[1], rule, head, dedupe_parents(members),
                    binding, tuple(members), value,
                ))
        if later is not None:
            self._push(later, rule, key)
        return None

    def _enter(self, stratum: int) -> None:
        """Seed the negated rules of ``stratum`` with the presence changes
        below it: an appeared fact blocks matches, a vanished one frees
        them."""
        vanished = [f for f in self.vanished if f not in self.final]
        for rule in self.strata[stratum]:
            for atom, fact, blocks in (
                (atom, fact, blocks) for atom in rule.negated
                for facts, blocks in ((self.appeared, True), (vanished, False))
                for fact in facts
            ):
                seed = match_atom(atom, fact)
                matches = () if seed is None else self._probe(
                    rule, seed, negated=not blocks
                )
                for binding, used in matches:
                    record = self.old.derivation.get(
                        apply_substitution(rule.head, binding)
                    )
                    turn = self._discovery(rule, used)
                    if rule.has_aggregate:
                        self._touch_group(rule, binding, used)
                    elif not blocks and turn is not None:
                        self._push(turn, rule, used)
                    elif blocks and record is not None and (
                        record.rule.label == rule.label
                        and record.parents == used
                    ):
                        self._withdraw((record.fact,))

    # ------------------------------------------------------------------
    # The successor result
    # ------------------------------------------------------------------
    def _assemble(
        self, retracted: tuple[Fact, ...]
    ) -> tuple[ChaseResult, frozenset[Fact]]:
        old = self.old
        derivation = dict(old.derivation)
        # Records per stratum-local round: where each stratum now ends.
        histograms = [
            old.stats.delta_sizes[start:start + rounds] for start, rounds
            in zip(self.offsets, old.stats.rounds_per_stratum)
        ]
        removed = self.dead | {
            f for f in retracted
            if f not in self.added_edb and f not in self.final
        }
        gone = removed | self.demoted
        for turn, step in itertools.chain(
            (
                (self._old_turn(derivation[f]), -1)
                for f in itertools.chain(self.dead, self.demoted, self.final)
                if f in derivation
            ),
            ((settled.turn, 1) for settled in self.final.values()),
        ):
            counts = histograms[turn[0]]
            counts.extend([0] * (turn[1] - len(counts)))
            counts[turn[1] - 1] += step
        for counts in histograms:  # a stratum ends on its first empty round
            last = max((i for i, n in enumerate(counts) if n), default=-1)
            counts[last + 1:] = [0]
        rounds_per_stratum = [len(counts) for counts in histograms]
        offsets = _offsets(rounds_per_stratum)

        removed_records = [derivation.pop(f) for f in self.dead | self.demoted]
        new_records: list[ChaseStepRecord] = []
        next_index = max(old.next_index, len(old.records))
        for fact, settled in self.final.items():
            previous = derivation.get(fact)
            record = replace(
                settled.record,
                index=next_index if previous is None else previous.index,
                round=offsets[settled.turn[0]] + settled.turn[1],
            )
            if record != previous:
                if previous is not None:
                    record = replace(record, index=next_index)
                    removed_records.append(previous)
                next_index += 1
                new_records.append(record)
                derivation[fact] = record
        # A stratum whose round count changed moves every later round.
        for record in old.records if offsets != self.offsets else ():
            stratum = self.place[record.rule.label][0]
            shift = offsets[stratum] - self.offsets[stratum]
            if shift and derivation.get(record.fact) is record:
                moved = replace(record, round=record.round + shift)
                removed_records.append(record)
                new_records.append(moved)
                derivation[record.fact] = moved
        self.recomputed = len(new_records)

        # The new order: the old one without what moved, with the moved
        # facts placed back where their canonical keys put them.
        placed = sorted(self.final.keys() | self.added_edb.keys(), key=self.fact_key)
        old_facts = old.database.facts()
        survivors: list[int] = []
        start = 0
        for position in sorted(
            self.rank(f) for f in gone | set(placed) if f in old.database
        ):
            survivors.extend(range(start, position))
            start = position + 1
        survivors.extend(range(start, len(old_facts)))
        order: list[int] = []
        start = 0
        for fact in placed:
            at = bisect_left(
                survivors, self.fact_key(fact),
                key=lambda position: self.fact_key(old_facts[position]),
            )
            order.extend(survivors[start:at])
            order.append(self.db.sequence(fact))
            start = at
        order.extend(survivors[start:])
        self.db.reorder(order, itertools.chain(placed, gone))
        facts = self.db.facts()

        children = dict(self.children)
        stale = {id(record) for record in removed_records}
        fresh: dict[Fact, list[ChaseStepRecord]] = {}
        for record in new_records:
            for parent in record.parents:
                fresh.setdefault(parent, []).append(record)
        # A child whose record stayed may still have moved: re-sort the
        # lists of every parent of a settled fact too.
        for parent in fresh.keys() | {
            p for r in itertools.chain(
                removed_records, map(derivation.__getitem__, self.final)
            ) for p in r.parents
        }:
            kept = [r for r in children.get(parent, ()) if id(r) not in stale]
            kept.extend(fresh.get(parent, ()))
            kept.sort(key=lambda record: self.db.sequence(record.fact))
            children[parent] = kept
            if not kept or parent in removed:
                del children[parent]

        def tally(counts: dict[str, int], key) -> dict[str, int]:
            counter = Counter(counts)
            counter.subtract(map(key, removed_records))
            counter.update(map(key, new_records))
            return dict(+counter)

        stats = replace(
            old.stats,
            rounds=sum(rounds_per_stratum),
            rounds_per_stratum=rounds_per_stratum,
            delta_sizes=[n for counts in histograms for n in counts],
            rule_firings=tally(old.stats.rule_firings, lambda r: r.rule.label),
            facts_by_predicate=tally(
                old.stats.facts_by_predicate, lambda r: r.fact.predicate
            ),
            facts_derived=len(derivation),
            constraint_checks=0,
            symbols=len(self.db.symbols),
        )
        result = ChaseResult(
            program=self.program,
            database=self.db,
            records=list(map(
                derivation.__getitem__, facts[len(facts) - len(derivation):]
            )),
            derivation=derivation,
            rounds=sum(rounds_per_stratum),
            stats=stats,
            next_index=next_index,
            _children=children,
        )
        check_constraints(self.program, result)
        stats.violations = len(result.violations)
        # Settled facts may have moved even where their record stayed.
        touched = gone | self.final.keys() | {r.fact for r in new_records}
        return result, frozenset(touched)
