"""Incremental chase maintenance: delta insertion and delete–rederive.

Live knowledge graphs change one edge at a time, yet a fresh chase pays
for the whole database on every change.  This module maintains a
:class:`~repro.engine.chase.ChaseResult` under extensional add/retract
deltas, running join work only for the *consequences* of the delta.  The
cost is not proportional to those consequences, though: the replay below
visits every record of the old run, so a one-edge update of the
``bench/gen.py`` ``S`` graph replays all of its ~3,000 records (DESIGN
§13 records why ``/update`` keeps this module anyway).  The result
reproduces the fresh run **exactly**: same facts, same
:class:`ChaseStepRecord` contents, same round numbers, same supersession
and violation sets.  Byte-for-byte parity with a from-scratch chase is
the contract every consumer (provenance index, explanation memos, serve
layer) relies on, so the algorithm is organized as a *replay with match
oracles* rather than a classic differential fixpoint:

* A brand-new :class:`Database` is seeded with the post-delta EDB
  (retained facts keep their relative order, adds append), and the old
  run's records are scheduled at their original (stratum, round, rule)
  *slots*.  Untouched records re-fire verbatim — no join work at all.
* Four discovery channels feed each rule's turn with candidate matches
  beyond the scheduled ones, mirroring semi-naive evaluation seeded with
  delta relations: (1) scheduled old records, re-checked against the
  live instance at fire time (parents present, not superseded, negation
  still holds) — records that fail their check are DRed *overdeletions*;
  (2) compiled delta kernels (:mod:`repro.engine.kernels`) probed with
  the accumulated set of changed facts, compiled lazily so an update
  that never touches a rule never pays for its kernel; (3) a *rederivation*
  pool of threatened facts probed with head-bound selective joins — the
  DRed rederivation step that keeps alternative derivations alive; and
  (4) negation seeds: facts that vanished relative to the old run enable
  matches that the old run never saw, found by binding the vanished
  blocker into the rule body.  Stratum ordering makes both negation
  channels sound: negated predicates are final before a stratum starts.
* Aggregate rules replay per *group*: groups whose composition is
  untouched re-emit their recorded trajectory, groups marked dirty by
  any channel are recomputed set-at-a-time with a group-key-bound join,
  following the monotonic-supersession bookkeeping of the fresh engine
  step for step.

Candidates from all channels are merged, deduplicated by parent tuple
and fired in ascending parent-sequence order — the exact enumeration
order of the naive engine — so record indexes, rounds and bindings come
out identical to a fresh run on the post-delta database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .. import obs
from ..datalog.atoms import Fact
from ..datalog.conditions import evaluate_assignment
from ..datalog.errors import EvaluationError
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.stratification import stratify
from ..datalog.terms import Term, Variable
from ..datalog.unify import MutableSubstitution, apply_substitution, match_atom
from .chase import (
    ChaseError,
    ChaseResult,
    ChaseStepRecord,
    Contribution,
    check_constraints,
    fire_groups,
    group_by_predicate,
    group_contribution,
)
from .database import Database
from .kernels import RuleKernel, compile_rule_kernel
from .planner import plan_rule
from .reference import match_conjunction

#: A (stratum, local round, rule position) coordinate in the replay grid.
Slot = tuple[int, int, int]
#: Identity of one aggregate group: (rule label, group key).
GroupKey = tuple[str, tuple[Term, ...]]


class IncrementalFallback(Exception):
    """The delta cannot be replayed; the caller should re-chase instead."""


@dataclass(frozen=True)
class UpdateOutcome:
    """What an :func:`incremental_update` (or its fallback) produced.

    ``mode`` is ``"incremental"`` when the replay ran, ``"full"`` when
    the caller fell back to a fresh chase, and ``"noop"`` when the delta
    resolved to nothing against the current EDB.  ``added`` and
    ``retracted`` are the *effective* extensional changes after
    normalization (adding a fact that is already extensional, or
    retracting one that never was, drops out).
    """

    result: ChaseResult
    mode: str
    added: tuple[Fact, ...]
    retracted: tuple[Fact, ...]
    replayed: int = 0
    recomputed: int = 0
    rederived: int = 0
    elapsed_s: float = 0.0


def extensional_facts(result: ChaseResult) -> tuple[Fact, ...]:
    """The EDB of a chase result, in original insertion order."""
    derivation = result.derivation
    return tuple(f for f in result.database.facts() if f not in derivation)


def resolve_delta(
    result: ChaseResult,
    adds: tuple[Fact, ...] | list[Fact],
    retracts: tuple[Fact, ...] | list[Fact],
) -> tuple[tuple[Fact, ...], tuple[Fact, ...], tuple[Fact, ...]]:
    """Normalize a requested delta against the current EDB.

    Returns ``(new_edb, effective_adds, effective_retracts)``.  The new
    EDB preserves the relative order of retained facts and appends the
    effective adds, which makes the replayed instance's insertion
    sequence line up with a fresh session built on the same fact list.
    Retracting a *derived* fact is an error — retract its extensional
    support instead; retracting an absent fact is a no-op, as is adding
    a fact that is already extensional.
    """
    old_edb = extensional_facts(result)
    edb_set = set(old_edb)
    retract_set: set[Fact] = set()
    for fact in retracts:
        if fact in edb_set:
            retract_set.add(fact)
        elif fact in result.derivation:
            raise ValueError(
                f"cannot retract derived fact {fact}; "
                "retract its extensional support instead"
            )
    effective_adds: list[Fact] = []
    seen: set[Fact] = set()
    for fact in adds:
        if not fact.is_fact():
            raise ValueError(f"can only add ground facts, got {fact}")
        if fact in seen or (fact in edb_set and fact not in retract_set):
            continue
        seen.add(fact)
        effective_adds.append(fact)
    new_edb = tuple(f for f in old_edb if f not in retract_set)
    new_edb += tuple(effective_adds)
    retracted = tuple(f for f in old_edb if f in retract_set)
    return new_edb, tuple(effective_adds), retracted


def incremental_update(
    program: Program,
    previous: ChaseResult,
    adds: tuple[Fact, ...] | list[Fact] = (),
    retracts: tuple[Fact, ...] | list[Fact] = (),
    max_rounds: int = 10_000,
) -> UpdateOutcome:
    """Apply an extensional delta to ``previous`` by replay.

    Raises :class:`IncrementalFallback` when the program or the previous
    result is outside the replayable fragment (existential rules, or a
    result without per-stratum round bookkeeping); the caller is
    expected to fall back to a full chase.
    """
    started = time.perf_counter()
    new_edb, added, retracted = resolve_delta(previous, adds, retracts)
    if not added and not retracted:
        return UpdateOutcome(
            result=previous, mode="noop", added=(), retracted=()
        )
    if any(rule.is_existential for rule in program.rules):
        raise IncrementalFallback(
            "existential rules need the restricted-chase satisfaction "
            "check; replay is not defined for them"
        )
    replay = _Replay(program, previous, new_edb, max_rounds)
    with obs.span(
        "chase.update",
        program=program.name,
        adds=len(added),
        retracts=len(retracted),
    ) as span:
        replay.seed(added, retracted)
        result = replay.run()
        span.set(
            replayed=replay.replayed,
            recomputed=replay.recomputed,
            rederived=replay.rederived,
        )
    elapsed = time.perf_counter() - started
    outcome = UpdateOutcome(
        result=result,
        mode="incremental",
        added=added,
        retracted=retracted,
        replayed=replay.replayed,
        recomputed=replay.recomputed,
        rederived=replay.rederived,
        elapsed_s=elapsed,
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


class _Replay:
    """One incremental replay over a fresh post-delta database."""

    def __init__(
        self,
        program: Program,
        old: ChaseResult,
        new_edb: tuple[Fact, ...],
        max_rounds: int,
    ):
        self.program = program
        self.old = old
        self.max_rounds = max_rounds

        if program.has_negation:
            self.rule_groups: tuple[tuple[Rule, ...], ...] = (
                stratify(program).strata
            )
        else:
            self.rule_groups = (program.rules,)
        if len(old.stats.rounds_per_stratum) != len(self.rule_groups):
            raise IncrementalFallback(
                "previous result lacks per-stratum round bookkeeping"
            )

        self.slot_of_rule: dict[str, tuple[int, int]] = {}
        for stratum_index, rules in enumerate(self.rule_groups):
            for position, rule in enumerate(rules):
                self.slot_of_rule[rule.label] = (stratum_index, position)

        offsets: list[int] = []
        total = 0
        for rounds in old.stats.rounds_per_stratum:
            offsets.append(total)
            total += rounds

        self.db = Database(new_edb)
        self.result = ChaseResult(program=program, database=self.db)
        self.records = self.result.records
        self.derivation = self.result.derivation
        self.superseded = self.result.superseded
        self.stats = self.result.stats
        self.aggregate_state: dict[GroupKey, Fact] = {}
        self.intensional = program.intensional_predicates()

        # --- static index of the old run ------------------------------
        self.body_vars: dict[str, frozenset[Variable]] = {}
        #: fact -> the slot where the old run first derived it.
        self.old_slot_of: dict[Fact, Slot] = {}
        #: per stratum: (local round, rule position) -> scheduled records.
        self.pending: list[dict[tuple[int, int], list[ChaseStepRecord]]] = [
            {} for _ in self.rule_groups
        ]
        #: contribution fact -> aggregate groups it fed in the old run.
        self.member_groups: dict[Fact, set[GroupKey]] = {}
        #: per stratum: (slot of the superseding record, superseded fact).
        self.expected_supersede: list[list[tuple[Slot, Fact]]] = [
            [] for _ in self.rule_groups
        ]
        #: fact -> slot at which the old run superseded it.
        self.old_supersede_slot: dict[Fact, Slot] = {}
        #: id(record) -> the group's previous emission when it fired.
        self.expected_prev: dict[int, Fact | None] = {}
        trajectory_prev: dict[GroupKey, Fact] = {}
        for record in old.records:
            located = self.slot_of_rule.get(record.rule.label)
            if located is None:
                raise IncrementalFallback(
                    f"record rule {record.rule.label!r} is not in the program"
                )
            stratum_index, position = located
            local_round = record.round - offsets[stratum_index]
            if local_round < 1:
                raise IncrementalFallback(
                    "inconsistent round numbering in previous result"
                )
            slot: Slot = (stratum_index, local_round, position)
            self.old_slot_of[record.fact] = slot
            self.pending[stratum_index].setdefault(
                (local_round, position), []
            ).append(record)
            if record.contributors:
                key_vars = record.rule.aggregate_split[2]
                key = tuple(record.binding[v] for v in key_vars)
                group: GroupKey = (record.rule.label, key)
                for contribution in record.contributors:
                    for fact in contribution.facts:
                        self.member_groups.setdefault(fact, set()).add(group)
                previous = trajectory_prev.get(group)
                self.expected_prev[id(record)] = previous
                if previous is not None:
                    self.expected_supersede[stratum_index].append(
                        (slot, previous)
                    )
                    self.old_supersede_slot[previous] = slot
                trajectory_prev[group] = record.fact

        # --- dynamic replay state -------------------------------------
        #: changed facts in discovery order.  Unlike the fresh engine's
        #: rolling windows this set only grows: a cleanly replayed fact
        #: never re-enters the timeline, so a delta fact must stay
        #: joinable for the whole run — its partner may arrive *on
        #: schedule* at any later turn without itself being delta.
        self.delta_timeline: list[Fact] = []
        self.delta_marked: set[Fact] = set()
        #: predicate -> facts awaiting rederivation (DRed rederive pool).
        self.threatened: dict[str, dict[Fact, None]] = {}
        #: rule label -> group keys whose composition diverged.
        self.dirty_groups: dict[str, set[tuple[Term, ...]]] = {}
        self.kernels: dict[str, RuleKernel] = {}
        self.replayed = 0
        self.recomputed = 0
        self.rederived = 0

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed(
        self, added: tuple[Fact, ...], retracted: tuple[Fact, ...]
    ) -> None:
        for fact in added:
            self._mark_delta(fact)
        for fact in retracted:
            self._flag_groups(fact)
            self._threaten(fact)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> ChaseResult:
        total_rounds = 0
        for stratum_index, rules in enumerate(self.rule_groups):
            rounds = self._replay_stratum(stratum_index, rules, total_rounds)
            self.stats.rounds_per_stratum.append(rounds)
            total_rounds += rounds
        self.result.rounds = total_rounds
        self.stats.rounds = total_rounds
        self.stats.strata = len(self.rule_groups)
        check_constraints(self.program, self.result)
        self.stats.violations = len(self.result.violations)
        self.stats.symbols = len(self.db.symbols)
        return self.result

    def _replay_stratum(
        self, stratum_index: int, rules: tuple[Rule, ...], rounds_so_far: int
    ) -> int:
        seeds = self._negation_seeds(stratum_index, rules)
        pending = self.pending[stratum_index]
        leftovers: dict[int, list[ChaseStepRecord]] = {
            position: [] for position in range(len(rules))
        }
        expected_here = self.expected_supersede[stratum_index]
        expected_by_slot: dict[Slot, list[Fact]] = {}
        for slot, fact in expected_here:
            expected_by_slot.setdefault(slot, []).append(fact)
        rounds = 0
        for local_round in range(1, self.max_rounds + 1):
            rounds = local_round
            fired_this_round = 0
            global_round = rounds_so_far + local_round
            for position, rule in enumerate(rules):
                exclude = frozenset(self.superseded)
                slot = (stratum_index, local_round, position)
                due = pending.pop((local_round, position), [])
                if leftovers[position]:
                    due = leftovers[position] + due
                    leftovers[position] = []
                if rule.has_aggregate:
                    fired = self._aggregate_turn(
                        rule, slot, global_round, due, exclude,
                        seeds.get(position, ()),
                    )
                else:
                    fired = self._plain_turn(
                        rule, slot, global_round, due, leftovers[position],
                        exclude, seeds.get(position, ()),
                    )
                fired_this_round += fired
                for fact in expected_by_slot.get(slot, ()):
                    if fact in self.db and fact not in self.superseded:
                        self._make_sticky(fact)
            self.stats.delta_sizes.append(fired_this_round)
            if not fired_this_round:
                break
        else:
            raise ChaseError(
                f"incremental chase did not reach fixpoint within "
                f"{self.max_rounds} rounds for program {self.program.name!r}"
            )
        # Supersessions the old run scheduled past the replayed rounds:
        # those facts stay active now, which later strata must see as a
        # change (their windows never covered the extension).
        for _, fact in expected_here:
            if fact in self.db and fact not in self.superseded:
                self._make_sticky(fact)
        return rounds

    # ------------------------------------------------------------------
    # Plain rules
    # ------------------------------------------------------------------
    def _plain_turn(
        self,
        rule: Rule,
        slot: Slot,
        global_round: int,
        due: list[ChaseStepRecord],
        leftover: list[ChaseStepRecord],
        exclude: frozenset[Fact],
        seeds: tuple[MutableSubstitution, ...] | list[MutableSubstitution],
    ) -> int:
        # parents tuple -> (old record to re-fire, canonical binding).
        candidates: dict[
            tuple[Fact, ...],
            tuple[ChaseStepRecord | None, MutableSubstitution | None],
        ] = {}
        for record in due:
            if any(parent not in self.db for parent in record.parents):
                # A parent may still arrive later in the stratum; keep
                # waiting, but the fact needs a derivation from somewhere.
                self._record_missed(record.fact)
                leftover.append(record)
                continue
            if any(parent in exclude for parent in record.parents) or (
                rule.negated
                and not self._negation_holds(rule, record.binding, exclude)
            ):
                # Overdeletion: superseded parents never come back within
                # the stratum and negation is constant here, so this match
                # is dead for good.
                self._record_missed(record.fact)
                continue
            candidates.setdefault(record.parents, (record, None))

        relevant = self._delta_for(rule, exclude)
        if relevant:
            kernel = self._kernel(rule)
            for binding, used in kernel.execute(
                self.db,
                exclude,
                group_by_predicate(relevant),
                stats=self.stats.plans.get(rule.label),
                profile_label=rule.label + "+delta",
            ):
                candidates.setdefault(used, (None, binding))

        pool = self.threatened.get(rule.head.predicate)
        if pool:
            for fact in list(pool):
                if fact in self.db:
                    del pool[fact]
                    continue
                seed = match_atom(rule.head, fact)
                if seed is None:
                    continue
                for _, used in self._bound_matches(
                    rule, rule.conditions, seed, exclude
                ):
                    candidates.setdefault(used, (None, None))

        for seed in seeds:
            for _, used in self._bound_matches(
                rule, rule.conditions, seed, exclude
            ):
                candidates.setdefault(used, (None, None))

        fired = 0
        for used in sorted(candidates, key=self._sequence_key):
            record, binding = candidates[used]
            if record is not None:
                derived = record.fact
            else:
                if binding is None:
                    binding = self._rebuild_binding(rule, used)
                derived = apply_substitution(rule.head, binding)
                if not derived.is_fact():
                    raise EvaluationError(
                        f"rule {rule.label} produced non-ground head {derived}"
                    )
            if self.db.add(derived):
                fired += 1
                if record is not None:
                    self._emit_replayed(record, global_round)
                else:
                    assert binding is not None
                    self._emit(
                        ChaseStepRecord(
                            index=len(self.records),
                            round=global_round,
                            rule=rule,
                            fact=derived,
                            parents=used,
                            binding=dict(binding),
                        )
                    )
                    self.recomputed += 1
                self._after_fire(derived, slot)
            else:
                self.stats.facts_deduplicated += 1
        return fired

    # ------------------------------------------------------------------
    # Aggregate rules
    # ------------------------------------------------------------------
    def _aggregate_turn(
        self,
        rule: Rule,
        slot: Slot,
        global_round: int,
        due: list[ChaseStepRecord],
        exclude: frozenset[Fact],
        seeds: tuple[MutableSubstitution, ...] | list[MutableSubstitution],
    ) -> int:
        pre, _post, key_vars = rule.aggregate_split
        label = rule.label

        def mark_dirty(binding: MutableSubstitution) -> None:
            key = tuple(binding[v] for v in key_vars)
            self.dirty_groups.setdefault(label, set()).add(key)

        # Discovery: delta matches, rederivation probes and negation
        # seeds only mark groups dirty — the aggregate is set-at-a-time,
        # so dirty groups are recomputed whole below.
        relevant = self._delta_for(rule, exclude)
        if relevant:
            kernel = self._kernel(rule)
            for binding, _ in kernel.execute(
                self.db,
                exclude,
                group_by_predicate(relevant),
                stats=self.stats.plans.get(label),
                profile_label=label + "+delta",
            ):
                mark_dirty(binding)
        pool = self.threatened.get(rule.head.predicate)
        if pool:
            for fact in list(pool):
                if fact in self.db:
                    del pool[fact]
                    continue
                seed = match_atom(rule.head, fact)
                if seed is None:
                    continue
                for _, used in self._bound_matches(rule, pre, seed, exclude):
                    mark_dirty(self._rebuild_binding(rule, used))
        for seed in seeds:
            for _, used in self._bound_matches(rule, pre, seed, exclude):
                mark_dirty(self._rebuild_binding(rule, used))

        dirty = self.dirty_groups.get(label, set())
        # (first-contribution sort key, group key, contributions): the
        # fresh engine's emission order.  Groups whose old trajectory is
        # intact re-fire their record instead of being evaluated.
        pending: list[tuple] = []
        recorded: dict[tuple[Term, ...], ChaseStepRecord] = {}
        for record in due:
            key = tuple(record.binding[v] for v in key_vars)
            group: GroupKey = (label, key)
            if key in dirty:
                continue  # recomputation owns this group now
            diverged = any(
                parent not in self.db for parent in record.parents
            ) or any(parent in exclude for parent in record.parents)
            keys: list[tuple[int, ...]] = []
            if not diverged:
                # Fresh enumeration lists a group's contributions in
                # ascending parent-sequence order; upstream rescheduling
                # can reorder facts even when the contribution *set* is
                # unchanged, so a recorded order that is no longer
                # monotone is stale.
                keys = [
                    self._sequence_key(contribution.facts)
                    for contribution in record.contributors
                ]
                diverged = (
                    any(
                        earlier >= later
                        for earlier, later in zip(keys, keys[1:])
                    )
                    or self.aggregate_state.get(group)
                    != self.expected_prev.get(id(record))
                    or (
                        rule.negated
                        and any(
                            not self._negation_holds(
                                rule, contribution.binding, exclude
                            )
                            for contribution in record.contributors
                        )
                    )
                )
            if diverged:
                # The recorded trajectory diverged: a contribution is
                # gone, blocked, reordered, or the group's state
                # drifted.  Hand the group to the recomputation path
                # from this turn on.
                self.dirty_groups.setdefault(label, set()).add(key)
                dirty = self.dirty_groups[label]
                self._record_missed(record.fact)
                continue
            recorded[key] = record
            pending.append((keys[0], key, record.contributors))

        for key in dirty:
            seed = dict(zip(key_vars, key))
            contributions: list[Contribution] = []
            for _, used in self._bound_matches(rule, pre, seed, exclude):
                found, contribution = group_contribution(
                    rule, self._rebuild_binding(rule, used), used
                )
                if found == key:
                    contributions.append(contribution)
            if contributions:
                pending.append(
                    (
                        self._sequence_key(contributions[0].facts),
                        key,
                        tuple(contributions),
                    )
                )

        pending.sort(key=lambda item: item[0])
        fired, deduplicated = fire_groups(
            rule, [item[1:] for item in pending], self.result,
            self.aggregate_state, global_round, recorded,
        )
        for key, derived, previous in fired:
            if key in recorded:
                self.replayed += 1
            else:
                self.recomputed += 1
            if (
                previous is not None
                and self.old_supersede_slot.get(previous) != slot
            ):
                # Availability shrank relative to the old run; groups
                # fed by the dying fact must recompute.
                self._flag_groups(previous)
            self._after_fire(derived, slot)
        if deduplicated:
            # The fresh engine neither updates the group state nor
            # supersedes on a deduplicated emission; keep recomputing
            # those groups until the trajectory syncs.
            self.dirty_groups.setdefault(label, set()).update(deduplicated)
        return len(fired)

    # ------------------------------------------------------------------
    # Discovery helpers
    # ------------------------------------------------------------------
    def _delta_for(
        self, rule: Rule, exclude: frozenset[Fact]
    ) -> list[Fact]:
        """Changed facts relevant to a rule body this turn.

        The whole accumulated delta is probed every turn: a delta fact's
        join partner may replay *on its old schedule* (and hence never
        be delta itself) at any later turn, so the moment a delta join
        becomes possible is unknowable in advance.  Candidate
        deduplication and instance-level dedup make re-discovery
        harmless, and the delta stays proportional to the update's
        consequences.
        """
        if not self.delta_timeline:
            return []
        predicates = rule.body_predicates()
        return [
            fact
            for fact in self.delta_timeline
            if fact.predicate in predicates
            and fact not in exclude
            and fact in self.db
        ]

    def _kernel(self, rule: Rule) -> RuleKernel:
        """The rule's compiled kernel, built on first use.

        Fresh runs compile every rule at stratum entry; an update only
        pays for the rules its delta actually touches.  An aggregate
        rule's delta variants drive dirty-group *discovery* here, never
        direct firing.
        """
        kernel = self.kernels.get(rule.label)
        if kernel is None:
            started = time.perf_counter()
            compiled = plan_rule(rule, self.db)
            self.stats.plans_compiled += 1
            entry = self.stats.plans.setdefault(rule.label, {})
            entry.update(compiled.snapshot())
            kernel = compile_rule_kernel(compiled, self.db)
            self.stats.kernel_compile_s += time.perf_counter() - started
            self.stats.kernels_compiled += 1
            self.kernels[rule.label] = kernel
        return kernel

    def _bound_matches(
        self,
        rule: Rule,
        conditions: tuple,
        initial: MutableSubstitution,
        exclude: frozenset[Fact],
    ):
        """Enumerate body homomorphisms extending ``initial``: the
        reference walk with a seed binding for selectivity, so matches
        come out in the naive enumeration order.  Seed entries that are
        not body variables (assignment targets, the aggregate result)
        are dropped: the walk re-derives them.
        """
        body_vars = self._body_variables(rule)
        seed = {
            variable: term
            for variable, term in initial.items()
            if variable in body_vars
        }
        return match_conjunction(
            self.db, rule.body, conditions, rule.negated, exclude,
            rule.assignments, seed,
        )

    def _negation_seeds(
        self, stratum_index: int, rules: tuple[Rule, ...]
    ) -> dict[int, list[MutableSubstitution]]:
        """Bindings unlocked by facts that vanished relative to the old run.

        A fact that was active at the end of the old run but is absent
        (or superseded) now may have been the only blocker of a negated
        atom.  Negated predicates are final before the stratum starts,
        so the vanished set is computed once at entry; the seeds are
        probed every turn because the positive parents may arrive at any
        point within the stratum.
        """
        seeds: dict[int, list[MutableSubstitution]] = {}
        negated_rules = [
            (position, rule)
            for position, rule in enumerate(rules)
            if rule.negated
        ]
        if not negated_rules:
            return seeds
        needed = {
            atom.predicate
            for _, rule in negated_rules
            for atom in rule.negated
        }
        vanished: dict[str, list[Fact]] = {}
        for fact in self.old.database.facts():
            if fact.predicate not in needed or fact in self.old.superseded:
                continue
            if fact not in self.db or fact in self.superseded:
                vanished.setdefault(fact.predicate, []).append(fact)
        if not vanished:
            return seeds
        for position, rule in negated_rules:
            for atom in rule.negated:
                for fact in vanished.get(atom.predicate, ()):
                    binding = match_atom(atom, fact)
                    if binding is not None:
                        seeds.setdefault(position, []).append(binding)
        return seeds

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _mark_delta(self, fact: Fact) -> None:
        if fact in self.delta_marked:
            return
        self.delta_marked.add(fact)
        self.delta_timeline.append(fact)
        self._flag_groups(fact)

    def _flag_groups(self, fact: Fact) -> None:
        for label, key in self.member_groups.get(fact, ()):
            self.dirty_groups.setdefault(label, set()).add(key)

    def _make_sticky(self, fact: Fact) -> None:
        """A fact the old run superseded stays active: that extension is
        itself a change — downstream joins must see the fact again."""
        self._mark_delta(fact)

    def _threaten(self, fact: Fact) -> None:
        if fact.predicate in self.intensional:
            self.threatened.setdefault(fact.predicate, {}).setdefault(
                fact, None
            )

    def _record_missed(self, fact: Fact) -> None:
        """An old record did not re-fire at its slot.

        If the fact is not otherwise present it becomes *threatened*
        (DRed overdeletion): rederivation probes look for an alternative
        derivation, and aggregate groups it fed must recompute.
        """
        if fact in self.db:
            return
        self._threaten(fact)
        self._flag_groups(fact)

    def _after_fire(self, derived: Fact, slot: Slot) -> None:
        if self.old_slot_of.get(derived) != slot:
            # New fact, or same fact on a different schedule: downstream
            # rules must re-join it (their old records assumed the old
            # timing).
            self._mark_delta(derived)
        pool = self.threatened.get(derived.predicate)
        if pool is not None and derived in pool:
            del pool[derived]
            self.rederived += 1

    def _emit(self, record: ChaseStepRecord) -> None:
        self.records.append(record)
        self.derivation[record.fact] = record
        self.stats.record_firing(record.rule.label, record.fact.predicate)

    def _emit_replayed(
        self, record: ChaseStepRecord, global_round: int
    ) -> None:
        if record.index != len(self.records) or record.round != global_round:
            record = replace(
                record, index=len(self.records), round=global_round
            )
        self._emit(record)
        self.replayed += 1

    def _negation_holds(
        self, rule: Rule, binding, exclude: frozenset[Fact]
    ) -> bool:
        for pattern in rule.negated:
            if (
                next(self.db.match(pattern, binding, exclude), None)
                is not None
            ):
                return False
        return True

    def _sequence_key(self, facts: tuple[Fact, ...]) -> tuple[int, ...]:
        sequence = self.db.sequence
        return tuple(sequence(fact) for fact in facts)

    def _rebuild_binding(
        self, rule: Rule, used: tuple[Fact, ...]
    ) -> MutableSubstitution:
        """The binding exactly as the naive walk would have built it.

        Variables bind in written body order (first occurrence wins),
        assignments append at the end — reproducing the fresh record's
        mapping byte for byte regardless of which channel found the
        match.
        """
        binding: MutableSubstitution = {}
        for atom, fact in zip(rule.body, used):
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term not in binding:
                    binding[term] = fact.terms[position]
        for variable, expression in rule.assignments:
            binding[variable] = evaluate_assignment(expression, binding)
        return binding

    def _body_variables(self, rule: Rule) -> frozenset[Variable]:
        cached = self.body_vars.get(rule.label)
        if cached is None:
            cached = frozenset(
                term
                for atom in rule.body
                for term in atom.terms
                if isinstance(term, Variable)
            )
            self.body_vars[rule.label] = cached
        return cached
