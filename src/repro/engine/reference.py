"""The chase's reference semantics: a generic conjunction walk and the
naive round loop (``strategy="naive"``).

This is the oracle the compiled engine (:mod:`repro.engine.chase`) is
held byte-identical to: tests and parity benchmarks compare facts,
rounds and :class:`~repro.engine.chase.ChaseStepRecord` contents against
it.  It is not a production path — every rule, and every group of every
aggregate rule, is re-evaluated against the whole instance in every
round.

The walk itself *is* production code where no compiled plan exists:
negative constraints are checked with it once per run, and incremental
maintenance (:mod:`repro.engine.incremental`) uses it with a seed
binding for its head-, group- and negation-bound selective probes.
"""

from __future__ import annotations

from typing import Iterator

from ..datalog.atoms import Atom, Fact
from ..datalog.conditions import Comparison, evaluate_assignment
from ..datalog.rules import Rule
from ..datalog.terms import NullFactory, Term
from ..datalog.unify import MutableSubstitution
from .database import Database


def match_conjunction(
    database: Database,
    atoms: tuple[Atom, ...],
    conditions: tuple[Comparison, ...],
    negated: tuple[Atom, ...],
    exclude: frozenset[Fact],
    assignments: tuple = (),
    seed: MutableSubstitution | None = None,
) -> Iterator[tuple[MutableSubstitution, tuple[Fact, ...]]]:
    """Enumerate homomorphisms of a conjunction into the active facts.

    Depth-first over ``atoms`` in written order with candidates in fact
    insertion order — i.e. in ascending order of the matched facts'
    insertion-sequence tuple, the order every other matcher reproduces.
    At each full match the ``assignments`` are evaluated, then the
    ``conditions``, then the ``negated`` atoms (no matching active fact
    may exist).  Facts in ``exclude`` are invisible throughout.  A
    ``seed`` binding restricts the walk to its extensions (restricting
    candidates by bound terms preserves insertion order).
    """

    def negation_holds(binding: MutableSubstitution) -> bool:
        for pattern in negated:
            if next(database.match(pattern, binding, exclude), None) is not None:
                return False
        return True

    def recurse(
        index: int, binding: MutableSubstitution, used: tuple[Fact, ...]
    ) -> Iterator[tuple[MutableSubstitution, tuple[Fact, ...]]]:
        if index == len(atoms):
            for variable, expression in assignments:
                binding[variable] = evaluate_assignment(expression, binding)
            if all(condition.holds(binding) for condition in conditions):
                if negation_holds(binding):
                    yield binding, used
            return
        for matched, extended in database.match(atoms[index], binding, exclude):
            yield from recurse(index + 1, extended, used + (matched,))

    yield from recurse(0, seed if seed is not None else {}, ())


def naive_stratum(
    rules,
    result,
    nulls: NullFactory,
    aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
    rounds_so_far: int,
    max_rounds: int,
) -> int:
    """Naive evaluation of one stratum: every rule against the whole
    instance, round after round, until a round derives nothing.

    Returns the number of rounds run (the last, empty one included).
    """
    # The firing functions live with the record types they build.
    from .chase import ChaseError, fire_plain

    database = result.database
    for round_number in range(1, max_rounds + 1):
        changed = False
        before = len(result.records)
        for rule in rules:
            # Materialize matches first: firing must not see this turn's
            # output.
            matches = list(
                match_conjunction(
                    database, rule.body, rule.aggregate_split[0],
                    rule.negated, frozenset(result.superseded),
                    rule.assignments,
                )
            )
            if rule.has_aggregate:
                changed |= fire_aggregate(
                    rule, matches, result, aggregate_state,
                    rounds_so_far + round_number,
                )
            else:
                changed |= fire_plain(
                    rule, matches, result, nulls,
                    rounds_so_far + round_number,
                )
        result.stats.delta_sizes.append(len(result.records) - before)
        if not changed:
            return round_number
    raise ChaseError(
        f"chase did not reach fixpoint within {max_rounds} rounds "
        f"for program {result.program.name!r}"
    )


def fire_aggregate(
    rule: Rule,
    matches,
    result,
    aggregate_state: dict[tuple[str, tuple[Term, ...]], Fact],
    round_number: int,
) -> bool:
    """Fire an aggregate rule on the body matches of its whole instance
    (filtered by the pre-aggregation conditions only): every group is
    rebuilt and evaluated, whether or not anything reached it."""
    from .chase import fire_groups, group_contribution

    # Matches arrive in ascending parent-sequence order, so the dict
    # meets groups in first-contribution order.
    groups: dict[tuple[Term, ...], list] = {}
    for binding, used in matches:
        key, contribution = group_contribution(rule, binding, used)
        groups.setdefault(key, []).append(contribution)
    fired = fire_groups(
        rule,
        ((key, tuple(members)) for key, members in groups.items()),
        result, aggregate_state, round_number,
    )
    return bool(fired)
