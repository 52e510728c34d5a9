"""Unit tests for the join planner and the work its kernels do."""

import random
from collections import Counter

import pytest

from repro.apps import company_control, generators
from repro.datalog import fact, parse_program
from repro.datalog.analysis import (
    atom_binding_profile,
    canonical_binding_order,
)
from repro.datalog.terms import Variable
from repro.engine import Database, chase, compile_rule_kernel, plan_rule
from repro.engine.planner import plan_conjunction


def execute_rule_plan(rule_plan, database, exclude, delta=None, stats=None):
    return compile_rule_kernel(rule_plan, database).execute(
        database, exclude, delta, stats
    )


def v(name):
    return Variable(name)


def _rule(text, **kwargs):
    program = parse_program(text, name=kwargs.pop("name", "p"), **kwargs)
    return program.rules[0]


class TestCanonicalBindingOrder:
    def test_body_order_first_seen(self):
        rule = _rule("r: A(x, y), B(y, z) -> C(x, z).", goal="C")
        assert canonical_binding_order(rule) == (v("x"), v("y"), v("z"))

    def test_assignment_targets_after_body(self):
        rule = _rule("r: A(x, s), w = s * 2 -> C(x, w).", goal="C")
        assert canonical_binding_order(rule) == (v("x"), v("s"), v("w"))


class TestBindingProfile:
    def test_counts(self):
        rule = _rule('r: Own(x, "B", s) -> C(x).', goal="C")
        atom = rule.body[0]
        assert atom_binding_profile(atom, set()) == (1, 0, 2)
        assert atom_binding_profile(atom, {v("x")}) == (1, 1, 1)


class TestAtomOrdering:
    def test_constant_atom_goes_first(self):
        """A constant-bearing atom beats a free atom of any cardinality."""
        rule = _rule(
            'r: Edge(x, y), Flag(y, "hot") -> Out(x, y).', goal="Out"
        )
        database = Database(
            [fact("Edge", f"N{i}", f"N{i+1}") for i in range(5)]
            + [fact("Flag", "N3", "hot")]
        )
        plan = plan_rule(rule, database).full
        assert plan.order == (1, 0)
        # And the inverse permutation restores body positions.
        assert plan.step_of_atom == (1, 0)

    def test_cardinality_breaks_ties(self):
        """Two free atoms: the smaller relation is scanned first."""
        rule = _rule("r: Big(x, y), Small(y, z) -> Out(x, z).", goal="Out")
        database = Database(
            [fact("Big", f"A{i}", f"B{i}") for i in range(10)]
            + [fact("Small", "B1", "C1")]
        )
        plan = plan_rule(rule, database).full
        assert plan.order == (1, 0)

    def test_body_position_is_final_tiebreak(self):
        rule = _rule("r: P(x, y), Q(y, z) -> Out(x, z).", goal="Out")
        database = Database([fact("P", "A", "B"), fact("Q", "B", "C")])
        plan = plan_rule(rule, database).full
        assert plan.order == (0, 1)

    def test_bound_variables_raise_selectivity(self):
        """After the first atom binds x and y, the atom sharing both
        variables outranks the disconnected one."""
        rule = _rule(
            "r: Seed(x, y), Other(a, b), Link(x, y) -> Out(x, a).",
            goal="Out",
        )
        database = Database([
            fact("Seed", "A", "B"), fact("Other", "C", "D"),
            fact("Link", "A", "B"),
        ])
        plan = plan_rule(rule, database).full
        assert plan.order[0] == 0
        assert plan.order[1] == 2  # Link probes both bound positions.

    def test_delta_variant_pivot_forced_first(self):
        rule = _rule("r: T(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([fact("E", "A", "B")])
        rule_plan = plan_rule(rule, database)
        assert len(rule_plan.delta_variants) == 2
        for pivot, variant in enumerate(rule_plan.delta_variants):
            assert variant.pivot == pivot
            assert variant.order[0] == pivot

    def test_aggregate_rules_have_one_delta_variant_per_body_atom(self):
        """Aggregates are delta-driven like plain rules; their variants
        are planned over the pre-aggregation conditions only (the
        post-aggregation ``t > 0.5`` needs the aggregate result)."""
        rule = _rule(
            "r: Control(x, z), Own(z, y, s), s > 0.1, t = sum(s), t > 0.5 "
            "-> Control(x, y).",
            goal="Control",
        )
        rule_plan = plan_rule(rule, Database([]))
        assert len(rule_plan.delta_variants) == len(rule.body) == 2
        for pivot, variant in enumerate(rule_plan.delta_variants):
            assert variant.pivot == pivot
            assert variant.order[0] == pivot
            conditions = [
                condition
                for step in variant.steps
                for condition in step.conditions
            ]
            assert conditions == list(rule.aggregate_split[0])
            assert len(conditions) == 1


class TestHoisting:
    def test_condition_hoisted_to_earliest_step(self):
        """s > 0.5 only needs the first atom; it must not wait for the
        second join."""
        rule = _rule(
            "r: Own(x, y, s), Listed(y), s > 0.5 -> C(x, y).", goal="C"
        )
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Listed", "B"),
        ])
        plan = plan_rule(rule, database).full
        own_step = plan.steps[plan.step_of_atom[0]]
        assert len(own_step.conditions) == 1
        assert plan.hoisted_conditions == (
            1 if plan.step_of_atom[0] < len(plan.steps) - 1 else 0
        )

    def test_assignment_hoisted_and_unlocks_condition(self):
        rule = _rule(
            "r: Own(x, y, s), Listed(y), w = s * 2, w > 1.0 -> C(x, w).",
            goal="C",
        )
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Listed", "B"),
        ])
        plan = plan_rule(rule, database).full
        own_step = plan.steps[plan.step_of_atom[0]]
        assert len(own_step.assignments) == 1
        assert len(own_step.conditions) == 1

    def test_negation_hoisted_when_bound(self):
        rule = _rule(
            "r: Node(x), Node(y), not E(x, y) -> Sep(x, y).", goal="Sep"
        )
        database = Database([fact("Node", "A"), fact("Node", "B")])
        plan = plan_rule(rule, database).full
        assert sum(len(step.negated) for step in plan.steps) == 1
        # The negated check needs both x and y: it sits on the last step.
        assert len(plan.steps[-1].negated) == 1

    def test_repeated_variable_becomes_check(self):
        rule = _rule("r: Self(x, x) -> Out(x).", goal="Out")
        database = Database([fact("Self", "A", "A"), fact("Self", "A", "B")])
        plan = plan_rule(rule, database).full
        step = plan.steps[0]
        assert len(step.bind_positions) == 1
        assert len(step.check_positions) == 1

    def test_constants_become_probe_positions(self):
        rule = _rule('r: Flag(x, "hot") -> Out(x).', goal="Out")
        plan = plan_rule(rule, Database([])).full
        step = plan.steps[0]
        assert step.probe_positions == (1,)
        assert step.bind_positions == ((0, v("x")),)


class TestPlanExecution:
    def test_executor_matches_all_homomorphisms(self):
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"), fact("E", "B", "D"),
        ])
        rule_plan = plan_rule(rule, database)
        matches = execute_rule_plan(rule_plan, database, frozenset())
        parents = [used for _binding, used in matches]
        assert parents == [
            (fact("E", "A", "B"), fact("E", "B", "C")),
            (fact("E", "A", "B"), fact("E", "B", "D")),
        ]

    def test_matches_sorted_in_naive_order(self):
        """Even when the plan reverses the body, parents come back in
        body order and matches in naive (insertion-lexicographic) order."""
        rule = _rule(
            'r: Edge(x, y), Flag(y, "hot") -> Out(x, y).', goal="Out"
        )
        database = Database([
            fact("Edge", "A", "H"), fact("Edge", "B", "H"),
            fact("Flag", "H", "hot"),
        ])
        rule_plan = plan_rule(rule, database)
        assert rule_plan.full.order == (1, 0)
        matches = execute_rule_plan(rule_plan, database, frozenset())
        assert [used for _b, used in matches] == [
            (fact("Edge", "A", "H"), fact("Flag", "H", "hot")),
            (fact("Edge", "B", "H"), fact("Flag", "H", "hot")),
        ]

    def test_bindings_serialized_in_canonical_order(self):
        rule = _rule(
            'r: Edge(x, y), Flag(y, "hot") -> Out(x, y).', goal="Out"
        )
        database = Database([
            fact("Edge", "A", "H"), fact("Flag", "H", "hot"),
        ])
        matches = execute_rule_plan(
            plan_rule(rule, database), database, frozenset()
        )
        binding, _used = matches[0]
        assert list(binding) == [v("x"), v("y")]

    def test_delta_execution_dedups_multi_delta_matches(self):
        rule = _rule("r: P(x, y), P(y, z) -> Q(x, z).", goal="Q")
        database = Database([fact("P", "A", "B"), fact("P", "B", "C")])
        rule_plan = plan_rule(rule, database)
        delta = {"P": [fact("P", "A", "B"), fact("P", "B", "C")]}
        matches = execute_rule_plan(rule_plan, database, frozenset(), delta)
        assert len(matches) == 1

    def test_delta_execution_skips_untouched_pivots(self):
        rule = _rule("r: A(x), B(x) -> C(x).", goal="C")
        database = Database([fact("A", "X"), fact("B", "X")])
        rule_plan = plan_rule(rule, database)
        matches = execute_rule_plan(
            rule_plan, database, frozenset(), {"Unrelated": []}
        )
        assert matches == []

    def test_stats_accumulate(self):
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([fact("E", "A", "B"), fact("E", "B", "C")])
        stats = {}
        execute_rule_plan(
            plan_rule(rule, database), database, frozenset(), stats=stats
        )
        assert stats["matches"] == 1
        assert stats["probes"] >= 2
        assert stats["scanned"] >= 2


class TestPlanDescription:
    def test_describe_mentions_every_step(self):
        rule = _rule(
            "r: Own(x, y, s), Listed(y), s > 0.5 -> C(x, y).", goal="C"
        )
        plan = plan_rule(rule, Database([])).full
        text = plan.describe()
        assert "Own" in text and "Listed" in text and "cond" in text

    def test_snapshot_fields(self):
        rule = _rule("r: T(x, y), E(y, z) -> T(x, z).", goal="T")
        snapshot = plan_rule(rule, Database([])).snapshot()
        assert set(snapshot) >= {
            "order", "steps", "hoisted_conditions",
            "hoisted_assignments", "delta_variants", "plan",
        }
        assert snapshot["steps"] == 2
        assert snapshot["delta_variants"] == 2


class TestPlanConjunctionValidation:
    def test_pivot_out_of_range_rejected(self):
        rule = _rule("r: A(x) -> B(x).", goal="B")
        with pytest.raises((IndexError, ValueError)):
            plan_conjunction(rule, Database([]), rule.conditions, pivot=5)


class TestSemiNaiveWork:
    """Clock-free contract of the planned chase: every body grounding is
    joined once, and an aggregate rule evaluates only the groups a turn
    touched.  The naive oracle re-joins each grounding and rebuilds each
    group every round; a kernel fed the whole relation instead of its
    window shows here as extra matches or evaluated groups."""

    def test_recursive_rule_matches_each_grounding_once(self):
        program = parse_program(
            "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
            name="tc", goal="T",
        )
        rng = random.Random(7)
        names = [f"N{i}" for i in range(80)]
        edges: set[tuple[str, str]] = set()
        while len(edges) < 200:
            edges.add(tuple(rng.sample(names, 2)))
        result = chase(program, Database([fact("E", *e) for e in edges]))
        successors = Counter(
            f.terms[0] for f in result.database.facts("E")
        )
        groundings = sum(
            successors[f.terms[1]] for f in result.database.facts("T")
        )
        assert result.stats.rounds > 10
        assert groundings == 12_483
        assert result.stats.plans["rec"]["matches"] == groundings

    def test_aggregate_rule_evaluates_each_chain_group_once(self):
        scenario = generators.control_chain(40, seed=3)
        result = chase(scenario.application.program, scenario.database)
        sigma3 = result.stats.plans["sigma3"]
        assert result.stats.rounds == 40
        assert sigma3["groups_evaluated"] == sigma3["groups_standing"] == 780

    def test_aggregate_rule_evaluates_only_touched_groups(self):
        database = generators.random_ownership_database(30, 90, seed=11)
        result = chase(company_control.build().program, database)
        sigma3 = result.stats.plans["sigma3"]
        # Re-evaluating every standing group would cost about
        # rounds x groups (11 x 637 here).
        assert sigma3["groups_standing"] == 637
        assert sigma3["groups_evaluated"] <= 3 * sigma3["groups_standing"]
