"""Engine-vs-oracle parity: the planned engine and the naive reference
chase (engine/reference.py) must be observationally identical on every
bundled application.

The promise is *byte-identical* provenance (DESIGN.md §9): not just the
same derived facts, but the same :class:`ChaseStepRecord` sequence —
indexes, rounds, parents, bindings and labelled nulls all render equal
against naive evaluation.
"""

import pytest

from repro.apps import (
    close_links,
    company_control,
    figures,
    generators,
    golden_powers,
    integrated_ownership,
    stress_test,
)
from repro.core import Explainer
from repro.datalog import fact, parse_program
from repro.engine import (
    ChaseEngine,
    ChaseGraph,
    Database,
    SymbolTable,
    chase,
    reason,
)

STRATEGIES = ChaseEngine.STRATEGIES

WORKLOADS = {
    "figure8": lambda: figures.figure8_instance(),
    "figure12_stress": lambda: figures.figure12_stress_instance(),
    "figure12_control": lambda: figures.figure12_control_instance(),
    "figure15": lambda: figures.figure15_instance(),
    "control_chain": lambda: generators.control_chain(8, seed=3),
    "control_aggregation": lambda: generators.control_chain_with_aggregation(
        6, seed=5
    ),
    "stress_cascade": lambda: generators.stress_cascade(
        4, seed=3, dual_final=True
    ),
    "close_links": lambda: generators.close_links_common_control(seed=3),
}


def _scenario(name):
    return WORKLOADS[name]()


def _facts_by_predicate(result):
    grouped = {}
    for current in result.database.facts():
        grouped.setdefault(current.predicate, set()).add(current)
    return grouped


def _record_fingerprint(result):
    """Everything a provenance record renders: byte-level comparison."""
    return [
        (
            record.index,
            record.round,
            record.rule.label,
            repr(record.fact),
            tuple(repr(parent) for parent in record.parents),
            repr(record.binding),
            repr(record.aggregate_value),
            tuple(
                (repr(c.facts), repr(c.value), repr(c.binding))
                for c in record.contributors
            ),
        )
        for record in result.records
    ]


class TestStrategySelection:
    def test_engine_and_oracle_are_the_only_strategies(self):
        assert ChaseEngine.STRATEGIES == ("planned", "naive")

    def test_default_is_planned(self):
        assert ChaseEngine().strategy == "planned"

    @pytest.mark.parametrize("retired", ["semi-naive", "parallel", "magic"])
    def test_unknown_strategy_rejected(self, retired):
        with pytest.raises(ValueError):
            ChaseEngine(strategy=retired)

    def test_processes_knob_is_gone(self):
        with pytest.raises(TypeError):
            ChaseEngine(processes=2)


class TestScenarioParity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_facts_and_records_identical(self, name):
        scenario = _scenario(name)
        program = scenario.application.program
        results = {
            strategy: chase(program, scenario.database, strategy=strategy)
            for strategy in STRATEGIES
        }
        naive, planned = results["naive"], results["planned"]
        assert _facts_by_predicate(naive) == _facts_by_predicate(planned)
        assert naive.superseded == planned.superseded
        assert len(naive.violations) == len(planned.violations)
        assert _record_fingerprint(naive) == _record_fingerprint(planned)
        assert naive.rounds == planned.rounds

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_chase_graph_edges_identical(self, name):
        scenario = _scenario(name)
        program = scenario.application.program
        graphs = {
            strategy: ChaseGraph(
                chase(program, scenario.database, strategy=strategy)
            )
            for strategy in STRATEGIES
        }
        naive_edges = {
            (edge.source, edge.target, edge.rule_label)
            for edge in graphs["naive"].edges
        }
        planned_edges = {
            (edge.source, edge.target, edge.rule_label)
            for edge in graphs["planned"].edges
        }
        assert planned_edges == naive_edges

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_explanation_texts_identical(self, name):
        scenario = _scenario(name)
        texts = []
        for strategy in STRATEGIES:
            result = reason(
                scenario.application.program, scenario.database,
                strategy=strategy,
            )
            explainer = Explainer(result, scenario.application.glossary)
            texts.append(
                explainer.explain(scenario.target, prefer_enhanced=False).text
            )
        assert texts[0] == texts[1]


class TestApplicationParity:
    """The bundled apps beyond the scenario generators: golden powers,
    integrated ownership, and the direct build() entry points."""

    CASES = {
        "golden_powers": (
            golden_powers.build,
            lambda: [
                golden_powers.own("F", "S", 0.9),
                golden_powers.own("G", "S2", 0.8),
                golden_powers.foreign("F"), golden_powers.foreign("G"),
                golden_powers.strategic("S"), golden_powers.strategic("S2"),
                golden_powers.vetoed("F"), golden_powers.exempt("G"),
            ],
        ),
        "integrated_ownership": (
            integrated_ownership.build,
            lambda: [
                integrated_ownership.own("A", "B", 0.5),
                integrated_ownership.own("B", "C", 0.4),
                integrated_ownership.own("A", "C", 0.1),
                integrated_ownership.own("C", "D", 0.6),
            ],
        ),
        "company_control": (
            company_control.build,
            lambda: list(generators.control_chain(6, seed=9).database.facts()),
        ),
        "close_links": (
            close_links.build,
            lambda: list(
                generators.close_links_common_control(seed=5).database.facts()
            ),
        ),
        "stress_test": (
            stress_test.build_simple,
            lambda: list(
                generators.stress_cascade(3, seed=7).database.facts()
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_app_reason_parity(self, name):
        builder, load = self.CASES[name]
        application = builder()
        results = {
            strategy: application.reason(load(), strategy=strategy)
            for strategy in STRATEGIES
        }
        naive = results["naive"].chase_result
        planned = results["planned"].chase_result
        assert _facts_by_predicate(naive) == _facts_by_predicate(planned)
        assert _record_fingerprint(naive) == _record_fingerprint(planned)


class TestSymbolTableParity:
    """Interned id assignments depend on what was seen first; rendered
    output must not.  Two databases holding the same facts under
    different id assignments explain byte-identically on every strategy."""

    def _explanations(self, scenario, database):
        texts = []
        for strategy in STRATEGIES:
            result = reason(
                scenario.application.program, database, strategy=strategy
            )
            explainer = Explainer(result, scenario.application.glossary)
            texts.append(
                explainer.explain(scenario.target, prefer_enhanced=False).text
            )
        return texts

    @staticmethod
    def _ids_differ(left, right):
        return any(
            left.symbols.lookup(term) != right.symbols.lookup(term)
            for current in left.facts()
            for term in current.terms
        )

    def test_reversed_insertion_order_same_explanations(self):
        """Same program loaded twice with opposite fact insertion orders:
        the symbol tables assign different ids, the explanations agree
        byte for byte (left-linear chain, so derivations are unique)."""
        scenario = _scenario("control_chain")
        facts = list(scenario.database.facts())
        forward = Database(facts)
        backward = Database(list(reversed(facts)))
        assert self._ids_differ(forward, backward)
        texts = self._explanations(scenario, forward) + self._explanations(
            scenario, backward
        )
        assert len(set(texts)) == 1

    def test_scrambled_symbol_table_same_explanations(self):
        """Id assignment isolated from derivation order: identical fact
        insertion, but one table pre-interned in reverse so every id
        differs.  Figure 8's aggregation-heavy program must not notice."""
        scenario = _scenario("figure8")
        facts = list(scenario.database.facts())
        table = SymbolTable()
        for current in reversed(facts):
            for term in reversed(current.terms):
                table.intern(term)
        plain = Database(facts)
        scrambled = Database(facts, symbols=table)
        assert self._ids_differ(plain, scrambled)
        texts = self._explanations(scenario, plain) + self._explanations(
            scenario, scrambled
        )
        assert len(set(texts)) == 1


class TestCornerCases:
    def test_transitive_closure_records_byte_identical(self):
        program = parse_program(
            "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
            name="tc", goal="T",
        )
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"),
            fact("E", "C", "D"), fact("E", "D", "B"),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_negation_program_parity(self):
        program = parse_program(
            """
            base: E(x, y) -> T(x, y).
            rec:  T(x, y), E(y, z) -> T(x, z).
            sep:  Node(x), Node(y), x != y, not T(x, y) -> Unreachable(x, y).
            """,
            name="p", goal="Unreachable",
        )
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("Node", "C"),
            fact("E", "A", "B"),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_existential_nulls_identical(self):
        program = parse_program(
            "r: Person(x) -> HasParent(x, z).",
            name="nulls", goal="HasParent",
        )
        database = Database([fact("Person", "A"), fact("Person", "B")])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_constraint_violations_identical(self):
        program = parse_program(
            """
            r1: Own(x, y, s), s > 0.5 -> Control(x, y).
            c1: Control(x, y), Control(y, x), x != y -> false.
            """,
            name="mutual", goal="Control",
        )
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Own", "B", "A", 0.6),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert len(naive.violations) == len(planned.violations)
        assert [v.binding for v in naive.violations] == [
            v.binding for v in planned.violations
        ]

    def test_planner_stats_populated(self):
        program = parse_program(
            "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
            name="tc", goal="T",
        )
        database = Database([fact("E", "A", "B"), fact("E", "B", "C")])
        planned = chase(program, database, strategy="planned")
        stats = planned.stats.snapshot()
        assert stats["plans_compiled"] >= 2
        assert set(stats["plans"]) == {"base", "rec"}
        rec = stats["plans"]["rec"]
        assert rec["steps"] == 2
        assert rec["matches"] >= 1
        assert "plan" in rec


class TestDeltaCorrectness:
    """The rolling delta windows must neither miss nor double-count.
    The consuming rule is written first, so its inputs arrive after its
    round-1 turn and round 2 has to find them through the delta kernels."""

    def test_multi_delta_join_found_once(self):
        """A rule joining two delta facts must fire exactly once."""
        program = parse_program(
            """
            join: P(x, y), P(y, z) -> Q(x, z).
            mk: Seed(x, y) -> P(x, y).
            """,
            name="j", goal="Q",
        )
        database = Database([fact("Seed", "A", "B"), fact("Seed", "B", "C")])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        q_records = [r for r in planned.records if r.fact.predicate == "Q"]
        assert len(q_records) == 1
        assert q_records[0].round == 2
        assert planned.stats.facts_deduplicated == 0
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_late_edb_predicate_join(self):
        """Plain rules must still see non-delta facts on the other side."""
        program = parse_program(
            """
            step2: B(x), Static(x) -> C(x).
            step1: A(x) -> B(x).
            """,
            name="late", goal="C",
        )
        database = Database([fact("A", "X"), fact("Static", "X")])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert fact("C", "X") in planned.database
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_superseded_upstream_sum_leaves_downstream_group(self):
        """Aggregate over aggregate in one stratum (the stress test's
        sigma5-sigma7): when B's default grows C's long-term risk from 3
        to 6, sigma7's group for C must lose the superseded Risk(C, 3)
        contribution it has been holding, not sum it with the new one."""
        program = stress_test.build().program
        database = Database([
            fact("Shock", "A", 10),
            fact("HasCapital", "A", 1),
            fact("HasCapital", "B", 4),
            fact("HasCapital", "C", 6),
            fact("LongTermDebts", "A", "C", 3),
            fact("ShortTermDebts", "A", "C", 2),
            fact("LongTermDebts", "A", "B", 5),
            fact("LongTermDebts", "B", "C", 3),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert fact("Risk", "C", 3, "long") in planned.superseded
        default_c = planned.record_for(fact("Default", "C"))
        assert default_c.round == 2
        assert default_c.aggregate_value == 8
        assert [c.facts[0] for c in default_c.contributors] == [
            fact("Risk", "C", 2, "short"), fact("Risk", "C", 6, "long"),
        ]
        assert planned.superseded == naive.superseded
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_late_second_atom_sorts_before_standing_contribution(self):
        """The aggregate's second body atom arrives in round 2 and pairs
        with an *earlier* first atom than the standing contribution's:
        it must be listed first, as whole re-evaluation lists it."""
        program = parse_program(
            """
            agg: A(x, z), B(z, y, s), t = sum(s) -> C(x, y, t).
            mk:  Raw(z, y, s) -> B(z, y, s).
            """,
            name="late", goal="C",
        )
        database = Database([
            fact("A", "X", "Z0"), fact("A", "X", "Z1"),
            fact("B", "Z1", "Y", 0.3), fact("Raw", "Z0", "Y", 0.4),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        grown = planned.records[-1]
        assert grown.round == 2 and grown.rule.label == "agg"
        assert [c.facts for c in grown.contributors] == [
            (fact("A", "X", "Z0"), fact("B", "Z0", "Y", 0.4)),
            (fact("A", "X", "Z1"), fact("B", "Z1", "Y", 0.3)),
        ]
        assert planned.superseded == {fact("C", "X", "Y", 0.3)}
        assert _record_fingerprint(naive) == _record_fingerprint(planned)

    def test_late_join_partner_never_meets_a_superseded_sum(self):
        """Mark(A) arrives a round after Total(A, 2) was superseded; the
        delta join Total x Mark must exclude the stale total (the
        stratum's exclude set is rebuilt when supersession grows)."""
        program = parse_program(
            """
            flag:  Total(x, t), Mark(x) -> Flagged(x, t).
            total: Pay(x, v), t = sum(v) -> Total(x, t).
            more:  Total(x, t), Bonus(x, v), t >= 2 -> Pay(x, v).
            mark:  Total(x, t), t > 4 -> Mark(x).
            """,
            name="stale", goal="Flagged",
        )
        database = Database([fact("Pay", "A", 2), fact("Bonus", "A", 3)])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert planned.superseded == {fact("Total", "A", 2)}
        assert planned.facts("Flagged") == (fact("Flagged", "A", 5),)
        assert _record_fingerprint(naive) == _record_fingerprint(planned)


    def test_emptied_group_survives_its_other_parent_being_superseded(self):
        """Both body atoms are superseding sums.  R(X, 2) is superseded
        by R(X, 7), which fails ``a < 5``: group X loses its only
        contribution and is gone.  When S(X, 1) is superseded two rounds
        later, the reverse map still names the vanished group."""
        program = parse_program(
            """
            pair:  R(x, a), S(x, b), a < 5, t = sum(b) -> P(x, t).
            r:     A(x, v), a = sum(v) -> R(x, a).
            s:     B(x, v), b = sum(v) -> S(x, b).
            growA: R(x, a), StepA(x, v) -> A(x, v).
            growB: R(x, a), a > 5, StepB(x, v) -> B(x, v).
            """,
            name="emptied", goal="P",
        )
        database = Database([
            fact("A", "X", 2), fact("B", "X", 1),
            fact("StepA", "X", 5), fact("StepB", "X", 3),
        ])
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert planned.superseded == {fact("R", "X", 2), fact("S", "X", 1)}
        assert planned.facts("P") == (fact("P", "X", 1),)
        assert _record_fingerprint(naive) == _record_fingerprint(planned)
        assert planned.rounds == naive.rounds


def _joint_ladder(hops):
    """A control ladder L0 -> ... -> L<hops> whose every third hop is
    joint: 30 % held directly plus 30 % through a wholly owned vehicle,
    so sigma3's threshold is met one round after the vehicle's stake
    arrives."""
    facts = [company_control.company(f"L{i}") for i in range(hops + 1)]
    for hop in range(hops):
        lower, upper = f"L{hop}", f"L{hop + 1}"
        if hop % 3 == 2:
            vehicle = f"V{hop}"
            facts += [
                company_control.company(vehicle),
                company_control.own(lower, vehicle, 1.0),
                company_control.own(lower, upper, 0.3),
                company_control.own(vehicle, upper, 0.3),
            ]
        else:
            facts.append(company_control.own(lower, upper, 0.6))
    return Database(facts)


class TestAggregateGroupWork:
    """Delta-driven aggregation pinned without a clock: sigma3 evaluates
    a group only when a contribution reached it, so the evaluations are
    bounded by its matches — whole re-evaluation pays rounds x groups —
    while every record stays byte-equal to the oracle's."""

    DATABASES = {
        "control_chain_40": lambda: generators.control_chain(
            40, seed=3
        ).database,
        "joint_ladder_12": lambda: _joint_ladder(12),
    }

    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_groups_evaluated_bounded_by_matches(self, name):
        program = company_control.build().program
        database = self.DATABASES[name]()
        naive = chase(program, database, strategy="naive")
        planned = chase(program, database, strategy="planned")
        assert _record_fingerprint(naive) == _record_fingerprint(planned)
        assert planned.rounds == naive.rounds >= 12
        sigma3 = planned.stats.plans["sigma3"]
        assert sigma3["groups_standing"] > 0
        assert sigma3["groups_evaluated"] <= (
            sigma3["matches"] + sigma3["groups_standing"]
        )
        # Whole re-evaluation pays for every standing group in (nearly)
        # every round.
        assert sigma3["groups_evaluated"] < (
            planned.rounds * sigma3["groups_standing"] / 4
        )

    def test_joint_hops_are_joint(self):
        """The ladder really exercises the threshold: a joint hop's
        control record sums two stakes, neither a majority."""
        result = chase(company_control.build().program, _joint_ladder(12))
        joint = result.record_for(fact("Control", "L2", "L3"))
        assert [c.value for c in joint.contributors] == [0.3, 0.3]
        assert fact("Control", "L0", "L12") in result.database
