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
