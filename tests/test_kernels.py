"""Unit tests for the compiled rule kernels (engine/kernels.py)."""

import pytest

from repro.datalog import fact, parse_program
from repro.datalog.terms import Constant, Variable
from repro.engine import Database, compile_rule_kernel, plan_rule


def v(name):
    return Variable(name)


def _rule(text, **kwargs):
    program = parse_program(text, name=kwargs.pop("name", "p"), **kwargs)
    return program.rules[0]


class TestKernelExecution:
    def test_reused_kernel_matches_fresh_compile(self):
        """A reused kernel returns exactly what a fresh compilation does."""
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database([
            fact("E", "A", "B"), fact("E", "B", "C"), fact("E", "B", "D"),
        ])
        rule_plan = plan_rule(rule, database)
        kernel = compile_rule_kernel(rule_plan, database)
        kernel.execute(database, frozenset())
        fresh = compile_rule_kernel(rule_plan, database).execute(
            database, frozenset()
        )
        assert kernel.execute(database, frozenset()) == fresh

    def test_kernel_survives_database_growth(self):
        """Closures capture live column/symbol views, so a kernel compiled
        before facts arrive still sees them."""
        rule = _rule("r: E(x, y), E(y, z) -> T(x, z).", goal="T")
        database = Database()
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        database.add(fact("E", "A", "B"))
        database.add(fact("E", "B", "C"))
        matches = kernel.execute(database, frozenset())
        assert [used for _b, used in matches] == [
            (fact("E", "A", "B"), fact("E", "B", "C")),
        ]

    def test_exec_counter_increments(self):
        rule = _rule("r: E(x, y) -> T(x, y).", goal="T")
        database = Database([fact("E", "A", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        kernel.execute(database, frozenset(), stats=stats)
        kernel.execute(database, frozenset(), stats=stats)
        assert kernel.execs == 2
        assert stats["kernel_execs"] == 2

    def test_symbol_table_mismatch_rejected(self):
        rule = _rule("r: E(x, y) -> T(x, y).", goal="T")
        ours = Database([fact("E", "A", "B")])
        theirs = Database([fact("E", "A", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, ours), ours)
        with pytest.raises(ValueError):
            kernel.execute(theirs, frozenset())

    def test_bindings_carry_actual_stored_terms(self):
        """Rendered bindings must hold the matched facts' own term
        objects, never the symbol table's canonical spelling."""
        rule = _rule("r: P(x), Q(x) -> R(x).", goal="R")
        # 1 interns first, so Constant(1.0) canonicalizes to Constant(1);
        # the join must still succeed (value-equal ids) and the binding
        # must come from P's stored term.
        database = Database([fact("P", 1.0), fact("Q", 1)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        assert len(matches) == 1
        binding, used = matches[0]
        assert binding[v("x")] is used[0].terms[0]
        assert repr(binding[v("x")]) == "Constant(1.0)"


class TestKernelSemantics:
    def test_conditions_prune(self):
        rule = _rule("r: Own(x, y, s), s > 0.5 -> C(x, y).", goal="C")
        database = Database([
            fact("Own", "A", "B", 0.7), fact("Own", "A", "C", 0.3),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        matches = kernel.execute(database, frozenset(), stats=stats)
        assert [used for _b, used in matches] == [
            (fact("Own", "A", "B", 0.7),)
        ]
        assert stats["pruned"] == 1

    def test_assignments_recomputed_exactly(self):
        rule = _rule("r: Own(x, y, s), w = s * 2 -> C(x, w).", goal="C")
        database = Database([fact("Own", "A", "B", 0.35)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        binding, _used = kernel.execute(database, frozenset())[0]
        assert binding[v("w")] == Constant(0.7)
        assert list(binding) == [v("x"), v("y"), v("s"), v("w")]

    def test_evaluation_errors_prune_not_raise(self):
        """Arithmetic on a non-numeric operand prunes the partial (with
        the pruned counter ticking) instead of propagating."""
        rule = _rule("r: P(x, s), w = s * 2 -> C(x, w).", goal="C")
        database = Database([fact("P", "A", "oops"), fact("P", "B", 3)])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        stats = {}
        matches = kernel.execute(database, frozenset(), stats=stats)
        assert [used[0] for _b, used in matches] == [fact("P", "B", 3)]
        assert stats["pruned"] == 1

    def test_negation_blocks_matches(self):
        rule = _rule(
            "r: Node(x), Node(y), not E(x, y) -> Sep(x, y).", goal="Sep"
        )
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("E", "A", "B"),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        pairs = {(b[v("x")].value, b[v("y")].value) for b, _u in matches}
        assert ("A", "B") not in pairs
        assert ("B", "A") in pairs

    def test_negation_with_constant_probe(self):
        rule = _rule('r: Node(x), not Flag(x, "bad") -> Ok(x).', goal="Ok")
        database = Database([
            fact("Node", "A"), fact("Node", "B"), fact("Flag", "A", "bad"),
        ])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset())
        assert [b[v("x")].value for b, _u in matches] == ["B"]

    def test_delta_variants_dedup_and_sort(self):
        rule = _rule("r: P(x, y), P(y, z) -> Q(x, z).", goal="Q")
        database = Database([fact("P", "A", "B"), fact("P", "B", "C")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        delta = {"P": [fact("P", "A", "B"), fact("P", "B", "C")]}
        matches = kernel.execute(database, frozenset(), delta)
        assert len(matches) == 1

    def test_exclude_skips_superseded_facts(self):
        rule = _rule("r: P(x) -> Q(x).", goal="Q")
        database = Database([fact("P", "A"), fact("P", "B")])
        kernel = compile_rule_kernel(plan_rule(rule, database), database)
        matches = kernel.execute(database, frozenset({fact("P", "A")}))
        assert [b[v("x")].value for b, _u in matches] == ["B"]
