"""Unit tests for the indexed fact store."""

import pytest

from repro.datalog.atoms import Atom, fact
from repro.datalog.errors import ArityError
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database


def v(name):
    return Variable(name)


class TestMutation:
    def test_add_returns_true_for_new_fact(self):
        database = Database()
        assert database.add(fact("P", "A"))

    def test_add_returns_false_for_duplicate(self):
        database = Database([fact("P", "A")])
        assert not database.add(fact("P", "A"))
        assert len(database) == 1

    def test_add_all_counts_new(self):
        database = Database([fact("P", "A")])
        added = database.add_all([fact("P", "A"), fact("P", "B"), fact("P", "C")])
        assert added == 2

    def test_non_ground_rejected(self):
        with pytest.raises(ArityError):
            Database().add(Atom("P", (v("x"),)))

    def test_arity_conflict_rejected(self):
        database = Database([fact("P", "A")])
        with pytest.raises(ArityError):
            database.add(fact("P", "A", "B"))


class TestLookup:
    def test_contains(self):
        database = Database([fact("P", "A")])
        assert fact("P", "A") in database
        assert fact("P", "B") not in database

    def test_facts_by_predicate_in_insertion_order(self):
        database = Database([fact("P", "B"), fact("Q", "X"), fact("P", "A")])
        assert database.facts("P") == (fact("P", "B"), fact("P", "A"))

    def test_all_facts(self):
        database = Database([fact("P", "A"), fact("Q", "B")])
        assert len(database.facts()) == 2

    def test_predicates(self):
        database = Database([fact("P", "A"), fact("Q", "B")])
        assert database.predicates() == frozenset({"P", "Q"})

    def test_count(self):
        database = Database([fact("P", "A"), fact("P", "B")])
        assert database.count("P") == 2
        assert database.count("Missing") == 0


class TestMatching:
    DB = Database([
        fact("Own", "A", "B", 0.6),
        fact("Own", "A", "C", 0.3),
        fact("Own", "B", "C", 0.7),
    ])

    def test_match_unbound_pattern(self):
        pattern = Atom("Own", (v("x"), v("y"), v("s")))
        assert len(list(self.DB.match(pattern))) == 3

    def test_match_with_constant(self):
        pattern = Atom("Own", (Constant("A"), v("y"), v("s")))
        matched = [m for m, _ in self.DB.match(pattern)]
        assert matched == [fact("Own", "A", "B", 0.6), fact("Own", "A", "C", 0.3)]

    def test_match_with_binding(self):
        pattern = Atom("Own", (v("x"), v("y"), v("s")))
        matched = list(self.DB.match(pattern, {v("y"): Constant("C")}))
        assert len(matched) == 2

    def test_match_excludes(self):
        pattern = Atom("Own", (v("x"), v("y"), v("s")))
        excluded = frozenset({fact("Own", "A", "B", 0.6)})
        matched = [m for m, _ in self.DB.match(pattern, exclude=excluded)]
        assert fact("Own", "A", "B", 0.6) not in matched

    def test_candidates_use_most_selective_index(self):
        pattern = Atom("Own", (Constant("B"), v("y"), v("s")))
        candidates = self.DB.candidates(pattern, {})
        assert tuple(candidates) == (fact("Own", "B", "C", 0.7),)

    def test_match_binding_extension(self):
        pattern = Atom("Own", (v("x"), v("y"), v("s")))
        __, binding = next(self.DB.match(pattern))
        assert binding[v("x")] == Constant("A")


class TestSequencesAndCompositeIndexes:
    def test_sequence_reflects_insertion_order(self):
        database = Database([fact("P", "B"), fact("Q", "X"), fact("P", "A")])
        assert database.sequence(fact("P", "B")) == 0
        assert database.sequence(fact("Q", "X")) == 1
        assert database.sequence(fact("P", "A")) == 2

    def test_index_on_groups_by_key(self):
        database = Database([
            fact("Own", "A", "B", 0.6),
            fact("Own", "A", "C", 0.3),
            fact("Own", "B", "C", 0.7),
        ])
        # Buckets are keyed by interned id (bare for one position) and
        # hold row numbers into rows("Own").
        buckets = database.index_on("Own", (0,))
        rows = database.rows("Own")
        key_a = database.symbols.lookup(Constant("A"))
        key_b = database.symbols.lookup(Constant("B"))
        assert [rows[r].terms[1].value for r in buckets[key_a]] == ["B", "C"]
        assert len(buckets[key_b]) == 1

    def test_index_on_composite_key_is_id_tuple(self):
        database = Database([
            fact("Own", "A", "B", 0.6),
            fact("Own", "A", "C", 0.3),
        ])
        buckets = database.index_on("Own", (0, 1))
        lookup = database.symbols.lookup
        key = (lookup(Constant("A")), lookup(Constant("C")))
        assert [database.rows("Own")[r] for r in buckets[key]] == [
            fact("Own", "A", "C", 0.3)
        ]

    def test_index_on_maintained_incrementally_by_add(self):
        database = Database([fact("Own", "A", "B", 0.6)])
        buckets = database.index_on("Own", (0,))
        database.add(fact("Own", "A", "C", 0.9))
        assert len(buckets[database.symbols.lookup(Constant("A"))]) == 2

    def test_facts_cache_invalidated_on_add(self):
        database = Database([fact("P", "A")])
        before = database.facts("P")
        database.add(fact("P", "B"))
        assert before == (fact("P", "A"),)
        assert database.facts("P") == (fact("P", "A"), fact("P", "B"))
        assert len(database.facts()) == 2

    def test_copy_does_not_share_composite_indexes(self):
        original = Database([fact("Own", "A", "B", 0.6)])
        original.index_on("Own", (0,))
        assert original.composite_index_count() == 1
        clone = original.copy()
        assert clone.composite_index_count() == 0
        clone.add(fact("Own", "A", "C", 0.9))
        key = clone.symbols.lookup(Constant("A"))
        assert len(clone.index_on("Own", (0,))[key]) == 2
        assert len(original.index_on("Own", (0,))[key]) == 1


class TestColumnarStore:
    def test_columns_are_row_aligned_interned_ids(self):
        database = Database([
            fact("Own", "A", "B", 0.6),
            fact("Own", "A", "C", 0.3),
        ])
        columns = database.columns("Own")
        assert len(columns) == 3
        term = database.symbols.term
        rows = database.rows("Own")
        for position, column in enumerate(columns):
            assert [term(i) for i in column] == [
                row.terms[position] for row in rows
            ]

    def test_columns_of_missing_predicate_empty(self):
        assert Database().columns("Nope") == ()
        assert len(Database().rows("Nope")) == 0

    def test_columns_view_is_live(self):
        database = Database([fact("P", "A")])
        column = database.columns("P")[0]
        database.add(fact("P", "B"))
        assert len(column) == 2

    def test_location_and_fact_at_invert_sequence(self):
        database = Database([fact("P", "B"), fact("Q", "X"), fact("P", "A")])
        for current in database.facts():
            seq = database.sequence(current)
            assert database.fact_at(seq) == current
            predicate, row = database.location(current)
            assert database.rows(predicate)[row] == current
        assert database.row_sequences("P") == [0, 2]

    def test_copy_shares_symbol_table(self):
        original = Database([fact("P", "A")])
        clone = original.copy()
        assert clone.symbols is original.symbols
        clone.add(fact("P", "B"))
        # New interning is visible to both (append-only table) but the
        # fact itself is not.
        assert Constant("B") in original.symbols
        assert fact("P", "B") not in original

    def test_value_equal_constants_share_an_id(self):
        database = Database([fact("P", 1), fact("Q", 1.0), fact("R", True)])
        lookup = database.symbols.lookup
        assert lookup(Constant(1)) == lookup(Constant(1.0)) == lookup(Constant(True))
        # Facts keep their original spelling regardless.
        assert str(database.facts("Q")[0]) == "Q(1)"


class TestCopy:
    def test_copy_is_independent(self):
        original = Database([fact("P", "A")])
        clone = original.copy()
        clone.add(fact("P", "B"))
        assert len(original) == 1
        assert len(clone) == 2

    def test_copy_indexes_are_independent_both_ways(self):
        """The structural fast path must not share index containers:
        additions on either side stay invisible to the other, in the
        predicate index, the constant-position index and the fact set."""
        original = Database([
            fact("Own", "A", "B", 0.6), fact("Own", "B", "C", 0.7),
        ])
        clone = original.copy()
        clone.add(fact("Own", "A", "C", 0.9))
        original.add(fact("Own", "C", "D", 0.8))

        assert fact("Own", "A", "C", 0.9) not in original
        assert fact("Own", "C", "D", 0.8) not in clone
        assert original.count("Own") == 3
        assert clone.count("Own") == 3
        # Constant-position index: lookups route through candidates().
        pattern = Atom("Own", (Constant("A"), v("y"), v("s")))
        assert fact("Own", "A", "C", 0.9) in clone.candidates(pattern, {})
        assert fact("Own", "A", "C", 0.9) not in original.candidates(pattern, {})

    def test_copy_preserves_order_and_matching(self):
        original = Database([
            fact("Own", "A", "B", 0.6), fact("Own", "B", "C", 0.7),
        ])
        clone = original.copy()
        assert clone.facts() == original.facts()
        assert clone.predicates() == original.predicates()
        matches = [m for m, _ in clone.match(Atom("Own", (v("x"), v("y"), v("s"))))]
        assert matches == list(original.facts("Own"))

    def test_copy_on_write_keeps_both_sides_whole(self):
        original = Database([fact("Own", "A", "B", 0.6)])
        original.index_on("Own", (0,))
        clone = original.copy(indexes=True)
        pattern = Atom("Own", (Constant("A"), v("y"), v("s")))
        clone.add(fact("Own", "A", "C", 0.9))
        original.add(fact("Own", "A", "D", 0.2))
        key = original.symbols.lookup(Constant("A"))
        assert [f.terms[1].value for f in clone.candidates(pattern, {})] == [
            "B", "C",
        ]
        assert [f.terms[1].value for f in original.candidates(pattern, {})] == [
            "B", "D",
        ]
        assert len(clone.index_on("Own", (0,))[key]) == 2
        assert len(original.index_on("Own", (0,))[key]) == 2
        assert clone.rows("Own")[1] != original.rows("Own")[1]

    def test_reorder_renumbers_and_drops(self):
        facts = [
            fact("P", "A"), fact("Q", "X"), fact("P", "B"), fact("P", "C"),
        ]
        database = Database(facts).copy()
        database.index_on("P", (0,))
        # Drop P(B), move P(A) last: the order a fresh database would have.
        order = [database.sequence(f) for f in (facts[1], facts[3], facts[0])]
        database.reorder(order, [facts[0], facts[2]])
        fresh = Database([facts[1], facts[3], facts[0]])
        assert database.facts() == fresh.facts()
        assert database.facts("P") == fresh.facts("P")
        assert [database.sequence(f) for f in fresh.facts()] == [0, 1, 2]
        assert database.row_sequences("P") == fresh.row_sequences("P")
        assert [
            [database.symbols.term(i) for i in column]
            for column in database.columns("P")
        ] == [[f.terms[0] for f in fresh.facts("P")]]
        assert fact("P", "B") not in database
        pattern = Atom("P", (Constant("B"),))
        assert list(database.candidates(pattern, {})) == []
        for current in database.facts():
            predicate, row = database.location(current)
            assert database.rows(predicate)[row] == current
            assert database.fact_at(database.sequence(current)) == current
        key = database.symbols.lookup(Constant("A"))
        assert [database.rows("P")[r] for r in database.index_on("P", (0,))[key]] == [
            fact("P", "A")
        ]

    def test_copy_preserves_arity_checks(self):
        clone = Database([fact("P", "A")]).copy()
        with pytest.raises(ArityError):
            clone.add(fact("P", "A", "B"))

    def test_describe_truncation(self):
        database = Database([fact("P", i) for i in range(10)])
        text = database.describe(limit=3)
        assert "more" in text
