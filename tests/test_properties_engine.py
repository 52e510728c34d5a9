"""Property-based tests on the engine: the planned engine against the
naive oracle, stratified negation against reference semantics, and the
columnar store's structural invariants under copy and snapshot
round-trips."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import fact, parse_program
from repro.engine import Database, chase
from repro.io import dumps_database, loads_database

entity_names = st.sampled_from(["A", "B", "C", "D", "E", "F"])
edges = st.lists(
    st.tuples(entity_names, entity_names).filter(lambda e: e[0] != e[1]),
    min_size=1, max_size=10, unique=True,
)

TRANSITIVE = parse_program(
    "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
    name="tc", goal="T",
)

NEGATION = parse_program(
    """
    base: E(x, y) -> T(x, y).
    rec:  T(x, y), E(y, z) -> T(x, z).
    root: Node(x), not Incoming(x) -> Source(x).
    inc:  E(y, x) -> Incoming(x).
    """,
    name="roots", goal="Source",
)


OWNERSHIP = parse_program(
    """
    self:  Company(x) -> Control(x, x).
    stake: Control(x, z), Own(z, y, s), ts = sum(s) -> Stake(x, y, ts).
    ctl:   Stake(x, y, ts), ts > 0.5 -> Control(x, y).
    """,
    name="ownership", goal="Control",
)

shares = st.sampled_from([0.2, 0.3, 0.6])

# The four shapes where delta-driven aggregation (engine/chase.py's
# GroupTable) could part from whole re-evaluation (the oracle).

# (a) Aggregate over aggregate in one stratum: sigma7 sums the Risk facts
# sigma5/sigma6 keep superseding, so standing contributions must leave
# through the reverse map.
STRESS = parse_program(
    """
    sigma4: Shock(f, s), HasCapital(f, p1), s > p1 -> Default(f).
    sigma5: Default(d), LongTermDebts(d, c, v), el = sum(v) -> Risk(c, el, "long").
    sigma6: Default(d), ShortTermDebts(d, c, v), es = sum(v) -> Risk(c, es, "short").
    sigma7: Risk(c, e, t), HasCapital(c, p2), l = sum(e), l > p2 -> Default(c).
    """,
    name="stress", goal="Default",
)

# (b) The aggregate rule's *second* body atom is derived in its own
# stratum (and partly extensional, so groups stand from round 1): new
# contributions pair old A facts with new B facts and sort before
# standing ones.
LATE_SECOND_ATOM = parse_program(
    """
    agg:  A(x, z), B(z, y, s), t = sum(s) -> C(x, y, t).
    mk:   Raw(z, y, s) -> B(z, y, s).
    grow: C(x, y, t), t > 0.5, Late(y, w, s) -> B(y, w, s).
    """,
    name="late_second_atom", goal="C",
)

# (c) A post-aggregation threshold rejects a group until joint stakes
# arrive rounds later (company control, sigma1-sigma3).
CONTROL = parse_program(
    """
    sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
    sigma2: Company(x) -> Control(x, x).
    sigma3: Control(x, z), Own(z, y, s), ts = sum(s), ts > 0.5 -> Control(x, y).
    """,
    name="control", goal="Control",
)

# (d) A plain rule derives the very head a group evaluates to, so the
# group stands deduplicated (no state, nothing to supersede) until its
# sum moves on.
SHARED_HEAD = parse_program(
    """
    self:   Company(x) -> Control(x, x).
    direct: Own(x, y, s) -> Stake(x, y, s).
    joint:  Control(x, z), Own(z, y, s), ts = sum(s) -> Stake(x, y, ts).
    ctl:    Stake(x, y, ts), ts > 0.5 -> Control(x, y).
    """,
    name="shared_head", goal="Control",
)

amounts = st.lists(st.sampled_from([2, 3, 5]), min_size=10, max_size=10)
minority_shares = st.lists(
    st.sampled_from([0.2, 0.3, 0.4]), min_size=10, max_size=10
)


def _edge_database(edge_list):
    return Database([fact("E", a, b) for a, b in edge_list])


def _node_database(edge_list):
    nodes = sorted({n for edge in edge_list for n in edge})
    return Database(
        [fact("E", a, b) for a, b in edge_list]
        + [fact("Node", n) for n in nodes]
    )


def _ownership_database(edge_list, share_list):
    nodes = sorted({n for edge in edge_list for n in edge})
    return Database(
        [fact("Company", n) for n in nodes]
        + [
            fact("Own", a, b, share)
            for (a, b), share in zip(edge_list, share_list)
        ]
    )


def _weighted(predicate, edge_list, weights):
    return [
        fact(predicate, a, b, weight)
        for (a, b), weight in zip(edge_list, weights)
    ]


def _stress_database(long_edges, short_edges, long_amounts, short_amounts,
                     capitals, shocked):
    return Database(
        [fact("Shock", name, 10) for name in shocked]
        + [
            fact("HasCapital", name, capital)
            for name, capital in zip("ABCDEF", capitals)
        ]
        + _weighted("LongTermDebts", long_edges, long_amounts)
        + _weighted("ShortTermDebts", short_edges, short_amounts)
    )


def _binding_bytes(binding):
    return [(repr(variable), repr(term)) for variable, term in binding.items()]


def _record_bytes(record):
    """Every field of a ChaseStepRecord, dict orders included."""
    return (
        record.index,
        record.round,
        record.rule.label,
        repr(record.fact),
        tuple(repr(parent) for parent in record.parents),
        _binding_bytes(record.binding),
        tuple(
            (
                tuple(repr(f) for f in contribution.facts),
                repr(contribution.value),
                _binding_bytes(contribution.binding),
            )
            for contribution in record.contributors
        ),
        repr(record.aggregate_value),
    )


def _assert_engine_matches_oracle(program, database):
    oracle = chase(program, database, strategy="naive")
    planned = chase(program, database, strategy="planned")
    assert [_record_bytes(r) for r in planned.records] == [
        _record_bytes(r) for r in oracle.records
    ]
    assert planned.database.facts() == oracle.database.facts()
    assert planned.superseded == oracle.superseded
    assert planned.rounds == oracle.rounds
    assert planned.stats.rounds_per_stratum == oracle.stats.rounds_per_stratum
    return planned


class TestEngineAgainstOracleProperty:
    """Differential test: the planned engine against the naive oracle
    (engine/reference.py), byte for byte, on generated edge lists."""

    @settings(deadline=None, max_examples=40)
    @given(edges)
    def test_transitive_closure(self, edge_list):
        _assert_engine_matches_oracle(TRANSITIVE, _edge_database(edge_list))

    @settings(deadline=None, max_examples=40)
    @given(edges)
    def test_stratified_negation(self, edge_list):
        _assert_engine_matches_oracle(NEGATION, _node_database(edge_list))

    @settings(deadline=None, max_examples=40)
    @given(edges, st.lists(shares, min_size=10, max_size=10))
    def test_monotonic_sum_ownership(self, edge_list, share_list):
        planned = _assert_engine_matches_oracle(
            OWNERSHIP, _ownership_database(edge_list, share_list)
        )
        # The program is only a useful probe if sums really do grow.
        assert all(
            planned.record_for(f).is_aggregate for f in planned.superseded
        )


    @settings(deadline=None, max_examples=200)
    @given(
        edges, edges, amounts, amounts,
        st.lists(st.sampled_from([1, 4, 6]), min_size=6, max_size=6),
        st.lists(entity_names, min_size=1, max_size=2, unique=True),
    )
    def test_aggregate_over_superseding_aggregate(
        self, long_edges, short_edges, long_amounts, short_amounts,
        capitals, shocked,
    ):
        _assert_engine_matches_oracle(
            STRESS,
            _stress_database(
                long_edges, short_edges, long_amounts, short_amounts,
                capitals, shocked,
            ),
        )

    @settings(deadline=None, max_examples=200)
    @given(
        edges, edges, edges, edges,
        minority_shares, minority_shares, minority_shares,
    )
    def test_second_body_atom_derived_in_stratum(
        self, a_edges, b_edges, raw_edges, late_edges,
        b_shares, raw_shares, late_shares,
    ):
        _assert_engine_matches_oracle(
            LATE_SECOND_ATOM,
            Database(
                [fact("A", x, z) for x, z in a_edges]
                + _weighted("B", b_edges, b_shares)
                + _weighted("Raw", raw_edges, raw_shares)
                + _weighted("Late", late_edges, late_shares)
            ),
        )

    @settings(deadline=None, max_examples=200)
    @given(edges, st.lists(shares, min_size=10, max_size=10))
    def test_threshold_met_rounds_later(self, edge_list, share_list):
        _assert_engine_matches_oracle(
            CONTROL, _ownership_database(edge_list, share_list)
        )

    @settings(deadline=None, max_examples=200)
    @given(edges, st.lists(shares, min_size=10, max_size=10))
    def test_group_head_already_derived_by_plain_rule(
        self, edge_list, share_list
    ):
        _assert_engine_matches_oracle(
            SHARED_HEAD, _ownership_database(edge_list, share_list)
        )


class TestStratifiedNegationProperty:
    @settings(deadline=None, max_examples=40)
    @given(edges)
    def test_sources_are_nodes_without_incoming_edges(self, edge_list):
        nodes = sorted({n for edge in edge_list for n in edge})
        database = Database(
            [fact("E", a, b) for a, b in edge_list]
            + [fact("Node", n) for n in nodes]
        )
        result = chase(NEGATION, database)
        derived_sources = {str(f.terms[0]) for f in result.facts("Source")}
        expected = {
            n for n in nodes if not any(b == n for _, b in edge_list)
        }
        assert derived_sources == expected


def _assert_columnar_invariants(database: Database) -> None:
    """The structural invariants every Database must uphold:
    dense monotonic sequences, row-aligned columns, and composite
    indexes that agree with a from-scratch rebuild."""
    # Insertion sequences are dense and monotonic over insertion order.
    facts = database.facts()
    assert [database.sequence(f) for f in facts] == list(range(len(facts)))
    # fact_at/location invert sequence.
    for current in facts:
        seq = database.sequence(current)
        assert database.fact_at(seq) == current
        predicate, row = database.location(current)
        assert database.rows(predicate)[row] == current
    # Columns decode back to the stored terms, row by row.
    term = database.symbols.term
    for predicate in database.predicates():
        rows = database.rows(predicate)
        columns = database.columns(predicate)
        sequences = database.row_sequences(predicate)
        assert list(sequences) == sorted(sequences)
        for position, column in enumerate(columns):
            assert [term(i) for i in column] == [
                row.terms[position] for row in rows
            ]
    # Incrementally maintained composite indexes match a from-scratch
    # rebuild over the same symbol table.
    rebuilt = Database(facts, symbols=database.symbols)
    for predicate in database.predicates():
        arity = len(database.columns(predicate))
        for positions in [(0,), tuple(range(arity))]:
            assert database.index_on(predicate, positions) == (
                rebuilt.index_on(predicate, positions)
            )


class TestColumnarStoreProperty:
    @settings(deadline=None, max_examples=30)
    @given(edges)
    def test_invariants_survive_chase_and_copy(self, edge_list):
        database = Database([fact("E", a, b) for a, b in edge_list])
        # Touch composite indexes before copying so the copy must
        # rebuild its own.
        database.index_on("E", (0,))
        result = chase(TRANSITIVE, database, strategy="planned")
        _assert_columnar_invariants(database)
        _assert_columnar_invariants(result.database)
        clone = result.database.copy()
        clone.add(fact("E", "Z0", "Z1"))
        _assert_columnar_invariants(clone)
        # The original is untouched by the clone's growth.
        assert fact("E", "Z0", "Z1") not in result.database
        _assert_columnar_invariants(result.database)

    @settings(deadline=None, max_examples=30)
    @given(edges)
    def test_interned_ids_round_trip_through_snapshots(self, edge_list):
        database = Database([fact("E", a, b) for a, b in edge_list])
        chased = chase(TRANSITIVE, database, strategy="planned").database
        restored = loads_database(dumps_database(chased))
        # Same facts in the same global sequence order...
        assert restored.facts() == chased.facts()
        assert [restored.sequence(f) for f in restored.facts()] == [
            chased.sequence(f) for f in chased.facts()
        ]
        # ...and the identical interned encoding (a warm start keeps
        # every id), including index contents.
        lookup = restored.symbols.lookup
        for term in chased.symbols:
            assert lookup(term) == chased.symbols.lookup(term)
        for predicate in chased.predicates():
            assert restored.columns(predicate) == chased.columns(predicate)
        _assert_columnar_invariants(restored)


class TestConstraintProperty:
    PROGRAM = parse_program(
        """
        base: E(x, y) -> T(x, y).
        rec:  T(x, y), E(y, z) -> T(x, z).
        c1:   T(x, x) -> false.
        """,
        name="acyclic", goal="T",
    )

    @settings(deadline=None, max_examples=40)
    @given(edges)
    def test_cycle_constraint_fires_iff_graph_cyclic(self, edge_list):
        database = Database([fact("E", a, b) for a, b in edge_list])
        result = chase(self.PROGRAM, database)
        has_self_reach = any(
            f.terms[0] == f.terms[1] for f in result.facts("T")
        )
        assert bool(result.violations) == has_self_reach
