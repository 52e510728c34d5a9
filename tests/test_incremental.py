"""Tests for incremental chase maintenance (repro.engine.incremental).

The contract under test is *byte parity*: after any add/retract
schedule, the incrementally maintained result — facts, records,
supersessions, rounds, violations — and everything served off it
(explanations, why-not answers, the provenance index) must be identical
to a fresh session built from scratch on the post-delta database.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import (
    close_links,
    company_control,
    generators,
    golden_powers,
    integrated_ownership,
)
from repro.apps.company_control import company, control, own
from repro.core.service import ExplanationService
from repro.datalog import Fact, Variable, fact, parse_program
from repro.datalog.errors import ArityError
from repro.engine.chase import ChaseEngine
from repro.engine.database import Database
from repro.llm import SimulatedLLM
from repro.serve.protocol import encode_body, explanation_payload
from repro.engine.incremental import (
    IncrementalFallback,
    extensional_facts,
    incremental_update,
    resolve_delta,
)
def _assert_identical(incremental, fresh):
    """The parity contract (DESIGN §13): the same facts in the same
    order and, fact by fact, the same record; only record ids differ."""
    assert tuple(incremental.database.facts()) == tuple(
        fresh.database.facts()
    )
    assert [record.fact for record in incremental.records] == [
        record.fact for record in fresh.records
    ]
    assert incremental.derivation.keys() == fresh.derivation.keys()
    for fact, theirs in fresh.derivation.items():
        mine = incremental.derivation[fact]
        assert replace(mine, index=theirs.index) == theirs
        # Dataclass equality compares binding dicts order-insensitively;
        # the explanation surfaces iterate them, so pin the order too.
        assert list(mine.binding.items()) == list(theirs.binding.items())
        for ours, others in zip(mine.contributors, theirs.contributors):
            assert list(ours.binding.items()) == list(others.binding.items())
    assert incremental.superseded == fresh.superseded
    assert incremental.rounds == fresh.rounds
    assert incremental.stats.rounds_per_stratum == (
        fresh.stats.rounds_per_stratum
    )
    assert [
        (violation.constraint.label, violation.witnesses)
        for violation in incremental.violations
    ] == [
        (violation.constraint.label, violation.witnesses)
        for violation in fresh.violations
    ]


def _spine_view(spine):
    """A spine as the parity contract compares it: record ids aside."""
    return spine.target, [
        (
            replace(step.record, index=0), step.spine_parent,
            step.side_rules, step.multi_contributor,
        )
        for step in spine.steps
    ]


# ----------------------------------------------------------------------
# Delta normalization
# ----------------------------------------------------------------------

class TestResolveDelta:
    @pytest.fixture(scope="class")
    def base(self, control_app):
        database = Database([
            company("A"), company("B"), own("A", "B", 0.8),
        ])
        return ChaseEngine(strategy="planned").run(
            control_app.program, database
        )

    def test_extensional_facts_excludes_derived(self, base):
        edb = extensional_facts(base)
        assert set(edb) == {company("A"), company("B"), own("A", "B", 0.8)}
        assert control("A", "B") not in edb

    def test_retracting_derived_fact_is_an_error(self, base):
        with pytest.raises(ValueError, match="cannot retract derived fact"):
            resolve_delta(base, [], [control("A", "B")])

    def test_adding_non_ground_fact_is_an_error(self, base):
        open_atom = Fact("Control", (Variable("x"), Variable("x")))
        with pytest.raises(ValueError, match="ground"):
            resolve_delta(base, [open_atom], [])

    def test_predicate_outside_program_and_instance_is_an_error(self, base):
        for adds, retracts in (([fact("Nope", "A")], []),
                               ([], [fact("Nope", "A")])):
            with pytest.raises(ArityError, match="occurs neither"):
                resolve_delta(base, adds, retracts)

    def test_wrong_arity_is_an_error(self, base):
        with pytest.raises(ArityError, match="arity 2, expected 3"):
            resolve_delta(base, [fact("Own", "A", "B")], [])

    def test_data_the_program_never_reads_keeps_its_arity(
        self, control_app
    ):
        extra = fact("Listed", "A")
        result = ChaseEngine(strategy="planned").run(
            control_app.program, Database([company("A"), extra])
        )
        assert resolve_delta(result, [], [extra])[2] == (extra,)
        with pytest.raises(ArityError, match="arity 2, expected 1"):
            resolve_delta(result, [fact("Listed", "A", "B")], [])

    def test_redundant_delta_is_dropped(self, base):
        new_edb, added, retracted = resolve_delta(
            base, [company("A")], [company("Ghost")]
        )
        assert added == () and retracted == ()
        assert new_edb == extensional_facts(base)

    def test_retained_facts_keep_order_adds_append(self, base):
        new_edb, added, retracted = resolve_delta(
            base, [company("C")], [company("A")]
        )
        assert added == (company("C"),)
        assert retracted == (company("A"),)
        assert new_edb == (
            company("B"), own("A", "B", 0.8), company("C")
        )


# ----------------------------------------------------------------------
# Engine-level update outcomes
# ----------------------------------------------------------------------

class TestEngineUpdate:
    def test_noop_delta_returns_previous_result(self, control_app):
        engine = ChaseEngine(strategy="planned")
        base = engine.run(
            control_app.program,
            Database([company("A"), company("B"), own("A", "B", 0.8)]),
        )
        outcome = engine.update(
            control_app.program, base, adds=[company("A")]
        )
        assert outcome.mode == "noop"
        assert outcome.result is base

    def test_single_add_matches_fresh_chase(self, control_app):
        engine = ChaseEngine(strategy="planned")
        base = engine.run(
            control_app.program,
            generators.random_ownership_database(
                entities=12, edges=30, seed=3
            ),
        )
        edge = own("Invest0", "Gruppo1", 0.7)
        outcome = engine.update(control_app.program, base, adds=[edge])
        assert outcome.mode == "incremental"
        assert outcome.added == (edge,)
        assert outcome.replayed > 0
        fresh = ChaseEngine(strategy="naive").run(
            control_app.program,
            Database(extensional_facts(outcome.result)),
        )
        _assert_identical(outcome.result, fresh)

    def test_retraction_rederives_alternative_support(self, control_app):
        # B is controlled via two independent majority edges; dropping
        # one must keep Control(A, B) alive through the other (the DRed
        # rederivation step).
        engine = ChaseEngine(strategy="planned")
        base = engine.run(
            control_app.program,
            Database([
                company("A"), company("B"), company("C"),
                own("A", "B", 0.6),
                own("A", "C", 0.6), own("C", "B", 0.6),
            ]),
        )
        assert control("A", "B") in base.database
        outcome = engine.update(
            control_app.program, base, retracts=[own("A", "B", 0.6)]
        )
        assert outcome.mode == "incremental"
        assert control("A", "B") in outcome.result.database
        fresh = ChaseEngine(strategy="naive").run(
            control_app.program,
            Database(extensional_facts(outcome.result)),
        )
        _assert_identical(outcome.result, fresh)

    def test_an_added_fact_stays_extensional_when_its_support_moves(
        self, control_app
    ):
        # Control(A, C) becomes extensional while Own(A, B) moves
        # Control(A, B), its old support, to an earlier derivation: the
        # move must not withdraw the now-extensional fact again.
        program = control_app.program
        base = ChaseEngine().run(program, Database([
            own("A", "M", 0.9), own("M", "B", 0.9),
            own("B", "C", 0.9), own("C", "D", 0.9),
        ]))
        outcome = ChaseEngine().update(
            program, base, adds=[own("A", "B", 0.6), control("A", "C")]
        )
        assert outcome.mode == "incremental"
        assert not outcome.result.is_derived(control("A", "C"))
        fresh = ChaseEngine(strategy="naive").run(
            program, Database(extensional_facts(outcome.result))
        )
        _assert_identical(outcome.result, fresh)

    def test_existential_program_falls_back(self):
        # z is unbound in the body: an existential rule, outside the
        # replayable fragment.
        program = parse_program(
            "e: Person(x) -> Guardian(x, z).",
            name="existential", goal="Guardian",
        )
        engine = ChaseEngine(strategy="naive")
        base = engine.run(program, Database([fact("Person", "Ann")]))
        with pytest.raises(IncrementalFallback):
            incremental_update(program, base, [fact("Person", "Bo")], [])
        outcome = engine.update(program, base, adds=[fact("Person", "Bo")])
        assert outcome.mode == "full"
        assert outcome.result.database.facts("Guardian")

    def test_update_metrics_and_counters(self, control_app):
        metrics = obs.MetricsRegistry()
        with obs.observed(metrics=metrics):
            engine = ChaseEngine(strategy="planned")
            base = engine.run(
                control_app.program,
                generators.random_ownership_database(
                    entities=10, edges=24, seed=5
                ),
            )
            edge = own("Invest0", "Gruppo1", 0.7)
            engine.update(control_app.program, base, adds=[edge])
        assert metrics.counter_value("incremental.updates") == 1
        assert metrics.counter_value("chase.delta_adds") == 1
        assert metrics.counter_value("chase.delta_records_replayed") > 0


# ----------------------------------------------------------------------
# Randomized schedules across every bundled application
# ----------------------------------------------------------------------

def _golden_powers_workload():
    database = generators.random_ownership_database(
        entities=14, edges=40, seed=13
    )
    names = [
        fact.terms[0].value for fact in database.facts()
        if fact.predicate == "Company"
    ]
    facts = list(database.facts())
    facts += [golden_powers.foreign(name) for name in names[::3]]
    facts += [golden_powers.strategic(name) for name in names[1::3]]
    facts += [golden_powers.exempt(name) for name in names[::5]]
    facts += [golden_powers.vetoed(name) for name in names[::7]]
    return golden_powers.build(), tuple(facts)


def _battery_workloads():
    workloads = [
        (
            "company_control",
            company_control.build(),
            generators.random_ownership_database(
                entities=20, edges=60, seed=11
            ).facts(),
        ),
        (
            "integrated_ownership",
            integrated_ownership.build(),
            generators.random_ownership_database(
                entities=10, edges=26, seed=7
            ).facts(),
        ),
    ]
    scenario = generators.close_links_common_control(seed=3)
    workloads.append(
        ("close_links", scenario.application, scenario.database.facts())
    )
    cascade = generators.stress_cascade(
        hops=5, seed=5, dual_final=True, debts_per_hop=2
    )
    workloads.append(
        ("stress_test", cascade.application, cascade.database.facts())
    )
    workloads.append(("golden_powers", *_golden_powers_workload()))
    # Two strata, the upper one negating the lower: an edge flip moves
    # the lower stratum's round count and with it every upper round.
    reachability = parse_program(
        """
        r1: Edge(x, y) -> Path(x, y).
        r2: Path(x, y), Edge(y, z) -> Path(x, z).
        r3: Node(x), not Path(x, x) -> Acyclic(x).
        r4: Acyclic(x), Edge(x, y), Acyclic(y) -> Safe(x, y).
        """,
        name="reachability", goal="Safe",
    )
    nodes = [f"N{i}" for i in range(9)]
    workloads.append((
        "reachability",
        SimpleNamespace(program=reachability),
        [fact("Node", node) for node in nodes]
        + [fact("Edge", a, b) for a, b in zip(nodes, nodes[1:])]
        + [fact("Edge", "N8", "N3")],
    ))
    return workloads


@pytest.mark.parametrize(
    "name,application,edb",
    _battery_workloads(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_randomized_schedule_matches_fresh_chase(name, application, edb):
    """Every bundled app: a randomized add/retract schedule where each
    step's incremental result equals a from-scratch chase."""
    rng = random.Random(1)
    engine = ChaseEngine(strategy="planned")
    reference = ChaseEngine(strategy="naive")
    program = application.program
    current = engine.run(program, Database(edb))
    removed: list = []
    for _step in range(8):
        live = list(extensional_facts(current))
        adds, retracts = [], []
        roll = rng.random()
        if roll < 0.45 and live:
            retracts = rng.sample(live, k=min(len(live), rng.randint(1, 3)))
        elif roll < 0.8 and removed:
            adds = rng.sample(removed, k=min(len(removed), rng.randint(1, 3)))
        else:
            if live:
                retracts = rng.sample(live, k=1)
            if removed:
                adds = rng.sample(removed, k=1)
        outcome = engine.update(program, current, adds, retracts)
        current = outcome.result
        removed = [
            fact for fact in removed + retracts if fact not in set(adds)
        ]
        fresh = reference.run(
            program, Database(extensional_facts(current))
        )
        _assert_identical(current, fresh)


# ----------------------------------------------------------------------
# Work counters: an update visits its forward closure, not the result
# ----------------------------------------------------------------------

def _closure(result, facts):
    """``facts`` and everything derived from them in ``result``."""
    closure, frontier = set(facts), list(facts)
    while frontier:
        for record in result.children().get(frontier.pop(), ()):
            if record.fact not in closure:
                closure.add(record.fact)
                frontier.append(record.fact)
    return closure


class TestWorkCounters:
    """Clock-free performance contract of ``ChaseEngine.update``.

    The bounds date from the change that made updates cost their
    forward closure (DESIGN §13); before it, a one-edge flip of this
    ladder replayed every record of the result.
    """

    @pytest.fixture(scope="class")
    def ladder(self):
        scenario = generators.network_with_ladder(60, 90, hops=12, seed=5)
        program = scenario.application.program
        base = ChaseEngine().run(program, scenario.database)
        head = next(
            f for f in scenario.database.facts()
            if f.predicate == "Own" and f.terms[0] == scenario.target.terms[0]
        )
        return program, base, head, scenario.target

    def test_a_ladder_flip_visits_at_most_twice_its_closure(self, ladder):
        program, base, head, target = ladder
        engine = ChaseEngine()
        retract = engine.update(program, base, retracts=[head])
        gone = _closure(base, [head])
        assert retract.mode == "incremental"
        assert target in gone and target not in retract.result.database
        assert retract.replayed <= 2 * (len(gone) + retract.recomputed)
        add = engine.update(program, retract.result, adds=[head])
        assert add.mode == "incremental"
        assert target in add.result.database
        assert add.replayed <= 2 * (
            len(_closure(retract.result, [head])) + add.recomputed
        )
        assert add.replayed < len(base.records) // 10

    def test_an_edge_on_no_proof_visits_nothing_else(self, ladder):
        program, base, _head, _target = ladder
        edge = next(
            f for f in extensional_facts(base)
            if f.predicate == "Own" and not base.children().get(f)
            and f.terms[2].value < 0.5
        )
        engine = ChaseEngine()
        retract = engine.update(program, base, retracts=[edge])
        assert (retract.replayed, retract.recomputed) == (1, 0)
        assert retract.touched == {edge}
        add = engine.update(program, retract.result, adds=[edge])
        assert (add.replayed, add.recomputed) == (0, 0)


# ----------------------------------------------------------------------
# Round-trip law: add(Δ); retract(Δ) and retract(Δ); add(Δ) are identities
# ----------------------------------------------------------------------

def _served(session):
    """The served bytes of every derived fact, enhanced and plain."""
    return [
        encode_body(explanation_payload(
            session.explain(fact, prefer_enhanced=enhanced), audit=True,
        ))
        for fact in session.result.derived()
        for enhanced in (True, False)
    ]


def _assert_round_trips(application, facts, delta):
    """From the EDB without Δ, add(Δ); retract(Δ) returns to the start;
    from the EDB with Δ last (where a re-add puts it), so does
    retract(Δ); add(Δ).  Same fact order, same record per fact, same
    served bytes."""
    service = ExplanationService(llm=SimulatedLLM(seed=0, faithful=True))
    without = [f for f in facts if f not in delta]
    for start, first, second in (
        (without, "adds", "retracts"),
        (without + list(delta), "retracts", "adds"),
    ):
        session = service.session(application, start)
        before, served = session.result.chase_result, _served(session)
        for side in (first, second):
            assert session.update(**{side: delta}).mode == "incremental"
        _assert_identical(session.result.chase_result, before)
        assert _served(session) == served


def test_round_trips_on_a_seeded_schedule():
    scenario = generators.network_with_ladder(24, 40, hops=8, seed=3)
    facts = list(scenario.database.facts())
    rng = random.Random(3)
    owns = [f for f in facts if f.predicate == "Own"]
    head = next(f for f in owns if f.terms[0] == scenario.target.terms[0])
    for delta in ([head], rng.sample(owns, 2), [head, *rng.sample(owns, 2)]):
        _assert_round_trips(scenario.application, facts, list(dict.fromkeys(delta)))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=3),
    app=st.sampled_from([company_control, close_links]),
)
def test_round_trips_on_generated_graphs(seed, size, app):
    facts = list(generators.random_ownership_database(
        entities=10, edges=20, seed=seed,
    ).facts())
    delta = random.Random(seed).sample(facts, size)
    _assert_round_trips(app.build(), facts, delta)


# ----------------------------------------------------------------------
# Session-level parity: explanations, why-not, provenance index
# ----------------------------------------------------------------------

class TestSessionUpdate:
    @pytest.fixture()
    def service(self):
        with ExplanationService(llm=None) as service:
            yield service

    def test_explanations_match_fresh_session(self, control_app, service):
        database = generators.random_ownership_database(
            entities=16, edges=48, seed=9
        )
        session = service.session(control_app, database, strategy="planned")
        session.result.index
        rng = random.Random(2)
        removed: list = []
        for _step in range(4):
            live = list(extensional_facts(session.result.chase_result))
            retracts = rng.sample(live, k=2)
            adds = rng.sample(removed, k=1) if removed else []
            outcome = session.update(adds=adds, retracts=retracts)
            assert outcome.mode == "incremental"
            removed = [
                fact for fact in removed + retracts
                if fact not in set(adds)
            ]
            fresh = service.session(
                control_app,
                list(extensional_facts(session.result.chase_result)),
                strategy="naive",
            )
            assert session.answers() == fresh.answers()
            for query in session.answers()[:6]:
                maintained = session.explain(query)
                rebuilt = fresh.explain(query)
                assert maintained.text == rebuilt.text
                assert maintained.to_dict() == rebuilt.to_dict()

    def test_whynot_after_retraction_under_negation(self, service):
        application, edb = _golden_powers_workload()
        session = service.session(application, edb, strategy="planned")
        exempt = next(
            fact for fact in extensional_facts(session.result.chase_result)
            if fact.predicate == "Exempt"
        )
        investor = exempt.terms[0].value
        # Retracting the exemption can only create alerts (negation);
        # whichever side each probe lands on, the maintained session's
        # why-not answers must match a fresh session's byte for byte.
        outcome = session.update(retracts=[exempt])
        assert outcome.mode == "incremental"
        fresh = service.session(
            application,
            list(extensional_facts(session.result.chase_result)),
            strategy="naive",
        )
        assert session.answers() == fresh.answers()
        strategic = [
            fact.terms[0].value
            for fact in session.result.database.facts()
            if fact.predicate == "Strategic"
        ]
        probes = [
            golden_powers.alert(investor, asset) for asset in strategic[:3]
        ]
        probes.append(golden_powers.alert(investor, "Absentia"))
        for probe in probes:
            if probe in set(session.answers()):
                continue
            assert session.why_not(probe).text == fresh.why_not(probe).text

    def test_add_then_retract_through_update(self, control_app, service):
        session = service.session(
            control_app,
            [company("A"), company("B")],
            strategy="planned",
        )
        edge = own("A", "B", 0.9)
        assert session.update(adds=[edge]).mode == "incremental"
        assert control("A", "B") in session.result.database
        assert session.update(retracts=[edge]).mode == "incremental"
        assert control("A", "B") not in session.result.database
        assert service.metrics.find_histogram("update").count == 2

    def test_index_is_rebound_not_rebuilt(self, control_app, service):
        database = generators.random_ownership_database(
            entities=14, edges=36, seed=4
        )
        session = service.session(control_app, database, strategy="planned")
        index = session.result.index
        for query in session.answers()[:8]:
            index.spine(query)
        memoized = index.snapshot()["spines_memoized"]
        assert memoized > 0
        edge = own("Invest0", "Gruppo1", 0.7)
        old_records = index.result.records
        session.update(adds=[edge])
        rebound = session.result.index
        # A rebound copy: the old index still answers for the old chase,
        # with its memos whole, for readers that still hold it.
        assert rebound is not index
        assert index.result.records is old_records
        assert index.snapshot()["spines_memoized"] == memoized
        retained = rebound.snapshot()["spines_memoized"]
        assert 0 < retained <= memoized
        index = rebound
        # Retained spines must still be *correct*: identical to a fresh
        # session's extraction on the post-update database.
        fresh = service.session(
            control_app,
            list(extensional_facts(session.result.chase_result)),
            strategy="planned",
        )
        for query in session.answers():
            assert _spine_view(index.spine(query)) == _spine_view(
                fresh.result.index.spine(query)
            )

    def test_new_data_is_a_new_session_on_the_compile_cache(
        self, control_app, service
    ):
        session = service.session(
            control_app,
            [company("A"), company("B"), own("A", "B", 0.8)],
            strategy="planned",
        )
        # A delta goes through update ...
        assert session.update(adds=[own("B", "A", 0.6)]).mode == "incremental"
        assert control("B", "A") in session.result.database
        # ... and new data altogether binds a new session, which reuses
        # the compiled artifact.
        other = service.session(
            control_app, [own("A", "B", 0.8), company("B"), company("A")],
        )
        assert other.compiled is session.compiled
        assert control("B", "A") not in other.result.database
        assert service.metrics.counter_value("compile_hits") == 1
        assert service.metrics.counter_value("sessions") == 2
