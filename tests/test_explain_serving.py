"""Indexed provenance and memoized explanation serving.

Two contracts are pinned here:

* the :class:`~repro.engine.provenance_index.ProvenanceIndex` is a pure
  acceleration layer — every view it serves (spines, proof DAGs,
  constants, depths) is identical to the standalone
  :class:`~repro.engine.provenance.ProvenanceTracker` walks it replaces;
* the memoized serving path (top-level answers, ``why()`` sentences,
  batches) renders **byte-identical** text to an uncached run,
  while actually hitting its cache regions.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.apps import figures, generators
from repro.core import ExplanationService
from repro.core.cache import LRUCache
from repro.core.explain import Explainer
from repro.datalog.unify import match_atom
from repro.engine.provenance import ProvenanceTracker

SCENARIOS = {
    "figure8": figures.figure8_instance,
    "figure12_stress": figures.figure12_stress_instance,
    "figure12_control": figures.figure12_control_instance,
    "figure15": figures.figure15_instance,
    "close_links": lambda: generators.close_links_common_control(seed=0),
    "chain": lambda: generators.control_with_steps(7, seed=2),
    "cascade": lambda: generators.stress_with_steps(7, seed=2),
}


@pytest.fixture(params=sorted(SCENARIOS), name="scenario")
def scenario_fixture(request):
    return SCENARIOS[request.param]()


class TestIndexParity:
    """The index answers exactly what the unindexed walks answered."""

    def test_views_match_tracker_ground_truth(self, scenario):
        result = scenario.run()
        chase = result.chase_result
        tracker = ProvenanceTracker(chase)
        index = result.index
        for fact in result.derived():
            assert index.spine(fact) == tracker.spine(fact)
            assert list(index.proof_records(fact)) == tracker.proof_records(fact)
            assert index.proof_constants(fact) == tracker.proof_constants(fact)
            assert index.depth(fact) == tracker.depth(fact)
            assert index.proof_size(fact) == tracker.proof_size(fact)
            assert index.is_derived(fact)
            record = index.record(fact)
            assert record is chase.derivation[fact]
            assert index.intensional_parents(record) == \
                tracker._intensional_parents(record)

    def test_active_facts_match_superseded_filter(self, scenario):
        """Indexed probes under the superseded exclusion meet exactly the
        active facts a full scan meets, in the same order — what the
        why-not prober relies on — with and without a bound variable."""
        result = scenario.run()
        chase = result.chase_result
        database = chase.database
        active = [f for f in database.facts() if f not in chase.superseded]
        for rule in result.program.rules:
            for pattern in rule.body + rule.negated:
                scanned = [f for f in active if match_atom(pattern, f) is not None]
                probed = [f for f, _ in database.match(pattern, {}, chase.superseded)]
                assert probed == scanned
                variable = next(pattern.variables(), None)
                if not scanned or variable is None:
                    continue
                bound = {variable: match_atom(pattern, scanned[-1])[variable]}
                assert [
                    f for f, _ in database.match(pattern, bound, chase.superseded)
                ] == [f for f in scanned if match_atom(pattern, f, bound) is not None]

    def test_result_views_come_from_index(self, scenario):
        """The result and explainer read the index directly; the tracker
        stays an independent walk to check them against."""
        result = scenario.run()
        target = scenario.target
        tracker = ProvenanceTracker(result.chase_result)
        assert result.spine(target) is result.index.spine(target)
        assert result.proof_size(target) == tracker.proof_size(target)
        explainer = scenario.application.explainer(result)
        assert explainer.deterministic_explanation(target) == \
            explainer.verbalizer.proof_text(tracker.proof_records(target))
        with pytest.raises(TypeError):
            ProvenanceTracker(result.chase_result, index=result.index)

    def test_edb_facts_and_unknowns(self, scenario):
        result = scenario.run()
        index = result.index
        edb = next(iter(scenario.database.facts()))
        assert index.depth(edb) == 0
        assert not index.is_derived(edb)
        with pytest.raises(KeyError):
            index.record(edb)
        with pytest.raises(KeyError):
            index.spine(edb)

    def test_reverse_adjacency_and_buckets(self, scenario):
        result = scenario.run()
        index = result.index
        for record in result.chase_result.records:
            for parent in record.parents:
                assert record in index.children(parent)
            assert record in index.records_for_predicate(
                record.fact.predicate
            )
        snapshot = index.snapshot()
        assert snapshot["records"] == len(result.chase_result.records)
        assert snapshot["build_s"] >= 0


class TestServingParity:
    """Cached and uncached serving render byte-identical text."""

    def test_byte_identical_across_applications(self, scenario):
        result = scenario.run()
        compiled = scenario.application.compile()
        cached = Explainer(result, compiled=compiled)
        uncached = Explainer(result, compiled=compiled, cache=LRUCache(0))
        for query in result.derived():
            if query.predicate != scenario.target.predicate:
                continue
            baseline = uncached.explain(query)
            cold = cached.explain(query)
            warm = cached.explain(query)
            assert cold.text == baseline.text
            assert warm.text == baseline.text
            assert cold.to_dict() == baseline.to_dict()
            assert cold.paths_used() == baseline.paths_used()

    @staticmethod
    def _side_branch_result():
        """An independent shock on D joins the A->B->C cascade at C: its
        story is off the main spine, so explaining Default(C) recurses
        into side branches, which share the caller's visited set."""
        from repro.apps import stress_test
        from repro.datalog import fact
        from repro.engine import reason

        application = stress_test.build_simple()
        facts = [
            fact("Shock", "A", 9), fact("HasCapital", "A", 5),
            fact("Debts", "A", "B", 7), fact("HasCapital", "B", 2),
            fact("Debts", "B", "C", 4), fact("HasCapital", "C", 6),
            fact("Shock", "D", 9), fact("HasCapital", "D", 3),
            fact("Debts", "D", "C", 5),
        ]
        return application, reason(application.program, facts)

    def test_side_branch_subtrees_stay_byte_identical(self):
        from repro.datalog import fact

        application, result = self._side_branch_result()
        compiled = application.compile()
        cached = Explainer(result, compiled=compiled)
        uncached = Explainer(result, compiled=compiled, cache=LRUCache(0))
        # Warm bottom-up first: Default(D) is a side branch of Default(C),
        # so its top-level answer sits in the LRU when C recurses into it
        # and must not change C's text.
        for query in (fact("Default", "D"), fact("Default", "B"),
                      fact("Default", "C")):
            baseline = uncached.explain(query)
            assert cached.explain(query).text == baseline.text
            assert cached.explain(query).to_dict() == baseline.to_dict()
        explanation = cached.explain(fact("Default", "C"))
        assert explanation.side_explanations  # the D branch is narrated

    def test_explain_region_holds_top_level_answers_only(self):
        """Side branches render below the composition memo: each
        top-level (query, options) is one composition and one counted
        lookup, however many side branches its proof has, and the LRU
        stores none of them."""
        from repro.datalog import fact

        application, result = self._side_branch_result()
        cache = LRUCache()
        explainer = Explainer(result, compiled=application.compile(), cache=cache)
        query = fact("Default", "C")
        asked = [
            {"prefer_enhanced": enhanced, "include_side_branches": sides}
            for enhanced in (True, False) for sides in (True, False)
        ]
        for flags in asked + asked:
            explainer.explain(query, **flags)
        assert explainer.explain(query).side_explanations
        assert [key for key in cache.keys() if key[0] == "explain"] == []
        assert len(explainer._compositions) == len(asked)
        stats = explainer._explain_region.stats
        assert (stats.misses, stats.hits) == (len(asked), len(asked) + 1)

    def test_option_variants_are_keyed_apart(self):
        from repro.datalog import fact

        application, result = self._side_branch_result()
        explainer = application.explainer(result)
        query = fact("Default", "C")
        full = explainer.explain(query)
        bare = explainer.explain(query, include_side_branches=False)
        assert full.side_explanations
        assert not bare.side_explanations
        assert full.text != bare.text
        assert explainer.explain(query).text == full.text


class TestMemoizedDrilldown:
    def test_why_is_memoized_and_stable(self):
        scenario = figures.figure8_instance()
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        first = explainer.why(scenario.target)
        second = explainer.why(scenario.target)
        assert first == second
        region = explainer._why_region
        assert region.stats.misses == 1
        assert region.stats.hits == 1

    def test_why_raises_for_edb_facts(self):
        scenario = figures.figure8_instance()
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        with pytest.raises(KeyError):
            explainer.why(next(iter(scenario.database.facts())))

    def test_proof_constants_served_from_index(self):
        scenario = figures.figure12_stress_instance()
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        tracker = ProvenanceTracker(result.chase_result)
        constants = explainer.proof_constants(scenario.target)
        assert constants == tracker.proof_constants(scenario.target)
        # Memoized on the index: the same tuple object is returned.
        assert explainer.proof_constants(scenario.target) is constants

    def test_serving_counters_emitted(self):
        scenario = figures.figure8_instance()
        metrics = obs.MetricsRegistry()
        with obs.observed(metrics=metrics):
            result = scenario.run()
            explainer = scenario.application.explainer(result)
            explainer.explain(scenario.target)
            explainer.explain(scenario.target)
        assert metrics.find_histogram("explain.index_build_s").count == 1
        region = explainer._explain_region
        assert (region.stats.misses, region.stats.hits) == (1, 1)


class TestServiceServing:
    def test_batch_grouping_preserves_order_and_text(self):
        scenario = generators.stress_with_steps(8, seed=1, debts_per_hop=2)
        with ExplanationService() as service:
            session = service.session(
                scenario.application, scenario.database
            )
            queries = [
                query for query in session.answers()
                if session.result.chase_result.is_derived(query)
            ]
            assert len(queries) > 1
            batched = session.explain_batch(queries)
            solo = [session.explainer.explain(query) for query in queries]
            assert [e.text for e in batched] == [e.text for e in solo]

    def test_batch_matches_unbatched_uncached(self):
        scenario = generators.stress_with_steps(6, seed=4, debts_per_hop=2)
        result = scenario.run()
        compiled = scenario.application.compile()
        uncached = Explainer(result, compiled=compiled, cache=LRUCache(0))
        with ExplanationService() as service:
            session = service.bind(scenario.application, result)
            queries = [
                query for query in session.answers()
                if result.chase_result.is_derived(query)
            ]
            batched = session.explain_batch(queries)
        for query, explanation in zip(queries, batched):
            assert explanation.text == uncached.explain(query).text

    def test_update_invalidates_served_entries(self):
        application = figures.figure8_instance().application
        from repro.apps import stress_test

        with ExplanationService() as service:
            scenario = figures.figure8_instance()
            session = service.session(application, scenario.database)
            before = session.explain(scenario.target).text
            old_scope = session.explainer.memo_scope
            # Bigger B->C loans: the same Default(C) story now aggregates
            # different amounts — served text must change with the data.
            session.update(
                adds=[stress_test.debt("B", "C", 5)],
                retracts=[stress_test.debt("B", "C", 2)],
            )
            assert session.explainer.memo_scope != old_scope
            after = session.explain(scenario.target).text
            assert before != after
            assert "14" in after  # the new 5 + 9 aggregate
            assert service.metrics.find_histogram("update").count == 1

    def test_why_not_memoized_per_session(self):
        application = figures.figure8_instance().application
        from repro.apps import stress_test
        from repro.datalog import fact

        with ExplanationService() as service:
            session = service.session(application, [
                stress_test.shock("A", 9),
                stress_test.has_capital("A", 5),
                stress_test.has_capital("B", 9),
                stress_test.debt("A", "B", 4),
            ])
            query = fact("Default", "B")
            first = session.why_not(query)
            second = session.why_not(query)
            assert first is second  # served from the whynot region
            assert session._whynot_region.stats.hits == 1
            snapshot = service.metrics_snapshot()
            regions = snapshot["caches"]["explanation_cache"]["regions"]
            assert regions["whynot"]["hits"] == 1
