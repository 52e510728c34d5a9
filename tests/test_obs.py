"""Tests for the observability layer (repro.obs) and its integrations."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.apps import figures
from repro import core
from repro.core import ExplanationService, LRUCache
from repro.core import service as service_module
from repro.llm import SimulatedLLM
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    parse_trace_jsonl,
    render_prometheus,
    span_tree,
    stats_document,
    trace_jsonl,
)


class TestTracer:
    def test_span_nesting_records_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id

    def test_completion_order_children_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.finished()]
        assert names == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.start_s >= outer.start_s
        assert inner.duration_s <= outer.duration_s

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", stage=1) as span:
            span.set(rounds=7)
        assert span.attrs == {"stage": 1, "rounds": 7}

    def test_disabled_tracer_returns_the_same_noop_object(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", heavy="attrs")
        second = tracer.span("b")
        assert first is second is NULL_SPAN
        with first as span:
            span.set(anything=1)  # all no-ops
        assert len(tracer) == 0

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        captured = {}
        with tracer.span("batch") as batch:
            def worker():
                with tracer.span("task", parent=batch) as task:
                    captured["parent"] = task.parent_id
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert captured["parent"] == batch.span_id

    def test_exception_closes_span_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        (span,) = tracer.finished()
        assert span.attrs["error"] == "ValueError"
        assert span.end_s is not None


class TestHistogram:
    def test_percentiles_on_uniform_samples(self):
        histogram = Histogram(buckets=[float(b) for b in range(1, 101)])
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert histogram.percentile(0) == pytest.approx(1.0, abs=1.0)
        assert histogram.percentile(100) == pytest.approx(100.0)

    def test_summary_exact_fields(self):
        histogram = Histogram(buckets=[1.0, 10.0])
        for value in (0.5, 2.0, 7.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == pytest.approx(9.5)
        assert summary["mean"] == pytest.approx(9.5 / 3)
        assert summary["min"] == 0.5
        assert summary["max"] == 7.0

    def test_empty_summary_is_all_zero(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0

    def test_percentile_clamps_to_observed_range(self):
        histogram = Histogram(buckets=[100.0])  # one huge bucket
        for value in (4.0, 5.0, 6.0):
            histogram.observe(value)
        assert 4.0 <= histogram.percentile(50) <= 6.0

    def test_overflow_bucket_uses_observed_max(self):
        histogram = Histogram(buckets=[1.0])
        histogram.observe(50.0)
        assert histogram.percentile(99) <= 50.0

    def test_empty_histogram_percentiles_are_zero(self):
        histogram = Histogram()
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == 0.0
        summary = histogram.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0
        assert summary["min"] == summary["max"] == 0.0

    def test_single_sample_percentiles_collapse_to_it(self):
        histogram = Histogram()
        histogram.observe(0.042)
        assert histogram.percentile(50) == pytest.approx(0.042)
        assert histogram.percentile(99) == pytest.approx(0.042)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["p50"] == pytest.approx(0.042)
        assert summary["p99"] == pytest.approx(0.042)

    def test_values_above_top_bucket_bound(self):
        histogram = Histogram(buckets=[1.0, 2.0])
        for value in (5.0, 9.0, 120.0):
            histogram.observe(value)
        assert histogram.counts[-1] == 3  # all landed in overflow
        summary = histogram.summary()
        assert summary["max"] == 120.0
        assert 5.0 <= histogram.percentile(50) <= 120.0
        assert histogram.percentile(100) == pytest.approx(120.0)

    def test_concurrent_observe_loses_no_samples(self):
        histogram = Histogram(buckets=[0.5])

        def hammer(base):
            for i in range(1000):
                histogram.observe(base + i * 1e-6)

        threads = [
            threading.Thread(target=hammer, args=(0.1 * n,))
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8000
        assert sum(histogram.counts) == 8000

    def test_exemplar_retains_max_latency_sample_per_bucket(self):
        histogram = Histogram(buckets=[1.0, 10.0])
        histogram.observe(0.3, exemplar="q-1")
        histogram.observe(0.7, exemplar="q-2")   # same bucket, larger
        histogram.observe(0.5, exemplar="q-3")   # same bucket, smaller
        histogram.observe(5.0, exemplar="q-4")
        histogram.observe(99.0, exemplar="q-5")  # overflow bucket
        exemplars = histogram.exemplars()
        assert exemplars["1.0"] == {"value": 0.7, "exemplar": "q-2"}
        assert exemplars["10.0"] == {"value": 5.0, "exemplar": "q-4"}
        assert exemplars["+Inf"] == {"value": 99.0, "exemplar": "q-5"}

    def test_exemplars_optional_and_absent_by_default(self):
        histogram = Histogram(buckets=[1.0])
        histogram.observe(0.5)
        assert histogram.exemplars() == {}
        registry = MetricsRegistry()
        registry.observe("plain", 0.1)
        registry.observe("tagged", 0.1, exemplar="q-9")
        snapshot = registry.snapshot()
        assert "exemplars" not in snapshot["histograms"]["plain"]
        tagged = snapshot["histograms"]["tagged"]["exemplars"]
        assert list(tagged.values())[0]["exemplar"] == "q-9"


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.incr("requests")
        registry.incr("requests", 4)
        registry.set_gauge("pool_size", 8)
        registry.observe("latency", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 5
        assert snapshot["gauges"]["pool_size"] == 8
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_registered_cache_snapshot_is_live(self):
        registry = MetricsRegistry()
        cache = LRUCache(4)
        registry.register_cache("c", cache)
        cache.get("missing")
        snapshot = registry.snapshot()["caches"]["c"]
        assert snapshot["misses"] == 1
        assert snapshot["capacity"] == 4

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.incr("n")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("n") == 8000


class TestServiceMetricsCompat:
    """A service reports into the one registry; the readings the retired
    service-metrics shim gave are all on :class:`MetricsRegistry`."""

    def test_service_metrics_alias_is_gone(self):
        assert isinstance(ExplanationService().metrics, MetricsRegistry)
        for module in (core, service_module, obs):
            assert not hasattr(module, "ServiceMetrics")

    def test_legacy_snapshot_shape(self):
        """The legacy ``latency`` section's count/total/mean/max survive
        under ``histograms``, beside min and the percentiles."""
        metrics = MetricsRegistry()
        metrics.incr("explanations", 3)
        metrics.observe("explain", 0.5)
        metrics.observe("explain", 1.5)
        snapshot = metrics.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms", "caches"}
        assert snapshot["counters"] == {"explanations": 3}
        explain = snapshot["histograms"]["explain"]
        assert explain["count"] == 2
        assert explain["total"] == pytest.approx(2.0)
        assert explain["mean"] == pytest.approx(1.0)
        assert explain["max"] == pytest.approx(1.5)
        assert explain["min"] == pytest.approx(0.5)

    def test_counter_reads_back(self):
        metrics = MetricsRegistry()
        metrics.incr("x")
        assert metrics.counter_value("x") == 1
        assert metrics.counter_value("missing") == 0

    def test_registry_snapshot_has_percentiles(self):
        metrics = MetricsRegistry()
        metrics.observe("explain", 0.01)
        full = metrics.snapshot()
        assert "p95" in full["histograms"]["explain"]


class TestExporters:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer.span("root", program="demo"):
            with tracer.span("child.a"):
                pass
            with tracer.span("child.b"):
                with tracer.span("grandchild"):
                    pass
        return tracer

    def test_trace_jsonl_round_trip(self):
        tracer = self._sample_tracer()
        spans = parse_trace_jsonl(trace_jsonl(tracer))
        assert len(spans) == 4
        roots = span_tree(spans)
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "root"
        assert [child["name"] for child in root["children"]] == [
            "child.a", "child.b",
        ]
        assert root["children"][1]["children"][0]["name"] == "grandchild"

    def test_trace_header_is_validated(self):
        with pytest.raises(ValueError):
            parse_trace_jsonl('{"format": "something-else/9"}\n')

    def test_stats_document_has_stable_top_level_keys(self):
        tracer = self._sample_tracer()
        registry = MetricsRegistry()
        registry.incr("chase.runs")
        document = stats_document(registry, tracer=tracer)
        for key in obs.STATS_DOCUMENT_KEYS:
            assert key in document
        assert document["spans"]["root"]["count"] == 1
        json.dumps(document)  # must be serializable as-is

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.incr("chase.runs", 2)
        registry.observe("explain", 0.1)
        cache = LRUCache(2)
        cache.get("miss")
        registry.register_cache("explanation_cache", cache)
        text = render_prometheus(registry)
        assert "repro_chase_runs 2" in text
        assert 'repro_explain{quantile="0.5"}' in text
        assert "repro_explain_count 1" in text
        assert 'repro_cache_misses{cache="explanation_cache"} 1' in text


class TestAmbientContext:
    def test_default_ambient_tracer_is_disabled(self):
        assert obs.get_tracer().enabled is False
        assert obs.span("anything") is NULL_SPAN

    def test_observed_swaps_and_restores(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        before = obs.get_tracer()
        with obs.observed(tracer=tracer, metrics=registry):
            assert obs.get_tracer() is tracer
            obs.incr("inside")
            with obs.span("visible"):
                pass
        assert obs.get_tracer() is before
        assert registry.counter_value("inside") == 1
        assert [span.name for span in tracer.finished()] == ["visible"]


class TestLRUCacheAccounting:
    def test_get_or_create_counts_one_outcome_per_lookup(self):
        cache = LRUCache(4)
        cache.get_or_create("k", lambda: "v")   # miss + store
        cache.get_or_create("k", lambda: "w")   # hit
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["size"] == 1

    def test_snapshot_consistent_under_concurrency(self):
        cache = LRUCache(32)
        lookups_per_thread = 500
        workers = 8

        def hammer(seed: int):
            for index in range(lookups_per_thread):
                key = (seed * index) % 48  # some collisions, some misses
                cache.get_or_create(key, lambda key=key: key)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(1, workers + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = cache.snapshot()
        assert snapshot["hits"] + snapshot["misses"] == (
            lookups_per_thread * workers
        )
        assert snapshot["size"] <= 32

    def test_disabled_cache_never_stores_but_counts(self):
        cache = LRUCache(0)
        cache.get_or_create("k", lambda: "v")
        cache.get_or_create("k", lambda: "v")
        snapshot = cache.snapshot()
        assert snapshot["misses"] == 2
        assert snapshot["size"] == 0


class TestChaseStats:
    def test_firings_match_records(self):
        scenario = figures.figure15_instance()
        result = scenario.run().chase_result
        stats = result.stats
        assert sum(stats.rule_firings.values()) == len(result.records)
        assert stats.facts_derived == len(result.records)
        assert stats.rounds == result.rounds
        by_predicate: dict[str, int] = {}
        for record in result.records:
            predicate = record.fact.predicate
            by_predicate[predicate] = by_predicate.get(predicate, 0) + 1
        assert stats.facts_by_predicate == by_predicate

    def test_snapshot_is_json_serializable(self):
        scenario = figures.figure8_instance()
        stats = scenario.run().chase_result.stats.snapshot()
        json.dumps(stats)
        assert stats["rounds"] >= 1
        assert stats["strata"] >= 1
        assert stats["rule_firings"]

    def test_chase_records_delta_sizes(self):
        from repro.engine.reasoning import reason

        scenario = figures.figure15_instance()
        result = reason(
            scenario.application.program, scenario.database
        ).chase_result
        assert result.stats.delta_sizes
        assert result.stats.delta_sizes[-1] == 0  # fixpoint round


class TestInstrumentationParity:
    def test_observed_run_produces_identical_explanations(self):
        def explain_all(instrumented: bool):
            scenario = figures.figure15_instance()
            service = ExplanationService(
                llm=SimulatedLLM(seed=0, faithful=True)
            )
            if instrumented:
                with obs.observed(
                    tracer=Tracer(), metrics=MetricsRegistry()
                ):
                    session = service.session(
                        scenario.application, scenario.database
                    )
                    batch = session.explain_batch(list(session.answers()))
            else:
                session = service.session(
                    scenario.application, scenario.database
                )
                batch = session.explain_batch(list(session.answers()))
            service.shutdown()
            return [explanation.text for explanation in batch]

        assert explain_all(True) == explain_all(False)

    def test_observed_run_collects_expected_span_taxonomy(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        scenario = figures.figure15_instance()
        with obs.observed(tracer=tracer, metrics=metrics):
            service = ExplanationService(
                llm=SimulatedLLM(seed=0, faithful=True), metrics=metrics
            )
            session = service.session(scenario.application, scenario.database)
            session.explain(scenario.target)
            service.shutdown()
        names = {span.name for span in tracer.finished()}
        assert {
            "compile.program", "compile.analysis", "compile.depgraph",
            "compile.paths", "compile.verbalize", "compile.enhance",
            "chase.run", "chase.stratum", "chase.constraints",
            "service.compile", "service.chase", "service.explain",
        } <= names
        assert metrics.counter_value("chase.runs") == 1
        assert metrics.counter_value("llm.enhance_attempts") > 0
