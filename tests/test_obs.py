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
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    render_prometheus,
    stats_document,
)


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
    def test_stats_document_has_stable_top_level_keys(self):
        recorder = FlightRecorder()
        with recorder.record("session") as record:
            with record.phase("root"):
                pass
        registry = MetricsRegistry()
        registry.incr("chase.runs")
        document = stats_document(registry, flight=recorder)
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
    def test_observed_swaps_and_restores(self):
        recorder = FlightRecorder()
        registry = MetricsRegistry()
        before = obs.get_flight()
        with obs.observed(metrics=registry, flight=recorder):
            assert obs.get_flight() is recorder
            obs.incr("inside")
            with recorder.record("work") as record:
                with obs.phase("visible"):
                    pass
        assert obs.get_flight() is before
        assert registry.counter_value("inside") == 1
        assert list(record.phases) == ["visible"]


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
                    metrics=MetricsRegistry(), flight=FlightRecorder()
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
        """Every timed region is a phase of the record it ran under."""
        recorder = FlightRecorder()
        metrics = MetricsRegistry()
        scenario = figures.figure15_instance()
        with obs.observed(metrics=metrics, flight=recorder):
            service = ExplanationService(
                llm=SimulatedLLM(seed=0, faithful=True), metrics=metrics
            )
            session = service.session(scenario.application, scenario.database)
            session.explain(scenario.target)
            service.shutdown()
        records = {record.kind: record for record in recorder.records()}
        assert {
            "compile.program", "compile.analysis", "compile.depgraph",
            "compile.paths", "compile.verbalize", "compile.enhance",
            "chase.run", "chase.stratum", "chase.constraints",
            "compile", "chase",
        } <= set(records["session"].phases)
        assert {"explain", "explain.index_build"} <= set(
            records["explain"].phases
        )
        assert metrics.counter_value("chase.runs") == 1
        assert metrics.counter_value("llm.enhance_attempts") > 0
