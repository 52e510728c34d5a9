"""Tests for the service layer: compiled-program caching, the shared
bounded explanation LRU, batched serving, metrics, and warm starts."""

import pytest

from repro.apps import company_control, figures, stress_test
from repro.core import ExplanationService, LRUCache
from repro.core.service import BatchOutcome, Deadline, DeadlineExceeded
from repro.datalog import fact
from repro.io import load_compiled_program, save_compiled_program
from repro.llm import SimulatedLLM


@pytest.fixture()
def service():
    with ExplanationService() as svc:
        yield svc


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refreshes "a"
        cache.put("c", 3)                # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_hit_miss_accounting(self):
        cache = LRUCache(capacity=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("k", "v")
        assert cache.get("k") is None

    def test_get_or_create_runs_factory_once_per_key(self):
        cache = LRUCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_create("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1


class TestCompileCache:
    def test_second_session_hits_cache(self, service, control_app):
        service.session(control_app, [company_control.own("A", "B", 0.6)])
        service.session(control_app, [company_control.own("C", "D", 0.8)])
        counters = service.metrics_snapshot()["counters"]
        assert counters["compile_misses"] == 1
        assert counters["compile_hits"] == 1

    def test_different_programs_compile_separately(
        self, service, control_app, stress_simple_app
    ):
        service.session(control_app, [company_control.own("A", "B", 0.6)])
        service.session(stress_simple_app, [
            stress_test.shock("A", 6), stress_test.has_capital("A", 5),
        ])
        assert service.metrics_snapshot()["counters"]["compile_misses"] == 2

    def test_compiled_cache_is_bounded(self, control_app, stress_simple_app):
        with ExplanationService(max_compiled_programs=1) as svc:
            svc.compile(control_app.program, control_app.glossary)
            svc.compile(stress_simple_app.program, stress_simple_app.glossary)
            assert len(svc.compiled_cache) == 1
            assert svc.compiled_cache.stats.evictions == 1


class TestSessions:
    def test_explain_matches_direct_explainer(self, service, figure8):
        scenario, result = figure8
        session = service.bind(scenario.application, result)
        direct = scenario.application.explainer(result)
        assert (
            session.explain(scenario.target, prefer_enhanced=False).text
            == direct.explain(scenario.target, prefer_enhanced=False).text
        )

    def test_explain_batch_preserves_order(self, service, control_app):
        session = service.session(control_app, [
            company_control.own("A", "B", 0.6),
            company_control.own("B", "C", 0.7),
            company_control.own("C", "D", 0.9),
        ])
        queries = list(session.answers())
        assert len(queries) > 2
        explanations = session.explain_batch(queries)
        assert [e.query for e in explanations] == queries
        sequential = [session.explain(q) for q in queries]
        assert [e.text for e in explanations] == [e.text for e in sequential]

    def test_explain_batch_empty(self, service, control_app):
        session = service.session(control_app, [])
        assert session.explain_batch([]) == []

    def test_shared_cache_hit_across_repeats(self, service, control_app):
        session = service.session(
            control_app, [company_control.own("A", "B", 0.6)]
        )
        query = fact("Control", "A", "B")
        first = session.explain(query)
        again = session.explain(query)
        assert first is again  # the cached object itself
        assert service.explanation_cache.stats.hits >= 1

    def test_two_sessions_do_not_share_entries(self, service, control_app):
        """Equal facts of different instances must not collide in the
        shared LRU: each binding's entries carry its own id."""
        a = service.session(control_app, [company_control.own("A", "B", 0.6)])
        b = service.session(control_app, [
            company_control.own("A", "B", 0.6),
            company_control.own("B", "C", 0.7),
        ])
        query = fact("Control", "A", "B")
        assert a.explain(query) is not b.explain(query)

    def test_report_and_why_not(self, service, control_app):
        session = service.session(
            control_app, [company_control.own("A", "B", 0.6)]
        )
        report = session.report(prefer_enhanced=False)
        assert len(report) == 1
        answer = session.why_not(fact("Control", "B", "A"))
        assert "does not hold" in answer.text
        histograms = service.metrics_snapshot()["histograms"]
        assert histograms["report"]["count"] == 1
        assert histograms["why_not"]["count"] == 1

    def test_latency_counters_recorded(self, service, control_app):
        session = service.session(
            control_app, [company_control.own("A", "B", 0.6)]
        )
        session.explain(fact("Control", "A", "B"))
        latency = service.metrics_snapshot()["histograms"]
        assert latency["compile"]["count"] == 1
        assert latency["chase"]["count"] == 1
        assert latency["explain"]["count"] == 1
        assert latency["explain"]["total"] >= 0.0

    def test_requires_glossary_for_bare_program(self, service, control_app):
        with pytest.raises(ValueError):
            service.session(control_app.program, [])


class TestWarmStart:
    def test_warm_start_skips_enhancement(self, tmp_path, control_app):
        artifact = tmp_path / "control.compiled.json"
        with ExplanationService(llm=SimulatedLLM(seed=0, faithful=True)) as cold:
            compiled = cold.compile(control_app.program, control_app.glossary)
            save_compiled_program(compiled, artifact)

        warm_llm = SimulatedLLM(seed=0, faithful=True)
        with ExplanationService(llm=warm_llm) as warm:
            warm.warm_start(artifact, control_app.program, control_app.glossary)
            restored = warm.compile(control_app.program, control_app.glossary)
            assert warm.metrics_snapshot()["counters"]["compile_hits"] == 1
            assert warm_llm.usage.calls == 0  # no enhancement calls at all
            for original, loaded in zip(
                compiled.store.templates(), restored.store.templates()
            ):
                assert loaded.enhanced_texts == original.enhanced_texts

    def test_load_validates_program(self, tmp_path, control_app, stress_app):
        artifact = tmp_path / "control.compiled.json"
        save_compiled_program(
            control_app.compile(), artifact
        )
        from repro.core import CompilationError

        with pytest.raises(CompilationError):
            load_compiled_program(
                artifact, stress_app.program, stress_app.glossary
            )


class TestDeadline:
    def test_expiry(self):
        now = [100.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        assert not deadline.expired
        now[0] += 1.5
        assert not deadline.expired
        now[0] += 1.0
        assert deadline.expired

    def test_check_raises_when_spent(self):
        now = [100.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        deadline.check("explain")  # fine while in budget
        now[0] += 2.0
        with pytest.raises(DeadlineExceeded, match="explain"):
            deadline.check("explain")

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        existing = Deadline(1.0)
        assert Deadline.coerce(existing) is existing
        coerced = Deadline.coerce(0.5)
        assert isinstance(coerced, Deadline)
        assert coerced.budget_s == pytest.approx(0.5)


class TestBatchDeadlines:
    """Deadline-bounded explain_batch: partial results, never a hang."""

    @staticmethod
    def make_session(service, control_app):
        session = service.session(control_app, [
            company_control.own("A", "B", 0.6),
            company_control.own("B", "C", 0.7),
            company_control.own("C", "D", 0.9),
        ])
        return session, list(session.answers())

    @staticmethod
    def slow_down(session, seconds):
        """Make every explanation take at least ``seconds``."""
        import time as _time

        original = session.explainer.explain

        def slow(query, **options):
            _time.sleep(seconds)
            return original(query, **options)

        session.explainer.explain = slow

    def test_no_deadline_keeps_plain_explanation_list(
        self, service, control_app
    ):
        session, queries = self.make_session(service, control_app)
        explanations = session.explain_batch(queries)
        assert all(not isinstance(e, BatchOutcome) for e in explanations)
        assert [e.query for e in explanations] == queries

    def test_spent_deadline_misses_everything_in_order(
        self, service, control_app
    ):
        session, queries = self.make_session(service, control_app)
        outcomes = session.explain_batch(queries, deadline=0.0)
        assert len(outcomes) == len(queries)
        assert [o.query for o in outcomes] == queries
        for outcome in outcomes:
            assert isinstance(outcome, BatchOutcome)
            assert not outcome.ok
            assert outcome.status == BatchOutcome.STATUS_DEADLINE
            assert outcome.explanation is None
        counters = service.metrics_snapshot()["counters"]
        assert counters["explain_deadline_exceeded"] == len(queries)

    def test_sequential_batch_returns_partial_results(self, control_app):
        with ExplanationService() as svc:
            session, queries = self.make_session(svc, control_app)
            queries = (queries * 3)[:4]
            self.slow_down(session, 0.05)
            outcomes = session.explain_batch(queries, deadline=0.08)
            assert len(outcomes) == 4
            assert outcomes[0].ok  # started with the full budget
            assert outcomes[0].explanation is not None
            assert not outcomes[-1].ok
            assert outcomes[-1].status == BatchOutcome.STATUS_DEADLINE
            counters = svc.metrics_snapshot()["counters"]
            assert counters["explain_deadline_exceeded"] >= 1
            assert counters["explanations"] == sum(o.ok for o in outcomes)
