"""Tests for the query flight recorder, the kernel profile, and their
propagation through the service."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.apps import company_control
from repro.core import ExplanationService, LRUCache
from repro.datalog import fact, parse_program
from repro.engine import Database, chase
from repro.serve.admission import CircuitBreaker


class TestFlightRecord:
    def test_record_lifecycle_and_document(self):
        recorder = obs.FlightRecorder()
        with recorder.record("explain", query="Control(a,b)") as record:
            record.set(fingerprint="abc123")
            with record.phase("chase"):
                pass
            record.count("cache.explain.hit")
            record.count("kernel_execs", 3)
            record.event("fallback", reason="timeout")
        assert len(recorder) == 1
        data = recorder.records()[0].to_dict()
        assert data["kind"] == "explain"
        assert data["fingerprint"] == "abc123"
        assert data["status"] == "ok"
        assert data["counts"]["kernel_execs"] == 3
        assert "chase" in data["phases"]
        assert data["events"][0]["kind"] == "fallback"
        document = recorder.document(meta={"run": "test"})
        assert document["format"] == obs.FLIGHT_FORMAT
        assert document["meta"] == {"run": "test"}
        assert len(document["records"]) == 1

    def test_query_ids_are_unique_and_findable(self):
        recorder = obs.FlightRecorder()
        with recorder.record("explain") as first:
            pass
        with recorder.record("explain") as second:
            pass
        assert first.query_id != second.query_id
        assert recorder.find(second.query_id) is second
        assert recorder.find("q-nope") is None

    def test_exception_marks_record_error(self):
        recorder = obs.FlightRecorder()
        with pytest.raises(RuntimeError):
            with recorder.record("explain"):
                raise RuntimeError("boom")
        record = recorder.records()[0]
        assert record.status == "error"
        assert record.attrs["error"] == "RuntimeError"

    def test_ring_buffer_drops_oldest(self):
        recorder = obs.FlightRecorder(capacity=2)
        ids = []
        for _ in range(4):
            with recorder.record("explain") as record:
                ids.append(record.query_id)
        kept = [record.query_id for record in recorder.records()]
        assert kept == ids[-2:]

    def test_event_cap_counts_drops(self):
        recorder = obs.FlightRecorder(max_events=2)
        with recorder.record("explain") as record:
            for n in range(5):
                record.event("tick", n=n)
        assert len(record.events) == 2
        assert record.events_dropped == 3
        assert record.to_dict()["events_dropped"] == 3

    def test_nested_records_parent_on_same_thread(self):
        recorder = obs.FlightRecorder()
        with recorder.record("batch") as outer:
            with recorder.record("task") as inner:
                pass
        assert inner.parent_id == outer.query_id

    def test_disabled_recorder_hands_out_null_record(self):
        recorder = obs.FlightRecorder(enabled=False)
        with recorder.record("explain") as record:
            record.count("x")
            record.event("y")
        assert record is obs.NULL_FLIGHT_RECORD
        assert len(recorder) == 0
        assert recorder.current() is None


class TestFlightTaskSafety:
    """The current-record stack is context-local: interleaved asyncio
    tasks on one loop thread must not corrupt each other's stack (the
    race a thread-local stack had under the HTTP server's event loop)."""

    def test_interleaved_tasks_keep_independent_current_records(self):
        recorder = obs.FlightRecorder()
        errors: list[str] = []

        async def flight(name: str, ticks: int):
            with recorder.record("task", query=name) as record:
                for _ in range(ticks):
                    current = recorder.current()
                    if current is not record:
                        errors.append(
                            f"{name} saw "
                            f"{current and current.query}"
                        )
                    # Yield so tasks interleave mid-flight.
                    await asyncio.sleep(0)
                    recorder.current().count("ticks")

        async def main():
            await asyncio.gather(
                *(flight(f"t{n}", ticks=5) for n in range(8))
            )

        asyncio.run(main())
        assert errors == []
        records = recorder.records()
        assert len(records) == 8
        # Every tick landed on its own task's record, and concurrent
        # top-level tasks never parented under one another.
        assert all(record.counts["ticks"] == 5 for record in records)
        assert all(record.parent_id is None for record in records)

    def test_nested_records_parent_within_one_task_only(self):
        recorder = obs.FlightRecorder()

        async def flight(name: str):
            with recorder.record("outer", query=name) as outer:
                await asyncio.sleep(0)
                with recorder.record("inner", query=name) as inner:
                    await asyncio.sleep(0)
                return outer, inner

        async def main():
            return await asyncio.gather(flight("a"), flight("b"))

        for outer, inner in asyncio.run(main()):
            assert inner.parent_id == outer.query_id
            assert inner.query == outer.query

    def test_stack_isolation_across_plain_threads_still_holds(self):
        recorder = obs.FlightRecorder()
        barrier = threading.Barrier(4)
        mismatches: list[str] = []

        def worker(name: str):
            with recorder.record("thread", query=name) as record:
                barrier.wait()  # all four records open concurrently
                current = recorder.current()
                if current is not record:
                    mismatches.append(name)

        threads = [
            threading.Thread(target=worker, args=(f"w{n}",))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
        assert len(recorder.records()) == 4

    def test_concurrent_close_and_event_append_is_locked(self):
        # A batch record's worker threads may still append events while
        # the owner closes it; neither side may lose updates or crash.
        recorder = obs.FlightRecorder(max_events=10_000)
        record = recorder.record("batch")
        record.__enter__()
        stop = threading.Event()

        def appender():
            while not stop.is_set():
                record.event("tick")
                record.count("ticks")

        threads = [threading.Thread(target=appender) for _ in range(3)]
        for thread in threads:
            thread.start()
        record.__exit__(None, None, None)
        stop.set()
        for thread in threads:
            thread.join()
        data = record.to_dict()
        assert data["status"] == "ok"
        assert data["counts"].get("ticks", 0) == len(
            [e for e in data["events"] if e["kind"] == "tick"]
        ) + record.events_dropped


class TestKernelProfiler:
    """The kernel profile is a view of ``ChaseStats.plans``."""

    def test_render_top_table(self):
        profile = obs.kernel_profile({
            "sigma1": {"kernel_execs": 2, "wall_s": 0.002, "probes": 3,
                       "scanned": 9, "matches": 4, "pruned": 1},
            "idle": {"kernel_execs": 0},
        })
        assert list(profile) == ["sigma1"]  # a kernel that never ran has no row
        assert profile["sigma1"]["rows_per_s"] == 4500
        table = obs.render_top(profile)
        assert "sigma1" in table
        assert "wall_ms" in table
        assert obs.render_top({}) == (
            obs.render_top({}).splitlines()[0] + "\n"
            + obs.render_top({}).splitlines()[1] + "\n"
            + "(no kernel executions recorded)"
        )

    def test_planned_chase_attributes_kernels(self):
        program = parse_program(
            "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
            name="tc", goal="T",
        )
        database = Database([fact("E", "a", "b"), fact("E", "b", "c")])
        plans = chase(program, database, strategy="planned").stats.plans
        assert set(plans) == {"base", "rec"}
        for entry in plans.values():
            assert entry["kernel_execs"] >= 1
            assert entry["wall_s"] > 0.0
        profile = obs.kernel_profile(plans)
        assert profile["rec"]["execs"] == plans["rec"]["kernel_execs"]
        assert profile["rec"]["wall_s"] == pytest.approx(plans["rec"]["wall_s"])

    def test_aggregate_rules_report_groups_evaluated(self):
        """``obs top``'s groups column: how many aggregate groups a rule
        evaluated, beside the kernel executions that found them."""
        from repro.apps import generators

        scenario = generators.control_chain(6, seed=1)
        result = chase(scenario.application.program, scenario.database)
        plan = result.stats.plans["sigma3"]
        profile = obs.kernel_profile(result.stats.plans)
        assert profile["sigma3"]["groups_evaluated"] == (
            plan["groups_evaluated"]
        ) > 0
        assert profile["sigma3"]["execs"] == plan["kernel_execs"]
        assert profile["sigma1"]["groups_evaluated"] == 0
        header, _, *rows = obs.render_top(profile).splitlines()
        column = header.split().index("groups")
        sigma3_row = next(row for row in rows if row.startswith("sigma3"))
        assert sigma3_row.split()[column] == str(plan["groups_evaluated"])


class TestFlightIntegration:
    def test_chase_fills_phases_and_counts(self):
        program = parse_program(
            "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
            name="tc", goal="T",
        )
        database = Database([fact("E", "a", "b"), fact("E", "b", "c")])
        recorder = obs.FlightRecorder()
        with obs.observed(flight=recorder):
            with recorder.record("session", query="tc") as record:
                chase(program, database, strategy="planned")
        assert record.counts["chase_runs"] == 1
        assert record.counts["kernel_execs"] >= 1
        assert "chase.run" in record.phases
        assert "kernel_execute" in record.phases

    def test_session_phases_fit_inside_the_record(self):
        """Each timed region adds to its own phase: no phase outlasts the
        record, and the disjoint compile and chase phases fit in it."""
        from repro.apps import figures

        scenario = figures.figure15_instance()
        recorder = obs.FlightRecorder()
        with obs.observed(flight=recorder):
            ExplanationService().session(
                scenario.application, scenario.database
            )
        (record,) = recorder.records()
        assert record.kind == "session"
        for name, seconds in record.phases.items():
            assert seconds <= record.duration_s, name
        assert (
            record.phases["compile"] + record.phases["chase"]
            <= record.duration_s
        )

    def test_cache_regions_count_into_open_record(self):
        cache = LRUCache(8)
        region = cache.region("explain")
        recorder = obs.FlightRecorder()
        with obs.observed(flight=recorder):
            with recorder.record("explain") as record:
                region.get("absent")
                region.put("k", "v")
                region.get("k")
                region.get_or_create("j", lambda: "w")
        assert record.counts["cache.explain.miss"] == 2
        assert record.counts["cache.explain.hit"] == 1

    def test_an_explain_counts_its_composition_lookup(self):
        # The explain region stores nothing: it counts the composition
        # memo that answers, into the record and the region's series.
        service = ExplanationService()
        session = service.session(
            company_control.build(), [company_control.own("A", "B", 0.6)]
        )
        recorder = obs.FlightRecorder()
        with obs.observed(flight=recorder):
            first = session.explain(fact("Control", "A", "B"))
            again = session.explain(fact("Control", "A", "B"))
        assert again is first
        counts = [record.counts for record in recorder.records()]
        assert counts == [{"cache.explain.miss": 1}, {"cache.explain.hit": 1}]
        region = service.metrics_snapshot()["caches"]["explanation_cache"][
            "regions"]["explain"]
        assert (region["misses"], region["hits"]) == (1, 1)
        assert len(service.explanation_cache) == 0

    def test_breaker_transitions_emit_flight_events(self):
        now = [0.0]
        breaker = CircuitBreaker(
            obs.MetricsRegistry(), window=4, min_calls=2, cooldown_s=1.0,
            clock=lambda: now[0],
        )
        recorder = obs.FlightRecorder()
        with obs.observed(flight=recorder):
            with recorder.record("explain") as record:
                breaker.observe_health(False)
                breaker.observe_health(False)  # opens
                now[0] = 2.0
                assert breaker.state == "half_open"
                breaker.observe_health(True)  # closes
        kinds = [event["kind"] for event in record.events]
        assert kinds == ["breaker_opened", "breaker_closed"]

    def test_service_batch_propagates_flight_and_span_context(self):
        recorder = obs.FlightRecorder()
        application = company_control.build()
        database = [
            company_control.own("A", "B", 0.6),
            company_control.own("B", "C", 0.7),
        ]
        with obs.observed(flight=recorder):
            with ExplanationService() as service:
                session = service.session(application, database)
                queries = [fact("Control", "A", "B"),
                           fact("Control", "A", "C")]
                explanations = session.explain_batch(queries)
        assert len(explanations) == 2
        kinds = [r.kind for r in recorder.records()]
        # One record for the whole batch: its queries run inline, on the
        # calling thread, and land their counters on it.
        assert kinds.count("explain_batch") == 1
        assert kinds.count("explain_task") == 0
        # The batch's timed regions are phases of the batch record: the
        # provenance index its first query builds lands there.
        batch = next(r for r in recorder.records() if r.kind == "explain_batch")
        assert {"explain_batch", "explain.index_build"} <= set(batch.phases)
        assert batch.phases["explain.index_build"] <= (
            batch.phases["explain_batch"]
        )

    def test_histogram_exemplars_link_to_flight_queries(self):
        recorder = obs.FlightRecorder()
        application = company_control.build()
        database = [company_control.own("A", "B", 0.6)]
        with obs.observed(flight=recorder):
            with ExplanationService() as service:
                session = service.session(application, database)
                session.explain(fact("Control", "A", "B"))
                histogram = service.metrics.find_histogram("explain")
        exemplars = histogram.exemplars()
        assert exemplars, "no exemplars retained on explain"
        linked = {entry["exemplar"] for entry in exemplars.values()}
        known = {record.query_id for record in recorder.records()}
        assert linked <= known
