"""One reasoning state per pool: the shared session and its updates.

* Booting a pool loads, chases and indexes once; one update runs one
  session update; a chase step one thread
  rendered is a memo hit for the next.  Call counts, not clocks.
* Readers racing an updater only ever see the bytes a fresh session
  serves over the pre-update or the post-update database, and never a
  500.
* ``ReasoningResult.updated`` rebinds a copy of the provenance index
  while readers keep filling the original's memos.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
from collections import Counter

import pytest

from repro.apps import company_control, generators
from repro.core import ExplanationService, templates
from repro.core.service import ExplanationSession
from repro.datalog.errors import UserError
from repro.engine import provenance_index, reason
from repro.engine.chase import ChaseEngine
from repro.engine.database import Database
from repro.engine.reasoning import ReasoningResult
from repro.io import dumps_database
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import refusal
from repro.serve import (
    PARSERS,
    ExplanationServer,
    ServeConfig,
    WorkerPool,
    encode_body,
    serve_session_request,
    workers,
)

from .test_explain_memos import _count_calls

APP = company_control.build()
PATHS = {
    "explain": "/explain", "explain_batch": "/explain/batch",
    "whynot": "/whynot", "update": "/update",
}


@pytest.fixture(scope="module")
def graph():
    """A generated ownership network and the first edge whose retraction
    un-derives a Control fact.  The edge goes last, so that adding it
    back restores the database exactly: the pool then alternates
    between two states."""
    facts = list(generators.random_ownership_database(20, 50, seed=2).facts())
    service = ExplanationService()
    derived = set(service.session(APP, facts).answers())
    edge = next(
        fact for fact in facts
        if fact.predicate == "Own" and derived - set(
            service.session(APP, [f for f in facts if f != fact]).answers()
        )
    )
    return [fact for fact in facts if fact != edge] + [edge], edge


@pytest.fixture(scope="module")
def snapshot(graph):
    return dumps_database(Database(graph[0]))


@pytest.fixture(scope="module")
def states(graph):
    """Fresh sessions over the database with the edge, and without."""
    facts, edge = graph
    service = ExplanationService()
    return (
        service.session(APP, facts),
        service.session(APP, [fact for fact in facts if fact != edge]),
    )


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _update(edge, retract: bool) -> tuple[str, bytes]:
    return "update", _body({"retracts" if retract else "adds": [str(edge)]})


def _reads(states, rng: random.Random, count: int) -> list[tuple[str, bytes]]:
    """Seeded explains and batches over the facts either state derives,
    a third of them facts the update flips, and why-nots of pairs
    neither state derives."""
    with_edge, without = ({str(fact) for fact in state.answers()} for state in states)
    derived = sorted(with_edge | without)
    flipped = sorted(with_edge ^ without)
    companies = sorted({text[len("Control("):].split(",")[0] for text in derived})

    def query() -> str:
        return rng.choice(flipped if rng.random() < 1 / 3 else derived)

    reads = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.5:
            reads.append(("explain", _body({
                "query": query(), "prefer_enhanced": rng.random() < 0.5,
            })))
        elif kind < 0.8:
            reads.append(("explain_batch", _body({
                "queries": [query() for _ in range(4)],
            })))
        else:
            absent = derived[0]
            while absent in derived:
                absent = "Control({}, {})".format(*rng.sample(companies, 2))
            reads.append(("whynot", _body({"query": absent})))
    return reads


def _expected(session: ExplanationSession, route: str, body: bytes):
    try:
        status, payload = serve_session_request(
            session, PARSERS[route](body),
            default_deadline_s=10.0, metrics=MetricsRegistry(),
        )
    except UserError as error:  # answered as WorkerPool.serve answers it
        status, payload = refusal(error)
    # A repeated explain answers with the body its explanation kept.
    return status, payload if isinstance(payload, bytes) else encode_body(payload)


# ----------------------------------------------------------------------
# Work done once per pool
# ----------------------------------------------------------------------

class TestOneStatePerPool:
    def test_boot_loads_chases_and_indexes_once(self, monkeypatch, snapshot):
        runs = _count_calls(monkeypatch, ChaseEngine, "run")
        loads = _count_calls(monkeypatch, workers, "loads_database")
        builds = _count_calls(
            monkeypatch, provenance_index.ProvenanceIndex, "__init__"
        )
        pool = WorkerPool(APP, snapshot)
        assert (runs["calls"], loads["calls"], builds["calls"]) == (1, 1, 1)
        # One session is the thread backend's one worker.
        assert len(pool) == 1
        stats = pool.snapshot_stats()
        assert stats["workers"] == 1
        assert len(stats["warm_start_s"]) == len(stats["boot_rows"]) == 1

    def test_one_update_updates_one_session(
        self, monkeypatch, snapshot, graph
    ):
        pool = WorkerPool(APP, snapshot)
        sessions = _count_calls(monkeypatch, ExplanationSession, "update")
        chases = _count_calls(monkeypatch, ChaseEngine, "update")
        route, body = _update(graph[1], retract=True)
        status, payload = pool.serve(route, body)
        assert status == 200 and payload["mode"] == "incremental"
        assert (sessions["calls"], chases["calls"]) == (1, 1)

    def test_update_publishes_a_successor_and_leaves_the_old_state(
        self, snapshot, graph, states
    ):
        pool = WorkerPool(APP, snapshot)
        before = pool.session
        index, explainer = before.result.index, before.explainer
        records = before.result.chase_result.records
        pool.update(retracts=[graph[1]])
        assert pool.session is not before
        assert pool.session.result.index is not index
        # A request that took the old reference finishes on a whole state.
        assert before.explainer is explainer
        assert before.result.index is index
        assert before.result.chase_result.records is records
        assert index.result.records is records
        for route, body in _reads(states, random.Random(1), 30):
            assert _expected(before, route, body) == _expected(
                states[0], route, body
            )
            assert _expected(pool.session, route, body) == _expected(
                states[1], route, body
            )

    def test_rejected_delta_publishes_nothing(self, snapshot):
        pool = WorkerPool(APP, snapshot)
        before = pool.session
        derived = next(
            fact for fact in before.answers() if fact.terms[0] != fact.terms[1]
        )
        status, payload = pool.serve(
            "update", _body({"retracts": [str(derived)]})
        )
        assert status == 400 and "derived" in payload["error"]
        assert pool.session is before

    def test_a_step_one_thread_rendered_is_not_rendered_again(
        self, monkeypatch
    ):
        scenario = generators.control_chain(12)
        pool = WorkerPool.from_database(APP, scenario.database)
        body = _body({
            "queries": [str(fact) for fact in pool.session.answers()],
        })
        rendered = _count_calls(
            monkeypatch, templates.ExplanationTemplate, "instantiate"
        )

        def serve_on_a_thread() -> None:
            thread = threading.Thread(
                target=pool.serve, args=("explain_batch", body)
            )
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

        serve_on_a_thread()
        first = rendered["calls"]
        assert first > 0
        # Drop the finished explanations, keep the binding's memos: the
        # second thread maps and renders nothing the first did not.
        pool.service.explanation_cache.clear()
        serve_on_a_thread()
        assert rendered["calls"] == first


# ----------------------------------------------------------------------
# Readers racing an updater
# ----------------------------------------------------------------------

READERS = 3
UPDATES = 8
READS_BETWEEN_UPDATES = 6


def test_racing_readers_see_the_bytes_of_one_whole_state(
    graph, snapshot, states
):
    reads = _reads(states, random.Random(26), 60)
    expected = {
        read: {_expected(state, *read) for state in states} for read in reads
    }
    # The readers are served on the event loop, the updates on a thread
    # beside it.
    server = ExplanationServer(
        APP, snapshot=snapshot,
        config=ServeConfig(slo_period_s=60.0, slo_interval_requests=10_000),
    )
    served: list[tuple[tuple[str, bytes], int, bytes]] = []
    errors: list[BaseException] = []
    progress = threading.Condition()
    writing = threading.Event()
    writing.set()

    def post(connection, route: str, body: bytes) -> tuple[int, bytes]:
        connection.request(
            "POST", PATHS[route], body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()

    def reader(slot: int) -> None:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            cursor = slot
            while writing.is_set() or cursor < len(reads) * 2:
                read = reads[cursor % len(reads)]
                cursor += READERS
                status, data = post(connection, *read)
                with progress:
                    served.append((read, status, data))
                    progress.notify_all()
        except BaseException as error:  # surfaced below
            errors.append(error)
        finally:
            connection.close()

    interval = sys.getswitchinterval()
    with server.run_in_thread():
        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READERS)
        ]
        sys.setswitchinterval(1e-5)
        for thread in threads:
            thread.start()
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for turn in range(UPDATES):
                with progress:
                    mark = len(served)
                    progress.wait_for(
                        lambda: len(served) >= mark + READS_BETWEEN_UPDATES
                        or errors,
                        timeout=30,
                    )
                status, _data = post(
                    connection, *_update(graph[1], retract=turn % 2 == 0)
                )
                assert status == 200
        finally:
            writing.clear()
            connection.close()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for counter in ("serve.errors", "serve.shed_queue",
                        "serve.shed_breaker"):
            assert server.metrics.counter_value(counter) == 0, counter
    assert not errors, errors
    assert len(served) >= UPDATES * READS_BETWEEN_UPDATES
    only = Counter()
    for read, status, data in served:
        assert status in (200, 404), (read, status, data[:200])
        assert (status, data) in expected[read], read
        pre, post_state = (
            (status, data) == _expected(state, *read) for state in states
        )
        only[(pre, post_state)] += 1
    # Both states were read while the updater ran.
    assert only[(True, False)] and only[(False, True)]


# ----------------------------------------------------------------------
# The index rebind beside its readers
# ----------------------------------------------------------------------

def test_rebinding_a_copy_beside_readers_of_the_original(graph):
    # Unlocked, the rebind's walk over the memo dicts raced the readers'
    # inserts ("dictionary changed size during iteration") in most runs.
    facts, edge = graph
    before = reason(APP.program, facts).chase_result
    after = ChaseEngine().update(APP.program, before, retracts=[edge]).result
    derived = list(before.derivation)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(40):
            result = ReasoningResult(APP.program, before)
            index = result.index
            errors: list[BaseException] = []
            start = threading.Barrier(READERS + 1)

            def read(order: list) -> None:
                start.wait(timeout=30)
                try:
                    for fact in order:
                        index.spine(fact)
                        index.proof_constants(fact)
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=read, args=(
                    random.Random(f"{round_number}/{slot}").sample(
                        derived, len(derived)
                    ),
                ))
                for slot in range(READERS)
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=30)
            successor = result.updated(after)
            while any(thread.is_alive() for thread in threads):
                successor = result.updated(after)
            assert not errors, errors
    finally:
        sys.setswitchinterval(interval)
    # The last round's original still answers for the old chase, and its
    # successor for the new one, as fresh indexes do.
    assert result.index is index
    for old, new, facts_of in (
        (index, provenance_index.ProvenanceIndex(before), before),
        (successor.index, provenance_index.ProvenanceIndex(after), after),
    ):
        for fact in facts_of.derivation:
            assert old.spine(fact) == new.spine(fact)
            assert old.proof_constants(fact) == new.proof_constants(fact)
