"""Sustained concurrent load against the HTTP explanation server.

The serving claims of the last PRs are single-query microbenchmarks;
this harness measures the network-facing story under concurrency: a
closed-loop load generator (N keep-alive clients over real sockets)
drives a mixed workload — cold sweeps over distinct derived facts,
warm repeats of one hot query, deadline-bounded batches, why-not
probes — against an :class:`~repro.serve.server.ExplanationServer`
booted from a ``repro-db/1`` snapshot.

Measured (server-side, from the obs histograms): throughput,
p50/p95/p99 request latency, shed and error counts, worker warm-start
seconds.  A parity sweep then proves the HTTP path is a pure
transport: for every bundled application instance, the body served by
``POST /explain`` is **byte-identical** to the canonical serialization
of the direct in-process :class:`~repro.core.service.ExplanationService`
result (one batch and one why-not body are byte-checked too).

Emits ``BENCH_load.json`` + ``BENCH_load_stats.json`` (repro-stats/1)
+ ``BENCH_load_flight.json`` (repro-flight/1) and appends a history
line; CI gates throughput/p99/shed-rate via the ``load`` suite in
``benchmarks/gates.json`` (``repro-explain obs diff --check``).

Runs standalone (``python benchmarks/bench_service_load.py [--quick]``)
or under pytest with the other benchmarks.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time

from repro import obs
from repro.apps import figures, generators
from repro.core import ExplanationService
from repro.core.service import Deadline
from repro.io import dumps_database, loads_database, parse_fact
from repro.serve import (
    ExplanationServer,
    ServeConfig,
    batch_payload,
    encode_body,
    explanation_payload,
    whynot_payload,
)

from _harness import RESULTS_DIR, Phases, append_history, emit_stats

#: The load scenario: a recursive control chain with enough distinct
#: derived facts for a meaningful cold sweep.
LOAD_SCENARIO = lambda: generators.control_with_steps(9, seed=3)  # noqa: E731

#: Every bundled application instance, for the HTTP byte-parity sweep.
PARITY_SCENARIOS = (
    lambda: figures.figure8_instance(),
    lambda: figures.figure12_stress_instance(),
    lambda: figures.figure12_control_instance(),
    lambda: figures.figure15_instance(),
    lambda: generators.close_links_common_control(seed=0),
    lambda: generators.control_with_steps(6, seed=1),
    lambda: generators.stress_with_steps(6, seed=1),
)

def _absent_fact(scenario) -> str:
    """A fact of the scenario's goal predicate that nothing derives:
    the target's shape with constants no bundled instance mentions."""
    arity = scenario.target.arity
    arguments = ", ".join(f"Absentia{n}" for n in range(arity))
    return f"{scenario.target.predicate}({arguments})"


class _Client(threading.Thread):
    """One closed-loop client: issue, account, repeat until the bell."""

    def __init__(self, host, port, queries, hot_query, absent, stop_at):
        super().__init__(daemon=True)
        self.host = host
        self.port = port
        self.queries = queries
        self.hot_query = hot_query
        self.absent = absent
        self.stop_at = stop_at
        self.counts = {
            "explain_cold": 0, "explain_warm": 0, "batch": 0, "whynot": 0,
        }
        self.statuses: dict[int, int] = {}
        self.shed = 0
        self.errors = 0
        self.failures: list[str] = []

    def _post(self, connection, path, payload):
        body = json.dumps(payload).encode("utf-8")
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        data = response.read()
        return response.status, data

    def run(self) -> None:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        sequence = 0
        try:
            while time.perf_counter() < self.stop_at:
                slot = sequence % 8
                sequence += 1
                if slot in (0, 2):  # 25% cold sweep over distinct facts
                    kind = "explain_cold"
                    query = self.queries[sequence % len(self.queries)]
                    status, _data = self._post(
                        connection, "/explain", {"query": str(query)}
                    )
                elif slot == 7:  # 12.5% why-not probes
                    kind = "whynot"
                    status, _data = self._post(
                        connection, "/whynot", {"query": self.absent}
                    )
                elif slot == 5:  # 12.5% deadline-bounded batches
                    kind = "batch"
                    chosen = [
                        str(self.queries[(sequence + n) % len(self.queries)])
                        for n in range(3)
                    ]
                    status, _data = self._post(
                        connection, "/explain/batch",
                        {"queries": chosen, "deadline_s": 10.0},
                    )
                else:  # 50% warm repeats of the hot query
                    kind = "explain_warm"
                    status, _data = self._post(
                        connection, "/explain", {"query": str(self.hot_query)}
                    )
                self.counts[kind] += 1
                self.statuses[status] = self.statuses.get(status, 0) + 1
                if status == 503:
                    self.shed += 1
                elif status != 200:
                    self.errors += 1
                    if len(self.failures) < 5:
                        self.failures.append(
                            f"{kind} -> {status}: {_data[:120]!r}"
                        )
        except Exception as error:  # connection-level failure
            self.errors += 1
            self.failures.append(f"transport: {type(error).__name__}: {error}")
        finally:
            connection.close()


def _run_load(duration_s, concurrency, phases):
    scenario = LOAD_SCENARIO()
    snapshot = dumps_database(scenario.database)

    # The query population: every derived goal fact of the scenario.
    probe = ExplanationService(llm=None)
    session = probe.session(
        scenario.application, loads_database(snapshot), strategy="planned"
    )
    queries = [
        query for query in session.answers()
        if session.result.chase_result.is_derived(query)
    ]
    probe.shutdown()
    assert queries, "load scenario derived nothing"

    server = ExplanationServer(
        scenario.application, snapshot=snapshot,
        config=ServeConfig(
            queue_limit=max(64, concurrency * 4), default_deadline_s=30.0,
        ),
        llm=None,
    )
    with phases.phase("spin_up"):
        handle = server.run_in_thread()
    try:
        with phases.phase("load"):
            started = time.perf_counter()
            stop_at = started + duration_s
            clients = [
                _Client(
                    server.host, server.port, queries,
                    hot_query=scenario.target,
                    absent=_absent_fact(scenario), stop_at=stop_at,
                )
                for _ in range(concurrency)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=duration_s + 60)
            elapsed = time.perf_counter() - started
        request_summary = server.metrics.histogram("serve.request").summary()
        snapshot_metrics = server.metrics
        shed = (
            snapshot_metrics.counter_value("serve.shed_queue")
            + snapshot_metrics.counter_value("serve.shed_breaker")
        )
        server_errors = snapshot_metrics.counter_value("serve.errors")
        warm_start = (
            server.pool.snapshot_stats() if server.pool is not None else {}
        )
        flight_document = server.flight.document(
            meta={"benchmark": "service_load", "app": scenario.application.name}
        )
    finally:
        handle.stop()

    requests = sum(sum(c.counts.values()) for c in clients)
    statuses: dict[str, int] = {}
    counts = {key: 0 for key in clients[0].counts}
    failures: list[str] = []
    for client in clients:
        for status, count in client.statuses.items():
            statuses[str(status)] = statuses.get(str(status), 0) + count
        for kind, count in client.counts.items():
            counts[kind] += count
        failures.extend(client.failures)
    client_errors = sum(client.errors for client in clients)
    load = {
        "duration_s": round(elapsed, 3),
        "concurrency": concurrency,
        "workers": warm_start.get("workers"),
        "distinct_queries": len(queries),
        "requests": requests,
        "mix": counts,
        "statuses": statuses,
        "throughput_rps": round(requests / elapsed, 3) if elapsed else 0.0,
        "latency": {
            "count": request_summary["count"],
            "mean_s": request_summary["mean"],
            "max_s": request_summary["max"],
            "p50_s": request_summary["p50"],
            "p95_s": request_summary["p95"],
            "p99_s": request_summary["p99"],
        },
        "shed": shed,
        "shed_rate": round(shed / requests, 5) if requests else 0.0,
        "errors": max(server_errors, client_errors),
        "failures": failures,
    }
    warm = {
        "workers": warm_start.get("workers"),
        "seconds": warm_start.get("warm_start_s"),
        "max_s": warm_start.get("warm_start_max_s"),
    }
    return load, warm, snapshot_metrics, flight_document


def _parity_sweep():
    """Served bytes must equal canonical in-process serialization.

    For each bundled instance the server and a direct session are built
    from the *same* snapshot string with the same configuration (no LLM,
    planned strategy), so any byte difference is a transport bug, not
    nondeterminism.
    """
    scenarios = 0
    queries = 0
    for build in PARITY_SCENARIOS:
        scenario = build()
        snapshot = dumps_database(scenario.database)
        direct_service = ExplanationService(llm=None)
        direct = direct_service.session(
            scenario.application, loads_database(snapshot),
            strategy="planned",
        )
        targets = [
            query for query in direct.answers()
            if query.predicate == scenario.target.predicate
            and direct.result.chase_result.is_derived(query)
        ] or [scenario.target]
        server = ExplanationServer(
            scenario.application, snapshot=snapshot,
            config=ServeConfig(),
            llm=None,
        )
        handle = server.run_in_thread()
        try:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            for query in targets:
                connection.request(
                    "POST", "/explain",
                    body=json.dumps({"query": str(query)}),
                )
                response = connection.getresponse()
                served = response.read()
                expected = encode_body(
                    explanation_payload(direct.explain(query))
                )
                if response.status != 200 or served != expected:
                    return {
                        "scenarios": scenarios, "queries": queries,
                        "identical": False,
                        "divergence": {
                            "scenario": scenario.description,
                            "query": str(query),
                            "status": response.status,
                        },
                    }
                queries += 1
            # One batch and one why-not body per scenario ride along.
            chosen = [str(query) for query in targets[:3]]
            connection.request(
                "POST", "/explain/batch",
                body=json.dumps({"queries": chosen, "deadline_s": 30.0}),
            )
            response = connection.getresponse()
            served = response.read()
            expected = encode_body(batch_payload(direct.explain_batch(
                [targets[n] for n in range(len(chosen))],
                deadline=Deadline(30.0),
            )))
            if response.status != 200 or served != expected:
                return {
                    "scenarios": scenarios, "queries": queries,
                    "identical": False,
                    "divergence": {
                        "scenario": scenario.description,
                        "kind": "batch", "status": response.status,
                    },
                }
            absent = _absent_fact(scenario)
            connection.request(
                "POST", "/whynot", body=json.dumps({"query": absent})
            )
            response = connection.getresponse()
            served = response.read()
            expected = encode_body(
                whynot_payload(direct.why_not(parse_fact(absent)))
            )
            if response.status != 200 or served != expected:
                return {
                    "scenarios": scenarios, "queries": queries,
                    "identical": False,
                    "divergence": {
                        "scenario": scenario.description,
                        "kind": "whynot", "status": response.status,
                    },
                }
            queries += 2
            connection.close()
        finally:
            handle.stop()
            direct_service.shutdown()
        scenarios += 1
    return {"scenarios": scenarios, "queries": queries, "identical": True}


def run(quick=False):
    duration_s = 2.0 if quick else 8.0
    concurrency = 4 if quick else 8
    payload = {"quick": quick}
    phases = Phases()
    load, warm, metrics, flight_document = _run_load(
        duration_s, concurrency, phases
    )
    payload["load"] = load
    payload["warm_start"] = warm
    with phases.phase("parity"):
        payload["parity"] = _parity_sweep()

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_load.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_load ({path}) =====")
    print(json.dumps(payload, indent=2))
    flight_path = RESULTS_DIR / "BENCH_load_flight.json"
    flight_path.write_text(
        json.dumps(flight_document, indent=2) + "\n", encoding="utf-8"
    )
    print(f"flight document: {flight_path}")
    emit_stats(
        "BENCH_load", metrics,
        meta={"benchmark": "service_load", "quick": quick},
        phases=phases,
    )
    append_history("load", payload, meta={"benchmark": "service_load"})
    return payload


def check(payload):
    """Mixed traffic must complete with zero parity violations."""
    load = payload["load"]
    assert load["requests"] > 0, "load generator issued no requests"
    assert load["errors"] == 0, f"server errors under load: {load['failures']}"
    assert load["throughput_rps"] > 0
    assert load["latency"]["count"] >= load["requests"] - load["shed"]
    assert all(count > 0 for count in load["mix"].values()), (
        f"a mix class never ran: {load['mix']}"
    )
    warm = payload["warm_start"]
    # The server serves every request from one warm session.
    assert warm["workers"] == load["workers"] == 1
    assert warm["max_s"] is not None and warm["max_s"] >= 0
    parity = payload["parity"]
    assert parity["identical"], f"HTTP parity diverged: {parity}"
    assert parity["queries"] > 0
    assert parity["scenarios"] == len(PARITY_SCENARIOS)


def test_service_load(benchmark):
    from _harness import once

    payload = once(benchmark, run, quick=True)
    check(payload)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter duration / lower concurrency (CI mode)",
    )
    arguments = parser.parse_args()
    check(run(quick=arguments.quick))


if __name__ == "__main__":
    main()
