"""Multi-core scale-out: thread- vs process-backed serving.

One claim under measurement: a CPU-bound request mix (distinct why-not
probes, every one a memo miss doing real counterfactual search) is
driven against the same snapshot twice: once on the ``thread`` backend
(one session, why-nots on threads beside the event loop) and once on
the ``process`` backend at 1/2/4 workers.  On a ≥4-core machine the process backend is expected to
clear **2x** the thread backend's throughput at 4 workers; on smaller
machines the speedup key is omitted and the gate skips (``optional:
true`` in ``gates.json``).

The mix is no longer CPU-bound.  Why-not probes now go through the chase
database's position indexes (DESIGN.md §10): the constants these probes
ask about were never stored, so the indexes answer without a scan, and
even on the larger bench/ graphs a why-not costs about 0.15 ms where it
cost 10–18 ms.  Transport dominates every request here, so the
thread/process comparison measures the HTTP path, not counterfactual
search, and this file does not decide whether the process backend
stays.  ``bench/``'s ``serve-sweep`` does: with ``backend="process"`` at
the default 2 workers it served 1.67–1.83x the thread backend's
``explained_per_s`` on a 2-vCPU host, byte-checked, which clears the
1.5x bar for keeping the backend (DESIGN.md §14).  This file stays as
the zero-errors check of the process backend under load.

(The shard-parallel chase this file also used to measure was retired:
DESIGN.md §14 records the negative result.)

Emits ``BENCH_parallel.json`` + ``BENCH_parallel_stats.json``; CI gates
serve errors (and throughput on big-enough runners) via the
``parallel`` suite in ``benchmarks/gates.json``.

Runs standalone (``python benchmarks/bench_parallel.py [--quick]``) or
under pytest with the other benchmarks.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import threading
import time

from repro.apps import generators
from repro.io import dumps_database
from repro.obs.metrics import MetricsRegistry
from repro.serve import ExplanationServer, ServeConfig

from _harness import RESULTS_DIR, Phases, append_history, emit_stats

#: Worker counts swept on the process backend.
WORKER_SWEEP = (1, 2, 4)


# ----------------------------------------------------------------------
# Serving throughput: thread vs process backend
# ----------------------------------------------------------------------

class _ProbeClient(threading.Thread):
    """Closed-loop client issuing distinct (never-memoized) why-nots."""

    def __init__(self, host, port, predicate, arity, slot, stop_at):
        super().__init__(daemon=True)
        self.host = host
        self.port = port
        self.predicate = predicate
        self.arity = arity
        self.slot = slot
        self.stop_at = stop_at
        self.requests = 0
        self.errors = 0
        self.failures: list[str] = []

    def run(self):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=60
        )
        try:
            while time.perf_counter() < self.stop_at:
                arguments = ", ".join(
                    f"Probe{self.slot}x{self.requests}n{n}"
                    for n in range(self.arity)
                )
                body = json.dumps(
                    {"query": f"{self.predicate}({arguments})"}
                ).encode("utf-8")
                connection.request(
                    "POST", "/whynot", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                data = response.read()
                if response.status != 200:
                    self.errors += 1
                    if len(self.failures) < 3:
                        self.failures.append(
                            f"{response.status}: {data[:120]!r}"
                        )
                self.requests += 1
        except Exception as error:
            self.errors += 1
            self.failures.append(f"transport: {type(error).__name__}: {error}")
        finally:
            connection.close()


def _measure_backend(scenario, snapshot, backend, workers, duration_s,
                     concurrency):
    server = ExplanationServer(
        scenario.application, snapshot=snapshot,
        config=ServeConfig(
            workers=workers, backend=backend,
            queue_limit=max(64, concurrency * 4), default_deadline_s=60.0,
            slo_period_s=60.0, slo_interval_requests=10_000,
        ),
        llm=None,
    )
    handle = server.run_in_thread()
    pool_size = len(server.pool)
    try:
        started = time.perf_counter()
        stop_at = started + duration_s
        clients = [
            _ProbeClient(
                server.host, server.port,
                scenario.target.predicate, scenario.target.arity,
                slot, stop_at,
            )
            for slot in range(concurrency)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=duration_s + 120)
        elapsed = time.perf_counter() - started
    finally:
        handle.stop()
    requests = sum(client.requests for client in clients)
    errors = sum(client.errors for client in clients)
    failures = [f for client in clients for f in client.failures]
    return {
        "backend": backend,
        "workers": pool_size,
        "duration_s": round(elapsed, 3),
        "requests": requests,
        "errors": errors,
        "failures": failures,
        "throughput_rps": round(requests / elapsed, 3) if elapsed else 0.0,
    }


def _serve_sweep(duration_s, concurrency, phases):
    scenario = generators.control_with_steps(7, seed=3)
    snapshot = dumps_database(scenario.database)
    runs = []
    with phases.phase("serve_thread"):
        # One session: the thread backend has no size to sweep.
        thread_run = _measure_backend(
            scenario, snapshot, "thread", None, duration_s, concurrency,
        )
        runs.append(thread_run)
    with phases.phase("serve_process"):
        process_runs = {
            workers: _measure_backend(
                scenario, snapshot, "process", workers,
                duration_s, concurrency,
            )
            for workers in WORKER_SWEEP
        }
        runs.extend(process_runs.values())
    cores = os.cpu_count() or 1
    section = {
        "cores": cores,
        "concurrency": concurrency,
        "thread_rps": thread_run["throughput_rps"],
        "process_rps": {
            str(workers): run["throughput_rps"]
            for workers, run in process_runs.items()
        },
        "errors": sum(run["errors"] for run in runs),
        "failures": [f for run in runs for f in run["failures"]],
        "runs": runs,
    }
    # The ≥2x gate is only meaningful when 4 worker processes have 4
    # cores to land on; smaller runners omit the key and the optional
    # gate skips cleanly.
    if cores >= 4 and thread_run["throughput_rps"] > 0:
        section["speedup_process_vs_thread_4w"] = round(
            process_runs[4]["throughput_rps"]
            / thread_run["throughput_rps"],
            3,
        )
    return section


def run(quick=False):
    duration_s = 2.0 if quick else 6.0
    concurrency = 4 if quick else 8
    payload = {"quick": quick}
    phases = Phases()
    metrics = MetricsRegistry()
    payload["serve"] = _serve_sweep(duration_s, concurrency, phases)

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_parallel.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_parallel ({path}) =====")
    print(json.dumps(payload, indent=2))
    emit_stats(
        "BENCH_parallel", metrics,
        meta={"benchmark": "parallel", "quick": quick,
              "cores": os.cpu_count()},
        phases=phases,
    )
    append_history("parallel", payload, meta={"benchmark": "parallel"})
    return payload


def check(payload):
    """Zero errors is unconditional; the speedup is core-gated."""
    serve = payload["serve"]
    assert serve["errors"] == 0, f"serve errors: {serve['failures']}"
    assert serve["thread_rps"] > 0
    assert all(rps > 0 for rps in serve["process_rps"].values())
    if serve["cores"] >= 4:
        assert "speedup_process_vs_thread_4w" in serve


def test_parallel(benchmark):
    from _harness import once

    payload = once(benchmark, run, quick=True)
    check(payload)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter load duration / lower concurrency (CI mode)",
    )
    arguments = parser.parse_args()
    check(run(quick=arguments.quick))


if __name__ == "__main__":
    main()
