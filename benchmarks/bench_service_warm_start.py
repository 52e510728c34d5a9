"""Service-layer warm starts: cold vs. warm compile and explanation
latency, plus batched serving throughput.

Not a paper figure: quantifies the compile/runtime split.  A cold start
pays structural analysis, template construction and one-shot enhancement
on every explainer; a warm start binds a previously compiled program (in
memory via the service cache, or from a serialized artifact) and only
pays instantiation.  Emits ``BENCH_service.json`` with the measurements
for the company-control and stress-test applications.

Runs standalone (``python benchmarks/bench_service_warm_start.py
[--quick]``) for CI, or under pytest with the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.apps import generators
from repro.core import Explainer, ExplanationService, compile_program
from repro.io import load_compiled_program, save_compiled_program
from repro.llm import SimulatedLLM

from _harness import RESULTS_DIR, append_history, emit_stats

WORKLOADS = {
    "company_control": lambda: generators.control_with_steps(9, seed=3),
    "stress_test": lambda: generators.stress_with_steps(
        9, seed=3, debts_per_hop=2
    ),
}


def _llm():
    return SimulatedLLM(seed=0, faithful=True)


def _median_seconds(function, repeats):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _measure_workload(builder, repeats, metrics):
    scenario = builder()
    application = scenario.application
    result = scenario.run()

    # Compile: cold (full pipeline incl. enhancement) vs. service cache
    # hit vs. loading the serialized artifact (templates rebuilt, no LLM).
    cold_compile_s = _median_seconds(
        lambda: compile_program(
            application.program, application.glossary, llm=_llm()
        ),
        repeats,
    )
    service = ExplanationService(llm=_llm(), metrics=metrics)
    compiled = service.compile(application.program, application.glossary)
    warm_hit_s = _median_seconds(
        lambda: service.compile(application.program, application.glossary),
        repeats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "program.compiled.json"
        save_compiled_program(compiled, artifact)
        artifact_load_s = _median_seconds(
            lambda: load_compiled_program(
                artifact, application.program, application.glossary
            ),
            repeats,
        )

    # Explanation latency for the scenario target: a cold start compiles
    # on the fly (the historical one-object construction); a warm start
    # binds the shared compiled program.  Fresh explainers each round so
    # the per-binding cache never short-circuits the measurement.
    cold_explain_s = _median_seconds(
        lambda: Explainer(
            result, application.glossary, llm=_llm()
        ).explain(scenario.target),
        repeats,
    )
    warm_explain_s = _median_seconds(
        lambda: Explainer(result, compiled=compiled).explain(scenario.target),
        repeats,
    )

    # Batched serving over every derived conclusion (thread pool), then a
    # cached re-run through the shared LRU.
    session = service.bind(application, result)
    queries = [
        query for query in result.answers()
        if result.chase_result.is_derived(query)
    ]
    started = time.perf_counter()
    session.explain_batch(queries)
    batch_elapsed_s = time.perf_counter() - started
    started = time.perf_counter()
    session.explain_batch(queries)
    cached_rerun_s = time.perf_counter() - started
    service.shutdown()

    return {
        "description": scenario.description,
        "compile": {
            "cold_s": cold_compile_s,
            "warm_hit_s": warm_hit_s,
            "artifact_load_s": artifact_load_s,
        },
        "explain": {
            "cold_start_s": cold_explain_s,
            "warm_start_s": warm_explain_s,
            "speedup": (
                cold_explain_s / warm_explain_s if warm_explain_s else None
            ),
        },
        "batch": {
            "queries": len(queries),
            "elapsed_s": batch_elapsed_s,
            "throughput_qps": (
                len(queries) / batch_elapsed_s if batch_elapsed_s else None
            ),
            "cached_rerun_s": cached_rerun_s,
        },
    }


def run(quick=False):
    repeats = 3 if quick else 9
    payload = {"quick": quick, "repeats": repeats, "workloads": {}}
    # Observe the whole run: service latency histograms, cache telemetry
    # and ambient chase/compile counters land in one registry; the stats
    # document is written alongside the measurement payload.
    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    with obs.observed(tracer=tracer, metrics=metrics):
        for name, builder in WORKLOADS.items():
            payload["workloads"][name] = _measure_workload(
                builder, repeats, metrics
            )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_service.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_service ({path}) =====")
    print(json.dumps(payload, indent=2))
    emit_stats(
        "BENCH_service", metrics, tracer=tracer,
        meta={"benchmark": "service_warm_start", "quick": quick},
    )
    append_history(
        "service", payload, meta={"benchmark": "service_warm_start"},
    )
    return payload


def check(payload):
    """Warm starts must beat cold starts on every workload."""
    for name, data in payload["workloads"].items():
        explain = data["explain"]
        assert explain["warm_start_s"] < explain["cold_start_s"], (
            f"{name}: warm explanation not faster than cold start"
        )
        compile_times = data["compile"]
        assert compile_times["warm_hit_s"] < compile_times["cold_s"], (
            f"{name}: compile-cache hit not faster than cold compile"
        )
        assert data["batch"]["queries"] > 0


def test_service_warm_start(benchmark):
    from _harness import once

    payload = once(benchmark, run, quick=True)
    check(payload)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats per measurement (CI mode)",
    )
    arguments = parser.parse_args()
    check(run(quick=arguments.quick))


if __name__ == "__main__":
    main()
