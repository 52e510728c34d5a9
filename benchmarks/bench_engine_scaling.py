"""Engine ablation: the planned chase against its naive oracle.

Not a paper figure — an ablation of the reproduction's own substrate
(DESIGN.md §5 spirit).  On recursive workloads (transitive-closure-style
control chains and dense random ownership graphs) the ``planned`` engine
(compiled join plans + hash joins over rolling delta windows, DESIGN.md
§9) performs the same derivations as the oracle's tuple-at-a-time
nested-loop walk (``engine/reference.py``) with markedly less join work —
on the aggregation-heavy control workloads because it evaluates only the
sigma3 groups a round touched, where the oracle rebuilds every group in
every round.

Emits ``BENCH_engine.json`` with per-strategy wall-clock at each workload
size.  Runs standalone (``python benchmarks/bench_engine_scaling.py
[--quick]``) for CI — where the ``engine`` suite of ``gates.json`` holds
the planned engine ≥ 2x faster than naive on the largest
transitive-closure size, ≥ 5x on the 40-hop control chain and ≥ 2x on
the ownership network — or under pytest with the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import time

from repro import obs
from repro.apps import company_control, generators
from repro.datalog import fact, parse_program
from repro.engine import ChaseEngine, Database, chase

from _harness import RESULTS_DIR, append_history, emit, emit_stats, once

STRATEGIES = ChaseEngine.STRATEGIES

TRANSITIVE = parse_program(
    "base: E(x, y) -> T(x, y). rec: T(x, y), E(y, z) -> T(x, z).",
    name="tc", goal="T",
)

#: (nodes, edges) per transitive-closure size, ascending.
TC_SIZES = ((30, 70), (50, 120), (80, 200))
TC_SIZES_QUICK = ((30, 70), (50, 120))


def _random_edges(nodes: int, edges: int, seed: int) -> Database:
    import random

    rng = random.Random(seed)
    names = [f"N{i}" for i in range(nodes)]
    chosen: set[tuple[str, str]] = set()
    while len(chosen) < edges:
        a, b = rng.sample(names, 2)
        chosen.add((a, b))
    return Database([fact("E", a, b) for a, b in chosen])


def _timed(program, database, strategy):
    started = time.perf_counter()
    result = chase(program, database, strategy=strategy)
    return time.perf_counter() - started, result


def _compare(program, database, goal, repeats=1):
    """Time every strategy on one workload; assert identical results.

    With ``repeats`` > 1 each strategy runs that many times, the
    strategies taking turns so host drift lands on both, and the best
    wall-clock is reported (best-of-2 keeps the ratios of the short
    workloads stable against scheduler noise).
    """
    timings = {}
    results = {}
    for _ in range(repeats):
        for strategy in STRATEGIES:
            seconds, results[strategy] = _timed(program, database, strategy)
            timings[strategy] = min(seconds, timings.get(strategy, seconds))
    assert set(results["planned"].database.facts(goal)) == set(
        results["naive"].database.facts(goal)
    ), f"planned diverged from naive on {goal}"
    return timings, results["naive"]


def _with_speedups(seconds):
    """A workload payload entry: raw seconds plus the speedup ratio."""
    return {
        "seconds": seconds,
        "planned_speedup_vs_naive": (
            seconds["naive"] / seconds["planned"]
            if seconds["planned"] else None
        ),
    }


def _record_flight():
    """One planned chase under a live flight recorder and kernel
    profiler; their contents become the flight artifact."""
    database = _random_edges(nodes=50, edges=120, seed=7)
    recorder = obs.FlightRecorder(capacity=64)
    profiler = obs.KernelProfiler()
    with obs.observed(flight=recorder, profile=profiler):
        with recorder.record("bench", query="tc(50,120)"):
            chase(TRANSITIVE, database, strategy="planned")
    return recorder, profiler


def run(quick=False):
    """Measure both strategies across the workloads; emit BENCH_engine.json."""
    sizes = TC_SIZES_QUICK if quick else TC_SIZES
    payload = {"quick": quick, "transitive_closure": [], "workloads": {}}
    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    with obs.observed(tracer=tracer, metrics=metrics):
        for nodes, edges in sizes:
            database = _random_edges(nodes=nodes, edges=edges, seed=7)
            timings, reference = _compare(TRANSITIVE, database, "T")
            payload["transitive_closure"].append({
                "nodes": nodes,
                "edges": edges,
                "derivations": len(reference.records),
                **_with_speedups(timings),
            })

        application = company_control.build()
        ownership = generators.random_ownership_database(
            entities=30, edges=90, seed=11
        )
        timings, reference = _compare(
            application.program, ownership, "Control", repeats=2
        )
        payload["workloads"]["ownership_network"] = {
            "entities": 30,
            "edges": 90,
            "controls": len(reference.database.facts("Control")),
            **_with_speedups(timings),
        }

        scenario = generators.control_chain(40, seed=3)
        timings, reference = _compare(
            scenario.application.program, scenario.database, "Control",
            repeats=2,
        )
        payload["workloads"]["control_chain"] = {
            "hops": 40,
            **_with_speedups(timings),
        }

    recorder, profiler = _record_flight()

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_engine ({path}) =====")
    print(json.dumps(payload, indent=2))
    emit_stats(
        "BENCH_engine", metrics, tracer=tracer, profile=profiler,
        meta={"benchmark": "engine_scaling", "quick": quick},
    )
    obs.write_flight(
        recorder, RESULTS_DIR / "BENCH_engine_flight.json",
        meta={"benchmark": "engine_scaling", "quick": quick},
    )
    append_history(
        "engine", payload, meta={"benchmark": "engine_scaling"},
    )
    return payload


def check(payload):
    """The regression gate: planned ≥ 2x naive on the largest
    transitive-closure size, and never slower at any size."""
    largest = payload["transitive_closure"][-1]
    speedup = largest["planned_speedup_vs_naive"]
    assert speedup is not None and speedup >= 2.0, (
        f"planned strategy regressed: {speedup:.2f}x vs naive on "
        f"{largest['nodes']} nodes / {largest['edges']} edges (need ≥ 2x)"
    )
    for entry in payload["transitive_closure"]:
        seconds = entry["seconds"]
        assert seconds["planned"] <= seconds["naive"], (
            f"planned slower than naive at {entry['nodes']} nodes"
        )


def test_transitive_closure_scaling(benchmark):
    database = _random_edges(nodes=50, edges=120, seed=7)
    timings, reference = once(benchmark, _compare, TRANSITIVE, database, "T")
    emit(
        "engine_scaling_transitive_closure",
        f"random graph (50 nodes, 120 edges): "
        f"naive {timings['naive'] * 1000:.0f} ms, "
        f"planned {timings['planned'] * 1000:.0f} ms "
        f"({timings['naive'] / timings['planned']:.1f}x), "
        f"{len(reference.records)} derivations",
    )
    assert timings["planned"] < timings["naive"]


def test_ownership_network_scaling(benchmark):
    """The same comparison on the company-control program over a dense
    random ownership network (aggregation-heavy recursion)."""
    application = company_control.build()
    database = generators.random_ownership_database(
        entities=30, edges=90, seed=11
    )
    timings, reference = once(
        benchmark, _compare, application.program, database, "Control"
    )
    emit(
        "engine_scaling_ownership",
        f"ownership network (30 entities, 90 stakes): "
        f"naive {timings['naive'] * 1000:.0f} ms, "
        f"planned {timings['planned'] * 1000:.0f} ms "
        f"({timings['naive'] / timings['planned']:.1f}x); "
        f"controls derived: {len(reference.database.facts('Control'))}",
    )


def test_long_chain_scaling(benchmark):
    """Control chains: the delta window shrinks to one fact per round
    and sigma3 evaluates only the groups it reaches, where naive re-joins
    the whole instance and rebuilds every group every round."""
    scenario = generators.control_chain(40, seed=3)
    timings, _reference = once(
        benchmark, _compare,
        scenario.application.program, scenario.database, "Control",
    )
    emit(
        "engine_scaling_chain",
        f"40-hop control chain: naive {timings['naive'] * 1000:.0f} ms, "
        f"planned {timings['planned'] * 1000:.0f} ms "
        f"({timings['naive'] / timings['planned']:.1f}x)",
    )


def test_engine_benchmark_payload(benchmark):
    payload = once(benchmark, run, quick=True)
    check(payload)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer workload sizes (CI mode)",
    )
    arguments = parser.parse_args()
    check(run(quick=arguments.quick))


if __name__ == "__main__":
    main()
