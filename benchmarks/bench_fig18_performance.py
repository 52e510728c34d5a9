"""Figure 18: running time of explanation generation vs proof length.

Measures the time to select, parse and combine templates (the full
explanation query, given a materialized instance) for proofs of increasing
chase-step length — company control on 1..21 steps, stress test on 1..22
steps, 15 distinct proofs per length, matching the paper's panels.

Absolute numbers differ from the paper's Ryzen laptop; the expected shape
is that runtime grows with the number of inference steps and that the
syntactically richer stress-test application costs more than company
control at comparable lengths.
"""

from __future__ import annotations

import time

from repro.apps import generators
from repro.core import Explainer, ExplanationService
from repro.render import format_boxplot_series

from _harness import emit, once

CONTROL_STEPS = (1, 3, 5, 7, 9, 11, 13, 16, 18, 21)
STRESS_STEPS = (1, 4, 7, 10, 13, 16, 19, 22)
PROOFS_PER_LENGTH = 15


def _stress_scenario(steps, seed):
    """Realistic stress workload: each hop's exposure split over two
    loans, so the channel aggregations combine several contributors —
    the syntactic richness behind the paper's cross-application gap."""
    return generators.stress_with_steps(steps, seed=seed, debts_per_hop=2)


def _prepare(scenario_builder, steps_list):
    """Materialize all workloads up front: Figure 18 times explanation
    generation, not the chase.  The service compiles each program once
    (content-hash cache) and every workload binds the shared artifact —
    the compile/runtime split keeps the measurement pure."""
    service = ExplanationService()
    prepared = []
    for steps in steps_list:
        for sample in range(PROOFS_PER_LENGTH):
            scenario = scenario_builder(steps, seed=sample)
            session = service.session(scenario.application, scenario.database)
            prepared.append((steps, session.explainer, scenario.target))
    return prepared


def _measure(prepared):
    timings: dict[int, list[float]] = {}
    for steps, explainer, target in prepared:
        started = time.perf_counter()
        explainer.explain(target, prefer_enhanced=False)
        elapsed = time.perf_counter() - started
        timings.setdefault(steps, []).append(elapsed)
    return timings


def _quartiles(values):
    ordered = sorted(values)

    def pct(fraction):
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    return pct(0.25), pct(0.5), pct(0.75)


def _assert_grows(timings):
    steps = sorted(timings)
    early = sum(sorted(timings[steps[0]])[len(timings[steps[0]]) // 2:][:1])
    late = sum(sorted(timings[steps[-1]])[len(timings[steps[-1]]) // 2:][:1])
    assert late > early, "explanation time must grow with proof length"


def test_figure18a_company_control_runtime(benchmark):
    prepared = _prepare(generators.control_with_steps, CONTROL_STEPS)
    timings = once(benchmark, _measure, prepared)
    series = [(s, _quartiles(timings[s])) for s in sorted(timings)]
    emit(
        "fig18a_runtime_company_control",
        format_boxplot_series(
            "Figure 18a — explanation generation time (seconds), company control",
            series,
        ),
    )
    _assert_grows(timings)


def test_figure18b_stress_test_runtime(benchmark):
    prepared = _prepare(_stress_scenario, STRESS_STEPS)
    timings = once(benchmark, _measure, prepared)
    series = [(s, _quartiles(timings[s])) for s in sorted(timings)]
    emit(
        "fig18b_runtime_stress_test",
        format_boxplot_series(
            "Figure 18b — explanation generation time (seconds), stress test",
            series,
        ),
    )
    _assert_grows(timings)


def test_figure18_stress_costs_more_than_control(benchmark):
    """The paper's observation: the stress test, with multiple aggregating
    rules, is the more expensive application at comparable proof lengths.
    Compared over a sweep of lengths to smooth per-length noise."""
    sweep = (7, 10, 16, 19)

    def compare():
        control = _prepare(generators.control_with_steps, sweep)
        stress = _prepare(_stress_scenario, sweep)
        control_times = [t for times in _measure(control).values() for t in times]
        stress_times = [t for times in _measure(stress).values() for t in times]
        return (
            sum(control_times) / len(control_times),
            sum(stress_times) / len(stress_times),
        )

    control_mean, stress_mean = once(benchmark, compare)
    emit(
        "fig18_cross_application",
        f"mean explanation time over {sweep} steps: company control "
        f"{control_mean * 1000:.2f} ms, stress test {stress_mean * 1000:.2f} ms",
    )
    assert stress_mean > control_mean


def test_single_explanation_latency(benchmark):
    """A conventional pytest-benchmark microbenchmark: one 21-step control
    explanation, timed with full calibration (the 'interactive latency'
    the paper reports as a few seconds at worst on its hardware)."""
    scenario = generators.control_with_steps(21, seed=0)
    result = scenario.run()
    explainer = Explainer(result, scenario.application.glossary)

    def explain_uncached():
        explainer._cache.clear()  # measure generation, not the cache
        return explainer.explain(scenario.target, prefer_enhanced=False)

    explanation = benchmark(explain_uncached)
    assert explanation.text
