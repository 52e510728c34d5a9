"""Incremental maintenance: delta add/retract vs full re-chase.

The live-update story (DESIGN.md §13): a shareholding edge changes and
the session absorbs it through :meth:`ChaseEngine.update`, which
maintains the result over the delta's forward closure, while the
:class:`~repro.engine.provenance_index.ProvenanceIndex` is rebound over
that closure.  This benchmark measures that path against the status quo
it replaces (a fresh planned chase plus a from-scratch index build) on
a generated ownership graph of 1,533 EDB facts, flipping the head edge
of a 16-hop control ladder, and sweeps randomized add/retract schedules
across the bundled applications asserting the parity contract against
the naive oracle.

Emits ``BENCH_incremental.json`` with single-edge add/retract timings,
their speedups over full re-chase, and the parity verdict.  Runs
standalone (``python benchmarks/bench_incremental.py [--quick]``) for CI
— where the ``incremental`` gate suite asserts both speedups stay ≥ 5x
and parity holds — or under pytest with the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import replace

from repro import obs
from repro.apps import (
    company_control,
    generators,
    golden_powers,
    integrated_ownership,
)
from repro.engine.chase import ChaseEngine
from repro.engine.database import Database
from repro.engine.incremental import extensional_facts
from repro.engine.reasoning import reason

from _harness import RESULTS_DIR, append_history, emit_stats, once

#: The timed workload (:func:`repro.apps.generators.network_with_ladder`):
#: a random ownership network of 500 companies and 1,000 edges plus one
#: control ladder of 16 majority hops, whose head edge the update flips.
#: At 30 entities the gate timed fixed overhead.
LARGEST = {
    "app": "company_control", "entities": 500, "edges": 1000,
    "ladder_hops": 16, "seed": 11,
}


def _largest_workload():
    """(application, EDB facts, the ladder's head edge)."""
    scenario = generators.network_with_ladder(
        LARGEST["entities"], LARGEST["edges"], LARGEST["ladder_hops"],
        seed=LARGEST["seed"],
    )
    facts = scenario.database.facts()
    head = next(
        f for f in facts
        if f.predicate == "Own" and f.terms[0] == scenario.target.terms[0]
    )
    return scenario.application, facts, head


def _measure_single_edge(repeats: int) -> dict:
    """Best-of-``repeats`` single-edge retract and add on the timed
    workload, incremental (update + index rebind) vs full (fresh chase +
    fresh index build).

    Each trial retracts the ladder's head edge, which takes the whole
    ladder's control down, then adds it back, so every repetition starts
    from the same materialized base state; the incremental side times
    :meth:`ChaseEngine.update` *plus* :meth:`ReasoningResult.updated`
    (the provenance index is part of what must stay fresh), and the full
    side times the chase plus the index build it would replace.
    """
    application, database, edge = _largest_workload()
    engine = ChaseEngine(strategy="planned")
    result = reason(application.program, database, strategy="planned")
    result.index  # materialize: updates carry it over, rebound
    replayed: list[int] = []

    def timed(action) -> float:
        started = time.perf_counter()
        action()
        return time.perf_counter() - started

    samples: dict[str, list[float]] = {
        "add_incremental": [], "add_full": [],
        "retract_incremental": [], "retract_full": [],
    }
    modes: dict[str, int] = {}
    for _ in range(repeats):
        for kind in ("retract", "add"):
            def apply() -> None:
                nonlocal result
                outcome = engine.update(
                    application.program, result.chase_result,
                    **{f"{kind}s": [edge]},
                )
                modes[outcome.mode] = modes.get(outcome.mode, 0) + 1
                replayed.append(outcome.replayed)
                result = result.updated(outcome.result, outcome.touched)

            samples[f"{kind}_incremental"].append(timed(apply))
            after = extensional_facts(result.chase_result)

            def full() -> None:
                reason(application.program, after, strategy="planned").index

            samples[f"{kind}_full"].append(timed(full))

    def entry(kind: str) -> dict:
        incremental_s = min(samples[f"{kind}_incremental"])
        full_s = min(samples[f"{kind}_full"])
        return {
            "incremental_s": round(incremental_s, 6),
            "full_s": round(full_s, 6),
            "speedup": (
                round(full_s / incremental_s, 2) if incremental_s else None
            ),
        }

    return {
        "workload": dict(LARGEST),
        "edb_facts": len(database),
        "derivations": len(result.chase_result.records),
        "replayed": max(replayed),
        "repeats": repeats,
        "modes": modes,
        "add": entry("add"),
        "retract": entry("retract"),
    }


def _parity_workloads(quick: bool):
    """(name, application, edb) triples for the randomized parity sweep
    — every bundled application family, including negation."""
    workloads = []
    workloads.append((
        "company_control",
        company_control.build(),
        generators.random_ownership_database(
            entities=24, edges=70, seed=11
        ).facts(),
    ))
    workloads.append((
        "integrated_ownership",
        integrated_ownership.build(),
        generators.random_ownership_database(
            entities=10, edges=26, seed=7
        ).facts(),
    ))
    scenario = generators.close_links_common_control(seed=3)
    workloads.append((
        "close_links", scenario.application, scenario.database.facts()
    ))
    gp_db = generators.random_ownership_database(entities=14, edges=40, seed=13)
    names = [
        f.terms[0].value for f in gp_db.facts() if f.predicate == "Company"
    ]
    gp_facts = list(gp_db.facts())
    gp_facts += [golden_powers.foreign(name) for name in names[::3]]
    gp_facts += [golden_powers.strategic(name) for name in names[1::3]]
    gp_facts += [golden_powers.exempt(name) for name in names[::5]]
    workloads.append((
        "golden_powers", golden_powers.build(), tuple(gp_facts)
    ))
    if quick:
        workloads = workloads[:2] + workloads[-1:]
    return workloads


def _parity_sweep(quick: bool) -> dict:
    """Randomized add/retract schedules under the parity contract
    (DESIGN §13): the maintained result equals a fresh naive chase on the
    post-delta EDB — the same fact tuple (order included), per fact the
    same record up to its id (binding item order included), the same
    supersessions, violations, rounds and rounds per stratum."""
    steps = 6 if quick else 10
    seeds = (0, 1) if quick else (0, 1, 2)
    engine = ChaseEngine(strategy="planned")
    reference = ChaseEngine(strategy="naive")
    schedules = 0
    mismatches: list[str] = []
    for name, application, edb in _parity_workloads(quick):
        program = application.program
        for seed in seeds:
            schedules += 1
            rng = random.Random(seed)
            current = engine.run(program, Database(edb))
            removed: list = []
            for step in range(steps):
                live = list(extensional_facts(current))
                adds, retracts = [], []
                roll = rng.random()
                if roll < 0.45 and live:
                    retracts = rng.sample(
                        live, k=min(len(live), rng.randint(1, 3))
                    )
                elif roll < 0.8 and removed:
                    adds = rng.sample(
                        removed, k=min(len(removed), rng.randint(1, 3))
                    )
                else:
                    if live:
                        retracts = rng.sample(live, k=1)
                    if removed:
                        adds = rng.sample(removed, k=1)
                outcome = engine.update(program, current, adds, retracts)
                current = outcome.result
                removed = [
                    fact for fact in removed + retracts
                    if fact not in set(adds)
                ]
                fresh = reference.run(
                    program, Database(extensional_facts(current))
                )
                if not _same_result(current, fresh):
                    mismatches.append(f"{name}/seed{seed}/step{step}")
    return {
        "identical": not mismatches,
        "schedules": schedules,
        "steps_per_schedule": steps,
        "mismatches": mismatches,
    }


def _same_result(maintained, fresh) -> bool:
    """The parity contract: everything but record ids."""
    def records(result):
        return [
            (
                replace(record, index=0), list(record.binding.items()),
                [list(c.binding.items()) for c in record.contributors],
            )
            for record in result.records
        ]

    def violations(result):
        return [(v.constraint.label, v.witnesses) for v in result.violations]

    return (
        tuple(maintained.database.facts()) == tuple(fresh.database.facts())
        and records(maintained) == records(fresh)
        and maintained.superseded == fresh.superseded
        and violations(maintained) == violations(fresh)
        and maintained.rounds == fresh.rounds
        and maintained.stats.rounds_per_stratum
        == fresh.stats.rounds_per_stratum
    )


def run(quick: bool = False) -> dict:
    """Measure the update path and sweep parity; emit BENCH_incremental.json."""
    repeats = 3 if quick else 5
    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    profiler = obs.KernelProfiler(enabled=True)
    with obs.observed(tracer=tracer, metrics=metrics, profile=profiler):
        update = _measure_single_edge(repeats=repeats)
        parity = _parity_sweep(quick=quick)
    payload = {
        "quick": quick,
        "update": update,
        "parity": parity,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_incremental.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n===== BENCH_incremental ({path}) =====")
    print(json.dumps(payload, indent=2))
    emit_stats(
        "BENCH_incremental", metrics, tracer=tracer, profile=profiler,
        meta={"benchmark": "incremental", "quick": quick},
    )
    append_history("incremental", payload, meta={"benchmark": "incremental"})
    return payload


def check(payload: dict) -> None:
    """The regression gates (mirrored by the ``incremental`` suite in
    ``benchmarks/gates.json``):

    * single-edge add ≥ 5x faster than full re-chase + index build;
    * single-edge retract ≥ 5x faster than the same baseline;
    * the randomized parity sweep found zero divergences.
    """
    for kind in ("add", "retract"):
        speedup = payload["update"][kind]["speedup"]
        assert speedup is not None and speedup >= 5.0, (
            f"incremental {kind} regressed: {speedup:.2f}x vs full "
            f"re-chase (need ≥ 5x)"
        )
    parity = payload["parity"]
    assert parity["identical"], (
        f"incremental/full divergence on {parity['mismatches']}"
    )
    full_runs = payload["update"]["modes"].get("full", 0)
    assert full_runs == 0, (
        f"single-edge updates fell back to full re-chase {full_runs} times"
    )


def test_incremental_benchmark_payload(benchmark):
    payload = once(benchmark, run, quick=True)
    check(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats and parity schedules (CI mode)",
    )
    arguments = parser.parse_args()
    check(run(quick=arguments.quick))


if __name__ == "__main__":
    main()
