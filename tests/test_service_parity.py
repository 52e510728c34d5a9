"""Golden-text parity: the compile/runtime/service layering must be
byte-identical to the seed one-object Explainer for every application.

For each app in ``repro.apps`` a representative workload is explained
three ways — the historical ``Explainer(result, glossary, llm=...)``
construction, an ``ExplanationService`` session, and an explainer bound
to a serialize→load round-tripped ``CompiledProgram`` — and every
deterministic and enhanced text (plus violation reports where the app
has constraints) must match exactly.
"""

import pytest

from repro.apps import (
    close_links,
    company_control,
    figures,
    golden_powers,
    integrated_ownership,
    stress_test,
)
from repro.core import CompiledProgram, Explainer, ExplanationService
from repro.llm import SimulatedLLM

_SEED = 7


def _workloads():
    """(app, database facts) per application — small but representative:
    recursion, aggregation, negation and constraints all appear."""
    yield (
        company_control.build(),
        figures.figure15_instance().database,
    )
    yield (
        stress_test.build(),
        figures.figure12_stress_instance().database,
    )
    yield (
        stress_test.build_simple(),
        figures.figure8_instance().database,
    )
    yield (
        close_links.build(),
        [
            close_links.own("H", "A", 0.7),
            close_links.own("H", "B", 0.8),
            close_links.own("A", "C", 0.25),
        ],
    )
    yield (
        golden_powers.build(),
        [
            golden_powers.own("F1", "S1", 0.6),
            golden_powers.own("F2", "S1", 0.7),
            golden_powers.foreign("F1"),
            golden_powers.foreign("F2"),
            golden_powers.strategic("S1"),
            golden_powers.exempt("F2"),
            golden_powers.vetoed("F1"),
        ],
    )
    yield (
        integrated_ownership.build(),
        [
            integrated_ownership.own("A", "B", 0.5),
            integrated_ownership.own("B", "C", 0.5),
            integrated_ownership.own("A", "C", 0.2),
        ],
    )


def _texts(explainer, result, prefer_enhanced):
    """Every goal fact's explanation plus every violation report."""
    texts = [
        explainer.explain(query, prefer_enhanced=prefer_enhanced).text
        for query in result.answers()
        if result.chase_result.is_derived(query)
    ]
    texts.extend(
        explainer.explain_violation(
            violation, prefer_enhanced=prefer_enhanced
        )
        for violation in result.violations
    )
    return texts


@pytest.mark.parametrize(
    "application,database",
    list(_workloads()),
    ids=lambda value: getattr(value, "name", ""),
)
@pytest.mark.parametrize("prefer_enhanced", [False, True])
def test_layered_outputs_match_seed_explainer(
    application, database, prefer_enhanced
):
    result = application.reason(database)

    # Seed path: one object compiling on the fly, fresh LLM.
    seed = Explainer(
        result, application.glossary,
        llm=SimulatedLLM(seed=_SEED, faithful=True),
    )
    expected = _texts(seed, result, prefer_enhanced)
    assert expected, f"workload for {application.name} derives nothing"

    # Service path: compile cache + shared LRU + session binding.
    with ExplanationService(
        llm=SimulatedLLM(seed=_SEED, faithful=True)
    ) as service:
        session = service.bind(application, result)
        assert _texts(session.explainer, result, prefer_enhanced) == expected

        # Round-trip path: serialize → load → bind.
        payload = session.compiled.export_payload()
        restored = CompiledProgram.from_payload(
            payload, application.program, application.glossary
        )
        rebound = Explainer(result, compiled=restored)
        assert _texts(rebound, result, prefer_enhanced) == expected


def test_batch_matches_seed_explainer():
    """explain_batch (thread pool) returns the same bytes as the seed
    sequential path, in order."""
    application = company_control.build()
    database = figures.figure15_instance().database
    result = application.reason(database)
    seed = Explainer(
        result, application.glossary,
        llm=SimulatedLLM(seed=_SEED, faithful=True),
    )
    queries = [
        query for query in result.answers()
        if result.chase_result.is_derived(query)
    ]
    expected = [seed.explain(query).text for query in queries]
    with ExplanationService(
        llm=SimulatedLLM(seed=_SEED, faithful=True)
    ) as service:
        session = service.bind(application, result)
        produced = [e.text for e in session.explain_batch(queries)]
    assert produced == expected
