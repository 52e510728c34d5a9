"""The error contract, as a law over each application's own vocabulary.

Every question a caller can ask about a fact (explain it, explain why it
does not hold, add it, retract it) gets an answer or a refusal, never a
fault: through ``repro-explain explain`` the exit status is 0 or 2 with
no traceback, and over HTTP the status is 200, a 4xx or 504 while
``serve.errors`` stays where it was.  Facts are drawn from every
predicate of the program and glossary plus one the program lacks, with
the right arity and one off either way, over constants inside and
outside the active domain; extensional and derived facts of the
instance are drawn as well.  An ``/update`` of a fact whose predicate
the program lacks (none of these instances stores one), or uses with
another arity, is a 400 that publishes no new session.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import figures
from repro.cli import main
from repro.serve import ExplanationServer, ServeConfig

from .test_serve import _request

#: ``--app`` name → the scenario the CLI runs for it.
APPS = {
    "company_control": figures.figure15_instance,
    "stress_test": figures.figure12_stress_instance,
    "figure8": figures.figure8_instance,
}
UNKNOWN = "Nope"
OUTSIDE = ("Zed", "0.33", "7", '"x y"')


@pytest.fixture(scope="module")
def servers():
    running = {}
    with contextlib.ExitStack() as stack:
        for name, build in APPS.items():
            scenario = build()
            server = ExplanationServer(
                scenario.application, database=scenario.database,
                config=ServeConfig(
                    port=0, slo_period_s=60.0, slo_interval_requests=10_000,
                ),
            )
            stack.enter_context(server.run_in_thread())
            running[name] = (scenario, server)
        yield running


def _facts(scenario) -> st.SearchStrategy[tuple[str, bool, bool]]:
    """(fact text, whether the instance holds it as input data, whether
    the program has its predicate at its arity)."""
    glossary = scenario.application.glossary
    schema = scenario.application.program.schema
    result = scenario.run()
    extensional = [str(f) for f in scenario.database.facts()]
    derived = [str(f) for f in result.derived()]
    domain = sorted({
        str(term) for fact in scenario.database.facts()
        for term in fact.terms
    })
    arities = {
        atom.predicate: len(atom.terms)
        for rule in scenario.application.program
        for atom in (rule.head, *rule.body)
    }
    arities.update(
        (p, glossary.entry(p).arity) for p in glossary.predicates()
    )
    arities[UNKNOWN] = 2

    @st.composite
    def built(draw) -> tuple[str, bool, bool]:
        predicate = draw(st.sampled_from(sorted(arities)))
        arity = max(0, arities[predicate] + draw(st.sampled_from((-1, 0, 1))))
        terms = draw(st.lists(
            st.sampled_from(domain) | st.sampled_from(OUTSIDE),
            min_size=arity, max_size=arity,
        ))
        text = f"{predicate}({', '.join(terms)})"
        return text, text in extensional, schema.get(predicate) == arity

    return (
        built()
        | st.sampled_from(extensional).map(lambda text: (text, True, True))
        | st.sampled_from(derived).map(lambda text: (text, False, True))
    )


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_question_is_answered_or_refused(servers, app):
    scenario, server = servers[app]

    @settings(
        max_examples=25, deadline=None, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=_facts(scenario))
    def law(drawn):
        fact, extensional, in_schema = drawn
        for flag in ("--query", "--why-not"):
            status, err = _cli([
                "explain", "--app", app, "--deterministic", flag, fact,
            ])
            assert status in (0, 2), (flag, fact, err)
            assert "Traceback" not in err
            if status == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
        errors = server.metrics.counter_value("serve.errors")
        session = server.pool.session
        # The instance is put back after each example: an extensional
        # fact is retracted, then added again; any other is added, then
        # retracted.
        delta = (("retracts", "adds") if extensional
                 else ("adds", "retracts"))
        for path, payload in (
            ("/explain", {"query": fact}),
            ("/explain", {"query": fact, "audit": True}),
            ("/explain/batch", {"queries": [fact]}),
            ("/whynot", {"query": fact}),
            ("/update", {delta[0]: [fact]}),
            ("/update", {delta[1]: [fact]}),
        ):
            status, _headers, _data = _request(server, "POST", path, payload)
            assert status == 200 or 400 <= status < 500 or status == 504, (
                path, fact, status,
            )
            if path == "/update" and not in_schema:
                # A delta the program cannot hold is refused and
                # publishes nothing.
                assert status == 400, (payload, status)
                assert server.pool.session is session, payload
        assert server.metrics.counter_value("serve.errors") == errors, fact

    law()
