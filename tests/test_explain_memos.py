"""The record-keyed memos of an explainer binding and indexed why-not
probing: the same bytes as a fresh binding and a full scan, for less work.

* An ``Explainer`` keeps a mapping memo (one segment decision per spine
  window), a segment memo (one rendered template per assignment and
  presentation options) and a composition memo (one top-level
  composition per record and options).  A binding that has explained
  every other fact must answer exactly as a fresh one — text, reasoning
  paths and audit record — on generated ladders with joint hops, random
  ownership and debt networks, and a program with negation; so must one
  whose LRU evicted every answer, on each bundled application.
* ``WhyNotExplainer`` probes the chase database's position indexes.  It
  must report the same best attempt as the full scan of the active
  instance it replaced, which :class:`FullScanWhyNot` keeps as the
  reference.
* Call counts, taken with wrappers inside the tests, pin the savings
  without a clock.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    close_links, company_control, figures, generators, golden_powers,
    integrated_ownership, stress_test,
)
from repro.apps.base import KGApplication
from repro.core import ExplanationService, mapping, templates, whynot
from repro.core.cache import LRUCache
from repro.core.glossary import DomainGlossary
from repro.core.explain import Explainer
from repro.core.whynot import WhyNotExplainer
from repro.datalog import unify
from repro.datalog.atoms import Atom
from repro.datalog.conditions import evaluate_expression
from repro.datalog.errors import NotDerived
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine import database as database_module
from repro.engine import provenance_index, reason
from repro.engine.incremental import extensional_facts
from repro.llm import SimulatedLLM

def _stake_application() -> KGApplication:
    """Company control with the total stake as a fact of its own: the
    partial ``Stake`` totals superseded on the way are then read by a
    rule body and by a negated atom, where a probe that saw them would
    report the wrong total or a blocker that is not there."""
    program = parse_program(
        """
        self:  Company(x) -> Control(x, x).
        stake: Control(x, z), Own(z, y, s), ts = sum(s) -> Stake(x, y, ts).
        ctl:   Stake(x, y, ts), ts > 0.5 -> Control(x, y).
        rival: Own(x, y, s), not Stake(x, y, s), s > 0.4 -> Rival(x, y).
        """,
        name="stake", goal="Control",
    )
    glossary = DomainGlossary()
    glossary.define("Own", ["x", "y", "s"], "<x> owns <s> shares of <y>")
    glossary.define("Company", ["x"], "<x> is a business corporation")
    glossary.define("Control", ["x", "y"], "<x> exercises control over <y>")
    glossary.define("Stake", ["x", "y", "ts"], "<x> holds <ts> of <y> in total")
    glossary.define("Rival", ["x", "y"], "<x> is a rival shareholder of <y>")
    return KGApplication("stake", program, glossary)


APPLICATIONS = {
    "control": company_control.build(),
    "stress": stress_test.build(),
    "golden": golden_powers.build(),
    "stake": _stake_application(),
}


@cache
def compiled(name: str):
    """Two enhanced versions per template, so ``prefer_enhanced`` and
    ``variant_index`` both change the text."""
    return APPLICATIONS[name].compile(
        llm=SimulatedLLM(seed=0, faithful=True), enhanced_versions=2
    )


# ----------------------------------------------------------------------
# Generated instances
# ----------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)
own, company = company_control.own, company_control.company


@st.composite
def ladders(draw):
    """A control ladder whose joint hops go through a helper: the upper
    rung's direct minority stake and the helper's jointly clear 50 %, so
    sigma3 aggregates two contributors and the helper's own control is a
    side branch."""
    joints = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    rungs, facts = ["L0"], []
    for hop, joint in enumerate(joints):
        upper, lower = rungs[-1], f"L{hop + 1}"
        if joint:
            helper = f"H{hop}"
            facts += [
                own(upper, helper, 0.6), own(upper, lower, 0.3),
                own(helper, lower, 0.3), company(helper),
            ]
        else:
            facts.append(own(upper, lower, 0.7))
        rungs.append(lower)
    facts += [company(rung) for rung in rungs]
    return "control", facts


@st.composite
def control_instances(draw):
    kind = draw(st.sampled_from(["ladder", "random", "chain_aggregation"]))
    if kind == "ladder":
        return draw(ladders())
    if kind == "random":
        entities = draw(st.integers(min_value=3, max_value=9))
        database = generators.random_ownership_database(
            entities, draw(st.integers(min_value=2, max_value=2 * entities)),
            seed=draw(seeds),
        )
        return "control", list(database.facts())
    scenario = generators.control_chain_with_aggregation(
        draw(st.integers(min_value=1, max_value=5)),
        branches=draw(st.integers(min_value=2, max_value=3)),
        seed=draw(seeds),
    )
    return "control", list(scenario.database.facts())


@st.composite
def stress_instances(draw):
    if draw(st.booleans()):
        scenario = generators.stress_cascade(
            draw(st.integers(min_value=1, max_value=5)), seed=draw(seeds),
            dual_final=draw(st.booleans()),
            debts_per_hop=draw(st.integers(min_value=1, max_value=3)),
        )
        return "stress", list(scenario.database.facts())
    database = generators.random_debt_database(
        draw(st.integers(min_value=3, max_value=8)),
        draw(st.integers(min_value=2, max_value=14)),
        shocked=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(seeds),
    )
    return "stress", list(database.facts())


@st.composite
def golden_instances(draw):
    """Random ownership plus foreign / strategic / exempt / vetoed flags:
    negation (``not Exempt``) and a negative constraint."""
    entities = draw(st.integers(min_value=3, max_value=8))
    database = generators.random_ownership_database(
        entities, draw(st.integers(min_value=2, max_value=2 * entities)),
        seed=draw(seeds),
    )
    names = sorted({str(f.terms[0]) for f in database.facts("Company")})
    facts = list(database.facts())
    for flag in (golden_powers.foreign, golden_powers.strategic,
                 golden_powers.exempt, golden_powers.vetoed):
        chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        facts.extend(flag(name) for name in chosen)
    return "golden", facts


@st.composite
def stake_instances(draw):
    """Dense enough that most draws supersede a partial total."""
    entities = draw(st.integers(min_value=5, max_value=9))
    database = generators.random_ownership_database(
        entities, draw(st.integers(min_value=entities, max_value=2 * entities)),
        seed=draw(seeds),
    )
    return "stake", list(database.facts())


instances = st.sampled_from([
    control_instances(), stress_instances(), golden_instances(),
    stake_instances(),
]).flatmap(lambda family: family)
options = st.fixed_dictionaries({
    "prefer_enhanced": st.booleans(),
    "variant_index": st.integers(min_value=0, max_value=2),
    "include_side_branches": st.booleans(),
})


def served(explainer: Explainer, query, flags) -> tuple:
    try:
        explanation = explainer.explain(query, **flags)
    except Exception as error:  # the same failure is part of the answer
        return ("error", type(error).__name__, str(error))
    return explanation.text, explanation.paths_used(), explanation.to_dict()


def side_branch_facts(explainer: Explainer, query, flags) -> list:
    """Every fact ``query``'s explanation narrates as a side branch under
    ``flags`` (which include side branches), innermost first; empty when
    the query fails."""
    try:
        explanation = explainer.explain(query, **flags)
    except Exception:
        return []
    found, stack = [], list(explanation.side_explanations)
    while stack:
        side = stack.pop()
        found.append(side.query)
        stack.extend(side.side_explanations)
    return found[::-1]


# ----------------------------------------------------------------------
# Warm bindings answer like fresh ones
# ----------------------------------------------------------------------

class TestWarmBindingParity:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances, data=st.data())
    def test_warm_binding_answers_like_a_fresh_one(self, instance, data):
        name, facts = instance
        result = reason(APPLICATIONS[name].program, facts)
        order = data.draw(st.permutations(list(result.derived())))
        # No explanation LRU: every reuse comes from the record memos.
        warm = Explainer(result, compiled=compiled(name), cache=LRUCache(0))
        # A real LRU that was first asked each query's side branches as
        # top-level queries: those cached answers must not leak into the
        # side-branch recursion.
        cached = Explainer(result, compiled=compiled(name), cache=LRUCache())
        # The second pass asks each fact again, now of a binding that has
        # explained every other one, under fresh random options.
        for query in order + order:
            flags = data.draw(options)
            fresh = Explainer(result, compiled=compiled(name), cache=LRUCache(0))
            expected = served(fresh, query, flags)
            assert served(warm, query, flags) == expected
            # Side branches recurse with the query's presentation options.
            recursion = {**flags, "include_side_branches": True}
            for side in side_branch_facts(fresh, query, recursion):
                served(cached, side, recursion)
            assert served(cached, query, flags) == expected

    @settings(max_examples=200, deadline=None)
    @given(instance=control_instances(), data=st.data())
    def test_update_serves_like_a_fresh_session(self, instance, data):
        """Retracting an edge renumbers the chase records after it; a
        session whose memos were warm before must then serve what a
        session chased from scratch over the new data serves."""
        name, facts = instance
        application = APPLICATIONS[name]
        service = ExplanationService(llm=SimulatedLLM(seed=0, faithful=True))
        session = service.session(application, facts)
        for query in session.result.derived():
            session.explain(query)
        retracted = data.draw(st.sampled_from(
            [f for f in facts if f.predicate == "Own"]
        ))
        session.update(retracts=[retracted], adds=[own("L0", "Fresh", 0.8)])
        edb = list(extensional_facts(session.result.chase_result))
        fresh = service.session(application, edb)
        derived = list(fresh.result.derived())
        assert list(session.result.derived()) == derived
        for query in derived:
            flags = data.draw(options)
            assert served(session.explainer, query, flags) == \
                served(fresh.explainer, query, flags)


def _golden_powers_instance():
    database = generators.random_ownership_database(8, 14, seed=3)
    names = sorted(str(f.terms[0]) for f in database.facts("Company"))
    facts = list(database.facts())
    facts += [golden_powers.foreign(name) for name in names[::2]]
    facts += [golden_powers.strategic(name) for name in names[1::2]]
    facts += [golden_powers.exempt(name) for name in names[::5]]
    return golden_powers.build(), facts


#: One instance per bundled application.  The stress-test network has
#: two shocks, so its explanations narrate side branches.
BUNDLED = {
    "company_control": lambda: (
        company_control.build(), figures.figure15_instance().database,
    ),
    "stress_test": lambda: (
        stress_test.build(),
        generators.random_debt_database(8, 14, shocked=2, seed=8),
    ),
    "stress_simple": lambda: (
        stress_test.build_simple(), figures.figure8_instance().database,
    ),
    "close_links": lambda: (
        close_links.build(),
        generators.close_links_common_control(seed=0).database,
    ),
    "golden_powers": _golden_powers_instance,
    "integrated_ownership": lambda: (
        integrated_ownership.build(),
        generators.random_ownership_database(6, 9, seed=2),
    ),
}


class TestEvictedParity:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_an_evicted_answer_is_served_like_a_fresh_one(
        self, name, monkeypatch
    ):
        """A binding whose LRU holds one entry answers a second pass
        from its composition memo alone (the LRU stores no explanation):
        text, paths and audit record must be byte-equal to a fresh
        binding's."""
        application, facts = BUNDLED[name]()
        result = reason(application.program, facts)
        program = application.compile(
            llm=SimulatedLLM(seed=0, faithful=True), enhanced_versions=2
        )
        derived = result.derived()
        flag_sets = [
            {"prefer_enhanced": enhanced, "variant_index": variant,
             "include_side_branches": sides}
            for enhanced, variant in ((True, 0), (True, 1), (False, 0))
            for sides in (True, False)
        ]
        evicting = Explainer(result, compiled=program, cache=LRUCache(1))
        first = {
            (query, index): evicting.explain(query, **flags)
            for query in derived for index, flags in enumerate(flag_sets)
        }
        fresh = Explainer(result, compiled=program)
        expected_answers = {
            key: fresh.explain(key[0], **flag_sets[key[1]]) for key in first
        }
        mapped = _count_calls(monkeypatch, mapping.TemplateMapper, "map_spine")
        narrated = 0
        for (query, index), before in first.items():
            again = evicting.explain(query, **flag_sets[index])
            expected = expected_answers[query, index]
            assert again is before
            assert again.text.encode() == expected.text.encode()
            assert again.paths_used() == expected.paths_used()
            assert json.dumps(again.to_dict()).encode() == \
                json.dumps(expected.to_dict()).encode()
            narrated += bool(expected.side_explanations)
        assert mapped["calls"] == 0
        assert derived
        assert narrated or name != "stress_test"


# ----------------------------------------------------------------------
# Why-not: indexed probes against the full scan
# ----------------------------------------------------------------------

class FullScanWhyNot(WhyNotExplainer):
    """The prober before indexed probing: every body atom is matched
    against a scan of the whole active instance, and group totals come
    from a homomorphism search over it."""

    def _active(self) -> list:
        chase = self.result.chase_result
        return [f for f in chase.database.facts() if f not in chase.superseded]

    def _best_attempt(self, rule, head_binding):
        active = self._active()
        best: tuple = (-1, dict(head_binding), 0, None, None)

        def consider(candidate: tuple) -> None:
            nonlocal best
            if candidate[0] > best[0]:
                best = candidate

        def recurse(index: int, binding) -> None:
            if index == len(rule.body):
                for negated in rule.negated:
                    grounded = unify.apply_substitution(negated, binding)
                    blockers = [
                        f for f in active
                        if unify.match_atom(grounded, f) is not None
                    ]
                    if blockers:
                        consider((index, dict(binding), None, None, grounded))
                        return
                failing, augmented = self._failing_condition(rule, binding)
                consider((index, augmented, None, failing, None))
                return
            matched_any = False
            for candidate in active:
                extended = unify.match_atom(rule.body[index], candidate, binding)
                if extended is not None:
                    matched_any = True
                    recurse(index + 1, extended)
            if not matched_any:
                consider((index, dict(binding), index, None, None))

        recurse(0, dict(head_binding))
        return best

    def _group_values(self, rule, binding):
        aggregate = rule.aggregate
        group_binding = {
            variable: binding[variable]
            for variable in aggregate.group_by if variable in binding
        }
        values = [
            evaluate_expression(aggregate.argument, match)
            for match in unify.find_homomorphisms(
                list(rule.body), self._active(), group_binding
            )
        ]
        return values or [evaluate_expression(aggregate.argument, binding)]


@st.composite
def non_answers(draw, result):
    """A fact that does not hold, or ``None``: a superseded aggregate
    value; the head of a rule whose body would read a superseded fact;
    or a random head-predicate atom over the instance's constants."""
    chase = result.chase_result
    rules = result.program.rules
    superseded = sorted(chase.superseded, key=str)
    domain = sorted(
        {term for f in chase.database.facts() for term in f.terms}, key=repr
    ) + [Constant(0.9)]
    kind = draw(st.sampled_from(["superseded", "reads_superseded", "random"]))
    if superseded and kind != "random":
        fact = draw(st.sampled_from(superseded))
        readers = [
            (rule, atom) for rule in rules for atom in rule.body
            if atom.predicate == fact.predicate
        ]
        if kind == "superseded" or not readers:
            return fact
        rule, atom = draw(st.sampled_from(readers))
        query = unify.apply_substitution(
            rule.head, unify.match_atom(atom, fact) or {}
        )
        query = query.with_terms(
            term if term in domain else draw(st.sampled_from(domain))
            for term in query.terms
        )
    else:
        predicate, arity = draw(st.sampled_from(
            sorted({(rule.head.predicate, rule.head.arity) for rule in rules})
        ))
        query = Atom(predicate, tuple(
            draw(st.sampled_from(domain)) for _ in range(arity)
        ))
    return None if query in chase.database and query not in superseded else query


class TestWhyNotAgainstFullScan:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances, data=st.data())
    def test_indexed_probes_report_what_the_full_scan_reports(
        self, instance, data
    ):
        name, facts = instance
        application = APPLICATIONS[name]
        result = reason(application.program, facts)
        indexed = WhyNotExplainer(result, application.glossary)
        reference = FullScanWhyNot(result, application.glossary)
        for _ in range(3):
            query = data.draw(non_answers(result))
            if query is None:
                continue
            answer = indexed.explain_why_not(query)
            expected = reference.explain_why_not(query)
            assert answer.text == expected.text
            assert answer.obstacles == expected.obstacles


class TestSupersededFactsAreInvisible:
    """A superseded partial total must not satisfy a body atom, count
    towards a group, or block a negated atom.  In each case A's stake in
    T grows from 0.1 to 0.3 once A controls B."""

    STAKES = [
        company("A"), company("B"), company("T"),
        own("A", "B", 0.6), own("A", "T", 0.1), own("B", "T", 0.2),
    ]

    @staticmethod
    def _answer(name, facts, query):
        application = APPLICATIONS[name]
        result = reason(application.program, facts)
        assert result.chase_result.superseded
        answer = WhyNotExplainer(result, application.glossary).explain_why_not(query)
        expected = FullScanWhyNot(result, application.glossary).explain_why_not(query)
        assert answer == expected
        return answer.text

    def test_body_atom(self):
        text = self._answer("stake", self.STAKES, Atom.of("Control", "A", "T"))
        assert "0.3 is not such that it is higher than 0.5" in text

    def test_negated_atom(self):
        text = self._answer("stake", self.STAKES, Atom.of("Rival", "A", "T"))
        assert "0.1 is not such that it is higher than 0.4" in text

    def test_group_total(self):
        # C's long-term exposure grows from 1 (A defaults) to 3 (B follows).
        facts = [
            stress_test.shock("A", 10), stress_test.has_capital("A", 5),
            stress_test.has_capital("B", 5), stress_test.has_capital("C", 10),
            stress_test.long_term_debt("A", "B", 6),
            stress_test.long_term_debt("A", "C", 1),
            stress_test.long_term_debt("B", "C", 2),
        ]
        text = self._answer("stress", facts, stress_test.default("C"))
        assert "3 is not such that it is higher than 10" in text


# ----------------------------------------------------------------------
# Counts that pin the savings
# ----------------------------------------------------------------------

def _count_calls(monkeypatch, owner, name: str) -> Counter:
    counter: Counter = Counter()
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return counter


class TestWorkCounts:
    def test_each_segment_is_instantiated_once_per_option_set(self, monkeypatch):
        # Explaining all 820 derived facts of a 40-hop chain under both
        # flags instantiated 21,400 templates before the segment memo:
        # fact k's spine re-rendered all k steps, quadratic in the ladder.
        scenario = generators.control_chain(40)
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        counter = _count_calls(
            monkeypatch, templates.ExplanationTemplate, "instantiate"
        )
        derived = result.derived()
        for enhanced in (True, False):
            for query in derived:
                explainer.explain(query, prefer_enhanced=enhanced)
        assert len(derived) == 820
        assert counter["calls"] <= 2 * len(derived)

    def test_a_second_pass_is_served_from_the_memos(self, monkeypatch):
        # The first pass over the chain's 820 derived facts builds 820
        # spines and renders 820 segments; the second is all LRU hits.
        scenario = generators.control_chain(40)
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        spines = _count_calls(
            monkeypatch, provenance_index.ProvenanceIndex, "spine"
        )
        renders = _count_calls(
            monkeypatch, templates.ExplanationTemplate, "instantiate"
        )
        derived = result.derived()
        first = [explainer.explain(query) for query in derived]
        assert (spines["calls"], renders["calls"]) == (820, 820)
        spines.clear()
        renders.clear()
        second = [explainer.explain(query) for query in derived]
        assert (spines["calls"], renders["calls"]) == (0, 0)
        assert second == first

    def test_an_lru_miss_is_served_from_the_composition_memo(
        self, monkeypatch
    ):
        # An LRU of 16 entries evicted each of the chain's 820 answers
        # before the second pass asked it again, and before the
        # composition memo every miss mapped its spine and looked it up
        # again (820 map_spine calls).  Now the composition memo answers
        # every second ask (a hit of the explain region each) and the
        # LRU stores no explanation at all.
        scenario = generators.control_chain(40)
        result = scenario.run()
        explainer = scenario.application.explainer(result, cache=LRUCache(16))
        derived = result.derived()
        first = [explainer.explain(query) for query in derived]
        counters = [
            _count_calls(monkeypatch, owner, name) for owner, name in (
                (mapping.TemplateMapper, "map_spine"),
                (templates.ExplanationTemplate, "instantiate"),
                (provenance_index.ProvenanceIndex, "spine"),
            )
        ]
        hits = explainer._explain_region.stats.hits
        second = [explainer.explain(query) for query in derived]
        assert explainer._explain_region.stats.hits == hits + len(derived)
        assert len(explainer._cache) == 0
        assert [counter["calls"] for counter in counters] == [0, 0, 0]
        assert second == first

    def test_an_extensional_query_compiles_nothing(self):
        # A fact the chase did not derive is refused before a pipeline
        # is looked up: an Own or Company query used to build and keep a
        # secondary pipeline (and its structural analysis) for nothing.
        scenario = figures.figure15_instance()
        compiled = scenario.application.compile()
        explainer = Explainer(scenario.run(), compiled=compiled)
        stats = compiled.stats
        before = (stats.structural_analyses, stats.secondary_pipelines)
        database = scenario.database
        for query in (*database.facts("Own")[:2], database.facts("Company")[0]):
            with pytest.raises(NotDerived):
                explainer.explain(query)
        assert (stats.structural_analyses, stats.secondary_pipelines) == before

    def test_mapping_tries_a_bounded_number_of_matches_per_record(
        self, monkeypatch
    ):
        # Before the mapping memo one pass over the chain's 820 facts
        # called _try_match 23,040 times, 28 per chase record, and the
        # plain pass as many again.
        scenario = generators.control_chain(40)
        result = scenario.run()
        explainer = scenario.application.explainer(result)
        counter = _count_calls(monkeypatch, mapping.TemplateMapper, "_try_match")
        records = len(result.chase_result.records)
        for query in result.derived():
            explainer.explain(query, prefer_enhanced=True)
        assert counter["calls"] <= 8 * records
        # Every window is decided by now: the plain pass maps each spine
        # again without trying a single variant.
        before = counter["calls"]
        for query in result.derived():
            explainer.explain(query, prefer_enhanced=False)
        assert counter["calls"] == before

    def test_why_not_matches_a_fraction_of_the_full_scan(self, monkeypatch):
        # The network's biggest controller asked about a company it does
        # not control: the full scan calls match_atom 2,283 times (one
        # pass over 190 facts per body atom tried), the indexed probes 23.
        application = company_control.build()
        database = generators.random_ownership_database(30, 60, seed=3)
        result = reason(application.program, database)
        controls = result.answers("Control")
        holder = max(
            sorted({f.terms[0] for f in controls}, key=str),
            key=lambda x: sum(f.terms[0] == x for f in controls),
        )
        held = {f.terms[1] for f in controls if f.terms[0] == holder}
        target = next(
            f.terms[0] for f in database.facts("Company")
            if f.terms[0] not in held
        )
        query = Atom("Control", (holder, target))
        counter: Counter = Counter()
        original = unify.match_atom

        def counting(*args, **kwargs):
            counter["calls"] += 1
            return original(*args, **kwargs)

        for module in (unify, database_module, whynot):
            monkeypatch.setattr(module, "match_atom", counting)
        expected = FullScanWhyNot(result, application.glossary).explain_why_not(query)
        full_scan = counter["calls"]
        counter.clear()
        answer = WhyNotExplainer(result, application.glossary).explain_why_not(query)
        assert answer == expected
        assert counter["calls"] < 0.05 * full_scan
