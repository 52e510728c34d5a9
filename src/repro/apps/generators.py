"""Synthetic financial-graph generators.

The paper evaluates on "artificial data generated automatically for the KG
applications" because individual shares and loan exposures are confidential
(Section 6).  This module provides the corresponding workload generators:

* **control chains** — ownership ladders producing control proofs of an
  exact chase-step length (recursion);
* **control aggregations** — a holding controlling a target jointly
  through several subsidiaries (multi-contributor sums);
* **stress cascades** — debt chains over the two-channel stress-test
  program, with optional dual-channel hops, again with exact proof lengths;
* **random graphs** — ownership and debt networks for integration and
  property tests.

Every generator is seeded and fully deterministic; the proof-length-targeted
builders (``control_with_steps`` / ``stress_with_steps``) drive the x axes
of the Figure 17 and Figure 18 reproductions.
"""

from __future__ import annotations

import random

from ..datalog.atoms import Fact, fact
from ..engine.database import Database
from . import company_control, stress_test
from .base import KGApplication, ScenarioInstance

#: Name pools for synthetic entities; combined with per-seed indices.
_NAME_STEMS = (
    "Banca", "Credit", "Fondo", "Holding", "Assicura", "Finanz",
    "Cassa", "Istituto", "Gruppo", "Capital",
)


def _entity_names(count: int, rng: random.Random) -> list[str]:
    """Distinct, realistic-looking entity names for one scenario."""
    stems = list(_NAME_STEMS)
    rng.shuffle(stems)
    names = []
    for index in range(count):
        stem = stems[index % len(stems)]
        names.append(f"{stem}{index + 1}")
    return names


# ----------------------------------------------------------------------
# Company control workloads
# ----------------------------------------------------------------------

def control_chain(
    length: int,
    seed: int = 0,
    include_companies: bool = False,
) -> ScenarioInstance:
    """An ownership ladder E0 → E1 → … → E_length with majority shares.

    The proof of ``Control(E0, E_length)`` takes exactly ``length`` chase
    steps: one σ1 application followed by ``length - 1`` σ3 recursions,
    each aggregating a single contributor.
    """
    if length < 1:
        raise ValueError("control chains need length >= 1")
    rng = random.Random(f"control-chain:{seed}:{length}")
    names = _entity_names(length + 1, rng)
    application = company_control.build()
    facts: list[Fact] = []
    for index in range(length):
        share = round(rng.uniform(0.51, 0.95), 2)
        facts.append(company_control.own(names[index], names[index + 1], share))
    if include_companies:
        facts.extend(company_control.company(name) for name in names)
    return ScenarioInstance(
        application=application,
        database=Database(facts),
        target=company_control.control(names[0], names[-1]),
        expected_steps=length,
        description=f"control chain of {length} majority hops",
    )


def control_aggregation(
    branches: int = 2,
    seed: int = 0,
) -> ScenarioInstance:
    """A holding that controls a target only *jointly*: it fully controls
    ``branches`` subsidiaries whose stakes in the target sum above 50%.

    Proof of ``Control(H, T)``: ``branches`` σ1 steps plus one
    multi-contributor σ3 step.
    """
    if branches < 2:
        raise ValueError("joint control needs at least 2 branches")
    rng = random.Random(f"control-agg:{seed}:{branches}")
    names = _entity_names(branches + 2, rng)
    holding, target = names[0], names[-1]
    subsidiaries = names[1:-1]
    application = company_control.build()
    facts: list[Fact] = []
    # Individually minority, jointly majority, pairwise distinct stakes.
    for index, subsidiary in enumerate(subsidiaries):
        stake = round(0.51 / branches + 0.02 * (index + 1), 3)
        facts.append(company_control.own(holding, subsidiary, round(rng.uniform(0.6, 0.9), 2)))
        facts.append(company_control.own(subsidiary, target, stake))
    return ScenarioInstance(
        application=application,
        database=Database(facts),
        target=company_control.control(holding, target),
        expected_steps=branches + 1,
        description=f"joint control through {branches} subsidiaries",
    )


def control_chain_with_aggregation(
    length: int,
    branches: int = 2,
    seed: int = 0,
) -> ScenarioInstance:
    """A control chain whose *final* hop is a joint (aggregated) takeover:
    recursion and aggregation combined — the paper's case study 5."""
    if length < 1:
        raise ValueError("need at least one chain hop before the aggregation")
    rng = random.Random(f"control-chain-agg:{seed}:{length}:{branches}")
    chain_names = _entity_names(length + 1, rng)
    extra = _entity_names(branches + 1, random.Random(f"agg-tail:{seed}"))
    subsidiaries = [f"Sub{name}" for name in extra[:branches]]
    target = f"Target{extra[-1]}"
    application = company_control.build()
    facts: list[Fact] = []
    for index in range(length):
        share = round(rng.uniform(0.51, 0.95), 2)
        facts.append(company_control.own(chain_names[index], chain_names[index + 1], share))
    for index, subsidiary in enumerate(subsidiaries):
        stake = round(0.51 / branches + 0.02 * (index + 1), 3)
        facts.append(company_control.own(chain_names[-1], subsidiary, round(rng.uniform(0.6, 0.9), 2)))
        facts.append(company_control.own(subsidiary, target, stake))
    return ScenarioInstance(
        application=application,
        database=Database(facts),
        target=company_control.control(chain_names[0], target),
        expected_steps=length + branches + 1,
        description=(
            f"{length}-hop control chain ending in a joint takeover "
            f"through {branches} subsidiaries"
        ),
    )


def control_with_steps(steps: int, seed: int = 0) -> ScenarioInstance:
    """A company-control workload whose target proof takes exactly
    ``steps`` chase steps (Figures 17a / 18a x axis)."""
    return control_chain(steps, seed=seed)


def network_with_ladder(
    entities: int, edges: int, hops: int, seed: int = 0
) -> ScenarioInstance:
    """A random ownership network plus one control ladder of ``hops``
    majority hops under names of its own, last in the EDB.  The target is
    the ladder's end-to-end control; retracting its head edge — the first
    ``Own`` fact whose owner is the target's controller — takes the whole
    ladder's control down.  The live-update workload in miniature."""
    chain = control_chain(hops, seed=seed, include_companies=True)
    facts = list(random_ownership_database(entities, edges, seed).facts())
    facts += [
        fact(f.predicate, *(f"Ladder{t.value}" for t in f.terms[:2]), *f.terms[2:])
        for f in chain.database.facts()
    ]
    target = chain.target
    return ScenarioInstance(
        application=chain.application,
        database=Database(facts),
        target=fact("Control", *(f"Ladder{t.value}" for t in target.terms)),
        expected_steps=hops,
        description=f"{hops}-hop ladder in a network of {entities} companies",
    )


def random_ownership_database(
    entities: int,
    edges: int,
    seed: int = 0,
    include_companies: bool = True,
) -> Database:
    """A random ownership network (shares uniform in (0.05, 0.95))."""
    rng = random.Random(f"ownership:{seed}:{entities}:{edges}")
    names = _entity_names(entities, rng)
    facts: list[Fact] = []
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(seen) < edges and attempts < edges * 20:
        attempts += 1
        owner, owned = rng.sample(names, 2)
        if (owner, owned) in seen or (owned, owner) in seen:
            continue
        seen.add((owner, owned))
        facts.append(
            company_control.own(owner, owned, round(rng.uniform(0.05, 0.95), 2))
        )
    if include_companies:
        facts.extend(company_control.company(name) for name in names)
    return Database(facts)


# ----------------------------------------------------------------------
# Stress-test workloads (full two-channel program)
# ----------------------------------------------------------------------

def stress_cascade(
    hops: int,
    seed: int = 0,
    dual_final: bool = False,
    debts_per_hop: int = 1,
) -> ScenarioInstance:
    """A default cascade: a shocked entity drags ``hops`` creditors down.

    Each hop uses one exposure channel (alternating long/short); with
    ``dual_final`` the last creditor is exposed through *both* channels,
    adding one chase step and a multi-contributor σ7.  With
    ``debts_per_hop > 1`` the exposure of every hop is split over several
    loans, so the per-channel aggregations (σ5/σ6) combine multiple
    contributors without changing the proof length — the realistic shape
    that makes the stress application the syntactically heavier one.

    Proof lengths for the final default: ``1 + 2*hops`` chase steps, or
    ``2 + 2*hops`` with ``dual_final``.
    """
    if hops < 0:
        raise ValueError("a cascade needs hops >= 0")
    if dual_final and hops < 1:
        raise ValueError("dual_final requires at least one hop")
    if debts_per_hop < 1:
        raise ValueError("debts_per_hop must be >= 1")
    rng = random.Random(f"stress:{seed}:{hops}:{dual_final}:{debts_per_hop}")
    names = _entity_names(hops + 1, rng)
    application = stress_test.build()
    facts: list[Fact] = []
    capitals = [rng.randint(2, 9) for _ in names]
    for name, capital in zip(names, capitals):
        facts.append(stress_test.has_capital(name, capital))
    facts.append(stress_test.shock(names[0], capitals[0] + rng.randint(1, 6)))
    for index in range(hops):
        debtor, creditor = names[index], names[index + 1]
        creditor_capital = capitals[index + 1]
        last = index == hops - 1
        add_debt = (
            stress_test.long_term_debt if index % 2 == 0
            else stress_test.short_term_debt
        )
        if last and dual_final:
            # Two sub-majority exposures that jointly sink the creditor.
            long_part = creditor_capital  # alone: not enough (> required)
            short_part = rng.randint(1, 4)
            facts.append(stress_test.long_term_debt(debtor, creditor, long_part))
            facts.append(stress_test.short_term_debt(debtor, creditor, short_part))
        elif debts_per_hop == 1:
            amount = creditor_capital + rng.randint(1, 5)
            facts.append(add_debt(debtor, creditor, amount))
        else:
            total = creditor_capital + rng.randint(2, 6)
            base = total / debts_per_hop
            for loan in range(debts_per_hop):
                # Pairwise distinct loan amounts summing to the total.
                amount = round(base + (loan - (debts_per_hop - 1) / 2) * 0.5, 2)
                facts.append(add_debt(debtor, creditor, amount))
    expected = 1 + 2 * hops + (1 if dual_final else 0)
    return ScenarioInstance(
        application=application,
        database=Database(facts),
        target=stress_test.default(names[-1]),
        expected_steps=expected,
        description=(
            f"default cascade over {hops} hops"
            + (" with a dual-channel final hop" if dual_final else "")
        ),
    )


def stress_with_steps(
    steps: int, seed: int = 0, debts_per_hop: int = 1
) -> ScenarioInstance:
    """A stress-test workload whose target proof takes exactly ``steps``
    chase steps (Figures 17b / 18b x axis).

    Odd lengths use plain cascades (1 + 2·hops); even lengths ≥ 4 add a
    dual-channel final hop.  ``steps == 2`` is not expressible for a
    ``Default`` target and raises ``ValueError``.
    """
    if steps < 1:
        raise ValueError("proofs have at least one step")
    if steps == 2:
        raise ValueError("a Default proof cannot take exactly 2 chase steps")
    if steps % 2 == 1:
        return stress_cascade(
            (steps - 1) // 2, seed=seed, debts_per_hop=debts_per_hop
        )
    return stress_cascade(
        (steps - 2) // 2, seed=seed, dual_final=True,
        debts_per_hop=debts_per_hop,
    )


def close_links_common_control(seed: int = 0) -> ScenarioInstance:
    """A close-links workload: two entities linked through a common
    controller (CRR case (c)), with the controls themselves derived.

    Proof of ``CloseLink(A, B)``: two σ1 steps plus one λ3 step.
    """
    from . import close_links  # local import: close_links builds on this module's siblings

    rng = random.Random(f"close-links:{seed}")
    names = _entity_names(3, rng)
    holding, first, second = names
    application = close_links.build()
    facts = [
        close_links.own(holding, first, round(rng.uniform(0.55, 0.9), 2)),
        close_links.own(holding, second, round(rng.uniform(0.55, 0.9), 2)),
    ]
    return ScenarioInstance(
        application=application,
        database=Database(facts),
        target=close_links.close_link(first, second),
        expected_steps=3,
        description="close link through a common controlling holding",
    )


def multi_channel_stress_program(channels: int):
    """A stress-test program with ``channels`` exposure channels.

    Generalizes σ4–σ7: one shock rule, one aggregation rule per channel,
    one cross-channel default rule.  The number of reasoning paths grows
    exponentially in the channel count (every non-empty channel subset is
    a joint story) — the blow-up the paper warns about in Section 4.2
    ("the number of templates can grow exponentially with the complexity
    of the Vadalog program").
    """
    from ..datalog.parser import parse_program

    if channels < 1:
        raise ValueError("need at least one exposure channel")
    lines = [
        "sigma4: Shock(f, s), HasCapital(f, p1), s > p1 -> Default(f)."
    ]
    for index in range(1, channels + 1):
        lines.append(
            f"chan{index}: Default(d), Debts{index}(d, c, v), "
            f'e = sum(v) -> Risk(c, e, "ch{index}").'
        )
    lines.append(
        "sigma7: Risk(c, e, t), HasCapital(c, p2), l = sum(e), l > p2 "
        "-> Default(c)."
    )
    return parse_program(
        "\n".join(lines), name=f"stress_{channels}ch", goal="Default"
    )


def random_debt_database(
    entities: int,
    edges: int,
    shocked: int = 1,
    seed: int = 0,
) -> Database:
    """A random two-channel debt network with ``shocked`` initial shocks."""
    rng = random.Random(f"debts:{seed}:{entities}:{edges}")
    names = _entity_names(entities, rng)
    facts: list[Fact] = []
    for name in names:
        facts.append(stress_test.has_capital(name, rng.randint(2, 12)))
    for _ in range(edges):
        debtor, creditor = rng.sample(names, 2)
        amount = rng.randint(1, 10)
        if rng.random() < 0.5:
            facts.append(stress_test.long_term_debt(debtor, creditor, amount))
        else:
            facts.append(stress_test.short_term_debt(debtor, creditor, amount))
    for name in rng.sample(names, min(shocked, len(names))):
        facts.append(stress_test.shock(name, rng.randint(5, 25)))
    return Database(facts)
