"""Seeded heavy-tailed ownership graphs for the company-control program.

``ownership_graph(size, seed)`` is a pure function of its arguments: it
draws from its own ``random.Random`` and never touches
``repro.apps.generators`` (whose small name pool and uniform degrees are
what ROADMAP item 1 calls out).  The shape follows the paper's
Bank-of-Italy setting and the scaled synthetic ownership networks of the
Vadalog system paper:

* **background** companies with Pareto(alpha=1.8) in-degree capped at 6,
  owners picked preferentially (probability grows with the stakes a
  company already holds), about 55 % of companies with a >50 % owner;
* a bounded set of **ladders**, majority chains 12-24 hops deep of which
  30 % of the hops are *joint*: the upper rung and a helper it controls
  each hold a sub-50 % stake that together exceed 50 %, so sigma3's
  ``sum`` is on the proof.  Ladders are what make proofs span 1 to >= 20
  chase steps (the x-range of the paper's Fig. 18); their number is
  capped because the chase re-evaluates sigma3 whole in every round, so
  its cost grows with depth x facts.

The seed moves names, positions, owners and shares.  It does not move
the structural totals the program's cost depends on: the ladder depths
are a fixed spread over 12-24, each ladder has exactly its 30 % of joint
hops, and ladders exchange only minority stakes with the background, so
the chase runs the same number of rounds for every seed.  A benchmark
whose runs differ by seed must not differ by size.

Ownership only ever points from an earlier to a later company, so the
graph is acyclic and ``Control(later, earlier)`` can never hold: that is
where the never-repeated absent pairs of the why-not traffic come from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: name -> (background companies, ladders).  Sized on the 2-core box the
#: benchmark was written on; see bench/README.md for the realised counts.
SIZES = {
    "quick": (120, 2),
    "S": (500, 8),
    "L": (1250, 8),
}

#: name -> (control pairs, Control-Own join rows) every seed aims at: the
#: medians of the shape's natural spread.
TARGETS = {
    "quick": (600, 1000),
    "S": (2365, 4170),
    "L": (3135, 7080),
}
DRAWS = 16

PARETO_ALPHA = 1.8
MAX_IN_DEGREE = 6
MAJORITY_SHARE = 0.55      # of background companies with a >50 % owner
LADDER_HOPS = (12, 24)
JOINT_HOP_SHARE = 0.30


@dataclass(frozen=True)
class OwnershipGraph:
    """One generated instance, as text the program can load."""

    size: str
    seed: int
    facts: tuple[str, ...]          # fact-file lines, insertion order
    companies: tuple[str, ...]      # creation order (= topological order)
    ladders: tuple[tuple[str, ...], ...]   # rung names, head first
    #: the majority edge at the head of one ladder, as a fact string
    update_edge: str
    #: (controller, controlled) of the ladder tail the update flips
    update_probe: tuple[str, str]
    #: every non-reflexive ``Control(x, y)`` the program must derive, by
    #: (round first derivable, text): shallow proofs first, deep last
    derived: tuple[str, ...]
    #: positions in ``companies`` of those that control another company
    controllers: tuple[int, ...]
    join_rows: int    # rows of Control x Own, what one sigma3 round reads

    @property
    def pairs(self) -> int:
        return len(self.derived)

    @property
    def edb_size(self) -> int:
        return len(self.facts)


def _share(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def ladder_hops(count: int) -> list[int]:
    """``count`` ladder depths spread evenly over ``LADDER_HOPS``."""
    low, high = LADDER_HOPS
    if count == 1:
        return [high]
    return [low + round(i * (high - low) / (count - 1)) for i in range(count)]


def control_pairs(
    companies: list[str], owns: list[tuple[str, str, float]]
) -> tuple[list[tuple[int, str, str]], int] | None:
    """The generator's own reading of sigma1-sigma3 on an acyclic graph.

    Returns the non-reflexive control pairs as ``(round, controller,
    controlled)`` — the round in which a round-by-round evaluation first
    derives the pair, a stand-in for its proof size — and the rows of the
    Control-Own join, which is what one sigma3 round reads.  Shares are
    summed in whole thousandths; ``None`` means some sum landed within a
    thousandth of the 50 % threshold, where the program's float sum could
    fall on the other side.
    """
    out: dict[str, list[tuple[str, int]]] = {}
    for owner, owned, share in owns:
        out.setdefault(owner, []).append((owned, round(share * 1000)))
    pairs: list[tuple[int, str, str]] = []
    joined = 0
    for controller in companies:
        held: dict[str, int] = {}
        seen = {controller}
        frontier = [controller]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for middle in frontier:
                for owned, share in out.get(middle, ()):
                    joined += 1
                    total = held[owned] = held.get(owned, 0) + share
                    if total > 501 and owned not in seen:
                        seen.add(owned)
                        reached.append(owned)
            pairs.extend((depth, controller, owned) for owned in reached)
            frontier = reached
        if any(499 <= total <= 501 for total in held.values()):
            return None
    return pairs, joined


def ownership_graph(size: str, seed: int) -> OwnershipGraph:
    """Generate the ``size`` instance for ``seed`` (see module docstring).

    Heavy-tailed hubs move the number of control pairs, and with it the
    chase time, by several per cent from one draw to the next.  So every
    call makes the same ``DRAWS`` draws and keeps the one closest to the
    size's targets: the same work for every seed, and instances whose
    cost differs by well under a per cent.
    """
    pairs, join_rows = TARGETS[size]
    drawn = [_draw(size, seed, attempt) for attempt in range(DRAWS)]
    return min(
        (graph for graph in drawn if graph is not None),
        key=lambda graph: abs(graph.pairs / pairs - 1.0)
        + abs(graph.join_rows / join_rows - 1.0),
    )


def _draw(size: str, seed: int, attempt: int) -> OwnershipGraph | None:
    background, ladder_count = SIZES[size]
    rng = random.Random(f"ownership/{size}/{seed}/{attempt}")
    tag = f"{seed % 1000:03d}"
    companies: list[str] = []
    owns: list[tuple[str, str, float]] = []
    #: preferential-attachment urn over background companies: one ball
    #: per company plus one per stake it holds
    urn: list[str] = []

    def new_company(prefix: str) -> str:
        name = f"{prefix}{tag}x{len(companies):05d}"
        companies.append(name)
        return name

    def pick_owners(count: int) -> list[str]:
        chosen: list[str] = []
        for _ in range(8 * count):
            candidate = rng.choice(urn)
            if candidate not in chosen:
                chosen.append(candidate)
                if len(chosen) == count:
                    break
        return chosen

    def add_background() -> None:
        degree = min(MAX_IN_DEGREE, int(rng.paretovariate(PARETO_ALPHA)))
        owners = pick_owners(degree) if urn else []
        company = new_company("C")
        urn.append(company)
        if owners and rng.random() < MAJORITY_SHARE:
            major = _share(rng, 0.51, 0.8)
            owns.append((owners.pop(0), company, major))
            rest = 1.0 - major
        else:
            rest = 0.9
        for owner in owners:
            stake = _share(rng, 0.02, min(0.45, rest / len(owners)))
            owns.append((owner, company, stake))
        urn.extend(owner for owner, owned, _ in owns[-degree:]
                   if owned == company)
        # A minority stake held by some ladder's tail ties the ladders
        # into the background graph without extending their control.
        if tails and rng.random() < 0.05:
            owns.append((rng.choice(tails), company, _share(rng, 0.02, 0.1)))

    def add_ladder(hops: int) -> tuple[str, ...]:
        joint = set(rng.sample(range(1, hops), round(JOINT_HOP_SHARE * hops)))
        rungs = [new_company("L")]
        for owner in pick_owners(2):
            owns.append((owner, rungs[0], _share(rng, 0.05, 0.2)))
        for hop in range(hops):
            upper = rungs[-1]
            lower = new_company("L")
            # Hop 0 is never joint: the head edge is the plain majority
            # edge the live-update workload adds and retracts.
            if hop in joint:
                helper = new_company("H")
                owns.append((upper, helper, _share(rng, 0.55, 0.9)))
                owns.append((upper, lower, _share(rng, 0.26, 0.45)))
                owns.append((helper, lower, _share(rng, 0.26, 0.45)))
            else:
                owns.append((upper, lower, _share(rng, 0.51, 0.95)))
            rungs.append(lower)
        tails.append(rungs[-1])
        return tuple(rungs)

    depths = ladder_hops(ladder_count)
    rng.shuffle(depths)
    ladder_at = sorted(
        rng.sample(range(background // 10, background), ladder_count)
    )
    ladders: list[tuple[str, ...]] = []
    tails: list[str] = []
    for index in range(background):
        add_background()
        while len(ladders) < ladder_count and ladder_at[len(ladders)] == index:
            ladders.append(add_ladder(depths[len(ladders)]))

    counted = control_pairs(companies, owns)
    if counted is None:
        return None
    position = {name: index for index, name in enumerate(companies)}
    facts = [f"Company({name})." for name in companies]
    facts.extend(f"Own({a}, {b}, {s})." for a, b, s in owns)
    # The update always hits the shortest ladder, so its cost is the same
    # for every seed, and the least a flip of a whole ladder can cost.
    update_ladder = min(ladders, key=len)
    head, second = update_ladder[0], update_ladder[1]
    head_share = next(s for a, b, s in owns if a == head and b == second)
    return OwnershipGraph(
        size=size,
        seed=seed,
        facts=tuple(facts),
        companies=tuple(companies),
        ladders=tuple(ladders),
        update_edge=f"Own({head}, {second}, {head_share})",
        update_probe=(head, update_ladder[-1]),
        derived=tuple(
            f"Control({controller}, {owned})"
            for _, controller, owned in sorted(counted[0])
        ),
        controllers=tuple(sorted(
            {position[controller] for _, controller, _ in counted[0]}
        )),
        join_rows=counted[1],
    )


def absent_pairs(graph: OwnershipGraph, seed: int):
    """An endless seeded stream of never-repeated ``Control(later,
    earlier)`` strings — facts the acyclic graph cannot derive.

    What a why-not costs depends on how much ``later`` controls: nothing,
    for most companies, and then the answer takes a flat few
    milliseconds; a great deal, for a few.  Three of every four pairs ask
    about a company that controls nothing and the fourth about one that
    does, a fixed mix, so that the median is the same question for every
    seed while the heavy tail is still asked.
    """
    rng = random.Random(f"absent/{graph.size}/{graph.seed}/{seed}")
    controllers = [index for index in graph.controllers if index > 0]
    held = set(controllers)
    leaves = [
        index for index in range(1, len(graph.companies))
        if index not in held
    ]
    seen: set[tuple[int, int]] = set()
    for turn in itertools.count():
        later = rng.choice(controllers if turn % 4 == 3 else leaves)
        earlier = rng.randrange(0, later)
        if (later, earlier) not in seen:
            seen.add((later, earlier))
            yield (
                f"Control({graph.companies[later]}, "
                f"{graph.companies[earlier]})"
            )
