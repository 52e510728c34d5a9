"""Structural analysis of the dependency graph (paper, Section 4.1).

This module pre-distills all database-independent "reasoning stories" of a
program: the finite set of reasoning paths that generalize every possible
root-to-leaf path of any chase graph the program can produce.

Definitions implemented here:

* **Critical node** (Def. 4.1): an intensional node V with ``deg(V) > 1``
  outgoing rule edges, or the leaf node.  (The paper writes ``deg^-``;
  consistency with its worked examples — ``Risk`` is *not* critical in
  either stress-test program although two rules derive it — pins the
  intended reading to the out-degree.)
* **Simple reasoning path** (Def. 4.2): a subgraph of D(Σ) conducting from
  roots to the leaf or to a critical node.
* **Reasoning cycle** (Def. 4.2): a subgraph connecting a critical node
  with itself or with another critical node.

Both are computed allowing one visit per edge, hence are finite.  The
enumeration works at the rule level: a path is the set of rules labelling
its edges.  Rules with aggregations admit *joint* contributions — several
derivation branches of the same body predicate merging into one aggregate —
which yields the joint paths of the paper (Π5 for company control, Π9 for
the stress test) and marks the aggregate structurally multi-input.

Aggregation analysis then expands every path into its variants (single vs.
multiple contributors per aggregate rule), the paper's plain vs. "dashed"
notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from typing import Iterator, Sequence

from .. import obs
from ..datalog.depgraph import DependencyGraph
from ..datalog.errors import DatalogError
from ..datalog.program import Program
from ..datalog.rules import Rule
from .paths import ReasoningPath


class StructuralAnalysisError(DatalogError):
    """Raised when the analysis cannot be carried out (e.g. no goal)."""


@dataclass(frozen=True)
class _Story:
    """An intermediate rule story: ordered rules + forced multi flags +
    the critical nodes the story's recursion bottomed out at."""

    rules: tuple[Rule, ...]
    forced_multi: frozenset[str]
    anchors: frozenset[str] = frozenset()

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(rule.label for rule in self.rules)

    def key(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        return (self.labels, self.forced_multi, self.anchors)


def _merge_stories(stories: Sequence[_Story], tail: Rule, forced: bool) -> _Story:
    """Concatenate substories and append the consuming rule, deduplicating
    rules while preserving the topological firing order."""
    ordered: dict[str, Rule] = {}
    anchors: set[str] = set()
    forced_multi: set[str] = set()
    for story in stories:
        for rule in story.rules:
            ordered.setdefault(rule.label, rule)
        anchors.update(story.anchors)
        forced_multi.update(story.forced_multi)
    ordered.setdefault(tail.label, tail)
    if forced:
        forced_multi.add(tail.label)
    return _Story(tuple(ordered.values()), frozenset(forced_multi), frozenset(anchors))


def _nonempty_subsets(items: Sequence[_Story]) -> Iterator[tuple[_Story, ...]]:
    yield from chain.from_iterable(
        combinations(items, size) for size in range(1, len(items) + 1)
    )


class StructuralAnalysis:
    """Computes critical nodes, simple reasoning paths and reasoning cycles
    for a program, together with their aggregation variants."""

    def __init__(self, program: Program, max_paths: int = 10_000):
        if program.goal is None:
            raise StructuralAnalysisError(
                f"program {program.name!r} needs a goal predicate for the "
                "structural analysis (the dependency-graph leaf)"
            )
        self.program = program
        with obs.phase("compile.depgraph"):
            self.graph = DependencyGraph(program)
        self.max_paths = max_paths

    # ------------------------------------------------------------------
    # Critical nodes (Definition 4.1)
    # ------------------------------------------------------------------
    @cached_property
    def critical_nodes(self) -> frozenset[str]:
        intensional = self.program.intensional_predicates()
        leaf = self.graph.leaf()
        critical = {
            node for node in intensional if self.graph.out_degree(node) > 1
        }
        critical.add(leaf)
        return frozenset(critical & (intensional | {leaf}))

    # ------------------------------------------------------------------
    # Simple reasoning paths
    # ------------------------------------------------------------------
    @cached_property
    def simple_paths(self) -> tuple[ReasoningPath, ...]:
        """All simple reasoning paths, named Π1, Π2, … deterministically."""
        stories: dict[tuple, tuple[_Story, str]] = {}
        for target in sorted(self.critical_nodes):
            for story in self._root_stories(target, frozenset()):
                stories.setdefault(story.key() + (target,), (story, target))
        paths = [
            ReasoningPath(
                kind="simple",
                rules=story.rules,
                multi_rules=story.forced_multi,
                forced_multi=story.forced_multi,
                target=target,
            )
            for story, target in stories.values()
        ]
        paths.sort(key=self._path_sort_key)
        return tuple(
            ReasoningPath(
                kind=path.kind,
                rules=path.rules,
                multi_rules=path.multi_rules,
                forced_multi=path.forced_multi,
                name=f"Pi{index + 1}",
                target=path.target,
            )
            for index, path in enumerate(paths)
        )

    def _root_stories(self, predicate: str, used: frozenset[str]) -> list[_Story]:
        """Stories deriving ``predicate`` from extensional roots only."""
        results: list[_Story] = []
        for rule in self.program.rules_deriving(predicate):
            if rule.label in used:
                continue
            extended = used | {rule.label}
            body_intensional = [
                b for b in rule.body_predicates() if self.program.is_intensional(b)
            ]
            options_per_predicate: list[list[tuple[_Story, ...]]] = []
            feasible = True
            for body_predicate in body_intensional:
                substories = self._root_stories(body_predicate, extended)
                if not substories:
                    feasible = False
                    break
                if rule.has_aggregate and len(substories) > 1:
                    options = list(_nonempty_subsets(substories))
                else:
                    options = [(s,) for s in substories]
                options_per_predicate.append(options)
            if not feasible:
                continue
            for combo in product(*options_per_predicate):
                chosen = tuple(chain.from_iterable(combo))
                forced = rule.has_aggregate and any(
                    len(subset) > 1 for subset in combo
                )
                results.append(_merge_stories(chosen, rule, forced))
                if len(results) > self.max_paths:
                    raise StructuralAnalysisError(
                        f"more than {self.max_paths} reasoning paths for "
                        f"{predicate!r}; the program is too entangled"
                    )
        return self._dedupe(results)

    # ------------------------------------------------------------------
    # Reasoning cycles
    # ------------------------------------------------------------------
    @cached_property
    def cycles(self) -> tuple[ReasoningPath, ...]:
        """All reasoning cycles, named Γ1, Γ2, … deterministically."""
        stories: dict[tuple, tuple[_Story, str, str]] = {}
        for target in sorted(self.critical_nodes):
            for story in self._anchored_stories(target, frozenset()):
                for anchor in sorted(story.anchors):
                    stories.setdefault(
                        story.key() + (target, anchor),
                        (story, target, anchor),
                    )
        paths = [
            ReasoningPath(
                kind="cycle",
                rules=story.rules,
                multi_rules=story.forced_multi,
                forced_multi=story.forced_multi,
                anchor=anchor,
                target=target,
            )
            for story, target, anchor in stories.values()
        ]
        paths.sort(key=self._path_sort_key)
        return tuple(
            ReasoningPath(
                kind=path.kind,
                rules=path.rules,
                multi_rules=path.multi_rules,
                forced_multi=path.forced_multi,
                name=f"Gamma{index + 1}",
                anchor=path.anchor,
                target=path.target,
            )
            for index, path in enumerate(paths)
        )

    def _anchored_stories(
        self, predicate: str, used: frozenset[str]
    ) -> list[_Story]:
        """Stories deriving ``predicate`` whose recursion bottoms out at
        critical nodes (the cycle anchors) rather than at the roots."""
        results: list[_Story] = []
        for rule in self.program.rules_deriving(predicate):
            if rule.label in used:
                continue
            extended = used | {rule.label}
            body_intensional = [
                b for b in rule.body_predicates() if self.program.is_intensional(b)
            ]
            if not body_intensional:
                continue  # purely extensional bodies never close a cycle
            options_per_predicate: list[list[tuple[_Story, ...]]] = []
            feasible = True
            for body_predicate in body_intensional:
                substories: list[_Story] = []
                if body_predicate in self.critical_nodes:
                    substories.append(
                        _Story((), frozenset(), frozenset({body_predicate}))
                    )
                substories.extend(self._anchored_stories(body_predicate, extended))
                if not substories:
                    feasible = False
                    break
                if rule.has_aggregate and len(substories) > 1:
                    options = list(_nonempty_subsets(substories))
                else:
                    options = [(s,) for s in substories]
                options_per_predicate.append(options)
            if not feasible:
                continue
            for combo in product(*options_per_predicate):
                chosen = tuple(chain.from_iterable(combo))
                merged_anchors = frozenset(
                    chain.from_iterable(s.anchors for s in chosen)
                )
                if not merged_anchors:
                    continue  # must connect a critical node to the target
                forced = rule.has_aggregate and any(
                    len(subset) > 1 for subset in combo
                )
                results.append(_merge_stories(chosen, rule, forced))
                if len(results) > self.max_paths:
                    raise StructuralAnalysisError(
                        f"more than {self.max_paths} reasoning cycles for "
                        f"{predicate!r}; the program is too entangled"
                    )
        return self._dedupe(results)

    # ------------------------------------------------------------------
    # Variants and lookup
    # ------------------------------------------------------------------
    @cached_property
    def all_paths(self) -> tuple[ReasoningPath, ...]:
        """Simple paths followed by cycles (base variants)."""
        return self.simple_paths + self.cycles

    @cached_property
    def all_variants(self) -> tuple[ReasoningPath, ...]:
        """Every aggregation variant of every path — the candidate set the
        chase-to-template mapping selects from."""
        return tuple(
            variant for path in self.all_paths for variant in path.variants()
        )

    def simple_variants(self) -> tuple[ReasoningPath, ...]:
        return tuple(v for v in self.all_variants if not v.is_cycle)

    def cycle_variants(self) -> tuple[ReasoningPath, ...]:
        return tuple(v for v in self.all_variants if v.is_cycle)

    def path_by_name(self, name: str) -> ReasoningPath:
        for path in self.all_paths:
            if path.name == name:
                return path
        raise KeyError(f"no reasoning path named {name!r}")

    # ------------------------------------------------------------------
    # Helpers / rendering
    # ------------------------------------------------------------------
    def _path_sort_key(self, path: ReasoningPath) -> tuple:
        index_of = {rule.label: i for i, rule in enumerate(self.program.rules)}
        indices = tuple(sorted(index_of[label] for label in path.labels))
        return (len(indices), indices, path.target, path.anchor or "")

    @staticmethod
    def _dedupe(stories: list[_Story]) -> list[_Story]:
        unique: dict[tuple, _Story] = {}
        for story in stories:
            unique.setdefault(story.key(), story)
        return list(unique.values())

    def describe(self) -> str:
        """Fig-10-style summary: paths and cycles in compact notation,
        marking with ``*`` the paths whose aggregation variant exists."""
        lines = [f"Structural analysis of {self.program.name!r}:"]
        lines.append(f"  critical nodes: {', '.join(sorted(self.critical_nodes))}")
        lines.append("  simple reasoning paths:")
        for path in self.simple_paths:
            star = "*" if path.has_aggregation_variants else ""
            lines.append(f"    {path.notation()}{star}")
        lines.append("  reasoning cycles:")
        for cycle in self.cycles:
            star = "*" if cycle.has_aggregation_variants else ""
            lines.append(f"    {cycle.notation()}{star}")
        return "\n".join(lines)
