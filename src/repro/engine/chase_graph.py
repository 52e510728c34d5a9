"""The chase graph G(D, Σ).

Nodes are the facts of ``chase(D, Σ)``; there is an edge from fact ``n`` to
fact ``m`` labelled with rule σ iff ``m`` was derived from ``n`` (and
possibly other facts) via a chase step applying σ (paper, Section 3).

The graph is derived entirely from the :class:`~repro.engine.chase.ChaseResult`
provenance records and is the structure the explanation machinery walks to
recover root-to-leaf derivation paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..datalog.atoms import Fact
from .chase import ChaseResult, ChaseStepRecord


@dataclass(frozen=True, slots=True)
class ChaseEdge:
    """A derivation edge ``source -> target`` labelled with the applied rule."""

    source: Fact
    target: Fact
    rule_label: str

    def __str__(self) -> str:
        return f"{self.source} --[{self.rule_label}]--> {self.target}"


class ChaseGraph:
    """Fact-level derivation graph built from a chase run."""

    def __init__(self, result: ChaseResult):
        self.result = result
        self._incoming: dict[Fact, list[ChaseEdge]] = {}
        self._outgoing: dict[Fact, list[ChaseEdge]] = {}
        self._edges: list[ChaseEdge] = []
        for record in result.records:
            for parent in record.parents:
                edge = ChaseEdge(parent, record.fact, record.rule_label)
                self._edges.append(edge)
                self._outgoing.setdefault(parent, []).append(edge)
                self._incoming.setdefault(record.fact, []).append(edge)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def edges(self) -> tuple[ChaseEdge, ...]:
        return tuple(self._edges)

    def nodes(self) -> tuple[Fact, ...]:
        return self.result.database.facts()

    def parents(self, current: Fact) -> tuple[Fact, ...]:
        return tuple(edge.source for edge in self._incoming.get(current, ()))

    def children(self, current: Fact) -> tuple[Fact, ...]:
        return tuple(edge.target for edge in self._outgoing.get(current, ()))

    def incoming(self, current: Fact) -> tuple[ChaseEdge, ...]:
        return tuple(self._incoming.get(current, ()))

    def outgoing(self, current: Fact) -> tuple[ChaseEdge, ...]:
        return tuple(self._outgoing.get(current, ()))

    def roots(self) -> tuple[Fact, ...]:
        """Facts with no incoming derivation edge — the extensional facts."""
        return tuple(
            current for current in self.result.database
            if current not in self._incoming
        )

    # ------------------------------------------------------------------
    # Sub-DAG extraction
    # ------------------------------------------------------------------
    def ancestor_records(self, target: Fact) -> list[ChaseStepRecord]:
        """All chase steps in the proof of ``target``, in derivation order.

        This is the portion of the chase graph from which ``target``
        derives (cf. the paper's Figure 8).  EDB facts contribute no
        records; they appear only as parents of the returned steps.
        """
        derivation = self.result.derivation
        collected: dict[Fact, ChaseStepRecord] = {}
        frontier = [target]
        while frontier:
            current = frontier.pop()
            record = derivation.get(current)
            if record is None or current in collected:
                continue
            collected[current] = record
            frontier.extend(record.parents)
        rank = self.result.database.sequence
        return [collected[fact] for fact in sorted(collected, key=rank)]

    def proof_facts(self, target: Fact) -> tuple[Fact, ...]:
        """All facts (EDB and derived) in the proof of ``target``."""
        seen: dict[Fact, None] = {target: None}
        for record in self.ancestor_records(target):
            seen.setdefault(record.fact, None)
            for parent in record.parents:
                seen.setdefault(parent, None)
        return tuple(seen)

    def proof_size(self, target: Fact) -> int:
        """Number of chase steps in the proof of ``target``.

        This is the inference-length measure used on the x axes of the
        paper's Figures 17 and 18.
        """
        return len(self.ancestor_records(target))

    def __iter__(self) -> Iterator[ChaseEdge]:
        return iter(self._edges)

    def describe(self) -> str:
        lines = [f"Chase graph: {len(self.nodes())} facts, {len(self._edges)} edges"]
        lines.extend(f"  {edge}" for edge in self._edges)
        return "\n".join(lines)
