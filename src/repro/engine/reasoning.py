"""Reasoning tasks: the user-facing query API over program + database.

A reasoning task is a pair Q = (Σ, Ans) evaluated over a database D (paper,
Section 3).  :func:`reason` runs the chase and returns a
:class:`ReasoningResult` bundling the materialized instance with its chase
graph and provenance index — everything the explanation pipeline needs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ..datalog.atoms import Atom, Fact
from ..datalog.program import Program
from ..datalog.unify import match_atom
from .chase import ChaseResult, chase
from .chase_graph import ChaseGraph
from .database import Database
from .provenance import DerivationSpine
from .provenance_index import ProvenanceIndex


@dataclass
class ReasoningResult:
    """A materialized reasoning task with provenance attached."""

    program: Program
    chase_result: ChaseResult

    # ------------------------------------------------------------------
    # Derived views (built lazily, cached)
    # ------------------------------------------------------------------
    @cached_property
    def graph(self) -> ChaseGraph:
        return ChaseGraph(self.chase_result)

    @cached_property
    def index(self) -> ProvenanceIndex:
        """The indexed provenance structure, built once per result.

        Everything the explanation stack asks repeatedly — derivation
        records, intensional parents, depths, spines, proof DAGs — is
        answered from this index; a re-reasoned
        session gets a fresh result and therefore a fresh index.
        """
        return ProvenanceIndex(self.chase_result)

    @property
    def database(self) -> Database:
        return self.chase_result.database

    def updated(
        self,
        new_chase_result: ChaseResult,
        touched: frozenset[Fact] | None = None,
    ) -> "ReasoningResult":
        """The result of an incrementally updated chase, leaving this one
        untouched for the readers still holding it.

        The chase graph is a thin wrapper and is rebuilt lazily; the
        provenance index — the expensive view — is carried over as a copy
        rebound via :meth:`ProvenanceIndex.rebind`, which patches only the
        forward closure of ``touched`` (the update's changed facts), so
        memoized spines and proof DAGs outside it survive the update.
        After a full re-chase (``touched`` is ``None``) it is rebuilt.
        """
        successor = ReasoningResult(self.program, new_chase_result)
        if "index" in self.__dict__:
            if touched is None:
                successor.index  # built now, not on the first read
            else:
                successor.__dict__["index"] = copy.copy(self.index)
                successor.index.rebind(new_chase_result, touched)
        return successor

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def answers(self, predicate: str | None = None) -> tuple[Fact, ...]:
        """The facts of the goal predicate (or of ``predicate`` if given),
        excluding superseded partial aggregates."""
        target = predicate or self.program.goal
        if target is None:
            raise ValueError("no goal predicate set and none supplied")
        return self.chase_result.facts(target)

    def query(self, pattern: Atom) -> tuple[Fact, ...]:
        """All active facts matching a (possibly non-ground) atom pattern."""
        matches = []
        for candidate in self.chase_result.facts(pattern.predicate):
            if match_atom(pattern, candidate) is not None:
                matches.append(candidate)
        return tuple(matches)

    def derived(self) -> tuple[Fact, ...]:
        """Every fact produced by a chase step, in derivation order."""
        return self.chase_result.derived_facts()

    @property
    def violations(self):
        """Negative-constraint violations found in the final instance."""
        return tuple(self.chase_result.violations)

    def spine(self, target: Fact) -> DerivationSpine:
        """Root-to-leaf derivation path for ``target`` (see provenance)."""
        return self.index.spine(target)

    def proof_size(self, target: Fact) -> int:
        return self.index.proof_size(target)

    def describe(self) -> str:
        derived = self.derived()
        lines = [
            f"Reasoning task over {self.program.name!r}: "
            f"{len(derived)} derived facts in {self.chase_result.rounds} rounds"
        ]
        lines.extend(f"  {fact}" for fact in derived)
        return "\n".join(lines)


def reason(
    program: Program,
    database: Database | Iterable[Fact],
    max_rounds: int = 10_000,
    strategy: str = "planned",
) -> ReasoningResult:
    """Run the reasoning task (Σ, goal) over ``database``.

    Accepts either a :class:`Database` or any iterable of facts.
    ``strategy`` selects the planned engine (compiled join plans) or
    its naive oracle — same result and provenance, different join work;
    see :class:`~repro.engine.chase.ChaseEngine`.
    """
    if not isinstance(database, Database):
        database = Database(database)
    result = chase(program, database, max_rounds=max_rounds, strategy=strategy)
    return ReasoningResult(program=program, chase_result=result)
