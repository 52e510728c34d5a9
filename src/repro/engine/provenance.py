"""Proof extraction: derivation spines and chase-step sequences.

The template mapping of Section 4.3 works on "the ordered set of activated
rules" along a materialized source-to-leaf path of the chase graph — e.g.
π = {α, β, γ, β, γ} in Example 4.7.  This module recovers that object from
the provenance records:

* the **proof DAG** of a fact is the set of chase steps it transitively
  depends on;
* the **derivation spine** is the distinguished root-to-leaf path through
  the proof: at every step we follow the *deepest* intensional parent (the
  longest sub-derivation), which matches the paper's reading of a chase
  path as the principal story, with the remaining intensional parents
  recorded as *side branches* (they matter for selecting joint-channel
  reasoning paths such as Π9 or Γ4 of the stress test).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Fact
from ..datalog.errors import NotDerived
from .chase import ChaseResult, ChaseStepRecord


@dataclass(frozen=True, slots=True)
class SpineStep:
    """One step of a derivation spine.

    Attributes
    ----------
    record:
        The underlying chase step.
    spine_parent:
        The intensional parent the spine continues from (``None`` for the
        first step, whose intensional inputs are all extensional).
    side_rules:
        Labels of the rules that derived the *other* intensional parents
        of this step (joint contributions from off-spine branches).
    multi_contributor:
        Whether this step's aggregation combined several inputs — the
        trigger for "dashed" reasoning-path variants.
    """

    record: ChaseStepRecord
    spine_parent: Fact | None
    side_rules: tuple[str, ...]
    multi_contributor: bool

    @property
    def rule_label(self) -> str:
        return self.record.rule_label

    @property
    def fact(self) -> Fact:
        return self.record.fact

    def __str__(self) -> str:
        flags = []
        if self.multi_contributor:
            flags.append("multi")
        if self.side_rules:
            flags.append(f"side={','.join(self.side_rules)}")
        suffix = f" ({'; '.join(flags)})" if flags else ""
        return f"{self.rule_label}: {self.fact}{suffix}"


@dataclass(frozen=True)
class DerivationSpine:
    """The root-to-leaf chase path explaining a fact.

    ``steps`` are ordered from the first derivation (a root-adjacent step
    such as the initial shock default) to the step deriving the target.
    ``rule_sequence`` is the paper's π notation.
    """

    target: Fact
    steps: tuple[SpineStep, ...]

    @property
    def rule_sequence(self) -> tuple[str, ...]:
        return tuple(step.rule_label for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        lines = [f"Derivation spine of {self.target}:"]
        lines.extend(f"  {index + 1}. {step}" for index, step in enumerate(self.steps))
        return "\n".join(lines)


class ProvenanceTracker:
    """Extracts proofs and spines from a :class:`ChaseResult` by walking
    the chase records afresh on every call.

    The production path answers these queries from the memoized
    :class:`~repro.engine.provenance_index.ProvenanceIndex`; the tracker
    is the unindexed reference walk that index is tested against.
    """

    def __init__(self, result: ChaseResult):
        self.result = result
        self._intensional = result.program.intensional_predicates()
        self._depths: dict[Fact, int] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _intensional_parents(self, record: ChaseStepRecord) -> tuple[Fact, ...]:
        return tuple(
            parent for parent in record.parents
            if parent.predicate in self._intensional
            and parent in self.result.derivation
        )

    def depth(self, current: Fact) -> int:
        """Length of the longest derivation chain below ``current``."""
        depth = self._depths.get(current)
        if depth is None:
            record = self.result.derivation.get(current)
            depth = self._depths[current] = 0 if record is None else 1 + max(
                map(self.depth, self._intensional_parents(record)), default=0
            )
        return depth

    # ------------------------------------------------------------------
    # Proof DAG
    # ------------------------------------------------------------------
    def proof_records(self, target: Fact) -> list[ChaseStepRecord]:
        """All chase steps in the proof of ``target``, in chase order."""
        collected: dict[Fact, ChaseStepRecord] = {}
        frontier = [target]
        while frontier:
            current = frontier.pop()
            record = self.result.derivation.get(current)
            if record is None or current in collected:
                continue
            collected[current] = record
            frontier.extend(record.parents)
        rank = self.result.database.sequence
        return [collected[fact] for fact in sorted(collected, key=rank)]

    def proof_size(self, target: Fact) -> int:
        """Number of chase steps in the proof (Figures 17/18 x axis)."""
        return len(self.proof_records(target))

    def proof_constants(self, target: Fact) -> tuple[str, ...]:
        """The distinct constants appearing in the proof of ``target``.

        This is the ground truth for the completeness measurements of
        Section 6.3: an explanation is complete when it mentions all of
        them.
        """
        seen: dict[str, None] = {}
        for record in self.proof_records(target):
            for parent in record.parents:
                for constant in parent.constants():
                    seen.setdefault(str(constant), None)
            for constant in record.fact.constants():
                seen.setdefault(str(constant), None)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Spine
    # ------------------------------------------------------------------
    def spine(self, target: Fact) -> DerivationSpine:
        """The root-to-leaf derivation path for ``target``.

        Raises :class:`NotDerived` (a ``KeyError``) when ``target`` is
        extensional (nothing to explain: it was given, not derived).
        """
        if target not in self.result.derivation:
            raise NotDerived(target)
        reversed_steps: list[SpineStep] = []
        current: Fact | None = target
        while current is not None:
            record = self.result.derivation[current]
            parents = self._intensional_parents(record)
            if parents:
                spine_parent = max(
                    parents, key=lambda p: (self.depth(p), -record.parents.index(p))
                )
                side = tuple(
                    self.result.derivation[p].rule_label
                    for p in parents if p != spine_parent
                )
            else:
                spine_parent = None
                side = ()
            reversed_steps.append(
                SpineStep(
                    record=record,
                    spine_parent=spine_parent,
                    side_rules=side,
                    multi_contributor=record.multi_contributor,
                )
            )
            current = spine_parent
        return DerivationSpine(target=target, steps=tuple(reversed(reversed_steps)))
