"""Mapping chase steps to explanation templates (paper, Section 4.3).

Given the derivation spine of a fact (the materialized root-to-leaf chase
path π, e.g. π = {α, β, γ, β, γ} in Example 4.7), the composition of
explanation templates is built by:

(i)  finding the simple reasoning path Π that instantiates the highest
     number of the first chase steps, then
(ii) repeatedly adding the reasoning cycle Γ that instantiates the highest
     number of the following steps, until the leaf is reached.

"Instantiates" is checked structurally: walking the spine, a path variant
matches a segment when every step's rule belongs to the path (consumed once
each), the step's aggregation multiplicity agrees with the variant's
plain/dashed flags, and joint off-spine contributions (side branches, e.g.
the second exposure channel feeding a default) are themselves covered by
the path's rules — which is exactly what selects Γ4 = {σ5, σ6, σ7} over
Γ2 = {σ5, σ7} for a two-channel cascade step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..datalog.atoms import Fact
from ..datalog.errors import DatalogError
from ..engine.chase import ChaseStepRecord
from ..engine.provenance import DerivationSpine, SpineStep
from .paths import ReasoningPath
from .structural import StructuralAnalysis


class MappingError(DatalogError):
    """Raised when no reasoning path covers a spine segment."""


@dataclass(frozen=True, slots=True)
class SegmentMatch:
    """A reasoning-path variant matched onto spine steps [start, end).

    ``assignments`` maps each rule label of the path to the chase steps it
    explains — spine steps plus the records of covered side branches.  A
    label maps to *several* records when the same rule fired for several
    joint contributions (e.g. the two σ1 direct controls feeding the σ3
    aggregation of the paper's Figure 15); token values are then collected
    across all of them, in order.
    """

    path: ReasoningPath
    start: int
    end: int
    assignments: Mapping[str, tuple[ChaseStepRecord, ...]]

    @property
    def coverage(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"{self.path.notation()} covering steps {self.start + 1}..{self.end}"


class TemplateMapper:
    """Greedy longest-prefix composition of reasoning paths over a spine."""

    def __init__(self, analysis: StructuralAnalysis):
        self.analysis = analysis
        # Per-rule-label candidate buckets, built lazily: a variant can
        # only match at a position whose step rule belongs to it, so the
        # linear scan over *all* variants per position collapses to the
        # (usually tiny) bucket of variants containing that rule.  Pure
        # acceleration — bucket order preserves the variant enumeration
        # order, and `_prefer` breaks every tie deterministically anyway.
        self._simple_buckets: Mapping[str, tuple[ReasoningPath, ...]] | None = None
        self._cycle_buckets: Mapping[str, tuple[ReasoningPath, ...]] | None = None
        # A variant consumes at most one spine step per distinct rule, so
        # no decision at a position reads further ahead than this.
        self._horizon = max(
            (len(set(variant.labels)) for variant in analysis.all_variants),
            default=1,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def map_spine(
        self,
        spine: DerivationSpine,
        derivation: Mapping[Fact, ChaseStepRecord],
        memo: dict | None = None,
    ) -> list[SegmentMatch]:
        """Decompose the spine into adjacent reasoning-path segments.

        ``memo`` is a dict owned by one runtime binding (one fixed
        ``derivation``).  The decision at a position reads only the steps
        within the mapper's horizon and whether the position is the first
        — which its record says too: only a first step has no intensional
        parent.  So the record indices of the window are the key, and a
        spine sharing a window with one mapped before reuses the decision
        at its own offset.
        """
        steps = spine.steps
        memo = {} if memo is None else memo
        segments: list[SegmentMatch] = []
        position = 0
        while position < len(steps):
            key = tuple(
                step.record.index
                for step in steps[position:position + self._horizon]
            )
            match = memo.get(key)
            if match is None:
                match = memo[key] = self._decide(steps, position, derivation)
            elif match.start != position:
                match = replace(match, start=position, end=position + match.coverage)
            segments.append(match)
            position = match.end
        return segments

    def _decide(
        self,
        steps: Sequence[SpineStep],
        position: int,
        derivation: Mapping[Fact, ChaseStepRecord],
    ) -> SegmentMatch:
        """The longest-prefix segment starting at ``position``."""
        first = position == 0
        match = self._best_match(steps, position, derivation, simple=first)
        if match is None:
            # A fact's derivation may start from an intensional fact
            # seeded directly in the EDB: then no simple path grounds
            # it, but a cycle does — its anchor is "given".
            match = self._best_match(
                steps, position, derivation, simple=not first
            )
        if match is None:
            match = self._best_match(
                steps, position, derivation, simple=first, ignore_sides=True
            ) or self._best_match(
                steps, position, derivation, simple=not first,
                ignore_sides=True,
            )
        if match is None:
            label = steps[position].rule_label
            raise MappingError(
                f"no reasoning path of {self.analysis.program.name!r} "
                f"covers spine step {position + 1} (rule {label!r})"
            )
        return match

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _best_match(
        self,
        steps: Sequence[SpineStep],
        start: int,
        derivation: Mapping[Fact, ChaseStepRecord],
        simple: bool,
        ignore_sides: bool = False,
    ) -> SegmentMatch | None:
        candidates = self._candidates(simple, steps[start].rule_label)
        best: SegmentMatch | None = None
        for variant in candidates:
            match = self._try_match(variant, steps, start, derivation, ignore_sides)
            if match is None:
                continue
            if best is None or self._prefer(match, best):
                best = match
        return best

    def _candidates(
        self, simple: bool, label: str
    ) -> tuple[ReasoningPath, ...]:
        """The variants that contain ``label`` (the only possible matches
        at a position whose first step applies that rule)."""
        if simple:
            buckets = self._simple_buckets
            if buckets is None:
                buckets = self._bucket(self.analysis.simple_variants())
                self._simple_buckets = buckets
        else:
            buckets = self._cycle_buckets
            if buckets is None:
                buckets = self._bucket(self.analysis.cycle_variants())
                self._cycle_buckets = buckets
        return buckets.get(label, ())

    @staticmethod
    def _bucket(
        variants: Sequence[ReasoningPath],
    ) -> Mapping[str, tuple[ReasoningPath, ...]]:
        table: dict[str, list[ReasoningPath]] = {}
        for variant in variants:
            for label in dict.fromkeys(variant.labels):
                table.setdefault(label, []).append(variant)
        return {label: tuple(found) for label, found in table.items()}

    @staticmethod
    def _prefer(challenger: SegmentMatch, incumbent: SegmentMatch) -> bool:
        """Longest coverage wins; ties go to the leaner path, then to the
        deterministic name order."""
        challenger_key = (
            -challenger.coverage,
            len(challenger.path.rules),
            challenger.path.name,
        )
        incumbent_key = (
            -incumbent.coverage,
            len(incumbent.path.rules),
            incumbent.path.name,
        )
        return challenger_key < incumbent_key

    # ------------------------------------------------------------------
    # Structural matching of one variant at one position
    # ------------------------------------------------------------------
    def _try_match(
        self,
        variant: ReasoningPath,
        steps: Sequence[SpineStep],
        start: int,
        derivation: Mapping[Fact, ChaseStepRecord],
        ignore_sides: bool,
    ) -> SegmentMatch | None:
        remaining = set(variant.labels)
        assignments: dict[str, tuple[ChaseStepRecord, ...]] = {}
        position = start
        while position < len(steps) and remaining:
            step = steps[position]
            if step.rule_label not in remaining:
                break
            if variant.is_multi(step.rule_label) != step.multi_contributor:
                break
            remaining.discard(step.rule_label)
            assignments[step.rule_label] = (step.record,)
            if not self._absorb_side_branches(
                step, variant, remaining, assignments, derivation, ignore_sides
            ):
                return None
            position += 1
        if remaining or position == start:
            return None
        return SegmentMatch(
            path=variant, start=start, end=position, assignments=assignments
        )

    def _absorb_side_branches(
        self,
        step: SpineStep,
        variant: ReasoningPath,
        remaining: set[str],
        assignments: dict[str, tuple[ChaseStepRecord, ...]],
        derivation: Mapping[Fact, ChaseStepRecord],
        ignore_sides: bool,
    ) -> bool:
        """Account for the off-spine intensional parents of a step.

        Each side branch's deriving rule must be part of the path (a joint
        path such as Γ4) — otherwise the variant does not tell the whole
        story of this step and is rejected.  Two exemptions: side parents
        matching a cycle's anchor predicate are "given" by definition (the
        cycle assumes the critical node's facts as premises), and
        ``ignore_sides`` relaxes the requirement entirely (fallback mode).
        """
        for parent in step.record.parents:
            if parent == step.spine_parent:
                continue
            record = derivation.get(parent)
            if record is None:
                continue  # extensional side input, no story needed
            side_label = record.rule_label
            if variant.is_cycle and parent.predicate == variant.anchor:
                # The anchor's facts are the cycle's premises: they carry
                # their own stories (covered by earlier segments or by
                # side-branch recursion), never merged into this one.
                continue
            if side_label in remaining:
                remaining.discard(side_label)
                assignments[side_label] = (record,)
            elif side_label in assignments:
                if record in assignments[side_label]:
                    continue
                # The same rule fired again for a joint contribution:
                # merge, so every instantiation of it reaches the text —
                # but only when the already-assigned records feed this
                # very step too (the Figure 15 pattern of two σ1 controls
                # jointly entering one σ3 aggregation).  A same-label
                # record feeding a *different* step tells a separate
                # story and must not pollute shared tokens.
                co_parents = all(
                    existing.fact in step.record.parents
                    for existing in assignments[side_label]
                )
                if co_parents:
                    assignments[side_label] = assignments[side_label] + (record,)
                elif not ignore_sides:
                    return False
            elif ignore_sides:
                continue
            else:
                return False
        return True

