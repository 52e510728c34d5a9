"""The runtime layer: from explanation query to final text.

The explanation stack is split in two, mirroring the paper's Figure 2:

* the **compile layer** (:mod:`repro.core.compiler`) runs the
  database-independent phase — structural analysis, template generation,
  optional LLM enhancement — once per program, producing a
  :class:`~repro.core.compiler.CompiledProgram`;
* the **runtime layer** (this module) binds one compiled artifact to one
  :class:`~repro.engine.reasoning.ReasoningResult` and answers per-query
  work: derivation-spine extraction, greedy mapping of chase steps to
  reasoning paths, template instantiation, concatenation.

The result carries the text plus full metadata — which paths explained
which steps, which constants were substituted — so that completeness can
be audited mechanically (and is, in the benchmarks).

As an extension beyond the paper's single source-to-leaf path, the
explainer can recursively cover *side branches*: derived facts feeding the
spine whose own stories are not on it (e.g. a second, independently
shocked debtor).  This keeps explanations complete for arbitrary proof
DAGs and is on by default.

For the legacy one-shot call ``Explainer(result, glossary, llm=...)``
still compiles on the fly; pass ``compiled=`` (or go through
:class:`~repro.core.service.ExplanationService`) to reuse one artifact
across many instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from json import dumps
from json.encoder import encode_basestring
from typing import Mapping, Sequence

from ..datalog.atoms import Fact
from ..datalog.errors import NotDerived
from ..engine.chase import ChaseStepRecord
from ..engine.provenance import DerivationSpine
from ..engine.provenance_index import ProvenanceIndex
from ..engine.reasoning import ReasoningResult
from .cache import DEFAULT_EXPLANATION_CACHE_SIZE, LRUCache
from .compiler import CompiledProgram, compile_program
from .enhancer import EnhancementReport, SupportsComplete
from .glossary import DomainGlossary
from .mapping import SegmentMatch, TemplateMapper
from .structural import StructuralAnalysis
from .templates import ExplanationTemplate, InstantiatedExplanation, TemplateStore
from .verbalizer import Verbalizer

#: Distinguishes cache entries of different runtime bindings inside a
#: shared LRU (two bindings may explain equal facts of different
#: instances; ``id()`` is unsafe across garbage collection).
_BINDING_IDS = count(1)


def json_escaped(text: str) -> bytes:
    """``text`` as the inside of a JSON string, in UTF-8: escaped as
    ``json.dumps(text, ensure_ascii=False)`` escapes it, without the
    quotes.  Escaping works one code point at a time and leaves a space
    alone, so the escape of a space-joined text is the space-joined
    escapes of its parts."""
    return encode_basestring(text)[1:-1].encode("utf-8")


@dataclass(frozen=True, slots=True)
class Explanation:
    """A generated textual explanation with its full provenance.

    The binding keeps one per fact and options asked at the top level,
    and returns it on every later ask.  It keeps no joined text:
    :attr:`text` is joined from the segments on each read, and the
    serving layer joins a response body from :attr:`fragments` and
    :attr:`paths_json` instead (:mod:`repro.serve.protocol`).
    """

    query: Fact
    spine: DerivationSpine
    segments: tuple[SegmentMatch, ...]
    instantiations: tuple[InstantiatedExplanation, ...]
    side_explanations: tuple["Explanation", ...] = ()
    #: :meth:`paths_used`, computed once with the composition.
    paths: tuple[str, ...] = field(kw_only=True, compare=False, repr=False)
    #: Each segment's :func:`json_escaped` text in text order (side
    #: branches first, recursively): ``b" ".join`` of them is the
    #: escaped :attr:`text`.
    fragments: tuple[bytes, ...] = field(
        kw_only=True, compare=False, repr=False
    )
    #: :attr:`paths` as a JSON array, encoded once.
    paths_json: bytes = field(kw_only=True, compare=False, repr=False)

    def __hash__(self) -> int:
        # The derived hash would hash ``segments``, whose matches hold
        # dicts.  Equal explanations have equal queries, so this agrees
        # with ``==``.
        return hash(self.query)

    @property
    def text(self) -> str:
        """The side branches' texts, then the spine's segments', joined
        by one space."""
        parts = [side.text for side in self.side_explanations]
        parts.extend(instance.text for instance in self.instantiations)
        return " ".join(parts)

    def paths_used(self) -> tuple[str, ...]:
        """Names of the reasoning paths composing this explanation, e.g.
        ``("Pi2", "Gamma3", "Gamma4")`` — cf. Section 5's {Π7, Γ3, Γ4}:
        the side branches' paths, then the spine's."""
        return self.paths

    def constants(self) -> frozenset[str]:
        """Every constant substituted into the text (tokens' values)."""
        mentioned = frozenset(
            value
            for instance in self.instantiations
            for values in instance.token_values.values()
            for value in values
        )
        for side in self.side_explanations:
            mentioned |= side.constants()
        return mentioned

    def to_dict(self) -> dict:
        """A JSON-serializable audit record of this explanation.

        Captures the query, the text, the chase path π, the reasoning-path
        composition (with aggregation-variant flags) and every token
        substitution — everything an auditor needs to retrace the
        derivation without re-running the system.
        """
        return {
            "query": str(self.query),
            "text": self.text,
            "chase_path": list(self.spine.rule_sequence),
            "segments": [
                {
                    "path": segment.path.name,
                    "rules": list(segment.path.labels),
                    "multi_rules": sorted(segment.path.multi_rules),
                    "steps": [segment.start + 1, segment.end],
                }
                for segment in self.segments
            ],
            "tokens": [
                {token: list(values) for token, values in instance.token_values.items()}
                for instance in self.instantiations
            ],
            "side_explanations": [
                side.to_dict() for side in self.side_explanations
            ],
        }

    def __str__(self) -> str:
        return self.text


class Explainer:
    """Per-instance runtime binding of a compiled program.

    Binds one :class:`~repro.core.compiler.CompiledProgram` to one
    reasoning result (one deployed KG application over one instance) and
    serves explanation queries off it.  When no pre-compiled artifact is
    supplied the constructor compiles on the fly, which keeps the
    historical one-object API working — but then the compile work is paid
    per instance; services should compile once and share.
    """

    def __init__(
        self,
        result: ReasoningResult,
        glossary: DomainGlossary | None = None,
        llm: SupportsComplete | None = None,
        enhanced_versions: int = 1,
        *,
        compiled: CompiledProgram | None = None,
        cache: LRUCache | None = None,
    ):
        if compiled is None:
            if glossary is None:
                raise ValueError(
                    "Explainer needs either a glossary (to compile on the "
                    "fly) or a pre-compiled program"
                )
            compiled = compile_program(
                result.program, glossary, llm=llm,
                enhanced_versions=enhanced_versions,
            )
        elif compiled.program != result.program:
            raise ValueError(
                f"compiled program {compiled.program.name!r} does not match "
                f"the reasoning result's program {result.program.name!r}"
            )
        self.compiled = compiled
        self.result = result
        self.glossary = compiled.glossary
        self.verbalizer = compiled.verbalizer
        # The why() sentences and violation reports are memoized in
        # regions of a bounded LRU, which the service layer shares across
        # bindings; the binding id keeps entries of different instances
        # apart.  The "explain" region stores nothing: it counts the
        # lookups of the composition memo below, which answers explain().
        self._binding_id = next(_BINDING_IDS)
        self._cache = (
            cache if cache is not None
            else LRUCache(DEFAULT_EXPLANATION_CACHE_SIZE)
        )
        self._explain_region = self._cache.region("explain")
        self._why_region = self._cache.region("why")
        self._violation_region = self._cache.region("violation")
        # Entries are scoped by the binding id (instance identity — two
        # bindings may explain equal facts of different instances) AND
        # the compile fingerprint, so a key says exactly which program
        # artifact and which materialized instance produced the text.
        self._memo_scope = (self._binding_id, compiled.fingerprint)
        # Record-keyed memos living exactly as long as this binding: one
        # mapping memo per mapper (see TemplateMapper.map_spine) and the
        # rendered segments with their JSON-escaped bytes, keyed by
        # everything a segment's text is a function of.  Neither evicts;
        # both are bounded by the chase records times the mapper's
        # horizon (times the presentation options for segments).
        self._mapping_memos: dict[TemplateMapper, dict] = {}
        self._segment_memo: dict[tuple, tuple[InstantiatedExplanation, bytes]] = {}
        # Top-level compositions (their explanations), keyed (head
        # record index, options): every explain() after the first of a
        # fact is one lookup.  Bounded by records times option sets; an
        # entry holds no joined text, only references, its fragment
        # tuple and its encoded paths.
        self._compositions: dict[tuple, Explanation] = {}

    # ------------------------------------------------------------------
    # Compiled-artifact views (stable public surface)
    # ------------------------------------------------------------------
    @property
    def analysis(self) -> StructuralAnalysis:
        return self.compiled.analysis

    @property
    def store(self) -> TemplateStore:
        return self.compiled.store

    @property
    def mapper(self) -> TemplateMapper:
        return self.compiled.mapper

    @property
    def enhancement_report(self) -> EnhancementReport | None:
        return self.compiled.enhancement_report

    def _pipeline_for(self, predicate: str) -> tuple[TemplateStore, TemplateMapper]:
        """The (store, mapper) pair able to explain facts of ``predicate``
        (delegated to the compiled artifact, shared across bindings)."""
        pipeline = self.compiled.pipeline_for(predicate)
        return pipeline.store, pipeline.mapper

    @property
    def index(self) -> ProvenanceIndex:
        """The per-session provenance index (built once per result)."""
        return self.result.index

    @property
    def memo_scope(self) -> tuple:
        """The prefix identifying this (instance, artifact) binding in
        the shared cache — service layers reuse it to scope their own
        memo entries (e.g. why-not answers) to this binding."""
        return self._memo_scope

    # ------------------------------------------------------------------
    # Explanation queries
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Fact,
        prefer_enhanced: bool = True,
        variant_index: int = 0,
        include_side_branches: bool = True,
    ) -> Explanation:
        """Answer the explanation query Q_e = {``query``}.

        Raises :class:`NotDerived` (a ``KeyError``) for a fact the chase
        did not derive.  A top-level composition starts from an empty
        ``visited`` set, so it is a pure function of the deriving record
        and the options: the explanation is kept per (record index,
        options) for the binding's lifetime, and every later explain of
        the fact returns it after one lookup.  The ``explain`` region
        counts those lookups.  Side branches are kept only inside the
        explanations that narrate them: they recurse through
        :meth:`_compose`, whose spines, mappings and rendered segments
        are memoized below it.
        """
        try:
            record = self.result.index.record(query)
        except NotDerived:
            program = self.result.program
            if query.predicate not in program.schema:
                # Raises the goal-predicate ArityError: a predicate the
                # program lacks is a bad question, not a missing fact.
                program.with_goal(query.predicate)
            raise
        key = (record.index, prefer_enhanced, variant_index, include_side_branches)
        explanation = self._compositions.get(key)
        self._explain_region.count(explanation is not None)
        if explanation is None:
            # Two threads missing at once both compose; one result is kept.
            explanation = self._compositions.setdefault(key, self._compose(
                query, prefer_enhanced, variant_index, include_side_branches,
                visited=set(),
            ))
        return explanation

    def _compose(
        self,
        query: Fact,
        prefer_enhanced: bool,
        variant_index: int,
        include_side_branches: bool,
        visited: set[Fact],
    ) -> Explanation:
        visited.add(query)
        store, mapper = self._pipeline_for(query.predicate)
        spine = self.result.index.spine(query)
        segments = tuple(mapper.map_spine(
            spine, self.result.chase_result.derivation,
            self._mapping_memos.setdefault(mapper, {}),
        ))
        side_explanations: tuple[Explanation, ...] = ()
        if include_side_branches:
            side_explanations = self._explain_side_branches(
                segments, prefer_enhanced, variant_index, visited
            )
        rendered = [
            self._instantiate(
                store.get(segment.path), segment.assignments,
                prefer_enhanced, variant_index,
            )
            for segment in segments
        ]
        paths = tuple(
            name for side in side_explanations for name in side.paths
        ) + tuple(segment.path.name for segment in segments)
        fragments = tuple(chain.from_iterable(
            side.fragments for side in side_explanations
        )) + tuple(escaped for _instance, escaped in rendered)
        return Explanation(
            query, spine, segments,
            tuple(instance for instance, _escaped in rendered),
            side_explanations,
            paths=paths, fragments=fragments,
            paths_json=dumps(list(paths), ensure_ascii=False).encode("utf-8"),
        )

    def _instantiate(
        self,
        template: ExplanationTemplate,
        assignments: Mapping[str, tuple[ChaseStepRecord, ...]],
        prefer_enhanced: bool,
        variant_index: int,
    ) -> tuple[InstantiatedExplanation, bytes]:
        """``template.instantiate`` and its :func:`json_escaped` text,
        memoized per binding: a segment is rendered and escaped once for
        every fact whose proof contains it.

        The text reads only the template, the two presentation options and
        the assigned records, so those are the key.  ``id(template)`` is
        safe: the memoized value holds the template alive.
        """
        key = (
            id(template), prefer_enhanced, variant_index,
            tuple(
                (label, tuple(record.index for record in records))
                for label, records in assignments.items()
            ),
        )
        entry = self._segment_memo.get(key)
        if entry is None:
            rendered = template.instantiate(
                assignments, prefer_enhanced, variant_index
            )
            entry = self._segment_memo[key] = (
                rendered, json_escaped(rendered.text)
            )
        return entry

    def _explain_side_branches(
        self,
        segments: Sequence[SegmentMatch],
        prefer_enhanced: bool,
        variant_index: int,
        visited: set[Fact],
    ) -> tuple[Explanation, ...]:
        """Recursively explain derived facts that feed the mapped segments
        but whose own derivations are not covered by them.  The recursion
        shares the caller's ``visited`` set and is memoized nowhere above
        the spine, mapping and segment memos."""
        covered = {
            record.fact
            for segment in segments
            for records in segment.assignments.values()
            for record in records
        }
        derivation = self.result.chase_result.derivation
        sides: list[Explanation] = []
        for segment in segments:
            for records in segment.assignments.values():
                for record in records:
                    for parent in record.parents:
                        needs_story = (
                            parent in derivation
                            and parent not in covered
                            and parent not in visited
                        )
                        if needs_story:
                            sides.append(self._compose(
                                parent, prefer_enhanced, variant_index,
                                include_side_branches=True, visited=visited,
                            ))
        return tuple(sides)

    # ------------------------------------------------------------------
    # Interactive drill-down
    # ------------------------------------------------------------------
    def why(self, query: Fact) -> str:
        """One-step drill-down: the single chase step deriving ``query``.

        Where :meth:`explain` tells the whole story, ``why`` answers the
        interactive "and where does *this* come from?" click on a derived
        edge (the KG-Roar-style interaction of the paper's reference
        [10]): the applied rule verbalized with the actual premises.
        """
        index = self.result.index
        record = index.record(query)
        return self._why_region.get_or_create(
            (self._memo_scope, index.fact_key(query)),
            lambda: self.verbalizer.step_sentence(record),
        )

    # ------------------------------------------------------------------
    # Constraint violations
    # ------------------------------------------------------------------
    def explain_violation(
        self,
        violation,
        prefer_enhanced: bool = True,
        include_side_branches: bool = True,
    ) -> str:
        """A textual report for a negative-constraint violation.

        The witnesses' own derivations are explained first (when they are
        intensional), then the violated condition is stated — giving the
        compliance officer the full story behind the ⊥.  Reports are
        memoized per (binding, constraint, witnesses, options), and the
        witness stories go through the memoized serving path, so repeated
        compliance checks over one session cost one rendering.
        """
        key = (
            self._memo_scope, violation.constraint.label,
            violation.witnesses, prefer_enhanced, include_side_branches,
        )
        return self._violation_region.get_or_create(
            key,
            lambda: self._explain_violation(
                violation, prefer_enhanced, include_side_branches
            ),
        )

    def _explain_violation(
        self,
        violation,
        prefer_enhanced: bool,
        include_side_branches: bool,
    ) -> str:
        index = self.result.index
        parts: list[str] = []
        for witness in violation.witnesses:
            if index.is_derived(witness):
                story = self.explain(
                    witness, prefer_enhanced=prefer_enhanced,
                    include_side_branches=include_side_branches,
                )
                parts.append(story.text)
        witness_texts = ", and ".join(
            self.verbalizer.ground_atom_text(witness)
            for witness in violation.witnesses
        )
        parts.append(
            f"This violates constraint {violation.constraint.label}: "
            f"{witness_texts} must not hold together."
        )
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Baseline: deterministic instance verbalization
    # ------------------------------------------------------------------
    def deterministic_explanation(self, query: Fact) -> str:
        """The plain proof-to-text conversion of the whole derivation —
        verbose and repetitive, but trivially complete.  This is the input
        handed to the pure-LLM baselines in the paper's experiments."""
        records = self.result.index.proof_records(query)
        return self.verbalizer.proof_text(records)

    def proof_constants(self, query: Fact) -> tuple[str, ...]:
        """Ground truth for completeness checks (Section 6.3).

        Served from the provenance index, which memoizes the proof-DAG
        walk per fact — repeated audits of one session are O(1).
        """
        return self.result.index.proof_constants(query)
