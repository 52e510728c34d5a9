"""Explanation templates and their instantiation.

An *explanation template* (paper, Section 4.2) is the verbalization of a
reasoning path: fluent text containing ``<tokens>`` that map back to the
path rules' variables.  Given a concrete derivation, an instantiated
explanation is obtained by replacing each token with the constants bound by
the corresponding chase steps — possibly several constants joined by a
textual conjunction when an aggregation combined multiple contributors.

The :class:`TemplateStore` holds one template per aggregation variant of
every reasoning path, each carrying:

* the deterministic text (always available, omission-free by construction);
* zero or more *enhanced* texts produced by an LLM and validated by the
  token-presence guard (Section 4.4) — interchangeable enriched versions;
* a review flag supporting the once-for-all human-in-the-loop check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..datalog.errors import DatalogError
from ..datalog.terms import Constant, Variable
from ..engine.chase import ChaseStepRecord
from .glossary import DomainGlossary
from .paths import ReasoningPath
from .structural import StructuralAnalysis
from .verbalizer import PathTokenMap, Verbalizer, render_constant

_TOKEN_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")


class TemplateError(DatalogError):
    """Raised when a template cannot be built or instantiated."""


def extract_tokens(text: str) -> frozenset[str]:
    """The set of ``<token>`` names occurring in a template text."""
    return frozenset(_TOKEN_RE.findall(text))


def join_values(values: Sequence[str]) -> str:
    """Textual conjunction: ``a`` / ``a and b`` / ``a, b and c``."""
    if not values:
        raise TemplateError("cannot render a token with no values")
    if len(values) == 1:
        return values[0]
    return ", ".join(values[:-1]) + " and " + values[-1]


@dataclass(frozen=True, slots=True)
class InstantiatedExplanation:
    """The result of substituting constants into a template."""

    text: str
    template: "ExplanationTemplate"
    token_values: Mapping[str, tuple[str, ...]]

    def constants(self) -> frozenset[str]:
        """Every constant value mentioned through token substitution."""
        return frozenset(
            value for values in self.token_values.values() for value in values
        )


@dataclass
class ExplanationTemplate:
    """A template for one reasoning-path variant."""

    path: ReasoningPath
    deterministic_text: str
    tokens: PathTokenMap
    enhanced_texts: list[str] = field(default_factory=list)
    approved: bool = False

    # ------------------------------------------------------------------
    # Text selection
    # ------------------------------------------------------------------
    @property
    def token_names(self) -> frozenset[str]:
        return self.tokens.tokens()

    def text(self, prefer_enhanced: bool = True, variant_index: int = 0) -> str:
        """The template text: an enhanced version when available and
        requested, the deterministic verbalization otherwise."""
        if prefer_enhanced and self.enhanced_texts:
            return self.enhanced_texts[variant_index % len(self.enhanced_texts)]
        return self.deterministic_text

    def add_enhanced(self, text: str) -> None:
        """Register an enhanced version (caller must have run the token
        guard; see :mod:`repro.core.enhancer`)."""
        self.enhanced_texts.append(text)

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def token_values_for(
        self, assignments: Mapping[str, Sequence[ChaseStepRecord] | ChaseStepRecord]
    ) -> dict[str, tuple[str, ...]]:
        """Resolve every token to its constant value(s) from the chase
        steps assigned to the path's rules.

        A rule label may be assigned several records (the same rule fired
        for several joint contributions); values are collected across all
        of them in assignment order, which keeps parallel multi-valued
        tokens aligned ("FondoItaliano and FrenchPLC ... 0.36 and 0.21").
        """
        collected: dict[str, list[str]] = {}
        for (label, variable_name), token in self.tokens.items():
            assigned = assignments.get(label)
            if assigned is None:
                raise TemplateError(
                    f"no chase step assigned to rule {label!r} of path "
                    f"{self.path.name or self.path.labels}"
                )
            records = (
                (assigned,) if isinstance(assigned, ChaseStepRecord) else assigned
            )
            bucket = collected.setdefault(token, [])
            for record in records:
                values, enumerated = self._variable_values(record, variable_name)
                if enumerated:
                    # One value per contributor, duplicates included: the
                    # enumeration must stay parallel to its sibling tokens
                    # ("0.22, 0.22 and 0.22" sums to the stated total).
                    bucket.extend(values)
                else:
                    for value in values:
                        if value not in bucket:
                            bucket.append(value)
        return {
            token: self._finalize_bucket(values)
            for token, values in collected.items()
        }

    @staticmethod
    def _finalize_bucket(values: list[str]) -> tuple[str, ...]:
        """Collapse an all-equal enumeration ("B and B defaults" never
        reads well); mixed enumerations keep their parallel order."""
        if len(set(values)) == 1:
            return (values[0],)
        return tuple(values)

    def _variable_values(
        self, record: ChaseStepRecord, variable_name: str
    ) -> tuple[list[str], bool]:
        """Values of one rule variable in one chase step.

        Returns ``(values, enumerated)``: ``enumerated`` is ``True`` when
        the values run over the contributors of a multi-input aggregation
        — one value per contributor, duplicates preserved, order shared
        with every other contributor-varying token of the record.
        """
        variable = Variable(variable_name)
        rule = record.rule
        aggregate = rule.aggregate
        if aggregate is not None and variable == aggregate.result:
            return [self._render(record.binding[variable])], False
        if record.contributors:
            if variable in record.binding:
                # Grouping (and post-condition) variables are constant
                # within the aggregate's group.
                return [self._render(record.binding[variable])], False
            values = [
                self._render(contribution.binding[variable])
                for contribution in record.contributors
                if variable in contribution.binding
            ]
            if values:
                return values, len(record.contributors) > 1
            raise TemplateError(
                f"variable {variable_name!r} of rule {rule.label} is unbound "
                "in the aggregate chase step"
            )
        bound = record.binding.get(variable)
        if bound is None:
            raise TemplateError(
                f"variable {variable_name!r} of rule {rule.label} is unbound "
                "in the chase step"
            )
        return [self._render(bound)], False

    @staticmethod
    def _render(term: object) -> str:
        if isinstance(term, Constant):
            return render_constant(term)
        return str(term)

    def instantiate(
        self,
        assignments: Mapping[str, Sequence[ChaseStepRecord] | ChaseStepRecord],
        prefer_enhanced: bool = True,
        variant_index: int = 0,
    ) -> InstantiatedExplanation:
        """Produce the final text for a concrete derivation segment."""
        token_values = self.token_values_for(assignments)
        text = self.text(prefer_enhanced, variant_index)

        def substitute(match: re.Match[str]) -> str:
            token = match.group(1)
            values = token_values.get(token)
            if values is None:
                raise TemplateError(
                    f"template for {self.path.name or self.path.labels} "
                    f"mentions unknown token <{token}>"
                )
            return join_values(list(values))

        return InstantiatedExplanation(
            text=_TOKEN_RE.sub(substitute, text),
            template=self,
            token_values=token_values,
        )

    def __str__(self) -> str:
        return f"Template[{self.path.notation()}]"


class TemplateStore:
    """All explanation templates of a program, keyed by path variant.

    Built once per deployed KG application (the paper's "once-for-all"
    pre-computation); enhancement and review happen against this store.
    """

    def __init__(self, analysis: StructuralAnalysis, glossary: DomainGlossary):
        glossary.validate_against(analysis.program)
        self.analysis = analysis
        self.glossary = glossary
        self.verbalizer = Verbalizer(glossary)
        self._templates: dict[tuple[str, frozenset[str]], ExplanationTemplate] = {}
        for variant in analysis.all_variants:
            text, tokens = self.verbalizer.path_text(variant)
            template = ExplanationTemplate(
                path=variant, deterministic_text=text, tokens=tokens
            )
            self._templates[self._key(variant)] = template

    @staticmethod
    def _key(path: ReasoningPath) -> tuple[str, frozenset[str]]:
        return (path.name, path.multi_rules)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, path: ReasoningPath) -> ExplanationTemplate:
        template = self._templates.get(self._key(path))
        if template is None:
            raise TemplateError(
                f"no template for path variant {path.notation()}"
            )
        return template

    def templates(self) -> tuple[ExplanationTemplate, ...]:
        return tuple(self._templates.values())

    def __len__(self) -> int:
        return len(self._templates)

    # ------------------------------------------------------------------
    # Review workflow (Section 4.4, human-in-the-loop)
    # ------------------------------------------------------------------
    def pending_review(self) -> tuple[ExplanationTemplate, ...]:
        return tuple(t for t in self._templates.values() if not t.approved)

    def approve_all(self) -> None:
        for template in self._templates.values():
            template.approved = True

    def describe(self) -> str:
        lines = [f"Template store for {self.analysis.program.name!r}:"]
        for template in self._templates.values():
            enhanced = len(template.enhanced_texts)
            lines.append(
                f"  {template.path.notation()}: "
                f"{len(template.token_names)} tokens, "
                f"{enhanced} enhanced version(s)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence of the once-for-all pre-computation (Section 4.4)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serialize the reviewed enhancement state.

        The deterministic templates are pure functions of the program and
        glossary and are rebuilt on load; what is worth persisting is the
        LLM-enhanced, expert-reviewed material: the enhanced texts and the
        approval flags, keyed by path identity.
        """
        return {
            "program": self.analysis.program.name,
            "templates": [
                {
                    "path": name,
                    "multi_rules": sorted(multi),
                    "enhanced": list(template.enhanced_texts),
                    "approved": template.approved,
                }
                for (name, multi), template in self._templates.items()
            ],
        }

    def import_state(self, payload: dict) -> int:
        """Restore enhancement state exported by :meth:`export_state`.

        Imported enhanced texts re-pass the token guard against the
        freshly rebuilt deterministic templates — a stale export (after a
        rule or glossary change) cannot smuggle omissions in.  Returns the
        number of enhanced versions accepted.
        """
        if payload.get("program") != self.analysis.program.name:
            raise TemplateError(
                f"template state was exported for program "
                f"{payload.get('program')!r}, not "
                f"{self.analysis.program.name!r}"
            )
        accepted = 0
        for item in payload.get("templates", []):
            key = (item["path"], frozenset(item["multi_rules"]))
            template = self._templates.get(key)
            if template is None:
                continue
            for text in item.get("enhanced", []):
                original_tokens = extract_tokens(template.deterministic_text)
                if extract_tokens(text) >= original_tokens:
                    template.add_enhanced(text)
                    accepted += 1
            template.approved = bool(item.get("approved", False))
        return accepted
