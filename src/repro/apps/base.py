"""Common scaffolding for the financial KG applications.

A :class:`KGApplication` bundles what the paper calls a "rule-based
Knowledge Graph application": the Vadalog program, the domain glossary
drawn from the internal data dictionary, and a human-readable name.  All
concrete applications (company control, stress tests, close links) are
instances of this class built by their modules' ``build()`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.glossary import DomainGlossary
from ..core.structural import StructuralAnalysis
from ..datalog.atoms import Fact
from ..datalog.program import Program
from ..engine.database import Database
from ..engine.reasoning import ReasoningResult, reason


@dataclass(frozen=True)
class KGApplication:
    """A deployed knowledge-graph application: program + glossary."""

    name: str
    program: Program
    glossary: DomainGlossary

    def __post_init__(self) -> None:
        self.glossary.validate_against(self.program)

    def analyse(self) -> StructuralAnalysis:
        """Run the once-per-application structural analysis."""
        return StructuralAnalysis(self.program)

    def compile(self, llm=None, enhanced_versions: int = 1):
        """The once-per-application compiled artifact (compile layer):
        structural analysis + templates (+ optional enhancement), ready
        to be bound to any number of reasoning results."""
        from ..core.compiler import compile_program

        return compile_program(
            self.program, self.glossary, llm=llm,
            enhanced_versions=enhanced_versions,
        )

    def reason(
        self,
        facts: Database | Iterable[Fact],
        strategy: str = "planned",
    ) -> ReasoningResult:
        """Materialize the application over an extensional database."""
        return reason(self.program, facts, strategy=strategy)

    def explainer(self, result: ReasoningResult, llm=None, **kwargs):
        """An :class:`~repro.core.explain.Explainer` wired to this
        application's glossary — the usual next step after :meth:`reason`.
        Pass ``compiled=`` (from :meth:`compile`) to skip recompiling the
        database-independent phase for every result."""
        from ..core.explain import Explainer

        return Explainer(result, self.glossary, llm=llm, **kwargs)


@dataclass(frozen=True)
class ScenarioInstance:
    """A ready-to-run workload: extensional data plus the fact to explain.

    ``expected_steps`` is the proof length the generator aimed for, in
    chase steps — the x-axis unit of the paper's Figures 17 and 18.
    """

    application: KGApplication
    database: Database
    target: Fact
    expected_steps: int | None = None
    description: str = ""

    def run(self) -> ReasoningResult:
        return self.application.reason(self.database)
