"""The compile layer: once-per-program artifacts for the explanation stack.

The paper's pipeline is explicitly two-phase.  The *database-independent*
phase — dependency-graph analysis, reasoning-path enumeration, template
generation and the one-shot LLM enhancement (Figure 2, left) — depends
only on the program, the glossary and the enhancer configuration.  The
*per-instance* phase (chase, mapping, instantiation) depends on the data.

:func:`compile_program` runs the first phase exactly once and bundles the
result into a :class:`CompiledProgram`: the structural analysis, the
template store (optionally enhanced), the mapper, and every secondary
per-predicate pipeline needed for drill-down queries on non-goal
predicates.  The artifact is keyed by a content hash of (program,
glossary, enhancer config), so a service can recognise a program it has
already compiled and serve many instances and many queries off one
compilation — the compile-once/run-many separation of Vadalog-style
reasoning engines.

Compiled artifacts serialize through :mod:`repro.io`
(:func:`~repro.io.save_compiled_program` /
:func:`~repro.io.load_compiled_program`): the deterministic templates are
pure functions of program and glossary and are rebuilt on load (cheap),
while the expensive, LLM-produced enhanced texts and the review flags are
restored verbatim — re-validated by the token guard — so warm starts skip
the enhancement calls entirely.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from .. import obs
from ..datalog.program import Program
from .enhancer import EnhancementReport, SupportsComplete, TemplateEnhancer
from .glossary import DomainGlossary
from .mapping import TemplateMapper
from .structural import StructuralAnalysis
from .templates import TemplateStore
from .verbalizer import Verbalizer

#: Version tag of the serialized artifact layout.
COMPILED_FORMAT = "repro-compiled/1"


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------

def llm_signature(llm: SupportsComplete | None) -> str | None:
    """A stable description of the enhancer model configuration.

    Clients may expose an explicit ``signature()``; otherwise the class
    name plus the common knobs (seed, faithfulness) identify the
    deterministic simulators used throughout the reproduction.
    """
    if llm is None:
        return None
    describe = getattr(llm, "signature", None)
    if callable(describe):
        return str(describe())
    parts = [type(llm).__qualname__]
    for knob in ("seed", "faithful", "model"):
        value = getattr(llm, knob, None)
        if value is not None:
            parts.append(f"{knob}={value}")
    return ":".join(parts)


def _hash_lines(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def program_key(program: Program, glossary: DomainGlossary) -> str:
    """Content hash of the database-independent *inputs* minus the
    enhancer: rules, constraints, goal and data dictionary.  This is the
    compatibility key a serialized artifact is validated against."""
    lines = [f"program {program.name}", f"goal {program.goal}"]
    lines.extend(str(rule) for rule in program.rules)
    lines.extend(str(constraint) for constraint in program.constraints)
    for predicate in sorted(glossary.predicates()):
        entry = glossary.entry(predicate)
        lines.append(f"gloss {predicate}({', '.join(entry.params)}): {entry.text}")
    return _hash_lines(lines)


def compilation_fingerprint(
    program: Program,
    glossary: DomainGlossary,
    llm: SupportsComplete | None = None,
    enhanced_versions: int = 1,
) -> str:
    """Content hash of (program, glossary, enhancer config) — the cache
    key under which a service stores the compiled artifact."""
    return _hash_lines([
        program_key(program, glossary),
        f"llm {llm_signature(llm)}",
        f"versions {enhanced_versions}",
    ])


# ----------------------------------------------------------------------
# Compiled artifacts
# ----------------------------------------------------------------------

@dataclass
class CompileStats:
    """Counters proving the once-per-program property.

    Every structural analysis, template-store build and enhancement run
    performed on behalf of a :class:`CompiledProgram` is counted here;
    tests bind one artifact to several reasoning results and assert the
    numbers do not move.
    """

    structural_analyses: int = 0
    template_stores: int = 0
    enhancement_runs: int = 0
    secondary_pipelines: int = 0

    def snapshot(self) -> dict:
        return {
            "structural_analyses": self.structural_analyses,
            "template_stores": self.template_stores,
            "enhancement_runs": self.enhancement_runs,
            "secondary_pipelines": self.secondary_pipelines,
        }


@dataclass(frozen=True)
class CompiledPipeline:
    """One goal predicate's ready-to-serve pipeline."""

    goal: str
    analysis: StructuralAnalysis
    store: TemplateStore
    mapper: TemplateMapper


class CompiledProgram:
    """The once-per-program artifact of the explanation pipeline.

    Holds the primary pipeline for the program goal plus the secondary
    pipelines for drill-down queries on other intensional predicates
    (built on demand, shared by every runtime binding).  Instances are
    immutable as far as callers are concerned and safe to share across
    threads: the secondary-pipeline map is guarded by a lock.
    """

    def __init__(
        self,
        program: Program,
        glossary: DomainGlossary,
        primary: CompiledPipeline,
        llm: SupportsComplete | None = None,
        enhanced_versions: int = 1,
        enhancement_report: EnhancementReport | None = None,
        fingerprint: str | None = None,
        stats: CompileStats | None = None,
    ):
        self.program = program
        self.glossary = glossary
        self.primary = primary
        self.enhancement_report = enhancement_report
        self.enhanced_versions = enhanced_versions
        self.fingerprint = fingerprint or compilation_fingerprint(
            program, glossary, llm, enhanced_versions
        )
        self.program_key = program_key(program, glossary)
        self.stats = stats or CompileStats()
        self._llm = llm
        self._secondary: dict[str, CompiledPipeline] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def analysis(self) -> StructuralAnalysis:
        return self.primary.analysis

    @property
    def store(self) -> TemplateStore:
        return self.primary.store

    @property
    def mapper(self) -> TemplateMapper:
        return self.primary.mapper

    @property
    def verbalizer(self) -> Verbalizer:
        return self.primary.store.verbalizer

    def pipeline_for(self, predicate: str) -> CompiledPipeline:
        """The pipeline able to explain facts of ``predicate``.

        Reasoning paths end at the leaf or at critical nodes; queries on
        other intensional predicates (interactive drill-down) re-run the
        database-independent analysis with that predicate as the goal —
        compiled once per predicate and shared by every binding.
        """
        if (
            predicate == self.program.goal
            or predicate in self.primary.analysis.critical_nodes
        ):
            return self.primary
        with self._lock:
            cached = self._secondary.get(predicate)
            if cached is not None:
                return cached
            pipeline = _build_pipeline(
                self.program.with_goal(predicate), self.glossary,
                self._llm, self.enhanced_versions, self.stats,
            )
            self._secondary[predicate] = pipeline
            self.stats.secondary_pipelines += 1
            return pipeline

    def secondary_goals(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._secondary))

    def describe(self) -> str:
        lines = [
            f"Compiled program {self.program.name!r} "
            f"[{self.fingerprint[:12]}]:",
            f"  goal: {self.program.goal}",
            f"  templates: {len(self.primary.store)}",
            f"  secondary pipelines: {len(self.secondary_goals())}",
        ]
        if self.enhancement_report is not None:
            lines.append(
                f"  enhanced: {self.enhancement_report.enhanced} "
                f"(rejected {self.enhancement_report.rejected}, "
                f"fallbacks {self.enhancement_report.fallbacks})"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (see repro.io for the file front end)
    # ------------------------------------------------------------------
    def export_payload(self) -> dict:
        """The JSON-serializable warm-start artifact.

        Deterministic templates are rebuilt on load; what is persisted is
        the identity (hashes), the enhancer configuration, and the
        enhanced/review state of every pipeline built so far.
        """
        with self._lock:
            secondaries = {
                predicate: pipeline.store.export_state()
                for predicate, pipeline in sorted(self._secondary.items())
            }
        return {
            "format": COMPILED_FORMAT,
            "program": self.program.name,
            "goal": self.program.goal,
            "fingerprint": self.fingerprint,
            "program_key": self.program_key,
            "llm_signature": llm_signature(self._llm),
            "enhanced_versions": self.enhanced_versions,
            "primary": self.primary.store.export_state(),
            "secondaries": secondaries,
            "enhancement": None if self.enhancement_report is None else {
                "enhanced": self.enhancement_report.enhanced,
                "rejected": self.enhancement_report.rejected,
                "fallbacks": self.enhancement_report.fallbacks,
            },
        }

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        program: Program,
        glossary: DomainGlossary,
        llm: SupportsComplete | None = None,
    ) -> "CompiledProgram":
        """Rebuild a compiled artifact from :meth:`export_payload` output.

        The payload must have been exported for byte-identical inputs:
        the stored ``program_key`` is checked against the live program
        and glossary, so a stale artifact (edited rules, changed data
        dictionary) is rejected instead of silently mis-explaining.
        Imported enhanced texts re-pass the token guard on the rebuilt
        deterministic templates.  No LLM call is made; ``llm`` is only
        retained for *new* secondary pipelines compiled later.
        """
        if payload.get("format") != COMPILED_FORMAT:
            raise CompilationError(
                f"unsupported compiled-program format "
                f"{payload.get('format')!r} (expected {COMPILED_FORMAT!r})"
            )
        expected_key = program_key(program, glossary)
        if payload.get("program_key") != expected_key:
            raise CompilationError(
                f"compiled artifact for {payload.get('program')!r} does not "
                f"match the supplied program/glossary (stale artifact?)"
            )
        stats = CompileStats()
        versions = int(payload.get("enhanced_versions", 1))
        primary = _build_pipeline(program, glossary, None, versions, stats)
        primary.store.import_state(payload["primary"])
        compiled = cls(
            program=program,
            glossary=glossary,
            primary=primary,
            llm=llm,
            enhanced_versions=versions,
            enhancement_report=None,
            fingerprint=payload["fingerprint"],
            stats=stats,
        )
        for predicate, state in payload.get("secondaries", {}).items():
            pipeline = _build_pipeline(
                program.with_goal(predicate), glossary, None, versions, stats
            )
            pipeline.store.import_state(state)
            compiled._secondary[predicate] = pipeline
            stats.secondary_pipelines += 1
        return compiled


class CompilationError(Exception):
    """Raised when a compiled artifact cannot be built or restored."""


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def _build_pipeline(
    program: Program,
    glossary: DomainGlossary,
    llm: SupportsComplete | None,
    enhanced_versions: int,
    stats: CompileStats,
    report: EnhancementReport | None = None,
) -> CompiledPipeline:
    with obs.phase("compile.analysis"):
        analysis = StructuralAnalysis(program)
        # Path enumeration is lazy; force it here so the phase covers it
        # (and per-stage timing is not smeared into template building).
        with obs.phase("compile.paths"):
            analysis.all_paths
    stats.structural_analyses += 1
    with obs.phase("compile.verbalize"):
        store = TemplateStore(analysis, glossary)
    stats.template_stores += 1
    if llm is not None:
        with obs.phase("compile.enhance"):
            enhancer_report = TemplateEnhancer(llm).enhance_store(
                store, versions=enhanced_versions
            )
        if report is not None:
            report.enhanced += enhancer_report.enhanced
            report.rejected += enhancer_report.rejected
            report.fallbacks += enhancer_report.fallbacks
            report.failures.extend(enhancer_report.failures)
            report.fallback_errors.extend(enhancer_report.fallback_errors)
        stats.enhancement_runs += 1
    assert program.goal is not None  # StructuralAnalysis guarantees it
    return CompiledPipeline(
        goal=program.goal, analysis=analysis, store=store,
        mapper=TemplateMapper(analysis),
    )


def compile_program(
    program: Program,
    glossary: DomainGlossary,
    llm: SupportsComplete | None = None,
    enhanced_versions: int = 1,
) -> CompiledProgram:
    """Run the database-independent phase once, returning the artifact.

    This is the single entry point performing structural analysis,
    template generation and (when ``llm`` is given) enhancement; the
    runtime layer (:class:`~repro.core.explain.Explainer`) and the
    service layer (:class:`~repro.core.service.ExplanationService`) both
    build on the artifact instead of redoing the work per instance.

    Compilation never fails on a misbehaving enhancer backend: any
    template whose completion raises :class:`~repro.llm.LLMError` keeps
    its deterministic base text (the fallback is recorded in the
    artifact's enhancement report and the ``enhance.fallback_total``
    counter).  Any other exception propagates.
    """
    stats = CompileStats()
    report: EnhancementReport | None = None
    if llm is not None:
        report = EnhancementReport()
    with obs.phase("compile.program"):
        primary = _build_pipeline(
            program, glossary, llm, enhanced_versions, stats, report,
        )
    return CompiledProgram(
        program=program,
        glossary=glossary,
        primary=primary,
        llm=llm,
        enhanced_versions=enhanced_versions,
        enhancement_report=report,
        stats=stats,
    )
