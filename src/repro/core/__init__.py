"""The paper's primary contribution: template-based explanations.

Pipeline (Figure 2 of the paper): structural analysis of the dependency
graph → reasoning paths → deterministic explanation templates via the
verbalizer and the domain glossary → optional LLM enhancement with a token
guard → per-query mapping of chase steps to templates → token substitution.

The pipeline is layered for production serving:

* **compile layer** (:mod:`.compiler`) — database-independent work, once
  per (program, glossary, enhancer) content hash;
* **runtime layer** (:mod:`.explain`) — one compiled artifact bound to
  one reasoning result, per-query mapping and instantiation;
* **service layer** (:mod:`.service`) — compiled-program cache, shared
  bounded explanation LRU, chase execution, batched serving, metrics.
"""

from .cache import CacheStats, LRUCache
from .compiler import (
    CompilationError,
    CompiledPipeline,
    CompiledProgram,
    CompileStats,
    compilation_fingerprint,
    compile_program,
    program_key,
)
from .enhancer import (
    ENHANCEMENT_PROMPT,
    EnhancementReport,
    TemplateEnhancer,
)
from .explain import Explainer, Explanation
from .reports import BusinessReport, ReportBuilder, ReportSection
from .glossary import DomainGlossary, GlossaryEntry, draft_glossary
from .mapping import MappingError, SegmentMatch, TemplateMapper
from .paths import ReasoningPath
from .structural import StructuralAnalysis, StructuralAnalysisError
from .templates import (
    ExplanationTemplate,
    InstantiatedExplanation,
    TemplateError,
    TemplateStore,
    extract_tokens,
    join_values,
)
from .validation import (
    completeness_ratio,
    constants_omitted,
    constants_present,
    missing_tokens,
    omission_ratio,
    tokens_preserved,
)
from .service import ExplanationService, ExplanationSession
from .whynot import Obstacle, WhyNotAnswer, WhyNotExplainer
from .verbalizer import (
    AGGREGATE_PHRASES,
    OPERATOR_PHRASES,
    PathTokenMap,
    Verbalizer,
    build_path_tokens,
)

__all__ = [
    "AGGREGATE_PHRASES",
    "ENHANCEMENT_PROMPT",
    "CacheStats",
    "CompilationError",
    "CompileStats",
    "CompiledPipeline",
    "CompiledProgram",
    "DomainGlossary",
    "EnhancementReport",
    "BusinessReport",
    "Explainer",
    "Explanation",
    "ExplanationService",
    "ExplanationSession",
    "LRUCache",
    "compilation_fingerprint",
    "compile_program",
    "program_key",
    "ReportBuilder",
    "ReportSection",
    "ExplanationTemplate",
    "GlossaryEntry",
    "InstantiatedExplanation",
    "MappingError",
    "OPERATOR_PHRASES",
    "PathTokenMap",
    "ReasoningPath",
    "SegmentMatch",
    "StructuralAnalysis",
    "StructuralAnalysisError",
    "TemplateEnhancer",
    "TemplateError",
    "TemplateMapper",
    "TemplateStore",
    "Verbalizer",
    "WhyNotAnswer",
    "WhyNotExplainer",
    "Obstacle",
    "build_path_tokens",
    "completeness_ratio",
    "constants_omitted",
    "constants_present",
    "draft_glossary",
    "extract_tokens",
    "join_values",
    "missing_tokens",
    "omission_ratio",
    "tokens_preserved",
]
