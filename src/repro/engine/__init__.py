"""Chase-based reasoning engine with full provenance.

This subpackage is the reproduction's stand-in for the Vadalog system: it
materializes Vadalog programs over fact databases with the chase procedure,
recording per-step provenance from which chase graphs, proof DAGs and
derivation spines are extracted.
"""

from .chase import (
    ChaseEngine,
    ChaseError,
    ChaseResult,
    ChaseStepRecord,
    ConstraintViolation,
    Contribution,
    chase,
)
from .chase_graph import ChaseEdge, ChaseGraph
from .database import Database
from .kernels import RuleKernel, compile_rule_kernel
from .planner import JoinPlan, JoinStep, RulePlan, plan_conjunction, plan_rule
from .provenance import DerivationSpine, ProvenanceTracker, SpineStep
from .provenance_index import ProvenanceIndex
from .reasoning import ReasoningResult, reason
from .symbols import SymbolTable

__all__ = [
    "ChaseEdge",
    "ChaseEngine",
    "ChaseError",
    "ChaseGraph",
    "ChaseResult",
    "ChaseStepRecord",
    "ConstraintViolation",
    "Contribution",
    "Database",
    "DerivationSpine",
    "JoinPlan",
    "JoinStep",
    "ProvenanceIndex",
    "ProvenanceTracker",
    "ReasoningResult",
    "RuleKernel",
    "RulePlan",
    "SpineStep",
    "SymbolTable",
    "chase",
    "compile_rule_kernel",
    "plan_conjunction",
    "plan_rule",
    "reason",
]
