"""The service layer: compiled-program cache, sessions, batched serving.

An :class:`ExplanationService` is the long-lived, production-facing front
of the explanation stack.  It owns

* a bounded cache of :class:`~repro.core.compiler.CompiledProgram`
  artifacts keyed by content hash — a program/glossary/enhancer triple is
  compiled once for the service lifetime (warm starts can pre-seed the
  cache from disk via :meth:`ExplanationService.warm_start`);
* a shared bounded LRU of generated explanations spanning all sessions;
* per-service hit/miss/latency counters (a
  :class:`~repro.obs.metrics.MetricsRegistry`).

A *session* binds one compiled program to one database instance: the
service runs the chase and returns an :class:`ExplanationSession` whose
``explain``/``explain_batch``/``report``/``why_not`` calls serve queries
against the materialized instance.  A session's data changes in one
way, :meth:`ExplanationSession.update` (an add/retract delta); new data
altogether is a new session, which hits the compile cache.

Typical use::

    service = ExplanationService(llm=SimulatedLLM(seed=0, faithful=True))
    session = service.session(app, database)       # compiles once
    texts = session.explain_batch(session.answers())
    other = service.session(app, other_database)   # compile-cache hit
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .. import obs
from ..datalog.atoms import Fact
from ..datalog.errors import UserError
from ..datalog.program import Program
from ..engine.chase import ChaseEngine
from ..engine.database import Database
from ..engine.incremental import UpdateOutcome
from ..engine.reasoning import ReasoningResult, reason
from ..obs.metrics import MetricsRegistry
from .cache import DEFAULT_EXPLANATION_CACHE_SIZE, LRUCache
from .compiler import (
    CompiledProgram,
    compilation_fingerprint,
    compile_program,
)
from .enhancer import SupportsComplete
from .explain import Explainer, Explanation
from .glossary import DomainGlossary
from .reports import BusinessReport, ReportBuilder
from .whynot import WhyNotAnswer, WhyNotExplainer

_UNSET = object()


class DeadlineExceeded(Exception):
    """The operation's time budget ran out before it completed."""


class Deadline:
    """A monotonic time budget created once at the request boundary.

    ``explain_batch`` reads :attr:`expired` before each query; the serve
    routes call :meth:`check` to fail fast with :class:`DeadlineExceeded`.
    The clock is injectable so tests advance time without sleeping.
    """

    __slots__ = ("budget_s", "_clock", "_expires_at")

    def __init__(self, budget_s: float, clock: Callable[[], float] = time.monotonic):
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires_at = clock() + self.budget_s

    @staticmethod
    def coerce(value: "Deadline | float | None") -> "Deadline | None":
        """Accept ``None``, an existing deadline, or a budget in seconds."""
        if value is None or isinstance(value, Deadline):
            return value
        return Deadline(value)

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget_s:.3f}s deadline"
            )


@dataclass(frozen=True)
class BatchOutcome:
    """Per-query result of a deadline-bounded ``explain_batch``.

    ``status`` is ``"ok"`` (``explanation`` is set),
    ``"deadline_exceeded"`` (the per-batch budget ran out before this
    query was served) or ``"error"`` (the query is a :class:`UserError`;
    ``error`` carries ``TypeName: message``).  Partial service beats no
    service: a batch under deadline returns one outcome per query, in
    input order, instead of hanging the pool behind the slowest straggler.
    """

    query: Fact
    explanation: Explanation | None = None
    status: str = "ok"
    error: str | None = None

    STATUS_OK = "ok"
    STATUS_DEADLINE = "deadline_exceeded"
    STATUS_ERROR = "error"

    @property
    def ok(self) -> bool:
        return self.status == self.STATUS_OK

    @classmethod
    def success(cls, query: Fact, explanation: Explanation) -> "BatchOutcome":
        return cls(query=query, explanation=explanation)

    @classmethod
    def missed(cls, query: Fact) -> "BatchOutcome":
        return cls(
            query=query, status=cls.STATUS_DEADLINE,
            error="DeadlineExceeded: batch budget spent before this query",
        )

    @classmethod
    def failed(cls, query: Fact, error: UserError) -> "BatchOutcome":
        # An underived query has always been named a KeyError here.
        kind = "KeyError" if isinstance(error, KeyError) else type(error).__name__
        return cls(query=query, status=cls.STATUS_ERROR, error=f"{kind}: {error}")


class _Timed:
    """Context manager feeding one latency sample into the metrics.

    When a flight record is open on the calling thread, the sample also
    lands as phase ``name`` on that record and the histogram observation
    carries the record's query id as its exemplar — so a slow latency
    bucket resolves back to the flight that caused it.
    """

    def __init__(self, metrics: MetricsRegistry, name: str):
        self._metrics = metrics
        self._name = name
        self.elapsed = 0.0

    def __enter__(self) -> "_Timed":
        self._flight = obs.current_flight()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        flight = self._flight
        if flight is not None:
            flight.add_phase(self._name, self.elapsed)
            self._metrics.observe(
                self._name, self.elapsed, exemplar=flight.query_id
            )
        else:
            self._metrics.observe(self._name, self.elapsed)


class ExplanationSession:
    """One compiled program bound to one materialized instance."""

    def __init__(
        self,
        service: "ExplanationService",
        compiled: CompiledProgram,
        result: ReasoningResult,
    ):
        self.service = service
        self.compiled = compiled
        self.result = result
        self.explainer = Explainer(
            result, compiled=compiled, cache=service.explanation_cache
        )
        # The why-not prober is built lazily and kept for the session; its
        # answers are memoized in their own region of the shared LRU.
        self._whynot: WhyNotExplainer | None = None
        self._whynot_region = service.explanation_cache.region("whynot")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def answers(self, predicate: str | None = None) -> tuple[Fact, ...]:
        return self.result.answers(predicate)

    def explain(self, query: Fact, **options) -> Explanation:
        metrics = self.service.metrics
        with obs.flight_record(
            "explain", query=query, fingerprint=self.compiled.fingerprint,
        ), _Timed(metrics, "explain"):
            explanation = self.explainer.explain(query, **options)
        metrics.incr("explanations")
        return explanation

    def explain_batch(
        self,
        queries: Iterable[Fact],
        deadline: Deadline | float | None = None,
        **options,
    ) -> list[Explanation] | list[BatchOutcome]:
        """Explain many queries, one after another, in input order.

        The batch runs on the calling thread: a served batch already has
        a worker thread to itself, generation is pure Python, and queries
        sharing a derivation subtree find it in the binding's memos.

        With ``deadline`` (a :class:`Deadline` or a budget in seconds)
        the batch degrades instead of blocking: the return value becomes
        a list of :class:`BatchOutcome`, one per query in input order.
        The budget is checked before each query; a
        query that began within it finishes (computed work is never
        discarded), the ones after it carry
        ``status="deadline_exceeded"``, and a query the caller got wrong
        (a :class:`UserError`) carries ``status="error"``.  Without a
        deadline the historical ``list[Explanation]`` contract is unchanged.
        """
        chosen: Sequence[Fact] = list(queries)
        bounded = Deadline.coerce(deadline)
        if not chosen:
            return []
        budget = {} if bounded is None else {"deadline_s": bounded.budget_s}
        metrics = self.service.metrics
        with obs.flight_record(
            "explain_batch", fingerprint=self.compiled.fingerprint,
            queries=len(chosen), **budget,
        ) as batch_record, _Timed(metrics, "explain_batch"):
            if bounded is None:
                served: list = [
                    self.explainer.explain(query, **options) for query in chosen
                ]
                metrics.incr("explanations", len(chosen))
            else:
                served = [self._bounded_one(query, bounded, options) for query in chosen]
                metrics.incr("explanations", sum(outcome.ok for outcome in served))
                missed = sum(
                    outcome.status == BatchOutcome.STATUS_DEADLINE for outcome in served
                )
                if missed:
                    metrics.incr("explain_deadline_exceeded", missed)
                    batch_record.event("deadline_exceeded", missed=missed)
        return served

    def _bounded_one(
        self, query: Fact, deadline: Deadline, options: dict
    ) -> BatchOutcome:
        if deadline.expired:
            return BatchOutcome.missed(query)
        try:
            return BatchOutcome.success(
                query, self.explainer.explain(query, **options)
            )
        except UserError as error:  # a pipeline fault fails the batch
            return BatchOutcome.failed(query, error)

    def report(self, **options) -> BusinessReport:
        """A business report over this instance (see ReportBuilder)."""
        with _Timed(self.service.metrics, "report"):
            return ReportBuilder(self.explainer).build(**options)

    def why(self, query: Fact) -> str:
        return self.explainer.why(query)

    def why_not(self, query: Fact) -> WhyNotAnswer:
        """Why ``query`` is *not* derived, memoized per session.

        The prober is kept for the session and its answers live in the
        shared LRU's ``whynot`` region, scoped by the explainer's memo
        scope so an updated session never serves stale reports.
        """
        with obs.flight_record(
            "why_not", query=query, fingerprint=self.compiled.fingerprint,
        ), _Timed(self.service.metrics, "why_not"):
            answer = self._whynot_region.get_or_create(
                (
                    self.explainer.memo_scope,
                    self.explainer.index.fact_key(query),
                ),
                lambda: self._whynot_explainer().explain_why_not(query),
            )
        return answer

    def _whynot_explainer(self) -> WhyNotExplainer:
        if self._whynot is None:
            self._whynot = WhyNotExplainer(self.result, self.compiled.glossary)
        return self._whynot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def update(
        self,
        adds: Iterable[Fact] = (),
        retracts: Iterable[Fact] = (),
        max_rounds: int = 10_000,
    ) -> UpdateOutcome:
        """Apply an extensional add/retract delta to this session, live.

        The chase result is maintained incrementally
        (:mod:`repro.engine.incremental`: the work is the delta's forward
        closure, and records outside it are never visited), a copy of
        the provenance index is rebound over that closure only
        (memoized spines/proofs outside it survive), and a
        fresh explainer takes a fresh memo scope so stale explanation and
        why-not entries are scoped out: every cache key of the old
        instance carries the old binding id, so those entries can never
        be served again and simply age out of the shared LRU.
        The session's attributes are reassigned, never mutated: a
        shallow copy of a session can be updated while readers keep
        serving from the original.  The returned
        :class:`~repro.engine.incremental.UpdateOutcome` reports the
        effective delta and whether it was maintained or fell back to a
        full re-chase.
        """
        adds = tuple(adds)
        retracts = tuple(retracts)
        with obs.flight_record(
            "update", query=self.compiled.program.name,
            fingerprint=self.compiled.fingerprint,
            adds=len(adds), retracts=len(retracts),
        ) as flight, _Timed(self.service.metrics, "update"):
            engine = ChaseEngine(max_rounds=max_rounds)
            outcome = engine.update(
                self.compiled.program, self.result.chase_result,
                adds, retracts,
            )
            flight.set(mode=outcome.mode)
            if outcome.mode != "noop":
                self.result = self.result.updated(
                    outcome.result, outcome.touched
                )
                self.explainer = Explainer(
                    self.result, compiled=self.compiled,
                    cache=self.service.explanation_cache,
                )
                self._whynot = None
        return outcome


class ExplanationService:
    """Serves explanation workloads off a compiled-program cache.

    Parameters
    ----------
    llm:
        Default template enhancer for compilations that do not pass one
        explicitly (``None`` keeps templates deterministic).
    enhanced_versions:
        Interchangeable enhanced versions collected per template.
    max_compiled_programs:
        Bound of the compiled-artifact LRU.
    explanation_cache_size:
        Bound of the shared cross-session explanation LRU.
    max_workers:
        Ignored: ``explain_batch`` runs on the calling thread.  Still
        accepted because existing callers pass it.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` to report
        into; pass one to pool service telemetry with ambient chase and
        compile counters in a single stats document.  A fresh registry is
        created when omitted.
    """

    def __init__(
        self,
        llm: SupportsComplete | None = None,
        enhanced_versions: int = 1,
        max_compiled_programs: int = 32,
        explanation_cache_size: int = DEFAULT_EXPLANATION_CACHE_SIZE,
        max_workers: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.llm = llm
        self.enhanced_versions = enhanced_versions
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.compiled_cache = LRUCache(max_compiled_programs)
        self.explanation_cache = LRUCache(explanation_cache_size)
        self.metrics.register_cache("compiled_cache", self.compiled_cache)
        self.metrics.register_cache("explanation_cache", self.explanation_cache)

    # ------------------------------------------------------------------
    # Compile layer access
    # ------------------------------------------------------------------
    def compile(
        self,
        program: Program,
        glossary: DomainGlossary,
        llm: SupportsComplete | None = _UNSET,  # type: ignore[assignment]
        enhanced_versions: int | None = None,
    ) -> CompiledProgram:
        """The compiled artifact for (program, glossary, enhancer).

        Cache hits are free; misses run the database-independent phase
        once and store the artifact under its content hash.
        """
        chosen_llm = self.llm if llm is _UNSET else llm
        versions = (
            self.enhanced_versions if enhanced_versions is None
            else enhanced_versions
        )
        fingerprint = compilation_fingerprint(
            program, glossary, chosen_llm, versions
        )
        cached = self.compiled_cache.get(fingerprint)
        if cached is not None:
            self.metrics.incr("compile_hits")
            return cached
        self.metrics.incr("compile_misses")
        with _Timed(self.metrics, "compile"):
            compiled = compile_program(
                program, glossary, llm=chosen_llm, enhanced_versions=versions,
            )
        self.compiled_cache.put(fingerprint, compiled)
        return compiled

    def install(self, compiled: CompiledProgram) -> CompiledProgram:
        """Pre-seed the compile cache with an existing artifact (e.g. one
        deserialized from disk); returns the artifact that is now cached."""
        self.compiled_cache.put(compiled.fingerprint, compiled)
        return compiled

    def warm_start(
        self, path, program: Program, glossary: DomainGlossary
    ) -> CompiledProgram:
        """Load a serialized compiled artifact and install it.

        The artifact keeps its compile-time fingerprint, so a later
        :meth:`compile` with the matching enhancer configuration hits the
        cache and skips both analysis and enhancement.
        """
        from ..io import load_compiled_program

        with _Timed(self.metrics, "warm_start"):
            compiled = load_compiled_program(
                path, program, glossary, llm=self.llm
            )
        return self.install(compiled)

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def session(
        self,
        application_or_program,
        database: Database | Iterable[Fact],
        glossary: DomainGlossary | None = None,
        llm: SupportsComplete | None = _UNSET,  # type: ignore[assignment]
        max_rounds: int = 10_000,
        strategy: str = "planned",
    ) -> ExplanationSession:
        """Accept one (program, database) workload.

        ``application_or_program`` is either a
        :class:`~repro.apps.base.KGApplication` (its glossary is used) or
        a bare :class:`~repro.datalog.program.Program` plus ``glossary``.
        Compiles (or reuses) the artifact, runs the chase over
        ``database`` with the chosen evaluation ``strategy`` (the
        planned engine, or its naive oracle) and returns the bound session.
        """
        program, chosen_glossary = _unpack_application(
            application_or_program, glossary
        )
        with obs.flight_record(
            "session", query=program.name, strategy=strategy
        ) as flight:
            compiled = self.compile(program, chosen_glossary, llm=llm)
            flight.set(fingerprint=compiled.fingerprint)
            with _Timed(self.metrics, "chase"):
                result = reason(
                    program, database, max_rounds=max_rounds,
                    strategy=strategy,
                )
        self.metrics.incr("sessions")
        return ExplanationSession(self, compiled, result)

    def bind(self, application_or_program, result: ReasoningResult,
             glossary: DomainGlossary | None = None) -> ExplanationSession:
        """A session over an already-materialized reasoning result."""
        program, chosen_glossary = _unpack_application(
            application_or_program, glossary
        )
        compiled = self.compile(program, chosen_glossary)
        self.metrics.incr("sessions")
        return ExplanationSession(self, compiled, result)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Nothing to release; kept so services stay context managers."""

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def metrics_snapshot(self) -> dict:
        """The registry's snapshot (counters, gauges, histograms and the
        two caches under ``caches``)."""
        return self.metrics.snapshot()


def _unpack_application(
    application_or_program, glossary: DomainGlossary | None
) -> tuple[Program, DomainGlossary]:
    program = getattr(application_or_program, "program", None)
    if program is not None and glossary is None:
        glossary = getattr(application_or_program, "glossary", None)
    if program is None:
        program = application_or_program
    if glossary is None:
        raise ValueError(
            "a glossary is required (pass a KGApplication or an explicit "
            "glossary argument)"
        )
    return program, glossary
