"""``repro-explain``: command-line front end to the explanation pipeline.

Examples::

    # Explain the Figure 8 default of C with enhanced templates
    repro-explain --demo figure8

    # Structural analysis (reasoning paths) of the built-in applications
    repro-explain --analyse company_control
    repro-explain --analyse stress_test --dot

    # Explain a fact of a generated workload
    repro-explain --demo chain --steps 6

    # Bring your own application (program + facts + glossary files)
    repro-explain --program rules.vada --data portfolio.facts \\
                  --glossary dictionary.json --query "Control(A, C)"

    # Observability: trace + stats document for a canonical workload
    repro-explain explain --app company_control --trace t.jsonl --stats s.json

    # The stats document (or Prometheus text) on stdout
    repro-explain stats --app stress_test
    repro-explain stats --app company_control --format prometheus

    # Flight records: per-query phase timings, kernel/cache counters
    repro-explain explain --app company_control --flight f.json

    # The heaviest rule kernels of a run (live or from a stats document)
    repro-explain obs top --app stress_test
    repro-explain obs top s.json --limit 5

    # Regression tooling: diff two stats documents, check threshold gates
    repro-explain obs diff baseline.json candidate.json --tolerance 15
    repro-explain obs diff --check BENCH_engine.json \\
                  --gates benchmarks/gates.json --suite engine
"""

from __future__ import annotations

import argparse
import json
import sys

import os

from . import obs
from .apps import (
    close_links, company_control, figures, generators, golden_powers,
    integrated_ownership, stress_test,
)
from .apps.base import ScenarioInstance
from .core.compiler import CompilationError
from .core.service import ExplanationService, ServiceMetrics
from .core.structural import StructuralAnalysis
from .engine import ChaseEngine
from .io import (
    load_facts, load_glossary, load_program, parse_fact,
    save_compiled_program,
)
from .llm.simulated import SimulatedLLM
from .render.dot import chase_graph_dot, dependency_graph_dot
from .resilience.faults import FaultInjectingLLM, FaultSpecError

_APPLICATIONS = {
    "company_control": company_control.build,
    "stress_test": stress_test.build,
    "stress_simple": stress_test.build_simple,
    "close_links": close_links.build,
    "golden_powers": golden_powers.build,
    "integrated_ownership": integrated_ownership.build,
}

_DEMOS = {
    "figure8": lambda args: figures.figure8_instance(),
    "figure12": lambda args: figures.figure12_stress_instance(),
    "figure15": lambda args: figures.figure15_instance(),
    "chain": lambda args: generators.control_with_steps(args.steps, seed=args.seed),
    "cascade": lambda args: generators.stress_with_steps(args.steps, seed=args.seed),
}

#: Canonical ready-to-run workload per application, for the ``explain``
#: and ``stats`` subcommands (``--app NAME``).
_APP_SCENARIOS = {
    "company_control": lambda args: figures.figure15_instance(),
    "stress_test": lambda args: figures.figure12_stress_instance(),
    "figure8": lambda args: figures.figure8_instance(),
    "chain": lambda args: generators.control_with_steps(
        args.steps, seed=args.seed
    ),
    "cascade": lambda args: generators.stress_with_steps(
        args.steps, seed=args.seed
    ),
}

_SUBCOMMANDS = ("explain", "stats", "obs", "serve")


class _ObsRun:
    """One observed CLI run: tracer + registry + the dump destinations.

    The tracer is only enabled when an output asks for spans (``--trace``
    or a stats document), so plain runs keep the no-op fast path; the
    flight recorder and kernel profiler likewise stay on their disabled
    singles unless ``--flight`` / a profile consumer asks for them.
    """

    def __init__(
        self, trace_path=None, stats_path=None, force_tracing=False,
        meta=None, flight_path=None, force_flight=False, profile=False,
    ):
        self.trace_path = trace_path
        self.stats_path = stats_path
        self.flight_path = flight_path
        self.tracer = obs.Tracer(
            enabled=force_tracing or bool(trace_path or stats_path)
        )
        self.flight = obs.FlightRecorder(
            enabled=force_flight or bool(flight_path)
        )
        self.profiler = obs.KernelProfiler(enabled=profile)
        self.metrics = ServiceMetrics()
        self.chase_stats = None
        self.meta = dict(meta or {})

    def observed(self):
        return obs.observed(
            tracer=self.tracer, metrics=self.metrics,
            flight=self.flight, profile=self.profiler,
        )

    def capture(self, session) -> None:
        self.chase_stats = session.result.chase_result.stats

    def document(self) -> dict:
        return obs.stats_document(
            self.metrics, tracer=self.tracer, chase=self.chase_stats,
            meta=self.meta,
            profile=self.profiler if self.profiler.enabled else None,
        )

    def dump(self) -> None:
        if self.trace_path:
            obs.write_trace(self.tracer, self.trace_path)
        if self.stats_path:
            obs.write_stats(self.document(), self.stats_path)
        if self.flight_path:
            obs.write_flight(self.flight, self.flight_path, meta=self.meta)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description=(
            "Template-based explainable inference over financial knowledge "
            "graphs (EDBT 2025 reproduction)."
        ),
    )
    parser.add_argument(
        "--analyse", choices=sorted(_APPLICATIONS),
        help="print the structural analysis of a built-in application",
    )
    parser.add_argument(
        "--demo", choices=sorted(_DEMOS),
        help="run one of the built-in explanation demos",
    )
    parser.add_argument(
        "--steps", type=int, default=5,
        help="proof length for generated demos (default: 5)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--deterministic", action="store_true",
        help="show the deterministic template text instead of the enhanced one",
    )
    parser.add_argument(
        "--dot", action="store_true",
        help="emit DOT graphs instead of prose",
    )
    parser.add_argument(
        "--program", metavar="FILE",
        help="load a rule file (.vada) instead of a built-in application",
    )
    parser.add_argument(
        "--data", metavar="FILE",
        help="fact file (.facts) for --program",
    )
    parser.add_argument(
        "--glossary", metavar="FILE",
        help="JSON data dictionary for --program",
    )
    parser.add_argument(
        "--goal", metavar="PREDICATE",
        help="goal predicate (overrides the program file's @goal pragma)",
    )
    parser.add_argument(
        "--query", metavar="FACT",
        help='explain one derived fact, e.g. \'Control(A, C)\'',
    )
    parser.add_argument(
        "--query-all", action="store_true",
        help="explain every derived goal fact",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="emit a Markdown business report instead of per-query prose",
    )
    parser.add_argument(
        "--why-not", metavar="FACT", dest="why_not",
        help="explain why a fact was NOT derived, e.g. 'Control(A, D)'",
    )
    parser.add_argument(
        "--compiled-cache", metavar="FILE", dest="compiled_cache",
        help=(
            "warm-start artifact: load the compiled program from FILE when "
            "present (skipping template enhancement), save it there after "
            "compiling otherwise"
        ),
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help=(
            "print service hit/miss/latency counters after the run "
            "(this includes kernel telemetry: "
            "chase.kernels_compiled / chase.kernel_execs counters, "
            "chase.kernel_compile_s latency and the chase.symbols "
            "symbol-table gauge)"
        ),
    )
    _add_resilience_arguments(parser)
    _add_strategy_argument(parser)
    _add_obs_arguments(parser)
    return parser


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults", metavar="SPEC", dest="inject_faults",
        help=(
            "wrap the enhancement LLM in a seeded fault injector; SPEC is "
            "comma-separated directives, e.g. 'transient:3', 'rate:0.3', "
            "'slow:5:0.2,drop:2' (see README, Fault tolerance)"
        ),
    )


def _add_strategy_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy", choices=ChaseEngine.STRATEGIES,
        default=ChaseEngine.STRATEGIES[0],
        help=(
            "chase evaluation strategy: planned is the engine (compiled "
            "join kernels over the interned columnar store); naive is "
            "its reference oracle, byte-identical and slower "
            "(default: %(default)s)"
        ),
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a JSON-lines span trace of the run to FILE",
    )
    parser.add_argument(
        "--stats", metavar="FILE", dest="stats_file",
        help="write the structured stats document (counters, latency "
             "percentiles, cache and chase telemetry) to FILE",
    )
    parser.add_argument(
        "--flight", metavar="FILE", dest="flight_file",
        help="enable the query flight recorder and write its ring buffer "
             "(per-query phase timings, kernel firings, cache hits, "
             "degradation events) to FILE as repro-flight/1 JSON",
    )


def _make_llm(args: argparse.Namespace):
    llm = None if args.deterministic else SimulatedLLM(
        seed=args.seed, faithful=True
    )
    spec = getattr(args, "inject_faults", None)
    if spec:
        # Fault injection exercises the enhancement path even under
        # --deterministic (which otherwise skips the LLM entirely): the
        # point of the flag is to drive retries/fallbacks, and the seeded
        # schedule keeps the run reproducible either way.
        inner = llm if llm is not None else SimulatedLLM(
            seed=args.seed, faithful=True
        )
        llm = FaultInjectingLLM(inner, spec, seed=args.seed)
    return llm


def _make_service(
    args: argparse.Namespace, run: _ObsRun | None = None
) -> ExplanationService:
    metrics = run.metrics if run is not None else None
    return ExplanationService(llm=_make_llm(args), metrics=metrics)


def _warm_start(service: ExplanationService, args, program, glossary) -> bool:
    """Best-effort warm start from --compiled-cache (stale files recompile)."""
    path = args.compiled_cache
    if not path or not os.path.exists(path):
        return False
    try:
        service.warm_start(path, program, glossary)
        return True
    except (CompilationError, KeyError, ValueError) as error:
        print(f"ignoring stale compiled cache {path}: {error}", file=sys.stderr)
        return False


def _save_compiled(service: ExplanationService, args, compiled, loaded) -> None:
    """Persist after a cold compile; also overwrites a stale artifact so
    the cache heals instead of recompiling on every subsequent run."""
    if args.compiled_cache and not loaded:
        save_compiled_program(compiled, args.compiled_cache)


def _print_metrics(service: ExplanationService, args, run=None) -> None:
    if args.metrics:
        import json as _json

        snapshot = service.metrics_snapshot()
        # Outside the observed block the ambient profiler is already
        # detached; splice the run's own profiler back in.
        if run is not None and run.profiler.enabled:
            snapshot["profile"] = run.profiler.snapshot()
        print(_json.dumps(snapshot, indent=2), file=sys.stderr)


def _run_files(args: argparse.Namespace, run: _ObsRun) -> int:
    if not args.data or not args.glossary:
        print("--program requires --data and --glossary", file=sys.stderr)
        return 2
    program = load_program(args.program, goal=args.goal)
    database = load_facts(args.data)
    glossary = load_glossary(args.glossary)

    if args.dot and not (args.query or args.query_all):
        from .datalog.depgraph import DependencyGraph

        print(dependency_graph_dot(DependencyGraph(program), name=program.name))
        return 0

    service = _make_service(args, run)
    loaded = _warm_start(service, args, program, glossary)
    session = service.session(
        program, database, glossary=glossary, strategy=args.strategy
    )
    run.capture(session)
    _save_compiled(service, args, session.compiled, loaded)
    result = session.result

    if args.why_not:
        answer = session.why_not(parse_fact(args.why_not))
        print(answer.text)
        _print_metrics(service, args)
        return 0

    if args.report:
        targets = [parse_fact(args.query)] if args.query else None
        report = session.report(
            targets=targets, prefer_enhanced=not args.deterministic
        )
        print(report.to_markdown())
        _print_metrics(service, args)
        return 0

    for violation in result.violations:
        print(f"! {violation}")

    if args.query:
        targets = [parse_fact(args.query)]
    elif args.query_all:
        targets = list(result.answers())
    else:
        print("Derived facts:")
        for fact in result.derived():
            print(f"  {fact}")
        print("\nUse --query 'Fact(...)' or --query-all for explanations.")
        return 0

    explanations = session.explain_batch(
        targets, prefer_enhanced=not args.deterministic
    )
    for target, explanation in zip(targets, explanations):
        print(f"Q_e = {{{target}}}  "
              f"(paths: {', '.join(explanation.paths_used())})")
        print(explanation.text)
        print()
    _print_metrics(service, args)
    return 0


def _run_analysis(name: str, dot: bool) -> None:
    from .datalog.analysis import termination_guarantee

    application = _APPLICATIONS[name]()
    analysis = StructuralAnalysis(application.program)
    if dot:
        print(dependency_graph_dot(analysis.graph, name=name))
        return
    print(application.program.describe())
    print()
    print(analysis.describe())
    print()
    print(f"termination: {termination_guarantee(application.program).value}")


def _run_demo(
    scenario: ScenarioInstance, args: argparse.Namespace, run: _ObsRun
) -> None:
    deterministic = args.deterministic
    if args.dot:
        print(chase_graph_dot(scenario.run().graph))
        return
    service = _make_service(args, run)
    application = scenario.application
    loaded = _warm_start(
        service, args, application.program, application.glossary
    )
    session = service.session(
        application, scenario.database, strategy=args.strategy
    )
    run.capture(session)
    _save_compiled(service, args, session.compiled, loaded)
    explanation = session.explain(
        scenario.target, prefer_enhanced=not deterministic
    )
    print(f"Scenario: {scenario.description}")
    print(f"Explanation query: Q_e = {{{scenario.target}}}")
    print(f"Reasoning paths used: {', '.join(explanation.paths_used())}")
    print()
    print(explanation.text)
    _print_metrics(service, args)


# ----------------------------------------------------------------------
# Subcommands (observability-first interface)
# ----------------------------------------------------------------------

def _build_subcommand_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description="Observability subcommands of the explanation service.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_workload_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--app", required=True, choices=sorted(_APP_SCENARIOS),
            help="canonical workload to run",
        )
        sub.add_argument(
            "--steps", type=int, default=5,
            help="proof length for generated workloads (chain/cascade)",
        )
        sub.add_argument("--seed", type=int, default=0, help="generator seed")
        sub.add_argument(
            "--deterministic", action="store_true",
            help="skip template enhancement (no simulated LLM)",
        )
        _add_resilience_arguments(sub)

    explain = subparsers.add_parser(
        "explain",
        help="run a canonical workload and explain its derived facts",
    )
    add_workload_arguments(explain)
    _add_strategy_argument(explain)
    explain.add_argument(
        "--query", metavar="FACT", help="explain one derived fact only"
    )
    explain.add_argument(
        "--query-all", action="store_true",
        help="explain every derived goal fact (default: the scenario target)",
    )
    explain.add_argument(
        "--metrics", action="store_true",
        help="print service hit/miss/latency counters after the run",
    )
    explain.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help=(
            "serve the batch N times (first pass generates, re-runs hit "
            "the memoized serving path; pair with --metrics/--stats to "
            "inspect the per-region cache hit rates)"
        ),
    )
    _add_obs_arguments(explain)

    stats = subparsers.add_parser(
        "stats",
        help="run a canonical workload and print its stats document",
    )
    add_workload_arguments(stats)
    _add_strategy_argument(stats)
    stats.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="stats rendering (default: json stats document)",
    )
    stats.add_argument(
        "--output", metavar="FILE",
        help="write the rendering to FILE instead of stdout",
    )
    _add_obs_arguments(stats)

    serve = subparsers.add_parser(
        "serve",
        help="serve a canonical workload's explanations over HTTP "
             "(POST /explain, /explain/batch, /whynot; GET /healthz, "
             "/metrics, /flight/<qid>)",
    )
    add_workload_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listening port; 0 picks an ephemeral one (default: %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="requests served at once (default: %(default)s)",
    )
    serve.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="worker backend: 'thread' serves every request from one "
             "in-process session (GIL-bound); 'process' boots one worker process per "
             "worker from the shared snapshot and scales across cores "
             "(default: %(default)s)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit",
        help="bound on admitted (in-flight) requests; beyond it requests "
             "shed with 503 + Retry-After (default: %(default)s)",
    )
    serve.add_argument(
        "--deadline", type=float, default=10.0, dest="deadline_s",
        help="default per-request budget in seconds when the request "
             "carries no deadline_s (default: %(default)s)",
    )
    return parser


def _run_workload(args: argparse.Namespace, run: _ObsRun):
    """Run one canonical ``--app`` workload under the observed context."""
    scenario = _APP_SCENARIOS[args.app](args)
    with run.observed():
        service = _make_service(args, run)
        session = service.session(
            scenario.application, scenario.database, strategy=args.strategy
        )
        run.capture(session)
        if getattr(args, "query", None):
            targets = [parse_fact(args.query)]
        elif getattr(args, "query_all", False) or args.command == "stats":
            targets = list(session.answers())
        else:
            targets = [scenario.target]
        explanations = session.explain_batch(
            targets, prefer_enhanced=not args.deterministic
        )
        # --repeat N re-serves the same batch: the extra passes land on
        # the memoized serving path, and the region hit rates show up in
        # --metrics / --stats.
        for _ in range(getattr(args, "repeat", 1) - 1):
            explanations = session.explain_batch(
                targets, prefer_enhanced=not args.deterministic
            )
    return scenario, service, targets, explanations


def _cmd_explain(args: argparse.Namespace) -> int:
    run = _ObsRun(
        trace_path=args.trace, stats_path=args.stats_file,
        flight_path=args.flight_file,
        profile=args.metrics or bool(args.stats_file),
        meta={"command": "explain", "app": args.app},
    )
    scenario, service, targets, explanations = _run_workload(args, run)
    print(f"Scenario: {scenario.description}")
    for target, explanation in zip(targets, explanations):
        print(f"Q_e = {{{target}}}  "
              f"(paths: {', '.join(explanation.paths_used())})")
        print(explanation.text)
        print()
    _print_metrics(service, args, run)
    run.dump()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    run = _ObsRun(
        trace_path=args.trace, stats_path=args.stats_file,
        flight_path=args.flight_file, force_tracing=True, profile=True,
        meta={"command": "stats", "app": args.app},
    )
    _run_workload(args, run)
    run.dump()
    if args.format == "prometheus":
        rendering = obs.render_prometheus(run.metrics)
    else:
        rendering = json.dumps(run.document(), indent=2, default=str) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendering)
    else:
        sys.stdout.write(rendering)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ExplanationServer, ServeConfig

    scenario = _APP_SCENARIOS[args.app](args)
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        backend=args.backend,
        queue_limit=args.queue_limit, default_deadline_s=args.deadline_s,
    )
    server = ExplanationServer(
        scenario.application, database=scenario.database,
        config=config, llm=_make_llm(args),
    )

    def announce(ready: ExplanationServer) -> None:
        warm = max(ready.pool.warm_start_s) if ready.pool else 0.0
        print(
            f"serving {args.app} on http://{ready.host}:{ready.port} "
            f"({config.workers} {config.backend} workers, "
            f"warm-start {warm:.3f}s; Ctrl-C or SIGTERM to stop)",
            flush=True,
        )

    # run() installs SIGINT/SIGTERM handlers: either signal resolves the
    # stop event, the pool and sockets drain, and we fall through to a
    # clean exit 0 (the CI smoke asserts no orphaned process).
    server.run(on_ready=announce)
    print("server stopped", flush=True)
    return 0


def _build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explain obs",
        description=(
            "Observability tooling: kernel-profile views and stats-document "
            "regression checks."
        ),
    )
    subparsers = parser.add_subparsers(dest="obs_command", required=True)

    top = subparsers.add_parser(
        "top",
        help="show the heaviest rule kernels (from a stats document or by "
             "running a workload live)",
    )
    top.add_argument(
        "stats_file", nargs="?", metavar="STATS.json",
        help="a repro-stats/1 document with a profile section "
             "(omit to run --app live)",
    )
    top.add_argument(
        "--app", choices=sorted(_APP_SCENARIOS),
        help="run this canonical workload with the kernel profiler on",
    )
    top.add_argument(
        "--steps", type=int, default=5,
        help="proof length for generated workloads (chain/cascade)",
    )
    top.add_argument("--seed", type=int, default=0, help="generator seed")
    top.add_argument(
        "--deterministic", action="store_true",
        help="skip template enhancement (no simulated LLM)",
    )
    top.add_argument(
        "--limit", type=int, default=10, help="rows to show (default: 10)"
    )
    top.add_argument(
        "--key", default="wall_s",
        choices=("wall_s", "execs", "probes", "rows_scanned",
                 "rows_emitted", "pruned", "groups_evaluated"),
        help="ranking column (default: wall_s)",
    )
    _add_resilience_arguments(top)
    # Kernels only exist in the planned engine, not in its oracle.
    top.set_defaults(strategy="planned", command="obs")

    diff = subparsers.add_parser(
        "diff",
        help="compare two stats documents with tolerance rules, or check "
             "one against declarative threshold gates",
    )
    diff.add_argument(
        "documents", nargs="*", metavar="DOC.json",
        help="BASELINE.json CANDIDATE.json (diff mode)",
    )
    diff.add_argument(
        "--check", metavar="DOC.json",
        help="gate mode: check this document against --gates instead of "
             "diffing two documents",
    )
    diff.add_argument(
        "--gates", metavar="GATES.json",
        help="repro-gates/1 threshold configuration (gate mode)",
    )
    diff.add_argument(
        "--suite", metavar="NAME",
        help="gate suite to evaluate (default: all suites)",
    )
    diff.add_argument(
        "--tolerance", type=float, default=10.0, metavar="PCT",
        help="allowed regression on latency-shaped leaves before the diff "
             "fails (default: 10%%)",
    )
    diff.add_argument(
        "--rules", metavar="FILE",
        help="JSON list of per-path tolerance overrides "
             "([{\"path\": ..., \"max_regression_pct\": ...}])",
    )
    diff.add_argument(
        "--output", metavar="FILE",
        help="write the repro-diff/1 report document to FILE",
    )
    diff.set_defaults(command="obs")
    return parser


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from .obs.diff import StatsDiffError, load_document

    if args.stats_file:
        try:
            document = load_document(args.stats_file)
        except StatsDiffError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        profile = document.get("profile")
        if not isinstance(profile, dict):
            print(
                f"error: {args.stats_file} has no profile section "
                f"(re-run the workload with the kernel profiler enabled, "
                f"e.g. 'repro-explain stats --app ... --stats FILE')",
                file=sys.stderr,
            )
            return 2
    elif args.app:
        run = _ObsRun(profile=True, meta={"command": "obs top"})
        _run_workload(args, run)
        profile = run.profiler.snapshot()
    else:
        print(
            "error: pass a stats document or --app WORKLOAD", file=sys.stderr
        )
        return 2
    print(obs.render_top(profile, limit=args.limit, key=args.key))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs.diff import (
        StatsDiffError,
        check_gates,
        diff_documents,
        load_document,
        load_gates,
        render_report,
        write_report,
    )

    try:
        if args.check:
            if not args.gates:
                print(
                    "error: --check requires --gates GATES.json",
                    file=sys.stderr,
                )
                return 2
            document = load_document(args.check)
            gates = load_gates(args.gates)
            report = check_gates(document, gates, suite=args.suite)
        else:
            if len(args.documents) != 2:
                print(
                    "error: diff mode takes exactly two documents "
                    "(BASELINE.json CANDIDATE.json), or use --check/--gates",
                    file=sys.stderr,
                )
                return 2
            rules = None
            if args.rules:
                try:
                    with open(args.rules, encoding="utf-8") as handle:
                        rules = json.load(handle)
                except (OSError, json.JSONDecodeError) as error:
                    raise StatsDiffError(
                        f"cannot read rules {args.rules}: {error}"
                    ) from error
                if not isinstance(rules, list):
                    raise StatsDiffError(
                        f"{args.rules}: rules must be a JSON list"
                    )
            baseline = load_document(args.documents[0])
            candidate = load_document(args.documents[1])
            report = diff_documents(
                baseline, candidate,
                tolerance_pct=args.tolerance, rules=rules,
            )
    except StatsDiffError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output:
        write_report(report, args.output)
    print(render_report(report))
    return 0 if report["ok"] else 1


def _run_obs(argv: list[str]) -> int:
    args = _build_obs_parser().parse_args(argv)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    return _cmd_obs_diff(args)


def _run_subcommand(argv: list[str]) -> int:
    if argv and argv[0] == "obs":
        return _run_obs(argv[1:])
    args = _build_subcommand_parser().parse_args(argv)
    try:
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_stats(args)
    except FaultSpecError as error:
        print(f"invalid --inject-faults spec: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _run_subcommand(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = _ObsRun(trace_path=args.trace, stats_path=args.stats_file,
                  flight_path=args.flight_file, profile=args.metrics,
                  meta={"command": "legacy", "argv": argv})
    try:
        if args.program:
            with run.observed():
                return _run_files(args, run)
        if args.analyse:
            _run_analysis(args.analyse, args.dot)
            return 0
        if args.demo:
            scenario = _DEMOS[args.demo](args)
            with run.observed():
                _run_demo(scenario, args, run)
            return 0
    except FaultSpecError as error:
        print(f"invalid --inject-faults spec: {error}", file=sys.stderr)
        return 2
    finally:
        run.dump()
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
