"""``repro-explain``: command-line front end to the explanation pipeline.

Examples::

    # Explain the Figure 8 default of C with enhanced templates
    repro-explain explain --app figure8

    # Structural analysis (reasoning paths) of the built-in applications
    repro-explain analyse company_control
    repro-explain analyse stress_test --dot

    # Explain a fact of a generated workload
    repro-explain explain --app chain --steps 6

    # Bring your own application (program + facts + glossary files)
    repro-explain explain --program rules.vada --data portfolio.facts \\
                  --glossary dictionary.json --query "Control(A, C)"

    # Observability: flight records + stats document for a canonical workload
    repro-explain explain --app company_control --flight f.json --stats s.json

    # The stats document (or Prometheus text) on stdout
    repro-explain stats --app stress_test
    repro-explain stats --app company_control --format prometheus

    # The heaviest rule kernels of a run (live or from a stats document)
    repro-explain obs top --app stress_test
    repro-explain obs top s.json --limit 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import obs
from .apps import (
    close_links, company_control, figures, generators, golden_powers,
    integrated_ownership, stress_test,
)
from .core.compiler import CompilationError
from .core.service import ExplanationService
from .core.structural import StructuralAnalysis
from .datalog.errors import UserError
from .engine import ChaseEngine
from .io import (
    load_facts, load_glossary, load_program, parse_fact, read_file,
    save_compiled_program,
)
from .llm.simulated import SimulatedLLM
from .render.dot import chase_graph_dot, dependency_graph_dot

_APPLICATIONS = {
    "company_control": company_control.build,
    "stress_test": stress_test.build,
    "stress_simple": stress_test.build_simple,
    "close_links": close_links.build,
    "golden_powers": golden_powers.build,
    "integrated_ownership": integrated_ownership.build,
}

#: Canonical ready-to-run workload per application (``--app NAME``).
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


class _ObsRun:
    """One observed CLI run: registry + flight recorder + dump destinations.

    The recorder is on only when ``record`` asks for it (``--flight``, a
    stats document), so plain runs keep the no-op fast path.
    """

    def __init__(self, record=False, stats_path=None, flight_path=None,
                 meta=None):
        self.stats_path = stats_path
        self.flight_path = flight_path
        self.flight = obs.FlightRecorder(enabled=record)
        self.metrics = obs.MetricsRegistry()
        self.chase_stats = None
        self.meta = dict(meta or {})

    def observed(self):
        return obs.observed(metrics=self.metrics, flight=self.flight)

    def capture(self, session) -> None:
        self.chase_stats = session.result.chase_result.stats

    def profile(self) -> dict:
        return obs.kernel_profile(self.chase_stats.plans)

    def document(self) -> dict:
        return obs.stats_document(
            self.metrics, flight=self.flight, chase=self.chase_stats,
            meta=self.meta,
        )

    def dump(self) -> None:
        if self.stats_path:
            obs.write_stats(self.document(), self.stats_path)
        if self.flight_path:
            obs.write_flight(self.flight, self.flight_path, meta=self.meta)


def _row_count(text: str) -> int:
    """``--limit``: a row count, so never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # Flags several subcommands share, each declared once on a help-less
    # parent parser.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument(
        "--steps", type=int, default=5,
        help="proof length for generated workloads (chain/cascade; "
             "default: %(default)s)",
    )
    workload.add_argument("--seed", type=int, default=0, help="generator seed")
    workload.add_argument(
        "--deterministic", action="store_true",
        help="skip template enhancement (no simulated LLM)",
    )
    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument(
        "--strategy", choices=ChaseEngine.STRATEGIES,
        default=ChaseEngine.STRATEGIES[0],
        help="chase evaluation strategy: planned is the engine (compiled "
             "join kernels over the interned columnar store); naive is "
             "its reference oracle, byte-identical and slower "
             "(default: %(default)s)",
    )
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument(
        "--stats", metavar="FILE", dest="stats_file",
        help="write the structured stats document (counters, latency "
             "percentiles, cache and chase telemetry) to FILE",
    )
    outputs.add_argument(
        "--flight", metavar="FILE", dest="flight_file",
        help="enable the query flight recorder and write its ring buffer "
             "(per-query phase timings, kernel firings, cache hits, "
             "degradation events) to FILE as repro-flight/1 JSON: the "
             "run's trace",
    )
    app_choices = sorted(_APP_SCENARIOS)

    parser = argparse.ArgumentParser(
        prog="repro-explain",
        description=(
            "Template-based explainable inference over financial knowledge "
            "graphs (EDBT 2025 reproduction)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    explain = commands.add_parser(
        "explain", parents=[workload, strategy, outputs],
        help="explain the derived facts of a canonical workload or of your "
             "own program, data and glossary files",
    )
    source = explain.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--app", choices=app_choices, help="canonical workload to run"
    )
    source.add_argument(
        "--program", metavar="FILE",
        help="load a rule file (.vada) instead of a canonical workload",
    )
    explain.add_argument(
        "--data", metavar="FILE", help="fact file (.facts) for --program"
    )
    explain.add_argument(
        "--glossary", metavar="FILE",
        help="JSON data dictionary for --program",
    )
    explain.add_argument(
        "--goal", metavar="PREDICATE",
        help="goal predicate (overrides the program file's @goal pragma)",
    )
    explain.add_argument(
        "--query", metavar="FACT",
        help="explain one derived fact, e.g. 'Control(A, C)'",
    )
    explain.add_argument(
        "--query-all", action="store_true",
        help="explain every derived goal fact (default: the --app "
             "scenario's target; a --program lists its derived facts)",
    )
    explain.add_argument(
        "--why-not", metavar="FACT", dest="why_not",
        help="explain why a fact was NOT derived, e.g. 'Control(A, D)'",
    )
    explain.add_argument(
        "--report", action="store_true",
        help="emit a Markdown business report instead of per-query prose",
    )
    explain.add_argument(
        "--dot", action="store_true",
        help="emit DOT instead of prose: the chase graph of an --app "
             "workload, the dependency graph of a --program",
    )
    explain.add_argument(
        "--compiled-cache", metavar="FILE", dest="compiled_cache",
        help="warm-start artifact: load the compiled program from FILE "
             "when present (skipping template enhancement), save it there "
             "after compiling otherwise",
    )
    explain.add_argument(
        "--metrics", action="store_true",
        help="print the service's metrics snapshot (counters, gauges, "
             "histograms, caches, kernel profile) to stderr after the run",
    )
    explain.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help=(
            "serve the batch N times (first pass generates, re-runs hit "
            "the memoized serving path; pair with --metrics/--stats to "
            "inspect the per-region cache hit rates)"
        ),
    )
    explain.set_defaults(handler=_cmd_explain)

    analyse = commands.add_parser(
        "analyse",
        help="print the structural analysis of a built-in application",
    )
    analyse.add_argument("application", choices=sorted(_APPLICATIONS))
    analyse.add_argument(
        "--dot", action="store_true",
        help="emit the dependency graph as DOT instead of prose",
    )
    analyse.set_defaults(handler=_cmd_analyse)

    stats = commands.add_parser(
        "stats", parents=[workload, strategy, outputs],
        help="run a canonical workload and print its stats document",
    )
    stats.add_argument(
        "--app", required=True, choices=app_choices,
        help="canonical workload to run",
    )
    stats.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="stats rendering (default: json stats document)",
    )
    stats.add_argument(
        "--output", metavar="FILE",
        help="write the rendering to FILE instead of stdout",
    )
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve", parents=[workload],
        help="serve a canonical workload's explanations over HTTP "
             "(POST /explain, /explain/batch, /whynot; GET /healthz, "
             "/metrics, /flight/<qid>)",
    )
    serve.add_argument(
        "--app", required=True, choices=app_choices,
        help="canonical workload to serve",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listening port; 0 picks an ephemeral one (default: %(default)s)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit",
        help="bound on admitted requests, served or waiting for their "
             "turn; beyond it requests shed with 503 + Retry-After "
             "(default: %(default)s)",
    )
    serve.add_argument(
        "--deadline", type=float, default=10.0, dest="deadline_s",
        help="default per-request budget in seconds when the request "
             "carries no deadline_s (default: %(default)s)",
    )
    serve.set_defaults(handler=_cmd_serve)

    tooling = commands.add_parser(
        "obs",
        help="observability tooling: kernel-profile views",
    )
    tools = tooling.add_subparsers(dest="obs_command", required=True)

    top = tools.add_parser(
        "top", parents=[workload],
        help="show the heaviest rule kernels (from a stats document or by "
             "running a workload live)",
    )
    top.add_argument(
        "stats_file", nargs="?", metavar="STATS.json",
        help="a repro-stats/1 document with a profile section "
             "(omit to run --app live)",
    )
    top.add_argument(
        "--app", choices=app_choices,
        help="run this canonical workload and profile its kernels",
    )
    top.add_argument(
        "--limit", type=_row_count, default=10,
        help="rows to show (default: 10)",
    )
    top.add_argument(
        "--key", default="wall_s",
        choices=("wall_s", "execs", "probes", "rows_scanned",
                 "rows_emitted", "pruned", "groups_evaluated"),
        help="ranking column (default: wall_s)",
    )
    # Kernels only exist in the planned engine, not in its oracle.
    top.set_defaults(strategy="planned", handler=_cmd_obs_top)

    return parser


def _make_llm(args: argparse.Namespace):
    return None if args.deterministic else SimulatedLLM(
        seed=args.seed, faithful=True
    )


def _warm_start(service: ExplanationService, path, program, glossary) -> bool:
    """Best-effort warm start from --compiled-cache (stale files recompile)."""
    if not path or not os.path.exists(path):
        return False
    try:
        service.warm_start(path, program, glossary)
        return True
    except (CompilationError, KeyError, ValueError) as error:
        print(f"ignoring stale compiled cache {path}: {error}", file=sys.stderr)
        return False


def _run_workload(args: argparse.Namespace, run: _ObsRun):
    """Bind the ``--app`` scenario or the ``--program`` files to a session.

    Call under ``run.observed()``.  Returns ``(scenario, service,
    session)``; ``scenario`` is ``None`` for a ``--program`` workload.
    """
    service = ExplanationService(llm=_make_llm(args), metrics=run.metrics)
    if getattr(args, "program", None):
        scenario = None
        program = load_program(args.program, goal=args.goal)
        if program.goal is None:
            raise UserError(f"{args.program} names no goal: add '% @goal PREDICATE' or pass --goal")
        glossary = load_glossary(args.glossary)
        database = load_facts(args.data)
    else:
        scenario = _APP_SCENARIOS[args.app](args)
        program = scenario.application.program
        glossary = scenario.application.glossary
        database = scenario.database
    cache_path = getattr(args, "compiled_cache", None)
    loaded = _warm_start(service, cache_path, program, glossary)
    session = service.session(
        program, database, glossary=glossary, strategy=args.strategy
    )
    run.capture(session)
    if cache_path and not loaded:
        # Also overwrites a stale artifact, so the cache heals instead of
        # recompiling on every later run.
        save_compiled_program(session.compiled, cache_path)
    return scenario, service, session


def _workload_dot(args: argparse.Namespace) -> str:
    if args.program:
        from .datalog.depgraph import DependencyGraph

        program = load_program(args.program, goal=args.goal)
        return dependency_graph_dot(DependencyGraph(program), name=program.name)
    return chase_graph_dot(_APP_SCENARIOS[args.app](args).run().graph)


def _print_explanations(args, scenario, session) -> None:
    if scenario is not None:
        print(f"Scenario: {scenario.description}")
    for violation in session.result.violations:
        print(f"! {violation}")
    if args.query:
        targets = [parse_fact(args.query)]
    elif args.query_all:
        targets = list(session.answers())
    elif scenario is not None:
        targets = [scenario.target]
    else:
        print("Derived facts:")
        for fact in session.result.derived():
            print(f"  {fact}")
        print("\nUse --query 'Fact(...)' or --query-all for explanations.")
        return
    # --repeat N re-serves the same batch: the extra passes land on the
    # memoized serving path, and the region hit rates show up in
    # --metrics / --stats.
    for _ in range(max(args.repeat, 1)):
        explanations = session.explain_batch(
            targets, prefer_enhanced=not args.deterministic
        )
    for target, explanation in zip(targets, explanations):
        print(f"Q_e = {{{target}}}  "
              f"(paths: {', '.join(explanation.paths_used())})")
        print(explanation.text)
        print()


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.program and not (args.data and args.glossary):
        raise UserError("--program requires --data and --glossary")
    if args.dot:
        print(_workload_dot(args))
        return 0
    run = _ObsRun(
        record=bool(args.flight_file or args.stats_file),
        stats_path=args.stats_file, flight_path=args.flight_file,
        meta={"command": "explain", "app": args.app or args.program},
    )
    with run.observed():
        scenario, service, session = _run_workload(args, run)
        if args.why_not:
            print(session.why_not(parse_fact(args.why_not)).text)
        elif args.report:
            targets = [parse_fact(args.query)] if args.query else None
            report = session.report(
                targets=targets, prefer_enhanced=not args.deterministic
            )
            print(report.to_markdown())
        else:
            _print_explanations(args, scenario, session)
        if args.metrics:
            snapshot = service.metrics_snapshot()
            snapshot["profile"] = run.profile()
            print(json.dumps(snapshot, indent=2), file=sys.stderr)
    run.dump()
    return 0


def _cmd_analyse(args: argparse.Namespace) -> int:
    from .datalog.analysis import termination_guarantee

    application = _APPLICATIONS[args.application]()
    analysis = StructuralAnalysis(application.program)
    if args.dot:
        print(dependency_graph_dot(analysis.graph, name=args.application))
        return 0
    print(application.program.describe())
    print()
    print(analysis.describe())
    print()
    print(f"termination: {termination_guarantee(application.program).value}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    run = _ObsRun(
        record=True, stats_path=args.stats_file,
        flight_path=args.flight_file,
        meta={"command": "stats", "app": args.app},
    )
    with run.observed():
        _, _, session = _run_workload(args, run)
        session.explain_batch(
            list(session.answers()), prefer_enhanced=not args.deterministic
        )
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
        host=args.host, port=args.port,
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
            f"(warm-start {warm:.3f}s; Ctrl-C or SIGTERM to stop)",
            flush=True,
        )

    # run() installs SIGINT/SIGTERM handlers: either signal resolves the
    # stop event, the pool and sockets drain, and we fall through to a
    # clean exit 0 (the CI smoke asserts no orphaned process).
    server.run(on_ready=announce)
    print("server stopped", flush=True)
    return 0


def _profile_problem(profile) -> str | None:
    """What makes a stats document's ``profile`` section unreadable by
    ``obs top``, or ``None`` when every row is an object of numbers."""
    if not isinstance(profile, dict):
        return (
            "has no profile section (write one with "
            "'repro-explain stats --app ... --stats FILE')"
        )
    for label, row in profile.items():
        if not isinstance(row, dict):
            return f"has a profile entry {label!r} that is not an object"
        for field, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"has a non-numeric {field!r} in profile entry {label!r}"
    return None


def _cmd_obs_top(args: argparse.Namespace) -> int:
    if args.stats_file:
        document = read_file(args.stats_file, decode=True)
        profile = document.get("profile") if isinstance(document, dict) else None
        problem = _profile_problem(profile)
        if problem is not None:
            raise UserError(f"{args.stats_file} {problem}")
    elif args.app:
        run = _ObsRun(meta={"command": "obs top"})
        with run.observed():
            scenario, _, session = _run_workload(args, run)
            session.explain_batch(
                [scenario.target], prefer_enhanced=not args.deterministic
            )
        profile = run.profile()
    else:
        raise UserError("pass a stats document or --app WORKLOAD")
    print(obs.render_top(profile, limit=args.limit, key=args.key))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UserError as error:
        # Input the pipeline rejects is reported like a bad flag.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
