"""Tests for the repro-explain command-line interface."""

import json

import pytest

from repro.apps import company_control, figures, generators
from repro.cli import main
from repro.core import ExplanationService, StructuralAnalysis
from repro.datalog.analysis import termination_guarantee
from repro.io import load_facts, load_glossary, load_program, parse_fact
from repro.llm import SimulatedLLM
from repro.obs import STATS_DOCUMENT_KEYS

EXAMPLE_FILES = {
    "program": "examples/data/company_control.vada",
    "data": "examples/data/portfolio.facts",
    "glossary": "examples/data/company_control_glossary.json",
}
EXAMPLE_ARGV = [
    "--program", EXAMPLE_FILES["program"],
    "--data", EXAMPLE_FILES["data"],
    "--glossary", EXAMPLE_FILES["glossary"],
]


def _example_session():
    """The in-process session the CLI builds for the example files."""
    service = ExplanationService(llm=SimulatedLLM(seed=0, faithful=True))
    return service.session(
        load_program(EXAMPLE_FILES["program"]),
        load_facts(EXAMPLE_FILES["data"]),
        glossary=load_glossary(EXAMPLE_FILES["glossary"]),
    )


def _explained(target, explanation) -> str:
    return (
        f"Q_e = {{{target}}}  (paths: {', '.join(explanation.paths_used())})\n"
        f"{explanation.text}\n\n"
    )


class TestAnalyse:
    def test_company_control_analysis(self, capsys):
        assert main(["analyse", "company_control"]) == 0
        output = capsys.readouterr().out
        assert "simple reasoning paths" in output
        assert "σ3" in output

    def test_analysis_dot_output(self, capsys):
        assert main(["analyse", "stress_test", "--dot"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")

    def test_unknown_application_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyse", "nonexistent"])


class TestDemos:
    def test_figure8_demo(self, capsys):
        assert main(["explain", "--app", "figure8"]) == 0
        output = capsys.readouterr().out
        assert "Q_e = {Default(C)}" in output
        assert "(paths: " in output

    def test_deterministic_flag(self, capsys):
        assert main(["explain", "--app", "figure8", "--deterministic"]) == 0
        output = capsys.readouterr().out
        assert "Since " in output

    def test_chain_demo_with_steps(self, capsys):
        assert main(["explain", "--app", "chain", "--steps", "3", "--seed", "2"]) == 0
        output = capsys.readouterr().out
        assert "control chain of 3" in output

    def test_cascade_demo(self, capsys):
        assert main(["explain", "--app", "cascade", "--steps", "5"]) == 0
        output = capsys.readouterr().out
        assert "Q_e" in output

    def test_demo_dot_output(self, capsys):
        assert main(["explain", "--app", "figure8", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestInProcessParity:
    """Each subcommand prints exactly what the library calls return."""

    @pytest.mark.parametrize("app, build", [
        ("figure8", figures.figure8_instance),
        ("chain", lambda: generators.control_with_steps(5, seed=0)),
        ("cascade", lambda: generators.stress_with_steps(5, seed=0)),
    ])
    def test_explain_app_prints_session_explain(self, capsys, app, build):
        assert main(["explain", "--app", app]) == 0
        scenario = build()
        service = ExplanationService(llm=SimulatedLLM(seed=0, faithful=True))
        session = service.session(scenario.application, scenario.database)
        explanation = session.explain(scenario.target)
        assert capsys.readouterr().out == (
            f"Scenario: {scenario.description}\n"
            + _explained(scenario.target, explanation)
        )

    def test_query_all_prints_session_explain(self, capsys):
        assert main(["explain", *EXAMPLE_ARGV, "--query-all"]) == 0
        session = _example_session()
        assert capsys.readouterr().out == "".join(
            _explained(target, session.explain(target))
            for target in session.answers()
        )

    def test_why_not_prints_session_why_not(self, capsys):
        assert main([
            "explain", *EXAMPLE_ARGV, "--why-not", "Control(A, B)",
        ]) == 0
        answer = _example_session().why_not(parse_fact("Control(A, B)"))
        assert capsys.readouterr().out == answer.text + "\n"

    def test_report_prints_session_report(self, capsys):
        assert main(["explain", *EXAMPLE_ARGV, "--report"]) == 0
        report = _example_session().report(prefer_enhanced=True)
        assert capsys.readouterr().out == report.to_markdown() + "\n"

    def test_analyse_prints_structural_analysis(self, capsys):
        assert main(["analyse", "company_control"]) == 0
        program = company_control.build().program
        assert capsys.readouterr().out == (
            f"{program.describe()}\n\n"
            f"{StructuralAnalysis(program).describe()}\n\n"
            f"termination: {termination_guarantee(program).value}\n"
        )


class TestHelp:
    def test_no_arguments_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main([])
        assert exited.value.code == 2
        assert "usage: repro-explain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--demo", "figure8"],
        ["--demo", "figure8", "--deterministic"],
        ["--analyse", "company_control"],
        ["--program", "examples/data/company_control.vada"],
        ["explain", "--app", "figure8", "--inject-faults", "transient:3"],
    ])
    def test_flag_grammar_without_subcommand_exits_2(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2


class TestObservability:
    def test_explain_subcommand_trace_and_stats(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        flight_path = tmp_path / "flight.json"
        assert main([
            "explain", "--app", "company_control",
            "--stats", str(stats_path), "--flight", str(flight_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "Q_e" in output

        document = json.loads(stats_path.read_text(encoding="utf-8"))
        for key in STATS_DOCUMENT_KEYS:
            assert key in document
        assert document["chase"]["rule_firings"]
        assert sum(document["chase"]["rule_firings"].values()) > 0
        assert "hit_rate" in document["caches"]["explanation_cache"]
        assert "p50" in document["histograms"]["explain_batch"]
        assert document["counters"]["chase.runs"] == 1
        assert document["spans"]["chase.run"]["count"] == 1

        flight = json.loads(flight_path.read_text(encoding="utf-8"))
        assert flight["format"] == "repro-flight/1"
        assert flight["records"]
        for record in flight["records"]:
            assert set(record) >= {
                "query_id", "kind", "status", "phases", "counts",
            }
        # The session record times the chase and the compilation, each
        # stage nested inside the one that encloses it.
        session = next(r for r in flight["records"] if r["kind"] == "session")
        phases = session["phases"]
        assert any(name.startswith("compile.") for name in phases)
        assert phases["chase.stratum"] <= phases["chase.run"]
        assert phases["chase.run"] <= phases["chase"]
        assert phases["compile.analysis"] <= phases["compile.program"]
        assert phases["compile.program"] <= phases["compile"]

    def test_explain_subcommand_without_obs_flags(self, capsys):
        assert main(["explain", "--app", "figure8",
                     "--deterministic"]) == 0
        assert "Q_e = {Default(C)}" in capsys.readouterr().out

    def test_stats_subcommand_json(self, capsys):
        assert main(["stats", "--app", "company_control"]) == 0
        document = json.loads(capsys.readouterr().out)
        for key in STATS_DOCUMENT_KEYS:
            assert key in document
        assert document["spans"]  # stats turns the recorder on
        assert document["chase"]["rounds"] >= 1

    def test_stats_subcommand_prometheus(self, capsys):
        assert main(["stats", "--app", "figure8",
                     "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        assert "repro_chase_runs 1" in text
        assert "# TYPE" in text
        assert 'quantile="0.95"' in text

    def test_stats_subcommand_output_file(self, tmp_path):
        output = tmp_path / "doc.json"
        assert main(["stats", "--app", "figure8",
                     "--output", str(output)]) == 0
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["format"] == "repro-stats/1"

    def test_legacy_flags_accept_obs_arguments(self, capsys, tmp_path):
        """The file-workload flags combine with the observability ones."""
        flight_path = tmp_path / "flight.json"
        stats_path = tmp_path / "stats.json"
        assert main([
            "explain", *EXAMPLE_ARGV,
            "--query", "Control(AlphaHolding, TargetCorp)",
            "--flight", str(flight_path), "--stats", str(stats_path),
        ]) == 0
        flight = json.loads(flight_path.read_text(encoding="utf-8"))
        phases = {
            record["kind"]: set(record["phases"])
            for record in flight["records"]
        }
        assert "chase.run" in phases["session"]
        assert "explain_batch" in phases["explain_batch"]
        document = json.loads(stats_path.read_text(encoding="utf-8"))
        assert document["counters"]["explanations"] == 1

    def test_metrics_prints_the_registry_snapshot(self, capsys):
        assert main([
            "explain", "--app", "figure8", "--deterministic", "--metrics",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().err)
        assert set(snapshot) == {
            "counters", "gauges", "histograms", "caches", "profile",
        }
        assert set(snapshot["caches"]) == {
            "compiled_cache", "explanation_cache",
        }
        assert set(snapshot["histograms"]["explain_batch"]) >= {
            "count", "total", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_compiled_cache_warm_starts_the_second_run(self, capsys, tmp_path):
        argv = [
            "explain", "--app", "figure8", "--deterministic",
            "--compiled-cache", str(tmp_path / "figure8.json"), "--metrics",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert json.loads(first.err)["counters"]["compile_misses"] == 1
        assert json.loads(second.err)["counters"]["compile_hits"] == 1

    def test_instrumented_output_matches_uninstrumented(self, capsys, tmp_path):
        """Recording must not change what the pipeline produces."""
        assert main(["explain", "--app", "company_control", "--query-all"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "explain", "--app", "company_control", "--query-all",
            "--flight", str(tmp_path / "f.json"),
            "--stats", str(tmp_path / "s.json"),
        ]) == 0
        traced = capsys.readouterr().out
        assert traced == plain


class TestBadInput:
    """Input the pipeline rejects is one ``error:`` line and exit 2."""

    def _assert_rejected(self, capsys, argv, message):
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert error == f"error: {message}\n"

    def test_query_the_chase_did_not_derive(self, capsys):
        self._assert_rejected(
            capsys,
            ["explain", *EXAMPLE_ARGV, "--query", "Control(Nobody, Nothing)"],
            "Control(Nobody, Nothing) was not derived by the chase",
        )

    def test_query_predicate_outside_the_program(self, capsys):
        self._assert_rejected(
            capsys, ["explain", "--app", "figure8", "--query", "Control(A, B)"],
            "goal predicate 'Control' does not occur in program "
            "'stress_simple'",
        )

    def test_glossary_missing_a_predicate(self, capsys, tmp_path):
        with open(EXAMPLE_FILES["glossary"], encoding="utf-8") as handle:
            glossary = json.load(handle)
        del glossary["Own"]
        path = tmp_path / "glossary.json"
        path.write_text(json.dumps(glossary), encoding="utf-8")
        self._assert_rejected(
            capsys,
            ["explain", "--program", EXAMPLE_FILES["program"],
             "--data", EXAMPLE_FILES["data"], "--glossary", str(path),
             "--query-all"],
            "glossary misses predicate 'Own' used by program "
            "'company_control'",
        )

    @pytest.mark.parametrize("flag", ["--program", "--data", "--glossary"])
    def test_a_missing_input_file(self, capsys, tmp_path, flag):
        argv = list(EXAMPLE_ARGV)
        missing = str(tmp_path / "missing")
        argv[argv.index(flag) + 1] = missing
        self._assert_rejected(
            capsys, ["explain", *argv, "--query-all"],
            f"cannot read {missing}: [Errno 2] No such file or directory: "
            f"'{missing}'",
        )

    def test_a_malformed_glossary(self, capsys, tmp_path):
        path = tmp_path / "glossary.json"
        path.write_text('{"Own": ', encoding="utf-8")
        argv = list(EXAMPLE_ARGV)
        argv[argv.index("--glossary") + 1] = str(path)
        self._assert_rejected(
            capsys, ["explain", *argv, "--query-all"],
            "glossary is not valid JSON: Expecting value: line 1 column 9 "
            "(char 8)",
        )

    def test_why_not_of_a_fact_that_holds(self, capsys):
        self._assert_rejected(
            capsys,
            ["explain", "--app", "stress_test", "--why-not", "Default(A)"],
            "Default(A) holds — ask for its explanation instead",
        )

    def test_a_program_without_a_goal(self, capsys, tmp_path):
        path = tmp_path / "rules.vada"
        path.write_text(
            "sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).\n",
            encoding="utf-8",
        )
        argv = list(EXAMPLE_ARGV)
        argv[argv.index("--program") + 1] = str(path)
        self._assert_rejected(
            capsys, ["explain", *argv, "--query-all"],
            f"{path} names no goal: add '% @goal PREDICATE' or pass --goal",
        )

    def test_program_without_data_and_glossary(self, capsys):
        self._assert_rejected(
            capsys,
            ["explain", "--program", EXAMPLE_FILES["program"], "--query-all"],
            "--program requires --data and --glossary",
        )


class TestObsTop:
    def test_malformed_document_exits_two(self, capsys, tmp_path):
        for name, text in (
            ("garbage.json", "not json"),
            ("list.json", "[1, 2]"),
            ("no_profile.json", '{"format": "repro-stats/1"}'),
            ("entry_not_object.json", '{"profile": {"sigma1": 5}}'),
            ("wall_not_number.json",
             '{"profile": {"sigma1": {"wall_s": "x"}}}'),
        ):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            assert main(["obs", "top", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error:"), name
        assert main(["obs", "top", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_limit_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "top", "--app", "figure8", "--limit", "-2"])
        assert exit_info.value.code == 2
        assert "--limit" in capsys.readouterr().err

    def test_live_rows_match_the_chase_plans(self, capsys):
        """``obs top --app`` lists every kernel the chase ran, with the
        execution counts ``ChaseStats.plans`` holds."""
        scenario = figures.figure8_instance()
        plans = scenario.run().chase_result.stats.plans
        assert main(["obs", "top", "--app", "figure8", "--deterministic",
                     "--key", "execs"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert {row.split()[0]: int(row.split()[1]) for row in rows} == {
            label: entry["kernel_execs"] for label, entry in plans.items()
        }


class TestStrategyFlag:
    def test_naive_on_explain_subcommand(self, capsys):
        assert main([
            "explain", "--app", "company_control",
            "--strategy", "naive",
        ]) == 0
        assert "Q_e" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["naive", "planned"])
    def test_strategy_on_legacy_demo(self, capsys, strategy):
        assert main([
            "explain", "--app", "figure8", "--deterministic",
            "--strategy", strategy,
        ]) == 0
        assert "Q_e" in capsys.readouterr().out

    def test_strategies_agree_on_output(self, capsys):
        assert main(["explain", "--app", "company_control",
                     "--query-all"]) == 0
        default = capsys.readouterr().out
        for strategy in ("naive", "planned"):
            assert main(["explain", "--app", "company_control",
                         "--query-all", "--strategy", strategy]) == 0
            assert capsys.readouterr().out == default

    def test_default_strategy_is_planned(self, capsys):
        assert main([
            "explain", "--app", "company_control", "--metrics",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().err)
        assert snapshot["counters"]["chase.kernels_compiled"] >= 1

    def test_planned_metrics_expose_planner_counters(self, capsys):
        assert main([
            "explain", "--app", "company_control",
            "--strategy", "planned", "--metrics",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().err)
        assert snapshot["counters"]["chase.plan_compiled"] >= 1
        assert snapshot["counters"]["chase.plan_matches"] >= 1
        assert snapshot["counters"]["chase.aggregate_groups_evaluated"] >= 1

    def test_planned_metrics_expose_kernel_telemetry(self, capsys):
        assert main([
            "explain", "--app", "company_control",
            "--strategy", "planned", "--metrics",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().err)
        assert snapshot["counters"]["chase.kernels_compiled"] >= 1
        assert snapshot["counters"]["chase.kernel_execs"] >= 1
        assert snapshot["histograms"]["chase.kernel_compile_s"]["count"] >= 1
        assert snapshot["gauges"]["chase.symbols"] >= 1

    def test_planned_stats_document_has_plans(self, capsys, tmp_path):
        stats_file = tmp_path / "stats.json"
        assert main([
            "stats", "--app", "company_control",
            "--strategy", "planned", "--stats", str(stats_file),
        ]) == 0
        document = json.loads(stats_file.read_text())
        chase_section = document["chase"]
        assert chase_section["plans_compiled"] >= 1
        assert chase_section["plans"]

    def test_planned_stats_document_has_kernel_telemetry(self, capsys, tmp_path):
        stats_file = tmp_path / "stats.json"
        assert main([
            "stats", "--app", "company_control",
            "--strategy", "planned", "--stats", str(stats_file),
        ]) == 0
        chase_section = json.loads(stats_file.read_text())["chase"]
        assert chase_section["kernels_compiled"] >= 1
        assert chase_section["kernel_compile_s"] > 0
        assert chase_section["symbols"] >= 1
        assert all(
            entry["kernel_execs"] >= 1
            for entry in chase_section["plans"].values()
        )

    @pytest.mark.parametrize("retired", ["magic", "semi-naive", "parallel"])
    def test_unknown_strategy_rejected(self, retired):
        with pytest.raises(SystemExit):
            main(["explain", "--app", "figure8", "--strategy", retired])

    def test_serve_takes_no_strategy(self):
        with pytest.raises(SystemExit):
            main(["serve", "--app", "figure8", "--strategy", "planned"])

    @pytest.mark.parametrize("flag,value", [
        ("--backend", "process"), ("--workers", "2"),
    ])
    def test_serve_takes_no_backend_or_workers(self, flag, value):
        with pytest.raises(SystemExit):
            main(["serve", "--app", "figure8", flag, value])
