"""Tests for the stats-diff regression tool and its gate configuration.

The gate suite in ``benchmarks/gates.json`` is the single CI perf gate:
these tests assert it reproduces the historical inline gates (planned
>= 2x naive, warm-start >= 2x, explain serving >= 5x + parity) and that
an injected synthetic regression fails the corresponding suite.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.diff import (
    StatsDiffError,
    check_gates,
    diff_documents,
    load_document,
    load_gates,
    numeric_leaves,
    render_report,
    resolve_path,
)

GATES_PATH = Path(__file__).parent.parent / "benchmarks" / "gates.json"

#: Payloads shaped exactly like the three BENCH_*.json documents, with
#: values that satisfy every historical CI gate.
ENGINE_PAYLOAD = {
    "quick": True,
    "transitive_closure": [
        {"nodes": 30, "edges": 70, "planned_speedup_vs_naive": 3.1,
         "seconds": {"naive": 0.03, "planned": 0.01}},
        {"nodes": 50, "edges": 120, "planned_speedup_vs_naive": 4.2,
         "seconds": {"naive": 0.08, "planned": 0.02}},
    ],
    "workloads": {
        "ownership_network": {"planned_speedup_vs_naive": 3.9},
        "control_chain": {"planned_speedup_vs_naive": 11.6},
    },
}
SERVICE_PAYLOAD = {
    "workloads": {
        "company_control": {"explain": {"speedup": 5.6}},
        "stress_test": {"explain": {"speedup": 10.3}},
    },
}
EXPLAIN_PAYLOAD = {
    "workloads": {
        "company_control": {"explain": {"speedup": 137.0},
                            "batch": {"speedup": 10.4}},
        "stress_test": {"explain": {"speedup": 117.8},
                        "batch": {"speedup": 18.7}},
    },
    "parity": {"scenarios": 7, "queries": 45, "identical": True},
}


class TestPathResolution:
    def test_wildcard_fans_over_dicts_and_lists(self):
        document = {"workloads": {"a": {"speedup": 2.0},
                                  "b": {"speedup": 3.0}}}
        matches = resolve_path(document, "workloads.*.speedup")
        assert sorted(value for _, value in matches) == [2.0, 3.0]
        assert {path for path, _ in matches} == {
            "workloads.a.speedup", "workloads.b.speedup",
        }

    def test_negative_index_selects_last_element(self):
        matches = resolve_path(ENGINE_PAYLOAD,
                               "transitive_closure.-1.planned_speedup_vs_naive")
        assert matches == [
            ("transitive_closure.-1.planned_speedup_vs_naive", 4.2)
        ]

    def test_missing_path_selects_nothing(self):
        assert resolve_path(ENGINE_PAYLOAD, "nope.*.deeper") == []

    def test_numeric_leaves_excludes_booleans(self):
        leaves = numeric_leaves({"a": 1, "b": True, "c": {"d": 2.5}})
        assert leaves == {"a": 1.0, "c.d": 2.5}


class TestDiffDocuments:
    def test_identical_documents_are_clean(self):
        report = diff_documents(ENGINE_PAYLOAD, ENGINE_PAYLOAD)
        assert report["ok"]
        assert report["regressions"] == []
        assert "diff: OK" in render_report(report)

    def test_latency_regression_beyond_tolerance_fails(self):
        baseline = {"phases": {"chase": 1.0}}
        candidate = {"phases": {"chase": 1.5}}
        report = diff_documents(baseline, candidate, tolerance_pct=10.0)
        assert not report["ok"]
        assert report["regressions"][0]["path"] == "phases.chase"
        assert "REGRESSION" in render_report(report)

    def test_regression_within_tolerance_passes(self):
        baseline = {"phases": {"chase": 1.0}}
        candidate = {"phases": {"chase": 1.05}}
        assert diff_documents(baseline, candidate, tolerance_pct=10.0)["ok"]

    def test_improvement_is_not_a_regression(self):
        baseline = {"phases": {"chase": 1.0}}
        candidate = {"phases": {"chase": 0.5}}
        report = diff_documents(baseline, candidate)
        assert report["ok"]
        assert report["improvements"][0]["path"] == "phases.chase"

    def test_non_latency_changes_are_informational(self):
        baseline = {"counters": {"requests": 10}}
        candidate = {"counters": {"requests": 400}}
        report = diff_documents(baseline, candidate, tolerance_pct=0.0)
        assert report["ok"]
        assert report["changes"][0]["path"] == "counters.requests"

    def test_rules_override_tolerance_and_ignore(self):
        baseline = {"phases": {"chase": 1.0, "compile": 1.0}}
        candidate = {"phases": {"chase": 1.4, "compile": 9.0}}
        report = diff_documents(
            baseline, candidate, tolerance_pct=10.0,
            rules=[
                {"path": "phases.chase", "max_regression_pct": 50},
                {"path": "phases.compile", "ignore": True},
            ],
        )
        assert report["ok"]

    def test_added_and_removed_leaves_reported(self):
        report = diff_documents({"a": 1}, {"b": 2})
        assert report["added"] == ["b"]
        assert report["removed"] == ["a"]


class TestGateConfig:
    def test_shipped_gate_config_loads(self):
        gates = load_gates(str(GATES_PATH))
        assert set(gates["suites"]) == {
            "engine", "service", "explain", "load", "incremental",
        }

    def test_engine_suite_reproduces_planned_gates(self):
        gates = load_gates(str(GATES_PATH))
        report = check_gates(ENGINE_PAYLOAD, gates, suite="engine")
        assert report["ok"], render_report(report)

    def test_service_suite_reproduces_warm_start_gate(self):
        gates = load_gates(str(GATES_PATH))
        report = check_gates(SERVICE_PAYLOAD, gates, suite="service")
        assert report["ok"], render_report(report)

    def test_explain_suite_reproduces_serving_gates(self):
        gates = load_gates(str(GATES_PATH))
        report = check_gates(EXPLAIN_PAYLOAD, gates, suite="explain")
        assert report["ok"], render_report(report)

    @pytest.mark.parametrize("suite, payload, mutate", [
        ("engine", ENGINE_PAYLOAD,
         lambda d: d["transitive_closure"][-1].__setitem__(
             "planned_speedup_vs_naive", 1.4)),
        # The ratios whole re-evaluation of aggregates used to give.
        ("engine", ENGINE_PAYLOAD,
         lambda d: d["workloads"]["control_chain"].__setitem__(
             "planned_speedup_vs_naive", 1.3)),
        ("engine", ENGINE_PAYLOAD,
         lambda d: d["workloads"]["ownership_network"].__setitem__(
             "planned_speedup_vs_naive", 1.1)),
        ("service", SERVICE_PAYLOAD,
         lambda d: d["workloads"]["stress_test"]["explain"].__setitem__(
             "speedup", 1.5)),
        ("explain", EXPLAIN_PAYLOAD,
         lambda d: d["workloads"]["company_control"]["batch"].__setitem__(
             "speedup", 3.0)),
        ("explain", EXPLAIN_PAYLOAD,
         lambda d: d["parity"].__setitem__("identical", False)),
    ])
    def test_injected_regression_fails_its_suite(self, suite, payload, mutate):
        gates = load_gates(str(GATES_PATH))
        broken = copy.deepcopy(payload)
        mutate(broken)
        report = check_gates(broken, gates, suite=suite)
        assert not report["ok"]
        assert "FAIL" in render_report(report)

    def test_silent_path_fails_unless_optional(self):
        gates = {"suites": {"s": [{"path": "missing.value", "min": 1.0}]}}
        report = check_gates({}, gates, suite="s")
        assert not report["ok"]
        gates["suites"]["s"][0]["optional"] = True
        assert check_gates({}, gates, suite="s")["ok"]

    def test_min_tolerance_loosens_floor(self):
        gates = {"suites": {"s": [
            {"path": "v", "min": 2.0, "tolerance_pct": 10},
        ]}}
        assert check_gates({"v": 1.85}, gates, suite="s")["ok"]
        assert not check_gates({"v": 1.7}, gates, suite="s")["ok"]

    def test_unknown_suite_raises(self):
        gates = load_gates(str(GATES_PATH))
        with pytest.raises(StatsDiffError):
            check_gates({}, gates, suite="nope")


class TestMalformedInput:
    def test_load_document_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(StatsDiffError):
            load_document(str(bad))
        with pytest.raises(StatsDiffError):
            load_document(str(tmp_path / "absent.json"))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(StatsDiffError):
            load_document(str(array))

    def test_load_document_checks_format_tag(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"format": "other/9"}), encoding="utf-8")
        with pytest.raises(StatsDiffError):
            load_document(str(doc), expect_format="repro-stats/1")

    def test_load_gates_rejects_bad_shapes(self, tmp_path):
        for content in (
            {"suites": "nope"},
            {"suites": {"s": [{"min": 1.0}]}},          # no path
            {"suites": {"s": [{"path": "x"}]}},          # no assertion
            {"format": "other/1", "suites": {"s": []}},  # wrong format
        ):
            path = tmp_path / "gates.json"
            path.write_text(json.dumps(content), encoding="utf-8")
            with pytest.raises(StatsDiffError):
                load_gates(str(path))


class TestObsDiffCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_self_diff_exits_zero_and_writes_report(self, tmp_path, capsys):
        doc = self._write(tmp_path, "a.json", ENGINE_PAYLOAD)
        out = str(tmp_path / "report.json")
        assert main(["obs", "diff", doc, doc, "--output", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["format"] == "repro-diff/1"
        assert report["ok"]
        assert "diff: OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path):
        baseline = self._write(tmp_path, "a.json", {"phases": {"chase": 1.0}})
        candidate = self._write(tmp_path, "b.json", {"phases": {"chase": 2.0}})
        assert main(["obs", "diff", baseline, candidate]) == 1

    def test_gate_check_exit_codes(self, tmp_path):
        good = self._write(tmp_path, "good.json", SERVICE_PAYLOAD)
        broken = copy.deepcopy(SERVICE_PAYLOAD)
        broken["workloads"]["stress_test"]["explain"]["speedup"] = 1.2
        bad = self._write(tmp_path, "bad.json", broken)
        gates = str(GATES_PATH)
        assert main(["obs", "diff", "--check", good,
                     "--gates", gates, "--suite", "service"]) == 0
        assert main(["obs", "diff", "--check", bad,
                     "--gates", gates, "--suite", "service"]) == 1

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["obs", "diff", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["obs", "top", str(bad)]) == 2
        assert main(["obs", "diff", "--check", str(bad),
                     "--gates", str(GATES_PATH), "--suite", "engine"]) == 2

    def test_missing_inputs_exit_two(self, tmp_path):
        doc = self._write(tmp_path, "a.json", ENGINE_PAYLOAD)
        assert main(["obs", "diff", doc]) == 2          # need two documents
        assert main(["obs", "diff", "--check", doc]) == 2  # --gates required

    def test_rules_file_feeds_diff(self, tmp_path):
        baseline = self._write(tmp_path, "a.json", {"phases": {"chase": 1.0}})
        candidate = self._write(tmp_path, "b.json", {"phases": {"chase": 2.0}})
        rules = self._write(
            tmp_path, "rules.json",
            [{"path": "phases.chase", "max_regression_pct": 200}],
        )
        assert main(["obs", "diff", baseline, candidate,
                     "--rules", rules]) == 0
