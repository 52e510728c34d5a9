"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``;
the tier-1 run (``testpaths = ["tests"]``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import trace as spans  # noqa: E402
import workloads  # noqa: E402
from check import DEEP_PROOF_STEPS, Oracle  # noqa: E402

from repro.core.cache import DEFAULT_EXPLANATION_CACHE_SIZE  # noqa: E402
from repro.io import dumps_database, loads_facts  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _file:
    CONTRACT = json.load(_file)


def _snapshot(graph: gen.OwnershipGraph) -> str:
    return dumps_database(loads_facts("\n".join(graph.facts)))


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------

def test_generator_is_a_pure_function_of_size_and_seed():
    first = gen.ownership_graph("quick", 5)
    again = gen.ownership_graph("quick", 5)
    other = gen.ownership_graph("quick", 6)
    assert first == again
    assert _snapshot(first) == _snapshot(again)
    assert first.facts != other.facts
    assert _snapshot(first) != _snapshot(other)


def test_generator_shape():
    graph = gen.ownership_graph("S", 3)
    hops = sorted(len(ladder) - 1 for ladder in graph.ladders)
    assert hops == gen.ladder_hops(len(graph.ladders))
    assert (hops[0], hops[-1]) == gen.LADDER_HOPS
    in_degree: dict[str, int] = {}
    for line in graph.facts:
        if line.startswith("Own(C"):
            owned = line.split(", ")[1]
            if owned.startswith("C"):
                in_degree[owned] = in_degree.get(owned, 0) + 1
    # Pareto in-degree capped at 6, plus at most one ladder-tail stake.
    assert max(in_degree.values()) <= gen.MAX_IN_DEGREE + 1
    assert sum(1 for d in in_degree.values() if d == 1) > len(in_degree) / 2
    # Absent pairs never repeat and never name a derivable fact.
    absent = gen.absent_pairs(graph, 0)
    drawn = [next(absent) for _ in range(500)]
    assert len(set(drawn)) == 500
    assert not set(drawn) & set(graph.derived)


def test_size_s_meets_its_contract():
    """S floods the explanation memo and spans Fig. 18's x-range; every
    seed realises the same size to within two per cent."""
    target_pairs, target_rows = gen.TARGETS["S"]
    for seed in (11, 12):
        graph = gen.ownership_graph("S", seed)
        assert abs(graph.pairs / target_pairs - 1) < 0.02
        assert abs(graph.join_rows / target_rows - 1) < 0.02
    # Every derived fact in two flavours of memo key floods the memo.
    assert 2 * graph.pairs > 1.1 * DEFAULT_EXPLANATION_CACHE_SIZE
    oracle = Oracle(_snapshot(graph))
    assert oracle.derived == frozenset(graph.derived)
    assert oracle.deep >= 500
    assert oracle.proof_sizes[0] == 1
    assert oracle.proof_sizes[-1] >= 20
    assert DEEP_PROOF_STEPS == 12
    large = gen.ownership_graph("L", 11)
    assert len(large.companies) > 2 * len(graph.companies)
    assert large.pairs > 1.25 * graph.pairs


def test_sweep_is_one_walk_that_never_repeats_a_key_within_a_cycle():
    """Whichever client draws which request, a memo key comes round
    again only after every other key: an LRU smaller than the cycle
    misses every time."""
    graph = gen.ownership_graph("quick", 5)
    run = types.SimpleNamespace(graph=graph, seed=5)
    first, second = workloads.sweep_programs(run)
    assert first is second
    cycle = 2 * graph.pairs

    def keys_of_one_cycle() -> list[tuple[str, bool]]:
        keys: list[tuple[str, bool]] = []
        while len(keys) < cycle:
            path, body, facts = next(first)
            request = json.loads(body)
            if path == b"/whynot":
                assert facts == 0
                continue
            queries = request.get("queries") or [request["query"]]
            assert facts == len(queries)
            keys += [(q, request["prefer_enhanced"]) for q in queries]
        return keys

    for _ in range(2):      # the cycle comes round the same way
        keys = keys_of_one_cycle()
        assert len(keys) == cycle == len(set(keys))
    assert {text for text, _ in keys} == set(graph.derived)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def _span(pid, id_, parent, layer, name, start, end, op=None):
    return {"pid": pid, "id": id_, "parent": parent, "op": op,
            "layer": layer, "name": name, "start": start, "end": end}


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span(1, 1, None, "bench", "request", 0.0, 10.0, op="q-1"),
        # server side, another process, joined on the request id
        _span(2, 1, None, "serve.workers", "serve", 1.0, 9.0, op="q-1"),
        _span(2, 2, 1, "serve.protocol", "parse", 1.0, 2.0, op="q-1"),
        _span(2, 3, 1, "core.service", "session_explain_batch", 2.0, 8.0),
        # two pool threads, overlapping from 4 to 6: 7 s claimed, 5 covered
        _span(2, 4, 3, "core.explain", "explain", 3.0, 6.0),
        _span(2, 5, 3, "core.explain", "explain", 4.0, 8.0),
        _span(2, 6, 5, "core.mapping", "map_spine", 5.0, 7.0),
        # event-loop span: no request id, joins nothing
        _span(2, 7, None, "serve.admission", "admit", 0.5, 0.6),
    ]
    linked = spans.link(tree)
    selfs = spans.self_times(linked)
    by_key = {span["key"]: span for span in linked}
    assert by_key[(2, 1)]["up"] == (1, 1)
    assert by_key[(2, 7)]["up"] is None
    assert selfs[(1, 1)] == pytest.approx(2.0)        # 10 - serve's 8
    assert selfs[(2, 1)] == pytest.approx(1.0)        # 8 - parse 1 - batch 6
    assert selfs[(2, 2)] == pytest.approx(1.0)
    assert selfs[(2, 3)] == pytest.approx(1.0)        # 6 - union [3, 8]
    share = 5.0 / 7.0
    assert selfs[(2, 4)] == pytest.approx(3.0 * share)
    assert selfs[(2, 5)] == pytest.approx(2.0 * share)
    assert selfs[(2, 6)] == pytest.approx(2.0 * share)
    rooted = sum(selfs[key] for key in selfs if key != (2, 7))
    assert rooted == pytest.approx(10.0)
    text, unattributed = spans.waterfall(linked, selfs)
    assert unattributed == pytest.approx(0.0)
    assert "serve.server.overhead" in text and "admit apart" in text
    # A client span no server span joined is unattributed, whole.
    lonely = spans.link([_span(1, 1, None, "bench", "request", 0, 1, "q-9")])
    assert spans.waterfall(lonely, spans.self_times(lonely))[1] == 1.0


def test_trace_wrappers_are_restored():
    import importlib

    def holders():
        found = {}
        for module_name, class_name, attribute, _, _ in spans.TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            found[module_name, class_name, attribute] = vars(owner)[attribute]
        routes = importlib.import_module("repro.serve.routes")
        server = importlib.import_module("repro.serve.server")
        found["PARSERS"] = dict(routes.PARSERS)
        found["server.encode_body"] = server.encode_body
        return found

    before = holders()
    recorder = spans.Recorder()
    replaced = spans.install(recorder)
    during = holders()
    assert all(during[key] is not before[key] for key in before
               if key != "PARSERS")
    assert all(during["PARSERS"][route] is not before["PARSERS"][route]
               for route in before["PARSERS"])
    from repro.serve import encode_body
    encode_body({"a": 1})
    assert [s["name"] for s in recorder.spans] == ["encode"]
    assert recorder.spans[0]["bytes"] == len(b'{"a": 1}\n')
    spans.restore(replaced)
    after = holders()
    assert all(after[key] is before[key] for key in before if key != "PARSERS")
    assert after["PARSERS"] == before["PARSERS"]


# ----------------------------------------------------------------------
# The workloads, at smoke size
# ----------------------------------------------------------------------

def _no_leftovers():
    assert not [
        name for name in os.listdir(workloads.RESULTS)
        if name.startswith("tmp-") and str(os.getpid()) in name
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_smoke_passes_the_oracle(workload):
    stale = os.path.join(workloads.RESULTS, "tmp-0-stale")
    os.makedirs(stale, exist_ok=True)
    try:
        result = workloads.run_workload(workload, 3, 2.0, False, quick=True)
    finally:
        assert os.path.isdir(stale)      # ignored: neither reused nor removed
        shutil.rmtree(stale)
    assert result.failures == []
    assert result.notes["bodies_checked"] > 0
    expected = {metric["name"]: metric["unit"]
                for metric in CONTRACT["end_to_end"]}
    assert {n: u for n, (_, u) in result.metrics.items()} == expected
    assert all(value > 0 for value, _ in result.metrics.values())
    _no_leftovers()


def test_quick_traced_run_reports_every_layer_metric():
    result = workloads.run_workload("serve-sweep", 3, 2.0, True, quick=True)
    assert result.failures == []
    expected = {metric["name"]: metric["unit"]
                for metric in CONTRACT["per_layer"]}
    assert {n: u for n, (_, u) in result.metrics.items()} == expected
    assert result.metrics["bench.unattributed_share"][0] <= 0.05
    assert result.metrics["engine.chase.runs_per_boot"][0] == 2
    assert "serve.server.overhead" in result.tables
    _no_leftovers()


def test_metrics_from_a_handful_of_samples_do_not_crash():
    """Fewer reads than one slice wants: numbers all the same.  No read
    at all: a failure, not an exception."""
    run = workloads.Run("serve-sweep", 1, 1.0, False, quick=True)
    window = workloads.Sample(started=10.0, ended=11.0)
    window.reads = [(0.002, 16, 10.0 + i / 100) for i in range(5)]
    metrics = workloads.end_to_end(run, window, 4.0, [2048])
    assert run.total.failures == []
    assert metrics["request_p50_ms"][0] == pytest.approx(2.0)
    assert metrics["explained_per_s"][0] == pytest.approx(80 / 0.042)
    assert metrics["reads_within_limit_share"][0] == 1.0
    assert metrics["peak_rss_mb"][0] == pytest.approx(2.0)
    metrics = workloads.end_to_end(run, workloads.Sample(), 4.0, [2048])
    assert run.total.failures == ["no read was answered"]
    assert metrics["request_p50_ms"][0] == 0.0


def test_the_quiet_tenth():
    assert workloads.quiet([5.0, 3.0, 4.0]) == 3.0
    assert workloads.quiet([5.0, 3.0, 4.0], lower_is_better=False) == 5.0
    values = [float(n) for n in range(1, 41)]
    assert workloads.quiet(values) == 4.0
    assert workloads.quiet(values, lower_is_better=False) == 37.0


def test_a_run_with_failures_exits_non_zero(monkeypatch, capsys):
    import run as command

    failed = workloads.Result(
        "serve-hot", 1, {"setup_s": (1.0, "s")}, 10, ["/explain answered 500"],
        {},
    )
    monkeypatch.setattr(workloads, "run_workload", lambda *args: failed)
    assert command.main(["--workload", "serve-hot", "--quick"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_servers_are_reaped_when_a_workload_fails(monkeypatch):
    started = []

    def failing(run, port, seconds):
        started.extend(run.servers)
        raise RuntimeError("drive failed")

    monkeypatch.setattr(workloads, "drive", failing)
    with pytest.raises(RuntimeError, match="drive failed"):
        workloads.run_workload("serve-hot", 3, 2.0, False, quick=True)
    assert started and all(
        server.process.poll() is not None for server in started
    )
    _no_leftovers()


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------

def test_contract_names_the_workloads_and_a_setup_metric():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_no_result_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and bench/, the
    command exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        CONTRACT["command"] + ["--workload", "serve-hot", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
