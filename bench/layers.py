"""Per-layer metrics of a traced run, from its spans.

A layer is a module name under ``src/repro``.  Two scopes cut the span
list: the **boot** of the traced server (spawn to ``/healthz``) and the
**window** of its traffic.  Unless a name says otherwise,

* a boot-scope ``*_s`` is the layer's total self time per boot, summed
  over every call and every worker (the rows add up to ``ready_s``);
* a window-scope ``*_s`` is the mean self time per call of that
  function, and ``*_calls`` beside it is how often it ran.

A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

import trace as spans
from workloads import percentile

STEP_BUCKETS = (
    ("steps_1_4", 1, 4), ("steps_5_11", 5, 11),
    ("steps_12_19", 12, 19), ("steps_20_plus", 20, 10**9),
)


#: What a span name that never ran looks like in a ``by_name`` table.
NEVER_RAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "spans": []}


def _row(table: dict, name: str) -> dict:
    return table.get(name, NEVER_RAN)


def _mean_self(table: dict, name: str) -> float:
    row = _row(table, name)
    return row["self_s"] / row["calls"] if row["calls"] else 0.0


def _total_self(table: dict, name: str) -> float:
    return _row(table, name)["self_s"]


def _calls(table: dict, name: str) -> int:
    return _row(table, name)["calls"]


def _attr_mean(table: dict, name: str, attr: str) -> float:
    values = [span[attr] for span in _row(table, name)["spans"]]
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    linked: list[dict],
    selfs: dict,
    boot: tuple[float, float],
    window: tuple[float, float],
    sample,
    worker_boot_s: list[float],
    ready_s: float,
    rate_untraced: float,
    rate_traced: float,
) -> tuple[dict[str, tuple[float, str]], str]:
    """Every per-layer metric of BENCHMARK.json, and the printed tables.

    ``sample`` is the traced window's client-side sample; ``ready_s`` is
    spawn to the body of the first batch on the run's untraced server;
    ``rate_*`` are the workload's own rate with and without the wrappers
    installed.
    """
    boot_spans = spans.within(linked, *boot)
    window_spans = spans.within(linked, *window)
    in_boot = spans.by_name(boot_spans, selfs)
    in_window = spans.by_name(window_spans, selfs)
    boot_table, boot_loose = spans.waterfall(boot_spans, selfs)
    window_table, window_loose = spans.waterfall(window_spans, selfs)

    runs = _row(in_boot, "engine.chase.run")
    derived = sum(span["derived"] for span in runs["spans"])
    loads = _row(in_boot, "io.loads_database")
    loaded = sum(span["facts"] for span in loads["spans"])
    sessions = len(runs["spans"])
    compiles = _calls(in_boot, "core.compiler.compile_program")

    updates = _row(in_window, "engine.incremental.update")
    incremental = sum(
        1 for span in updates["spans"] if span["mode"] == "incremental"
    )
    pool_updates = _calls(in_window, "serve.workers.pool_update")

    # Fig. 18's shape: a cold explanation against the chase steps it
    # covers.  Cold means the mapper ran below it; the time is the whole
    # span, mapping included, as the figure plots it.
    mapped = {
        span["up"] for span in window_spans
        if span["layer"] == "core.mapping"
    }
    cold_us: dict[str, list[float]] = {name: [] for name, _, _ in STEP_BUCKETS}
    for span in _row(in_window, "core.explain.explain")["spans"]:
        if span["key"] in mapped:
            for name, low, high in STEP_BUCKETS:
                if low <= span["steps"] <= high:
                    cold_us[name].append(
                        (span["end"] - span["start"]) * 1e6
                    )

    # Client-observed latency minus the WorkerPool.serve span of the same
    # request: socket, HTTP framing, admission, executor hop, write.
    serve_by_client = {
        span["up"]: span["end"] - span["start"]
        for span in _row(in_window, "serve.workers.serve")["spans"]
        if span["up"] is not None
    }
    overheads, observed = [], 0.0
    for root in _row(in_window, "serve.server.overhead")["spans"]:
        inside = serve_by_client.get(root["key"])
        if inside is not None:
            overheads.append(root["end"] - root["start"] - inside)
            observed += root["end"] - root["start"]

    lookups = sample.counters.get("hits", 0.0) + sample.counters.get(
        "misses", 0.0
    )
    values: dict[str, tuple[float, str]] = {
        "io.loads_database_s": (_total_self(in_boot, "io.loads_database"), "s"),
        "io.loads_database_facts_per_s": (
            loaded / loads["total_s"] if loads["total_s"] else 0.0, "1/s"),
        "io.dumps_database_s": (
            _mean_self(in_window, "io.dumps_database"), "s"),
        "core.compiler.compile_s": (
            _total_self(in_boot, "core.compiler.compile_program"), "s"),
        "core.compiler.cache_hit_ratio": (
            (sessions - compiles) / sessions if sessions else 0.0, "ratio"),
        "engine.planner.plan_rule_s": (
            _total_self(in_boot, "engine.planner.plan_rule"), "s"),
        "engine.kernels.compile_s": (
            _total_self(in_boot, "engine.kernels.compile_rule_kernel"), "s"),
        "engine.kernels.execute_s": (
            _total_self(in_boot, "engine.kernels.execute"), "s"),
        "engine.kernels.execute_calls": (
            _calls(in_boot, "engine.kernels.execute"), "count"),
        "engine.chase.run_s": (_total_self(in_boot, "engine.chase.run"), "s"),
        "engine.chase.runs_per_boot": (sessions, "count"),
        "engine.chase.derived_facts": (
            derived / sessions if sessions else 0.0, "count"),
        "engine.chase.facts_per_s": (
            derived / runs["total_s"] if runs["total_s"] else 0.0, "1/s"),
        "engine.chase.rounds": (
            _attr_mean(in_boot, "engine.chase.run", "rounds"), "count"),
        "engine.provenance_index.build_s": (
            _total_self(in_boot, "engine.provenance_index.build"), "s"),
        "engine.provenance_index.rebind_s": (
            _mean_self(in_window, "engine.provenance_index.rebind"), "s"),
        "engine.provenance_index.spine_s": (
            _mean_self(in_window, "engine.provenance_index.spine"), "s"),
        "engine.provenance_index.spine_calls": (
            _calls(in_window, "engine.provenance_index.spine"), "count"),
        "engine.incremental.update_s": (
            _mean_self(in_window, "engine.incremental.update"), "s"),
        "engine.incremental.incremental_share": (
            incremental / len(updates["spans"]) if updates["spans"] else 0.0,
            "ratio"),
        "engine.incremental.replayed_records": (
            _attr_mean(in_window, "engine.incremental.update", "replayed"),
            "count"),
        "core.service.session_update_s": (
            _mean_self(in_window, "core.service.session_update"), "s"),
        "core.service.sessions_updated_per_update": (
            _calls(in_window, "core.service.session_update") / pool_updates
            if pool_updates else 0.0, "count"),
        "core.explain.explain_s": (
            _mean_self(in_window, "core.explain.explain"), "s"),
        "core.explain.calls": (
            _calls(in_window, "core.explain.explain"), "count"),
        **{
            f"core.explain.cold_us.{name}": (
                statistics.fmean(times) if times else 0.0, "us")
            for name, times in cold_us.items()
        },
        "core.mapping.map_spine_s": (
            _mean_self(in_window, "core.mapping.map_spine"), "s"),
        "core.mapping.map_spine_calls": (
            _calls(in_window, "core.mapping.map_spine"), "count"),
        "core.cache.hit_ratio": (
            sample.counters.get("hits", 0.0) / lookups if lookups else 0.0,
            "ratio"),
        "core.cache.evictions": (
            sample.counters.get("evictions", 0.0), "count"),
        "core.whynot.explain_why_not_s": (
            _mean_self(in_window, "core.whynot.explain_why_not"), "s"),
        "core.whynot.calls": (
            _calls(in_window, "core.whynot.explain_why_not"), "count"),
        "serve.protocol.parse_s": (
            _mean_self(in_window, "serve.protocol.parse"), "s"),
        "serve.protocol.encode_s": (
            _mean_self(in_window, "serve.protocol.encode"), "s"),
        "serve.protocol.body_bytes": (
            _attr_mean(in_window, "serve.protocol.encode", "bytes"), "count"),
        "serve.admission.admit_s": (
            _mean_self(in_window, "serve.admission.admit"), "s"),
        "serve.admission.shed": (sample.counters.get("shed", 0.0), "count"),
        "serve.workers.serve_s": (
            _mean_self(in_window, "serve.workers.serve"), "s"),
        "serve.workers.checkout_wait_s": (
            _mean_self(in_window, "serve.workers.run"), "s"),
        "serve.workers.update_drain_wait_s": (
            _mean_self(in_window, "serve.workers.pool_update"), "s"),
        "serve.workers.boot_s": (
            statistics.fmean(worker_boot_s) if worker_boot_s else 0.0, "s"),
        "serve.routes.serve_session_request_s": (
            _mean_self(in_window, "serve.routes.serve_session_request"), "s"),
        "serve.server.overhead_ms": (
            statistics.median(overheads) * 1000.0 if overheads else 0.0,
            "ms"),
        "serve.server.overhead_share": (
            sum(overheads) / observed if observed else 0.0, "ratio"),
        "serve.server.ready_s": (ready_s, "s"),
        "serve.server.whynot_p50_ms": (
            statistics.median(
                latency for latency, _ in sample.whynots
            ) * 1000.0 if sample.whynots else 0.0, "ms"),
        "serve.server.update_p50_ms": (
            statistics.median(
                latency for _, latency in sample.updates
            ) * 1000.0 if sample.updates else 0.0, "ms"),
        "serve.server.request_p99_ms": (
            percentile(
                [latency for latency, _, _ in sample.reads], 0.99
            ) * 1000.0
            if sample.reads else 0.0, "ms"),
        "bench.client_s": (
            statistics.fmean(sample.own) if sample.own else 0.0, "s"),
        "bench.generator_late_p99_ms": (
            percentile(sample.late, 0.99) * 1000.0 if sample.late else 0.0,
            "ms"),
        "bench.unattributed_share": (max(boot_loose, window_loose), "ratio"),
        "bench.trace_overhead_share": (
            1.0 - rate_traced / rate_untraced if rate_untraced else 0.0,
            "ratio"),
    }
    text = (
        "boot of the traced server (root: spawn to /healthz)\n"
        f"{boot_table}\n"
        "window of the traced server (roots: client requests)\n"
        f"{window_table}"
    )
    return values, text

