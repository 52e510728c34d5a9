"""Exporters: JSON-lines traces, the stats document, Prometheus text.

Three consumers, three renderings of the same telemetry:

* **trace JSON-lines** — one span per line, replayable into a tree by
  :func:`parse_trace_jsonl` + :func:`span_tree`; the format humans and
  regression tooling diff after a slow run;
* **the stats document** — a single JSON object
  (:func:`stats_document`) bundling registry counters/gauges/histogram
  summaries, cache telemetry, chase statistics and a per-name span
  aggregation; ``--stats`` writes it and ``obs top`` reads its
  ``profile`` section;
* **Prometheus text** (:func:`render_prometheus`) — counters, gauges
  and summary quantiles in the exposition format, for scraping the
  service in a deployment.
"""

from __future__ import annotations

import io
import json
import re
from typing import Any, Iterable

from .metrics import MetricsRegistry
from .trace import Span, Tracer

#: Version tags of the serialized layouts.
TRACE_FORMAT = "repro-trace/1"
STATS_FORMAT = "repro-stats/1"

#: Top-level keys every stats document carries (CI gates on these).
STATS_DOCUMENT_KEYS = (
    "format", "counters", "gauges", "histograms", "caches", "chase", "spans",
    "profile",
)


# ----------------------------------------------------------------------
# Trace: JSON-lines out, span tree back in
# ----------------------------------------------------------------------

def trace_jsonl(tracer: Tracer) -> str:
    """The finished spans as JSON-lines, headed by a format record."""
    buffer = io.StringIO()
    header = {"format": TRACE_FORMAT, "spans": len(tracer.finished())}
    buffer.write(json.dumps(header) + "\n")
    for span in tracer.finished():
        buffer.write(json.dumps(span.to_dict(), default=str) + "\n")
    return buffer.getvalue()


def write_trace(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_jsonl(tracer))


def parse_trace_jsonl(text: str) -> list[dict]:
    """Parse :func:`trace_jsonl` output back into span records.

    The header line is validated and dropped; spans come back in file
    (= completion) order.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"unsupported trace format {header.get('format')!r} "
            f"(expected {TRACE_FORMAT!r})"
        )
    return [json.loads(line) for line in lines[1:]]


def span_tree(spans: Iterable[dict]) -> list[dict]:
    """Nest flat span records into parent/child trees.

    Returns the list of root spans; every record gains a ``children``
    list ordered by start time.  Orphaned parents (spans still open when
    the trace was cut) are promoted to roots rather than dropped.
    """
    records = [dict(span) for span in spans]
    by_id = {record["id"]: record for record in records}
    roots: list[dict] = []
    for record in records:
        record.setdefault("children", [])
    for record in records:
        parent = by_id.get(record.get("parent"))
        if parent is None:
            roots.append(record)
        else:
            parent["children"].append(record)
    def sort_children(record: dict) -> None:
        record["children"].sort(key=lambda child: child.get("start_s", 0.0))
        for child in record["children"]:
            sort_children(child)
    roots.sort(key=lambda record: record.get("start_s", 0.0))
    for root in roots:
        sort_children(root)
    return roots


def span_aggregate(spans: Iterable[Span]) -> dict[str, dict]:
    """Per-name totals over finished spans (count, total and max time)."""
    aggregate: dict[str, dict] = {}
    for span in spans:
        entry = aggregate.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += span.duration_s
        entry["max_s"] = max(entry["max_s"], span.duration_s)
    return dict(sorted(aggregate.items()))


# ----------------------------------------------------------------------
# The stats document
# ----------------------------------------------------------------------

def stats_document(
    metrics: MetricsRegistry,
    tracer: Tracer | None = None,
    chase: Any = None,
    meta: dict | None = None,
    profile: Any = None,
) -> dict:
    """One structured JSON document describing an observed run.

    ``chase`` is a :class:`~repro.engine.chase.ChaseStats` (or anything
    with a ``snapshot()``); ``profile`` a
    :class:`~repro.obs.profile.KernelProfiler` (or its snapshot
    mapping); ``meta`` carries free-form run identity (app name, argv,
    ...).  Every document has the same top-level keys
    (:data:`STATS_DOCUMENT_KEYS`) so downstream tooling can gate on
    presence without caring which stages actually ran.
    """
    snapshot = metrics.snapshot()
    document = {
        "format": STATS_FORMAT,
        "meta": dict(meta or {}),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "caches": snapshot["caches"],
        "chase": {},
        "spans": {},
        "profile": {},
    }
    if chase is not None:
        document["chase"] = (
            chase.snapshot() if hasattr(chase, "snapshot") else dict(chase)
        )
    if tracer is not None and tracer.enabled:
        document["spans"] = span_aggregate(tracer.finished())
    if profile is not None:
        document["profile"] = (
            profile.snapshot() if hasattr(profile, "snapshot")
            else dict(profile)
        )
    return document


def write_stats(document: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    return prefix + _PROM_NAME.sub("_", name)


def render_prometheus(metrics: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Counters and gauges map directly; histograms render as summaries
    (quantile-labelled series plus ``_sum``/``_count``); attached caches
    contribute labelled gauges (hits, misses, evictions, size).
    """
    snapshot = metrics.snapshot()
    lines: list[str] = []
    for name, value in sorted(snapshot["counters"].items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted(snapshot["gauges"].items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, summary in snapshot["histograms"].items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} summary")
        for percentile in (50, 95, 99):
            quantile = percentile / 100.0
            lines.append(
                f'{metric}{{quantile="{quantile}"}} '
                f'{summary[f"p{percentile}"]}'
            )
        lines.append(f"{metric}_sum {summary['total']}")
        lines.append(f"{metric}_count {summary['count']}")
    for cache_name, cache in snapshot["caches"].items():
        for key, value in cache.items():
            if key == "regions" and isinstance(value, dict):
                # Per-region breakdown (explain/why/violation/whynot):
                # one labelled series per region per stat.
                for region_name, region in sorted(value.items()):
                    for stat, stat_value in region.items():
                        if not isinstance(stat_value, (int, float)):
                            continue
                        metric = _prom_name(f"cache_region_{stat}")
                        lines.append(
                            f'{metric}{{cache="{cache_name}",'
                            f'region="{region_name}"}} {stat_value}'
                        )
                continue
            if not isinstance(value, (int, float)):
                continue
            metric = _prom_name(f"cache_{key}")
            lines.append(f'{metric}{{cache="{cache_name}"}} {value}')
    return "\n".join(lines) + "\n"
