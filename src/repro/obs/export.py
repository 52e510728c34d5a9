"""Exporters: the stats document and Prometheus text.

Two consumers, two renderings of the same telemetry:

* **the stats document** — a single JSON object
  (:func:`stats_document`) bundling registry counters/gauges/histogram
  summaries, cache telemetry, chase statistics, a per-name aggregation
  of the flight records' phases and the kernel profile; ``--stats``
  writes it and ``obs top`` reads its ``profile`` section;
* **Prometheus text** (:func:`render_prometheus`) — counters, gauges
  and summary quantiles in the exposition format, for scraping the
  service in a deployment.

The per-run trace is the flight recorder's ``repro-flight/1`` document
(:func:`~repro.obs.flight.write_flight`).
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable

from .flight import FlightRecord, FlightRecorder
from .metrics import MetricsRegistry
from .profile import kernel_profile

#: Version tag of the serialized layout.
STATS_FORMAT = "repro-stats/1"

#: Top-level keys every stats document carries (CI gates on these).
STATS_DOCUMENT_KEYS = (
    "format", "counters", "gauges", "histograms", "caches", "chase", "spans",
    "profile",
)


def phase_aggregate(records: Iterable[FlightRecord]) -> dict[str, dict]:
    """Per-phase-name totals over flight records: how many records carry
    the phase, its summed time and its largest per-record time."""
    aggregate: dict[str, dict] = {}
    for record in records:
        for name, seconds in record.phases.items():
            entry = aggregate.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += seconds
            entry["max_s"] = max(entry["max_s"], seconds)
    return dict(sorted(aggregate.items()))


# ----------------------------------------------------------------------
# The stats document
# ----------------------------------------------------------------------

def stats_document(
    metrics: MetricsRegistry,
    flight: FlightRecorder | None = None,
    chase: Any = None,
    meta: dict | None = None,
) -> dict:
    """One structured JSON document describing an observed run.

    ``flight`` is the run's recorder (its retained records' phases fill
    ``spans``); ``chase`` is a :class:`~repro.engine.chase.ChaseStats`
    (or its snapshot mapping), whose ``plans`` also fill ``profile``;
    ``meta`` carries free-form run identity (app name, argv, ...).
    Every document has the same top-level keys
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
        chase_document = (
            chase.snapshot() if hasattr(chase, "snapshot") else dict(chase)
        )
        document["chase"] = chase_document
        document["profile"] = kernel_profile(chase_document.get("plans", {}))
    if flight is not None:
        document["spans"] = phase_aggregate(flight.records())
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
