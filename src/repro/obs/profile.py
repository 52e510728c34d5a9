"""The kernel profiler: per-rule-kernel wall time and row attribution.

The columnar core (``engine/kernels.py``) compiles each rule into a
closure kernel and executes it every round — fast, and opaque.  A
:class:`KernelProfiler` re-opens the box without giving the speed back:
each :meth:`record` call attributes one kernel execution's wall time,
index probes, rows scanned, rows emitted and pruned partials to the
rule's label (:meth:`record_groups` adds an aggregate rule's evaluated
groups).  The aggregate view feeds ``--metrics``, the stats
document (``profile`` key) and the ``repro-explain obs top`` table.

Like the tracer and flight recorder, a disabled profiler is a shared
no-op: the kernel hot path pays one attribute check when profiling is
off.
"""

from __future__ import annotations

import threading

#: The per-kernel fields every profile entry carries.
PROFILE_FIELDS = (
    "execs", "wall_s", "probes", "rows_scanned", "rows_emitted", "pruned",
    "groups_evaluated",
)


class KernelProfiler:
    """Aggregates per-kernel execution telemetry under rule labels."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._kernels: dict[str, dict] = {}

    def record(
        self,
        label: str,
        wall_s: float,
        probes: int = 0,
        rows_scanned: int = 0,
        rows_emitted: int = 0,
        pruned: int = 0,
    ) -> None:
        """Attribute one kernel execution to ``label``."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._entry(label)
            entry["execs"] += 1
            entry["wall_s"] += wall_s
            entry["probes"] += probes
            entry["rows_scanned"] += rows_scanned
            entry["rows_emitted"] += rows_emitted
            entry["pruned"] += pruned

    def record_groups(self, label: str, evaluated: int) -> None:
        """Attribute one aggregate rule turn's group evaluations."""
        if not self.enabled:
            return
        with self._lock:
            self._entry(label)["groups_evaluated"] += evaluated

    def _entry(self, label: str) -> dict:
        entry = self._kernels.get(label)
        if entry is None:
            entry = dict.fromkeys(PROFILE_FIELDS, 0)
            entry["wall_s"] = 0.0
            self._kernels[label] = entry
        return entry

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-kernel entries (sorted by label) with derived rates."""
        with self._lock:
            kernels = {
                label: dict(entry)
                for label, entry in sorted(self._kernels.items())
            }
        for entry in kernels.values():
            wall = entry["wall_s"]
            entry["wall_s"] = round(wall, 9)
            entry["rows_per_s"] = (
                round(entry["rows_scanned"] / wall) if wall > 0 else 0
            )
        return kernels

    def top(self, limit: int = 10, key: str = "wall_s") -> list[tuple[str, dict]]:
        """The ``limit`` heaviest kernels by ``key``, descending."""
        snapshot = self.snapshot()
        ranked = sorted(
            snapshot.items(), key=lambda item: item[1].get(key, 0),
            reverse=True,
        )
        return ranked[:limit]

    def clear(self) -> None:
        with self._lock:
            self._kernels.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)


def render_top(
    profile: dict, limit: int = 10, key: str = "wall_s"
) -> str:
    """A fixed-width table of the heaviest kernels (``obs top`` view).

    ``profile`` is a :meth:`KernelProfiler.snapshot` mapping (or the
    ``profile`` section of a stats document).
    """
    ranked = sorted(
        profile.items(), key=lambda item: item[1].get(key, 0), reverse=True
    )[:limit]
    header = (
        f"{'kernel':<28} {'execs':>7} {'wall_ms':>9} {'probes':>9} "
        f"{'scanned':>9} {'emitted':>9} {'pruned':>8} {'groups':>8} "
        f"{'rows/s':>10}"
    )
    lines = [header, "-" * len(header)]
    for label, entry in ranked:
        lines.append(
            f"{label:<28} {entry.get('execs', 0):>7} "
            f"{entry.get('wall_s', 0.0) * 1000:>9.2f} "
            f"{entry.get('probes', 0):>9} "
            f"{entry.get('rows_scanned', 0):>9} "
            f"{entry.get('rows_emitted', 0):>9} "
            f"{entry.get('pruned', 0):>8} "
            f"{entry.get('groups_evaluated', 0):>8} "
            f"{entry.get('rows_per_s', 0):>10}"
        )
    if not ranked:
        lines.append("(no kernel executions recorded)")
    return "\n".join(lines)


#: The process-default profiler: permanently disabled.
NULL_PROFILER = KernelProfiler(enabled=False)
