"""The kernel profile: per-rule-kernel wall time and row attribution.

The columnar core (``engine/kernels.py``) compiles each rule into a
closure kernel and executes it every round — fast, and opaque.  Each
execution adds its wall time, index probes, rows scanned, rows emitted
and pruned partials to the rule's entry in ``ChaseStats.plans`` (an
aggregate rule's entry also counts its evaluated groups).
:func:`kernel_profile` turns those entries into the rows ``--metrics``,
the stats document (``profile`` key) and ``repro-explain obs top`` show.
"""

from __future__ import annotations

#: The columns of a profile row, in ``obs top`` order.
PROFILE_FIELDS = (
    "execs", "wall_s", "probes", "rows_scanned", "rows_emitted", "pruned",
    "groups_evaluated", "rows_per_s",
)


def kernel_profile(plans: dict) -> dict:
    """Profile rows (sorted by rule label) of ``ChaseStats.plans``.

    Rules whose kernel never ran have no row.
    """
    profile: dict[str, dict] = {}
    for label, entry in sorted(plans.items()):
        execs = entry.get("kernel_execs", 0)
        if not execs:
            continue
        wall = entry.get("wall_s", 0.0)
        scanned = entry.get("scanned", 0)
        profile[label] = {
            "execs": execs,
            "wall_s": round(wall, 9),
            "probes": entry.get("probes", 0),
            "rows_scanned": scanned,
            "rows_emitted": entry.get("matches", 0),
            "pruned": entry.get("pruned", 0),
            "groups_evaluated": entry.get("groups_evaluated", 0),
            "rows_per_s": round(scanned / wall) if wall > 0 else 0,
        }
    return profile


def render_top(
    profile: dict, limit: int = 10, key: str = "wall_s"
) -> str:
    """A fixed-width table of the heaviest kernels (``obs top`` view).

    ``profile`` is a :func:`kernel_profile` mapping (or the ``profile``
    section of a stats document).
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
