"""Shared helpers for the benchmark/reproduction harness.

Every benchmark regenerates one of the paper's tables or figures.  Besides
asserting the expected *shape* of the result, each benchmark writes its
artifact (a table or a textual boxplot) to ``benchmarks/results/`` and
prints it, so a plain ``pytest benchmarks/ --benchmark-only -s`` run leaves
a complete experimental record behind.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, artifact: str) -> None:
    """Print an artifact and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== {name} =====")
    print(artifact)


def once(benchmark, function, *args, **kwargs):
    """Run a heavyweight experiment exactly once under pytest-benchmark.

    The studies and sweeps take seconds; timing them repeatedly would not
    sharpen the measurement, so a single round is recorded.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
