"""One command for the whole benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once and prints every metric by name with its unit;
the last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` gives the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics (from a traced
server; end-to-end numbers never come from one).

Without ``--workload`` all four workloads run, traced as well with
``--trace``, and the summary lands in ``bench/results/latest.json``.
``--repeat 2 --agree`` runs that set twice and exits 1, naming metric and
workload, if any end-to-end metric differs between the two sets by more
than its own bound, or anything failed.  With a larger ``--repeat`` the
first half of the sets is compared with the second half, median against
median, as the benchmark's driver compares two rounds.  ``--quick`` is
the smoke size the tests use.  A run in which an operation failed prints
its result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _program_path() -> None:
    """Put the program under test on the path, or leave without a
    result: the benchmark measures ``src/repro`` and nothing else."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.stderr.write(
            f"bench/run.py: no program to measure at {source}/repro\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, source)


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as file:
        return json.load(file)


def _print_result(result) -> None:
    print(f"== {result.workload}  seed {result.seed}  "
          + "  ".join(f"{k}={v}" for k, v in result.notes.items()))
    if result.tables:
        print(result.tables)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<46}{value:>16.6g} {unit}")
    print(f"  attempted {result.attempted}  failed {len(result.failures)}")
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")


def _last_line(result) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    })


def _spread(first: float, second: float) -> float:
    middle = (first + second) / 2
    return abs(first - second) / middle if middle else 0.0


def _agree(sets: list[dict], contract: dict) -> list[str]:
    """Disagreements between the first half of the sets and the second
    half (their medians), one line each."""
    complaints = []
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            first, second = (
                statistics.median(
                    results[workload].metrics[name][0] for results in half
                )
                for half in (sets[:len(sets) // 2], sets[len(sets) // 2:])
            )
            spread = _spread(first, second)
            verdict = "ok" if spread <= bound else "DISAGREE"
            print(f"  {workload:<12}{name:<28}{first:>14.6g}{second:>14.6g}"
                  f"{spread:>9.2%} of bound {bound:.0%}  {verdict}")
            if spread > bound:
                complaints.append(
                    f"{name} on {workload}: {first:.6g} vs {second:.6g} "
                    f"({spread:.1%} > {bound:.0%})"
                )
    for results in sets:
        for workload, result in results.items():
            if result.failures:
                complaints.append(
                    f"{workload}: {len(result.failures)} of "
                    f"{result.attempted} operations failed"
                )
    return complaints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    _program_path()
    sys.path.insert(0, HERE)
    import workloads

    # A terminated run still reaps its servers and removes its scratch
    # directory: turn SIGTERM into an exit the context managers see.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    contract = _contract()
    seconds = args.seconds or (2 if args.quick else contract["run_seconds"])
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload is one of {workloads.WORKLOADS}")
        result = workloads.run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.quick
        )
        _print_result(result)
        print(_last_line(result))
        return 0 if result.correct else 1

    sets: list[dict] = []
    traced: dict = {}
    for _ in range(args.repeat):
        results = {}
        for workload in workloads.WORKLOADS:
            results[workload] = workloads.run_workload(
                workload, args.seed, seconds, False, args.quick
            )
            _print_result(results[workload])
        sets.append(results)
    if args.trace:
        for workload in workloads.WORKLOADS:
            traced[workload] = workloads.run_workload(
                workload, args.seed, seconds, True, args.quick
            )
            _print_result(traced[workload])
    complaints = _agree(sets, contract) if args.agree and args.repeat > 1 else [
        f"{workload}: {len(result.failures)} operations failed"
        for results in sets + [traced]
        for workload, result in results.items() if result.failures
    ]
    if not args.quick:
        summary = {
            "seed": args.seed, "seconds": seconds,
            "sets": [
                {w: {"metrics": {n: v for n, (v, _) in r.metrics.items()},
                     "notes": r.notes, "attempted": r.attempted,
                     "failed": len(r.failures)}
                 for w, r in results.items()}
                for results in sets
            ],
            "traced": {
                w: {n: v for n, (v, _) in r.metrics.items()}
                for w, r in traced.items()
            },
            "complaints": complaints,
        }
        with open(os.path.join(HERE, "results", "latest.json"), "w",
                  encoding="utf-8") as file:
            json.dump(summary, file, indent=1, sort_keys=True)
            file.write("\n")
    for complaint in complaints:
        print(f"NOT AGREED: {complaint}")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main())
