#!/usr/bin/env python
"""Perf-smoke gate: fail when engine throughput regresses past a tolerance.

Compares a freshly measured ``bench_simulator.py`` report against the
committed baseline (``BENCH_simulator.json``)::

    python benchmarks/bench_simulator.py -o .bench_smoke.json
    python scripts/check_bench_regression.py .bench_smoke.json \
        --baseline BENCH_simulator.json --max-regression 0.25

The gate watches ``cycles_per_sec`` of the schedulers named by
``--schedulers`` (default: adaptive-bind, the paper's headline policy)
and exits non-zero when a fresh number falls more than
``--max-regression`` below its baseline. The tolerance is deliberately
wide: CI runners are noisy shared machines, so this catches structural
regressions (an accidental O(n) in the issue loop), not percent-level
drift — ``benchmarks/bench_simulator.py`` best-of-N numbers on a quiet
machine are the instrument for the latter.

``--update-baseline`` flips the tool from gate to refresher: the fresh
report overwrites the baseline file and the run always exits 0. Use it
through ``make bench-refresh`` after intentional perf work, on a quiet
machine (policy in docs/simulator.md).
"""

from __future__ import annotations

import argparse
import json
import sys


def check(fresh: dict, baseline: dict, schedulers: list[str], max_regression: float) -> list[str]:
    """Return one failure message per scheduler past the tolerance."""
    failures = []
    for sched in schedulers:
        base = baseline.get("schedulers", {}).get(sched, {}).get("cycles_per_sec")
        new = fresh.get("schedulers", {}).get(sched, {}).get("cycles_per_sec")
        if not base:
            failures.append(f"{sched}: baseline has no cycles_per_sec entry")
            continue
        if not new:
            failures.append(f"{sched}: fresh report has no cycles_per_sec entry")
            continue
        floor = base * (1.0 - max_regression)
        if new < floor:
            failures.append(
                f"{sched}: {new:,.0f} cycles/sec is below the regression floor "
                f"{floor:,.0f} (baseline {base:,.0f}, tolerance {max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured bench_simulator.py JSON report")
    parser.add_argument("--baseline", default="BENCH_simulator.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional drop below baseline (default: 0.25)",
    )
    parser.add_argument(
        "--schedulers",
        nargs="+",
        default=["adaptive-bind"],
        help="schedulers to gate on (default: adaptive-bind)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="after reporting, overwrite the baseline file with the fresh "
        "report and exit 0 (the 'make bench-refresh' flow; see "
        "docs/simulator.md for when refreshing is legitimate)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")

    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    failures = check(fresh, baseline, args.schedulers, args.max_regression)
    for sched in args.schedulers:
        base = baseline.get("schedulers", {}).get(sched, {}).get("cycles_per_sec", 0)
        new = fresh.get("schedulers", {}).get(sched, {}).get("cycles_per_sec", 0)
        ratio = f"{new / base:.2f}x" if base else "n/a"
        print(f"{sched:>24}: fresh {new:,.0f} vs baseline {base:,.0f} cycles/sec ({ratio})")
    if args.update_baseline:
        # refresh: the fresh report becomes the committed baseline; the
        # comparison above is printed for the record but never fails
        with open(args.fresh, encoding="utf-8") as fh:
            text = fh.read()
        with open(args.baseline, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"baseline {args.baseline} updated from {args.fresh}")
        return 0
    if failures:
        for message in failures:
            print(f"REGRESSION {message}", file=sys.stderr)
        return 1
    print("perf smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
