"""Paired comparison of two revisions on the benchmark.

    python3 benchmarks/suite/compare.py PARENT_REV CHANGE_REV --pairs 10 --workload replay

Both revisions are exported with ``git archive`` into temporary
directories (the same files a checkout holds, no ``.git``), and this
suite plus ``BENCHMARK.json`` are copied over each, so both sides run
identical benchmark code and settings. Each pair runs the parent and the
change once with the same seed, alternating which side goes first.

For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won, and a verdict:

* ``improved`` -- the change won at least 9/10 of all pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- the parent's own spread is wider than the metric's
  bound, and not every change run beat every parent run;
* ``no worse than the bound`` -- the change's median is not worse than
  the parent's by more than the bound;
* ``worse than the bound`` -- it is.

Confirm a claimed gain on the held-out seed (``--seed 11``) as well.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= math.ceil(0.9 * len(parent)) and gain > p_q3 - p_q1:
        label = "improved"
    elif (p_q3 - p_q1) / p_med > bound and not every_run_better:
        label = "unresolved"
    elif -gain / p_med <= bound:
        label = "no worse than the bound"
    else:
        label = "worse than the bound"
    return {
        "verdict": label, "wins": wins, "pairs": len(parent),
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
    }


def export(rev: str, dest: Path) -> Path:
    """``git archive`` one revision into ``dest``, then overlay this suite."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    suite = dest / "benchmarks" / "suite"
    shutil.rmtree(suite, ignore_errors=True)
    shutil.copytree(SUITE, suite, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run; its length is ``run_seconds`` of the copied
    BENCHMARK.json, the same on both sides."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = contract["run_seconds"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": export(args.change, Path(tmp) / "change")}
        for workload in workloads:
            samples = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, args.seed)
                    if not result["correct"] or result["failed"]:
                        raise RuntimeError(f"{side} {workload}: output checks failed")
                    samples[side].append(result["metrics"])
            print(f"== {workload}: {args.pairs} pairs, seed {args.seed}, {seconds:g} s runs")
            for metric in contract["end_to_end"]:
                name = metric["name"]
                row = verdict(
                    [m[name]["value"] for m in samples["parent"]],
                    [m[name]["value"] for m in samples["change"]],
                    metric["better"], metric["bound"],
                )
                p, c = row["parent"], row["change"]
                print(f"  {name:18s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                      f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                      f"won {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
