#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a fresh measurement run.

Runs the Fig 2 analysis, the full Figures 7/8/9 grid, and the Section V-D
latency sweep at the given scale (default: small), and writes the
measured-vs-paper record the repository ships. The grid and sweep go
through the RunSpec execution layer, so ``--jobs`` parallelizes the
simulations and ``--cache-dir`` makes reruns incremental (docs/harness.md).

Usage::

    python scripts/make_experiments_report.py [scale] [output] [--jobs N] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import time

from repro import analyze_footprint, experiment_config, iter_benchmarks
from repro.harness.execution import make_executor
from repro.harness.report import (
    render_footprints,
    render_l1_hit_rates,
    render_l2_hit_rates,
    render_latency_sweep,
    render_normalized_ipc,
)
from repro.harness.runner import run_grid, run_latency_sweep

HEADER = """# EXPERIMENTS — measured vs paper

Generated by `python scripts/make_experiments_report.py {scale}`
(deterministic; reruns reproduce these numbers exactly).

**Reading guide.** The simulator is a simplified trace-driven model and
the machine/inputs are scaled (DESIGN.md §2), so absolute values are not
comparable with the paper's GPGPU-Sim results. Each section states the
paper's quantitative claim, the measured counterpart, and whether the
*shape* (ordering, sign, crossover) reproduces.

"""


def fig2_section(workloads) -> tuple[str, dict]:
    results = {w.full_name: analyze_footprint(w.kernel()) for w in workloads}
    pcs = [r.parent_child for r in results.values()]
    css = [r.child_sibling for r in results.values()]
    pps = [r.parent_parent for r in results.values()]
    avg_pc, avg_cs, avg_pp = (sum(x) / len(x) for x in (pcs, css, pps))
    text = f"""## Figure 2 — shared footprint ratios

Paper: average **38.4%** parent-child, **30.5%** child-sibling, **9.3%**
parent-parent; `amr`/`join` show near-zero child-sibling sharing;
citation/cage15 inputs share more among siblings than graph500.

Measured: average **{avg_pc:.1%}** parent-child, **{avg_cs:.1%}**
child-sibling, **{avg_pp:.1%}** parent-parent.

```
{render_footprints(results)}
```

Shape: **reproduces** — parent-child sharing dominates parent-parent,
`amr` has the near-disjoint children the paper describes, and the
citation/cage15 > graph500 sibling ordering holds for all three graph
applications. (Parent-parent uses mean pairwise overlap; the paper does
not specify its normalization.)

"""
    return text, results


def figs789_section(grid) -> str:
    lines = ["## Figures 7-9 — cache hit rates and normalized IPC\n"]
    lines.append(
        "Paper: TB-Pri improves mean L2 hit rate by **+6.7%** (CDP) / "
        "**+8.7%** (DTBL) and L1 by **+1.1%/+2.1%**, for **+4%/+13%** IPC; "
        "the full LaPerm (Adaptive-Bind) averages **+27%** IPC over RR; "
        "SMX-Bind gains the most L1 locality but risks SMX load imbalance.\n"
    )
    d = {}
    for model in grid.models:
        for sched in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            d[(sched, model)] = (
                grid.mean_metric(sched, model, "l2_hit_rate"),
                grid.mean_metric(sched, model, "l1_hit_rate"),
                grid.mean_normalized_ipc(sched, model),
            )
    lines.append("Measured means over the 16 benchmarks:\n")
    lines.append("| scheduler | model | L2 hit | L1 hit | IPC vs RR |")
    lines.append("|---|---|---|---|---|")
    for model in grid.models:
        for sched in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            l2, l1, ipc = d[(sched, model)]
            lines.append(f"| {sched} | {model} | {l2:.3f} | {l1:.3f} | {ipc:.3f} |")
    lines.append("")
    lines.append(
        "Shape: **largely reproduces** — under DTBL the ordering "
        "Adaptive-Bind > TB-Pri > RR holds on mean IPC, TB-Pri's benefit is "
        "temporal (L2), SMX-Bind has the best mean L1 hit rate in every "
        "configuration but pays for load imbalance (it collapses on the "
        "R-MAT inputs whose giant launch families serialize on one SMX — "
        "the exact pathology motivating Adaptive-Bind, which recovers it). "
        "Magnitudes are smaller than the paper's (+"
        f"{(d[('adaptive-bind', 'dtbl')][2] - 1) * 100:.0f}% vs +27% for "
        "LaPerm/DTBL): the scaled simulator hides less latency than a real "
        "SMX (fewer resident warps), so cache gains convert to fewer IPC "
        "points. Per-benchmark series follow.\n"
    )
    for render in (render_l2_hit_rates, render_l1_hit_rates, render_normalized_ipc):
        lines.append("```")
        lines.append(render(grid))
        lines.append("```\n")
    return "\n".join(lines)


def latency_section(scale: str, executor) -> str:
    rows = run_latency_sweep("bfs-citation", scale=scale, executor=executor)
    table = render_latency_sweep(rows)
    first, last = rows[0][1], rows[-1][1]
    low_latency, low, _ = min(rows, key=lambda row: row[1])
    return f"""## Section V-D — launch-latency sensitivity

Paper: the launch latency "can kill any potential parent-child locality";
LaPerm depends on children executing soon after their direct parents, so
CDP's software launch path (microseconds) erodes the benefit that DTBL's
hardware path preserves.

Measured (bfs-citation, Adaptive-Bind vs RR, sweeping the launch latency):

```
{table}
```

Shape: **reproduces** — the speedup falls from {first:.3f}x at
hardware-launch latency to {last:.3f}x when launches cost 64k cycles,
dipping to a minimum of {low:.3f}x at {low_latency:,} cycles on the way, and
children observably wait out the latency.

"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", default="small")
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="simulation worker processes (default: 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk result cache (default: no caching)")
    args = parser.parse_args()
    scale, output = args.scale, args.output
    executor = make_executor(jobs=args.jobs, cache=args.cache_dir)

    t0 = time.time()
    print(f"building workloads (scale={scale}) ...")
    workloads = list(iter_benchmarks(scale=scale))
    for w in workloads:
        w.kernel()

    print("Fig 2 ...")
    fig2, _ = fig2_section(workloads)
    print("Figures 7/8/9 grid (this is the long part) ...")
    grid = run_grid(workloads, config=experiment_config(), executor=executor)
    figs = figs789_section(grid)
    print("latency sweep ...")
    latency = latency_section(scale, executor)

    with open(output, "w") as f:
        f.write(HEADER.format(scale=scale))
        f.write(fig2)
        f.write(figs)
        f.write(latency)
        f.write(
            "## Tables I & II\n\n"
            "Table I is the machine description (`repro.gpu.config.KEPLER_K20C`"
            " for the paper values; `repro.harness.experiment_config()` for the"
            " scaled machine the measurements above use). Table II is the"
            " benchmark registry (`repro.harness.BENCHMARKS`); both are printed"
            " with workload statistics by `benchmarks/bench_table1_config.py`"
            " and `benchmarks/bench_table2_benchmarks.py`.\n\n"
            "## Section IV-E — overheads\n\n"
            "`benchmarks/bench_overhead.py` measures the priority-queue"
            " pressure the workloads generate: on-chip entry high-water marks"
            " against the 128-entry (DTBL) / 32-entry (CDP) SRAM budget,"
            " overflow events (each costs one global-memory fetch at dispatch,"
            " modelled as a dispatch delay), and KDU/KMU occupancy. DTBL"
            " groups consume no KDU entries; CDP is capped at the 32-entry"
            " limit and queues device kernels in the KMU — both as the paper"
            " describes.\n"
        )
    print(f"wrote {output} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
