#!/usr/bin/env python3
"""Build a custom dynamic-parallelism workload against the public API.

Two things are demonstrated:

1. **Subclassing the graph template** — ``GraphDynWorkload`` implements
   the paper's parent/child/nested-launch structure (inline expansion of
   short rows, child TB groups for long rows, visited-once nested
   expansion); a new algorithm only fills in the memory-access hooks.
   Here: a push-style PageRank iteration.

2. **Comparing schedulers on it** — the new workload immediately runs
   under all four TB schedulers and both launch models.

Usage::

    python examples/custom_workload.py [scale]
"""

import sys

import numpy as np

from repro import experiment_config, simulate
from repro.workloads.base import WarpTrace
from repro.workloads.graph_common import GraphDynWorkload


class PageRankPush(GraphDynWorkload):
    """One push iteration: every vertex scatters rank/degree to its
    neighbours; high-degree vertices delegate the scatter to child TBs."""

    name = "prpush"

    def _alloc_arrays(self) -> None:
        n = self.graph.num_vertices
        self.rank = self.space.alloc("rank", n, elem_bytes=4)
        self.delta = self.space.alloc("delta", n, elem_bytes=4)

    def _load_vertex_state(self, wt: WarpTrace, vertices) -> None:
        wt.load(self.rank, vertices)

    def _inline_step(self, wt: WarpTrace, neighbors, owners, k: int) -> None:
        # read the neighbour's accumulator, add the contribution
        wt.gather(self.delta, neighbors)
        if k % 4 == 3:
            wt.store(self.delta, neighbors)

    def _parent_inspect(self, wt: WarpTrace, v: int, start: int, deg: int) -> None:
        # the parent walks the row while packing the launch descriptor
        wt.load_range(self.col, start, deg)
        wt.compute(max(2, deg // 16))

    def _child_warp(self, wt: WarpTrace, v: int, neighbors: np.ndarray, chunk_start: int) -> None:
        wt.load_range(self.col, chunk_start, len(neighbors))
        wt.load(self.rank, [v])
        wt.gather(self.delta, neighbors)
        wt.compute(4)
        wt.store(self.delta, [int(u) for u in neighbors])


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    print("Building custom PageRank-push workload (citation input) ...")
    workload = PageRankPush("citation", scale=scale)
    spec = workload.kernel()
    print(
        f"  {len(spec.bodies)} parent TBs, "
        f"{workload.space.total_bytes // 1024} KB footprint, "
        f"{workload._next_desc} dynamic launches"
    )

    config = experiment_config()
    for model in ("cdp", "dtbl"):
        print(f"\nScheduler comparison ({model.upper()} launches):")
        base = None
        for scheduler in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            stats = simulate(spec, scheduler, model, config)
            if base is None:
                base = stats.ipc
            print(
                f"  {scheduler:14s} IPC={stats.ipc:6.2f} ({stats.ipc / base:5.2f}x)  "
                f"L1={stats.l1_hit_rate:.3f}  L2={stats.l2_hit_rate:.3f}  "
                f"co-located={stats.child_same_smx_fraction:.2f}"
            )


if __name__ == "__main__":
    main()
